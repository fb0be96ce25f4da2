"""Outside-in tracing of the package's layers.

The tracer wraps public functions by rebinding the module attribute their
caller looks up at call time, so the package itself is unchanged. Each
wrapper records a span (name, start, end, parent, task) in memory, and only
while a task is active, so output checks between tasks stay untraced.
``restore`` puts every original attribute back.
"""

from __future__ import annotations

import collections
import functools
import gzip
import statistics
import time

# (module, attribute the caller looks up, span name). A layer is a package
# module; the span carries the name of the module that defines the function.
TARGETS = (
    ("collision", "thermal_kraus", "channels.thermal_kraus"),
    ("collision", "embed_op", "channels.embed_op"),
    ("collision", "block_collision_superop", "collision.block_collision_superop"),
    ("collision", "block_map_superop", "collision.block_map_superop"),
    ("collision", "steady_state", "collision.steady_state"),
    ("fisher", "outgoing_joint_state", "collision.outgoing_joint_state"),
    ("fisher", "qfi", "fisher.qfi"),
    ("qmat", "herm_eigen", "qmat.herm_eigen"),
    ("optimize", "fisher_for", "fisher.fisher_for"),
    ("sweeps", "fisher_for", "fisher.fisher_for"),
    ("optimize", "minimize", "optimize.minimize"),
    ("optimize", "optimize_b1", "optimize.optimize_b1"),
    ("optimize", "optimize_b2", "optimize.optimize_b2"),
    ("sweeps", "run_sweep", "sweeps.run_sweep"),
)
OPTIMIZERS = ("optimize.optimize_b1", "optimize.optimize_b2")
TOP_LEVEL = OPTIMIZERS + ("sweeps.run_sweep",)


def assert_untraced(pkg):
    """Fail unless every target attribute is the function its home module
    (the prefix of the span name) defines, and no wrapper."""
    for mod, attr, name in TARGETS:
        current = getattr(getattr(pkg, mod), attr)
        home = getattr(getattr(pkg, name.split(".")[0]), attr)
        if current is not home or hasattr(current, "__traced_original__"):
            raise AssertionError(f"collide_qfi.{mod}.{attr} is wrapped")


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.spans = []        # (name, start, end, parent index, task)
        self.results = {}      # span index -> observed result fields
        self.raised = collections.Counter()
        self.task = None
        self.cache_misses = 0
        self._stack = []
        self._saved = {}
        self._cached = pkg.collision.block_collision_superop

    def _wrap(self, name, fn):
        spans, stack, results = self.spans, self._stack, self.results

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                # Count each exception once, in the innermost wrapper it
                # passes through, not once per wrapped frame.
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.raised[type(exc).__name__] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.task)
            if name == "optimize.minimize":
                results[index] = (out.nfev, float(out.fun))
            elif name in OPTIMIZERS:
                results[index] = out.evaluations
            elif name == "sweeps.run_sweep":
                results[index] = sum(row.status != "ok" for row in out)
            return out

        wrapper.__traced_original__ = fn
        return wrapper

    def install(self):
        wrappers = {}
        for mod, attr, name in TARGETS:
            module = getattr(self.pkg, mod)
            fn = getattr(module, attr)
            self._saved[(mod, attr)] = fn
            # One wrapper per function, shared by every module that binds it.
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn)
            setattr(module, attr, wrappers[id(fn)])

    def restore(self):
        for (mod, attr), fn in self._saved.items():
            setattr(getattr(self.pkg, mod), attr, fn)
        self._saved = {}
        assert_untraced(self.pkg)

    def run_task(self, k, fn, *args):
        """Run one task with spans recorded and cache misses counted."""
        before = self._cached.cache_info().misses
        self.task = k
        try:
            return fn(*args)
        finally:
            self.task = None
            self.cache_misses += self._cached.cache_info().misses - before

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,task\n")
            for name, start, end, parent, task in self.spans:
                fh.write(f"{name},{start!r},{end!r},"
                         f"{'' if parent is None else parent},{task}\n")


def layer_metrics(tracer: Tracer, n_tasks: int, tie_tol: float) -> dict:
    """Per-layer counts and times from the recorded spans.

    Calls and times are per task; failure counts are totals. Self time is a
    span's duration minus its children's: spans nest on one thread, so
    sibling spans never overlap and their durations sum to the covered part.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    calls = collections.Counter()
    busy = collections.Counter()
    self_s = collections.Counter()
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        busy[name] += end - start
        self_s[name] += end - start - child[i]

    def ancestor(i, names):
        parent = spans[i][3]
        while parent is not None and spans[parent][0] not in names:
            parent = spans[parent][3]
        return parent

    # The first evaluation under each top-level call is the cold one, where
    # the caches fill; embed_op calls outside those are steady-state work.
    cold, seen_top = set(), set()
    fisher_ms, fisher_in_opt = [], 0.0
    for i, (name, start, end, _, _) in enumerate(spans):
        if name != "fisher.fisher_for":
            continue
        fisher_ms.append(1e3 * (end - start))
        top = ancestor(i, TOP_LEVEL)
        if top not in seen_top:
            seen_top.add(top)
            cold.add(i)
        if ancestor(i, OPTIMIZERS) is not None:
            fisher_in_opt += end - start
    steady_embed = sum(
        1 for i, span in enumerate(spans) if span[0] == "channels.embed_op"
        and ancestor(i, ("fisher.fisher_for",)) not in cold)

    evaluations = sum(tracer.results.get(i, 0) for i, s in enumerate(spans)
                      if s[0] in OPTIMIZERS)
    starts = calls["optimize.minimize"] + calls["optimize.optimize_b1"]
    finals = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s[0] == "optimize.minimize":
            finals[ancestor(i, OPTIMIZERS)].append(-tracer.results[i][1])
    # A b=1 call is one scan-and-refine start that ends at its own best.
    successes = calls["optimize.optimize_b1"] + sum(
        sum(v >= max(vals) - tie_tol for v in vals) for vals in finals.values())
    evals = calls["fisher.fisher_for"]

    def per_task(x):
        return x / n_tasks

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in ("channels.thermal_kraus", "channels.embed_op",
                  "collision.block_map_superop", "qmat.herm_eigen",
                  "collision.outgoing_joint_state", "fisher.fisher_for"):
        m[f"{layer}.calls"] = per_task(calls[layer])
    m["channels.embed_op.steady_calls"] = per_task(steady_embed)
    for layer in ("channels.thermal_kraus", "channels.embed_op",
                  "collision.block_collision_superop",
                  "collision.block_map_superop", "collision.outgoing_joint_state",
                  "fisher.fisher_for", "fisher.qfi", "qmat.herm_eigen"):
        m[f"{layer}.self_s"] = per_task(self_s[layer])
    for layer in ("collision.outgoing_joint_state", "fisher.fisher_for",
                  "sweeps.run_sweep"):
        m[f"{layer}.busy_s"] = per_task(busy[layer])
    m["collision.block_collision_superop.misses_per_eval"] = ratio(
        tracer.cache_misses, evals)
    m["collision.steady_state.calls"] = calls["collision.steady_state"]
    many = len(fisher_ms) > 1
    m["fisher.fisher_for.p50_ms"] = statistics.median(fisher_ms) if many else 0.0
    m["fisher.fisher_for.p99_ms"] = (statistics.quantiles(fisher_ms, n=100)[-1]
                                     if many else 0.0)
    m["fisher.builds_per_eval"] = ratio(calls["collision.outgoing_joint_state"], evals)
    m["fisher.rank_change_errors"] = tracer.raised["RankChangeError"]
    m["optimize.evaluations"] = per_task(evaluations)
    m["optimize.evals_per_start"] = ratio(evaluations, starts)
    m["optimize.start_success_ratio"] = ratio(successes, starts)
    m["optimize.driver_self_s"] = per_task(
        sum(busy[n] for n in OPTIMIZERS) - fisher_in_opt)
    m["sweeps.rows_failed"] = sum(tracer.results.get(i, 0)
                                  for i, s in enumerate(spans)
                                  if s[0] == "sweeps.run_sweep")
    return m
