"""Layered benchmark of collide-qfi.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it installs the span wrappers of ``spans.py`` around each traced
task and prints the per-layer metrics. Both modes check every task's output,
also in the child processes: the fresh interpreters that time set-up, and in
the traced mode two workers that run the traced tasks untraced. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give each metric with its sample
count and a record of the host. The full record, and in the traced mode
every span, is written under ``perfbench_out/``.

The end-to-end times are scaled for the host's speed by a reference kernel
run around each timed interval (see ``ReferenceKernel``), and the
end-to-end run uses one BLAS thread (see ``PINNED_BLAS``).

The package is imported from ``src/`` next to this directory. Without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench_out")

SETUP_RUNS = 5
# The tail is the highest percentile with at least this many tasks beyond it.
TAIL_BEYOND = 10
# A child gets this long to run task 0, and a worker this long for each
# task it is sent; neither depends on --seconds.
CHILD_TIMEOUT_S = 60
# Host speed. On a shared host the same task runs up to 1.8 times as long in
# spells that last from a second to minutes, with thread CPU time tracking
# wall time. So every timed interval of the end-to-end run is bracketed by a
# fixed reference kernel that does not touch the package, and the interval
# is reported scaled to a host on which that kernel takes REF_NOMINAL_S.
REF_REPS = 400
REF_NOMINAL_S = 0.015
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The end-to-end run sets every BLAS_VARS to 1 for itself and its children.
# Under the default threading a second BLAS thread spins on the other core
# for the whole run, so the run's times follow the load of that core; the
# traced run keeps the variables as found, and host.blas1_solve_ratio
# measures what the default threading costs.
PINNED_BLAS = {var: "1" for var in BLAS_VARS}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def import_package():
    """Import collide_qfi from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "collide_qfi", "__init__.py")):
        raise SetupError(f"no collide_qfi package under {SRC}")
    sys.path.insert(0, SRC)
    import collide_qfi
    import collide_qfi.cli  # noqa: F401  (the entry point users import)
    if os.path.dirname(os.path.dirname(os.path.abspath(collide_qfi.__file__))) != SRC:
        raise SetupError(f"collide_qfi resolved to {collide_qfi.__file__}")
    return collide_qfi


def make_runner(args):
    """Import collide_qfi, then the workloads, and return (runner, package,
    import seconds). The workloads import numpy, so importing them first would
    take numpy's import out of the measured import time."""
    start = time.perf_counter()
    pkg = import_package()
    import_s = time.perf_counter() - start
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
    return Runner(workloads.WORKLOADS[args.workload](pkg, args.seed)), pkg, import_s


def host_record(found: dict) -> dict:
    """The host, with the BLAS thread variables as ``found`` at start and
    as this run uses them."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        **found,
        "blas_vars_used": {var: os.environ.get(var) for var in BLAS_VARS},
    }


class ReferenceKernel:
    """Fixed work of the package's kind, independent of the package and of
    the seed: a complex 64x64 mat-vec, a 4x4 ``eigh``, a small ``kron`` and
    a short Python loop, repeated REF_REPS times. Calling it returns its wall
    seconds."""

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.mat = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.vec = rng.standard_normal(64) + 0j
        h = rng.standard_normal((4, 4))
        self.herm = h + h.T
        self.small = rng.standard_normal((2, 2))
        self.eye = np.eye(4)
        self()  # warm-up

    def __call__(self) -> float:
        np = self.np
        start = time.perf_counter()
        for _ in range(REF_REPS):
            self.mat @ self.vec
            np.linalg.eigh(self.herm)
            np.kron(self.small, self.eye)
            acc = 0.0
            for i in range(50):
                acc += i * 0.5
        return time.perf_counter() - start

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """``seconds`` as it would read on the nominal host, given the
        kernel's times just before and just after the interval."""
        return seconds * REF_NOMINAL_S / (0.5 * (before + after))


def tail(times):
    """(value, percentile) of the highest percentile of ``times`` that has at
    least TAIL_BEYOND samples beyond it; the slowest sample when there are
    too few samples for that."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


class Runner:
    """Runs a workload's tasks in this process, checking each output."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.tracer = None
        self.setups = []  # records of the setup children that passed

    def fail(self, problems):
        self.failed += 1
        self.failures += problems

    def task(self, k):
        """Run task k; return (wall seconds or None if it failed, result)."""
        wl = self.wl
        inputs = wl.inputs(k)
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = wl.call(inputs)
            else:
                result = self.tracer.run_task(k, wl.call, inputs)
        except Exception as exc:  # a failed task is counted, not fatal
            self.fail([f"task {k}: {type(exc).__name__}: {exc}"])
            return None, None
        elapsed = time.perf_counter() - start
        problems = wl.check(inputs, result)
        if problems:
            self.fail([f"task {k}: {p}" for p in problems])
            return None, result
        return elapsed, result

    def setup_child(self, args, ref=None):
        """Time task 0 in a fresh interpreter; a crash or a failed check
        counts as a failed attempt. With a reference kernel ``ref``, the
        record's ``scaled_s`` is its ``wall_s`` scaled to the nominal host."""
        self.attempted += 1
        before = ref() if ref is not None else None
        try:
            record = spawn_setup(args)
        except ChildError as exc:
            self.fail([str(exc)])
            return
        if ref is not None:
            record["scaled_s"] = ref.scale(record["wall_s"], before, ref())
        if record["failures"]:
            self.fail([f"setup child: {f}" for f in record["failures"]])
        else:
            self.setups.append(record)

    def timed(self, first, seconds, min_tasks, ref):
        """Run tasks first, first+1, ... for ``seconds`` and at least
        ``min_tasks`` tasks, with the reference kernel ``ref`` between
        tasks. Return the wall and the scaled times of the tasks that
        passed, and the next task index."""
        wall, scaled, k = [], [], first
        deadline = time.perf_counter() + seconds
        before = ref()
        while time.perf_counter() < deadline or k - first < min_tasks:
            elapsed, _ = self.task(k)
            after = ref()
            if elapsed is not None:
                wall.append(elapsed)
                scaled.append(ref.scale(elapsed, before, after))
            before = after
            k += 1
        return wall, scaled, k


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_main(args) -> int:
    """Fresh-interpreter work for the parent, answered as JSON lines. A setup
    child runs task 0 and prints one line. A worker runs each task index it
    reads from standard input and prints one line per task."""
    runner, _, import_s = make_runner(args)
    if args.child == "setup":
        _, result = runner.task(0)
        out = {"done": time.clock_gettime(time.CLOCK_MONOTONIC),
               "import_s": import_s, "failures": runner.failures,
               "digest": None if result is None else runner.wl.digest(result)}
        print(json.dumps(out), flush=True)
        return 0
    for line in sys.stdin:
        elapsed, _ = runner.task(int(line))
        print(json.dumps({"task_s": elapsed, "failures": runner.failures}),
              flush=True)
        runner.failures = []
    return 0


def child_cmd(args, child):
    return [sys.executable, os.path.abspath(__file__), "--child", child,
            "--workload", args.workload, "--seed", str(args.seed)]


class ChildError(RuntimeError):
    """A child process crashed, timed out or answered nonsense."""


def spawn_setup(args) -> dict:
    """Run task 0 in a fresh interpreter and return the record it prints.
    ``wall_s`` runs from the spawn to the child's first checked result, on
    the system-wide monotonic clock."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(child_cmd(args, "setup"), stdout=subprocess.PIPE,
                              cwd=ROOT, text=True, timeout=CHILD_TIMEOUT_S,
                              check=True)
        record = json.loads(proc.stdout.splitlines()[-1])
    except (subprocess.SubprocessError, IndexError, ValueError) as exc:
        raise ChildError(f"setup child: {exc}") from exc
    record["wall_s"] = record["done"] - start
    return record


class Worker:
    """A fresh interpreter that runs the tasks it is sent, one at a time, and
    answers each with its wall time. ``env`` is its whole environment."""

    def __init__(self, args, label, env):
        self.label = label
        self.proc = subprocess.Popen(child_cmd(args, "worker"), env=env,
                                     cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, k):
        """Run task k; return (seconds or None if it failed, failures)."""
        where = f"{self.label} worker, task {k}"
        try:
            self.proc.stdin.write(f"{k}\n")
            self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        CHILD_TIMEOUT_S)
            if not ready:
                raise ChildError(f"{where}: no answer in {CHILD_TIMEOUT_S} s")
            line = self.proc.stdout.readline()
            if not line:
                raise ChildError(f"{where}: the worker ended")
            answer = json.loads(line)
        except (OSError, ValueError) as exc:
            raise ChildError(f"{where}: {exc}") from exc
        return answer["task_s"], answer["failures"]

    def close(self):
        """End the worker and wait for it; kill it if it does not end."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------------------
# Parent
# ---------------------------------------------------------------------------

def metric_spec(key: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def median_of(times, what):
    if not times:
        raise SetupError(f"no {what} task passed its check")
    return statistics.median(times)


def measure(args, pkg, runner, record):
    """Untraced end-to-end metrics, with a note on each metric's samples. The
    setup children are spread over the timed window, one before each of
    SETUP_RUNS equal slices, so that a slow spell of the host reaches few.
    Every time is scaled by the reference kernel run around it."""
    ref = ReferenceKernel()
    wall, times, k = [], [], 1
    for _ in range(SETUP_RUNS):
        runner.setup_child(args, ref)
        spans.assert_untraced(pkg)
        more_wall, more, k = runner.timed(
            k, args.seconds / SETUP_RUNS,
            math.ceil((TAIL_BEYOND + 1) / SETUP_RUNS), ref)
        wall += more_wall
        times += more
    spans.assert_untraced(pkg)
    tail_s, tail_pct = tail(times)
    setups = runner.setups
    record["task_s"] = wall
    record["scaled_task_s"] = times
    scaled = f"scaled to a {REF_NOMINAL_S} s reference kernel"
    record["notes"] = {
        "setup_s": f"median of {len(setups)} fresh interpreters, {scaled}; "
                   f"wall median {median_of([s['wall_s'] for s in setups], 'setup'):.6g} s",
        "solve_s": f"median of {len(times)} tasks, {scaled}; "
                   f"wall median {median_of(wall, 'timed'):.6g} s",
        "solve_s_tail": f"p{tail_pct:.1f} of {len(times)} tasks, {scaled}",
        "success_rate": f"{runner.attempted - runner.failed} of "
                        f"{runner.attempted} tasks passed",
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    return {
        "setup_s": median_of([s["scaled_s"] for s in setups], "setup"),
        "solve_s": median_of(times, "timed"),
        "solve_s_tail": tail_s,
        "success_rate": 1.0 - runner.failed / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_layers(args, pkg, runner, record):
    """Per-layer metrics from traced tasks in this process. Each traced task
    index also runs, untraced, in a worker under this environment and in a
    worker with OPENBLAS_NUM_THREADS=1; the three sides take turns going
    first. Every process sees each index once, so each keeps the cache state
    of an untraced run, and the two ratios compare the same tasks."""
    for _ in range(SETUP_RUNS):
        runner.setup_child(args)
    setups = runner.setups
    tracer = spans.Tracer(pkg)

    def traced(k):
        tracer.install()
        runner.tracer = tracer
        try:
            return runner.task(k)[0]
        finally:
            runner.tracer = None
            tracer.restore()

    workers = [Worker(args, "untraced", dict(os.environ)),
               Worker(args, "OPENBLAS_NUM_THREADS=1",
                      dict(os.environ, OPENBLAS_NUM_THREADS="1"))]

    def on_worker(worker):
        def run(k):
            if worker.proc.returncode is not None:
                return None  # already failed; that failure was counted
            runner.attempted += 1
            try:
                elapsed, failures = worker.run(k)
            except ChildError as exc:
                runner.fail([str(exc)])
                worker.proc.kill()
                worker.proc.wait()
                return None
            if failures:
                runner.fail([f"{worker.label} worker: {f}" for f in failures])
            return elapsed
        return run

    sides = (traced, *(on_worker(w) for w in workers))
    times = ({}, {}, {})
    try:
        for run in sides[1:]:
            run(0)  # the workers' cold task, untimed
        deadline = time.perf_counter() + args.seconds
        k = 1
        while time.perf_counter() < deadline or k <= 2:
            for i in range(3):
                side = (k + i) % 3
                times[side][k] = sides[side](k)
            k += 1
    finally:
        for w in workers:
            w.close()
    spans.assert_untraced(pkg)
    tasks = k - 1

    def matched_ratio(a, b, what):
        both = [j for j in times[a] if times[a][j] is not None
                and times[b][j] is not None]
        if not both:
            raise SetupError(f"no task passed on both sides of {what}")
        return (statistics.median(times[a][j] for j in both)
                / statistics.median(times[b][j] for j in both)), len(both)

    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz"))
    m = spans.layer_metrics(tracer, tasks, pkg.optimize.TIE_TOL)
    m["cli.import_s"] = median_of([s["import_s"] for s in setups], "setup")
    m["trace.overhead_ratio"], n_trace = matched_ratio(0, 1, "the trace ratio")
    m["host.blas1_solve_ratio"], n_blas = matched_ratio(1, 2, "the BLAS ratio")
    record["task_s"] = {name: times[i] for i, name in
                        enumerate(("traced", "untraced", "blas1"))}
    record["notes"] = {
        "tasks": f"{tasks} traced, each also run in both workers",
        "spans": f"{len(tracer.spans)} recorded",
        "cli.import_s": f"median of {len(setups)} fresh interpreters",
        "trace.overhead_ratio": f"medians over {n_trace} matched tasks",
        "host.blas1_solve_ratio": f"medians over {n_blas} matched tasks",
    }
    return m


def report(args, metrics, units, record, runner):
    """Print the human-readable lines, write the record, print the result."""
    failed, attempted = runner.failed, runner.attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}
    record.update(result, failures=runner.failures)
    notes = record["notes"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<50} {metrics[name]:>12.6g} {units[name]}{note}")
    print(f"  error_rate {failed}/{attempted} = {failed / attempted:.6g}")
    for key in notes.keys() - units.keys():
        print(f"  {key}: {notes[key]}")
    for problem in runner.failures[:10]:
        print(f"  FAILED {problem}")
    print("  host " + json.dumps(record["host"]))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "worker"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.child:
            return child_main(args)
        units = metric_spec("per_layer" if args.trace else "end_to_end")
        found = {var: os.environ.get(var) for var in BLAS_VARS}
        if not args.trace:
            os.environ.update(PINNED_BLAS)  # before numpy is imported
        runner, pkg, _ = make_runner(args)
        _, result = runner.task(0)  # warm-up
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "host": host_record(found)}
        measure_fn = measure_layers if args.trace else measure
        metrics = measure_fn(args, pkg, runner, record)
        # The warm-up must repeat every setup child's task 0 bit for bit.
        digests = [s["digest"] for s in runner.setups]
        if result is not None and any(d != runner.wl.digest(result)
                                      for d in digests):
            runner.fail(["task 0 not bit-identical across fresh processes: "
                         f"{digests} vs {runner.wl.digest(result)}"])
    except (SetupError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    if set(metrics) != set(units):
        print("perfbench: metric names differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 3
    report(args, metrics, units, record, runner)
    return 0


if __name__ == "__main__":
    sys.exit(main())
