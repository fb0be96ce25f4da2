"""The benchmark's span wrappers and workloads must keep working.

perfbench/run.py checks ``spans.assert_untraced`` in every run, so a module
attribute that disappears from the package fails every benchmark run. The
workloads call the package too: ``run_sweep`` rows,
``fisher_for(...).value_nbar`` and ``optimize_b2(..., n_random_starts=)``.
These tests fail first instead. They load perfbench/spans.py and
perfbench/workloads.py read-only.
"""

import importlib.util
import json
from pathlib import Path

import collide_qfi

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_are_bound_and_untraced():
    spans = load_perfbench("spans")
    spans.assert_untraced(collide_qfi)
    # the traced run counts cache misses through this attribute
    assert callable(collide_qfi.collision.block_collision_superop.cache_info)


def test_benchmark_workloads_run_and_pass_their_checks():
    workloads = load_perfbench("workloads")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in benchmark["workloads"]:
        workload = workloads.WORKLOADS[entry["name"]](collide_qfi, 0)
        inputs = workload.inputs(0)
        result = workload.call(inputs)
        assert workload.check(inputs, result) == [], entry["name"]
        assert workload.digest(workload.call(inputs)) == workload.digest(result)
