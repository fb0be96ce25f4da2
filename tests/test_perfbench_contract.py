"""The names the benchmark's span wrappers rebind must stay bound.

perfbench/run.py checks ``spans.assert_untraced`` in every run, so a module
attribute that disappears from the package fails every benchmark run. This
test fails first instead. It loads perfbench/spans.py read-only.
"""

import importlib.util
from pathlib import Path

import collide_qfi

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_are_bound_and_untraced():
    spans = load_spans()
    spans.assert_untraced(collide_qfi)
    # the traced run counts cache misses through this attribute
    assert callable(collide_qfi.collision.block_collision_superop.cache_info)
