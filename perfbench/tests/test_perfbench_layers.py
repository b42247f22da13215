import importlib

import pytest

import layers
from layers import Recorder, Span, self_times


def _sites():
    """(owner, attribute) of every name the traced run patches."""
    sites = []
    for module_name, attr, _name, _after in layers.FUNCTION_SITES:
        sites.append((importlib.import_module(module_name), attr))
    passes = importlib.import_module("repro.core.passes")
    sites += [(getattr(passes, cls), "run") for cls in layers.PASS_CLASSES]
    coloring = importlib.import_module("repro.regalloc.coloring")
    sites.append((coloring.ColoringResult, "verify"))
    client = importlib.import_module("repro.serve.client")
    sites += [(client.ServeClient, a) for a in ("_request", "_response", "submit")]
    return sites


def test_wrappers_install_and_restore_every_name():
    sites = _sites()
    before = [owner.__dict__[attr] for owner, attr in sites]
    with layers.installed(Recorder()):
        during = [owner.__dict__[attr] for owner, attr in sites]
    after = [owner.__dict__[attr] for owner, attr in sites]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


def test_wrappers_are_restored_when_the_traced_phase_raises():
    sites = _sites()
    before = [owner.__dict__[attr] for owner, attr in sites]
    with pytest.raises(RuntimeError):
        with layers.installed(Recorder()):
            raise RuntimeError("boom")
    assert all(owner.__dict__[attr] is b for (owner, attr), b in zip(sites, before))


def test_traced_compile_records_nested_layer_spans():
    from repro.core.context import PipelineConfig
    from repro.evalx.runner import run_evaluation
    from repro.workloads.kernels import NAMED_KERNELS

    rec = Recorder()
    with layers.installed(rec), rec.span("bench"):
        run = run_evaluation([NAMED_KERNELS["daxpy"]()],
                             config=PipelineConfig(run_regalloc=True))
    rec.finish()
    assert not run.failures
    names = {s.name for s in rec.spans}
    assert {"pipeline.compile_loop", "pass.BuildDDG", "ddg.build", "sched.ideal",
            "sched.cluster", "rcg.build", "greedy.partition", "copies.insert",
            "regalloc.assign", "regalloc.interference", "regalloc.verify"} <= names
    by_index = dict(enumerate(rec.spans))
    for s in rec.spans:
        if s.parent is not None:
            parent = by_index[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    assert rec.counts["sched.cluster_calls"] == 6
    assert rec.counts["regalloc.attempts"] == 6
    assert "sched.ii_excess" in rec.counts
    # self times partition the root span exactly
    root = rec.spans[0]
    assert sum(self_times(rec.spans).values()) == pytest.approx(root.end - root.start)


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 2),    # overlaps a (another thread): union counts once
        Span("a.x", 2.0, 3.0, 1, 1),
        Span("b.y", 5.0, 7.0, 2, 2),  # runs past its parent: clipped
        Span("a", 8.0, 9.0, 0, 1),    # same name twice: summed
    ]
    st = self_times(spans)
    assert st["root"] == pytest.approx(10.0 - (6.0 - 1.0) - 1.0)
    assert st["a"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert st["b"] == pytest.approx(3.0 - 1.0)
    assert st["a.x"] == pytest.approx(1.0)
    assert st["b.y"] == pytest.approx(2.0)


def test_covered_merges_and_clips():
    assert layers.covered([], 0, 1) == 0
    assert layers.covered([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == pytest.approx(3.0)
