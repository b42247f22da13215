"""Tiny-size smoke of each workload: its gate passes on the program's own
answers and rejects one injected wrong answer."""

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

import layers
import workloads
from conftest import BENCH


def _perturb(cells: dict, field: str = "partitioned_ii") -> None:
    for key, m in cells.items():
        cells[key] = dataclasses.replace(m, **{field: getattr(m, field) + 1})


def _run(wl):
    wl.min_reps = 1
    wl.setup()
    return wl.measure()


def test_paper_regalloc_gate(tmp_path):
    wl = workloads.PaperRegalloc(7, 0, tmp_path, n_loops=4)
    out = _run(wl)
    assert out.failed == 0 and out.attempted == 4 * 6
    assert out.metrics["decided_share"] == 1.0 and out.metrics["wall_s"] > 0
    assert len(wl.scales) == 1 and wl.scales[0] > 0  # one chunk, one pass
    assert wl.gate() == []
    _perturb(wl.cells, "n_body_copies")
    problems = wl.gate()
    assert problems and "n_body_copies" in problems[0]


def test_paper_regalloc_gate_accepts_a_consistent_failure(tmp_path, monkeypatch):
    # a cell the timed run fails is fine when the checked re-run fails it
    # the same way (the program's typed answer), and is counted as failed
    wl = workloads.PaperRegalloc(7, 0, tmp_path, n_loops=4)
    wl.min_reps = 1
    wl.setup()
    monkeypatch.setenv("REPRO_FAULT_RAISE", wl.loops[0].name)
    out = wl.measure()
    assert out.failed == 6 and out.metrics["decided_share"] < 1
    wl.check_loops = len(wl.loops)
    assert wl.gate() == []


def test_paper_regalloc_traced_run_reports_regalloc(tmp_path):
    wl = workloads.PaperRegalloc(7, 0, tmp_path, n_loops=3)
    wl.setup()
    rec = layers.Recorder()
    out, extra = wl.trace(rec)
    assert extra["runner.cache_hit_rate"] > 0
    assert any(s.name == "regalloc.color" for s in rec.spans)
    assert wl.gate() == []


def test_gap_exact_gate(tmp_path):
    wl = workloads.GapExact(7, 0, tmp_path, prefix=6)
    out = _run(wl)
    assert out.failed == 0
    assert 0 < out.metrics["decided_share"] <= 1
    assert wl.gate() == []
    greedy, exact = wl.legs
    # the greedy leg is an independent judge: a greedy answer one copy
    # better than the exact solver's greedy start is caught
    kept = dict(greedy.per_config)
    for label, ms in kept.items():
        greedy.per_config[label] = [
            dataclasses.replace(m, n_body_copies=m.n_body_copies - 1) for m in ms]
    problems = wl.gate()
    assert problems and "greedy leg compiled" in problems[0]
    greedy.per_config.update(kept)
    assert wl.gate() == []
    for label, ms in exact.per_config.items():
        exact.per_config[label] = [
            dataclasses.replace(m, exact_cost=m.exact_warm_cost + 1,
                                exact_bound=m.exact_warm_cost + 1)
            if m.exact_proven else m
            for m in ms
        ]
    problems = wl.gate()
    assert problems and "exact worse than greedy" in problems[0]


def test_serve_warm_gate_and_shutdown(tmp_path):
    wl = workloads.ServeWarm(7, 0, tmp_path, n_loops=6)
    wl.requests_per_loop = 4
    try:
        out = _run(wl)
        daemon = wl.daemon
        assert out.failed == 0 and out.attempted == len(wl.plan) == 6 * 4
        assert len(wl.latencies) == len(wl.plan)
        assert not wl.inconsistent
        assert wl.gate() == []
        _perturb(wl.served)
        problems = wl.gate()
        assert problems and "partitioned_ii" in problems[0]
    finally:
        wl.close()
    assert daemon.proc.poll() is not None
    assert not wl.work.exists()


def test_serve_warm_traced_run_reads_each_cell_from_disk_once(tmp_path):
    wl = workloads.ServeWarm(7, 0, tmp_path, n_loops=3)
    wl.requests_per_loop = 2
    try:
        wl.setup()
        rec = layers.Recorder()
        _out, extra = wl.trace(rec)
        # a newly started daemon: the first request for a cell reads disk
        assert extra["store.hits_l2"] == 3 * 6
        assert extra["store.hits_l1"] == 3 * 6 * (2 - 1)
        assert extra["store.misses"] == 0
        assert sum(s.name == "serve.request" for s in rec.spans) == 3 * 2
        assert wl.gate() == []
    finally:
        wl.close()


@pytest.mark.parametrize("keep", [["BENCHMARK.json", "perfbench"]])
def test_fails_without_the_program(tmp_path, keep):
    for name in keep:
        src = BENCH.parent / name
        if src.is_dir():
            shutil.copytree(src, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(src, tmp_path / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_regalloc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
