import json

import catalogue
from conftest import BENCH


def _all_metrics():
    return list(catalogue.END_TO_END) + list(catalogue.PER_LAYER)


def test_benchmark_json_is_generated_from_the_catalogue():
    on_disk = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert on_disk == catalogue.benchmark_json()


def test_metric_names_and_units_are_well_formed_and_unique():
    names = [m["name"] for m in _all_metrics()]
    assert len(names) == len(set(names))
    for m in _all_metrics():
        assert catalogue.NAME_RE.fullmatch(m["name"]), m["name"]
        assert catalogue.UNIT_RE.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    workload_names = [w["name"] for w in catalogue.WORKLOADS]
    assert all(catalogue.NAME_RE.fullmatch(n) for n in workload_names)
    assert not set(workload_names) & set(names)


def test_every_metric_says_what_it_should_move():
    workloads = {w["name"] for w in catalogue.WORKLOADS}
    end_to_end = {m["name"] for m in catalogue.END_TO_END}
    for m in _all_metrics():
        assert m["layer"] and m["moves"], m["name"]
        for move in m["moves"]:
            assert move["metric"] in end_to_end
            assert set(move["workloads"]) <= workloads


def test_bounds_and_workload_records():
    bounds = {m["name"]: m["bound"] for m in catalogue.END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all("bound" not in m for m in catalogue.PER_LAYER)
    for w in catalogue.WORKLOADS:
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
        assert w["bypasses"]
