"""Every workload and metric of the benchmark, with what it is for.

``BENCHMARK.json`` at the repository root holds only the keys its
format allows; this module is the fuller record it is generated from
(``python3 perfbench/catalogue.py`` prints it, and a test keeps the two
equal).  Each metric names its layer and, as ``moves``, which
end-to-end metric on which workloads a change to it should move.  Each
workload names the layers it bypasses: a change confined to one of them
is predicted to leave that workload's numbers unchanged.
"""

from __future__ import annotations

import json
import re

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

ALL = ("paper_regalloc", "gap_exact", "serve_warm")
PAPER, GAP, SERVE = ALL

WORKLOADS = (
    {
        "name": PAPER,
        "why": "Tables 1-2 as a researcher regenerates them: full seeded "
               "corpus x 6 configs with regalloc, serial in-process; "
               "regalloc, IMS and greedy do the work",
        "bypasses": ["store", "serve", "exact"],
    },
    {
        "name": GAP,
        "why": "repro gap: greedy then exact legs over the seeded corpus, "
               "jobs=2, 50 ms per-cell budget at reference host speed; the "
               "exact oracle and the runner's pool and deadline path do the work",
        "bypasses": ["regalloc", "store", "serve"],
    },
    {
        "name": SERVE,
        "why": "repro serve on a store pre-filled with the seeded corpus; a "
               "closed loop of 2 clients sends loop x 6-config requests, all "
               "answered from the store; store and serve do the work",
        # no request compiles (see workloads.ServeWarm)
        "bypasses": ["core.passes", "ddg", "sched", "core.rcg", "core.greedy",
                     "core.copies", "regalloc", "exact"],
    },
)


def _m(name, unit, better, layer, moves, bound=None):
    doc = {"name": name, "unit": unit, "better": better, "layer": layer,
           "moves": moves}
    if bound is not None:
        doc["bound"] = bound
    return doc


def _wall(*workloads):
    return [{"metric": "wall_s", "workloads": list(workloads)}]


#: what a user of the system sees; every workload reports every one
END_TO_END = (
    _m("setup_s", "s", "lower", "end_to_end",
       [{"metric": "setup_s", "workloads": list(ALL)}], bound=0.25),
    _m("wall_s", "s", "lower", "end_to_end",
       [{"metric": "wall_s", "workloads": list(ALL)}], bound=0.24),
    _m("peak_rss_mb", "MB", "lower", "end_to_end",
       [{"metric": "peak_rss_mb", "workloads": list(ALL)}], bound=0.15),
    _m("kernel_norm", "%", "lower", "end_to_end",
       [{"metric": "kernel_norm", "workloads": list(ALL)}], bound=0.15),
    _m("copies_per_cell", "count", "lower", "end_to_end",
       [{"metric": "copies_per_cell", "workloads": list(ALL)}], bound=0.24),
    _m("decided_share", "ratio", "higher", "end_to_end",
       [{"metric": "decided_share", "workloads": list(ALL)}], bound=0.15),
)

_PASS_MOVES = _wall(PAPER)
_SERVE_LAT = [{"metric": "wall_s", "workloads": [SERVE]}]

#: one layer each; reported by the traced run (``--trace 1``) only
PER_LAYER = (
    _m("workloads.corpus_s", "s", "lower", "workloads",
       [{"metric": "setup_s", "workloads": list(ALL)}]),
    _m("runner.overhead_s", "s", "lower", "evalx.runner", _wall(PAPER, GAP)),
    _m("runner.cache_hit_rate", "ratio", "higher", "evalx.runner",
       _wall(PAPER, GAP)),
    _m("runner.timeouts", "count", "lower", "evalx.runner",
       _wall(GAP) + [{"metric": "decided_share", "workloads": [GAP]}]),
    _m("pipeline.compile_loop_s", "s", "lower", "core.pipeline", _PASS_MOVES),
    *(
        _m(f"pass.{name}_s", "s", "lower", "core.passes", _PASS_MOVES)
        for name in (
            "StoreLookup", "BuildDDG", "IdealSchedule", "PartitionPass",
            "SpillRetryLoop", "InsertCopies", "ClusterReschedule",
            "AssignBanks", "SpillRepartition", "SimulateCheck",
            "CheckOracles", "ComputeMetrics", "StoreWrite",
        )
    ),
    _m("ddg.build_s", "s", "lower", "ddg", _PASS_MOVES),
    _m("ddg.builds", "count", "lower", "ddg", _PASS_MOVES),
    _m("sched.ideal_s", "s", "lower", "sched", _PASS_MOVES),
    _m("sched.ideal_calls", "count", "lower", "sched", _PASS_MOVES),
    _m("sched.cluster_s", "s", "lower", "sched", _PASS_MOVES),
    _m("sched.cluster_calls", "count", "lower", "sched", _PASS_MOVES),
    _m("sched.validate_s", "s", "lower", "sched", _PASS_MOVES),
    _m("sched.ii_excess", "count", "lower", "sched",
       _PASS_MOVES + [{"metric": "kernel_norm", "workloads": list(ALL)}]),
    *(
        _m(name, unit, "lower", layer,
           _wall(PAPER) + [{"metric": "copies_per_cell", "workloads": [PAPER]}])
        for name, unit, layer in (
            ("rcg.build_s", "s", "core.weights"),
            ("rcg.nodes", "count", "core.rcg"),
            ("rcg.edges", "count", "core.rcg"),
            ("greedy.partition_s", "s", "core.greedy"),
            ("greedy.calls", "count", "core.greedy"),
        )
    ),
    *(
        _m(name, unit, "lower", "core.copies",
           [{"metric": "copies_per_cell", "workloads": list(ALL)},
            {"metric": "kernel_norm", "workloads": list(ALL)}])
        for name, unit in (("copies.insert_s", "s"), ("copies.inserted", "count"))
    ),
    *(
        _m(f"regalloc.{name}", unit, better, "regalloc", _wall(PAPER))
        for name, unit, better in (
            ("assign_s", "s", "lower"), ("liveness_s", "s", "lower"),
            ("mve_s", "s", "lower"), ("interference_s", "s", "lower"),
            ("color_s", "s", "lower"), ("verify_s", "s", "lower"),
            ("spill_s", "s", "lower"), ("attempts", "count", "lower"),
            ("success_ratio", "ratio", "higher"),
            ("interference_nodes", "count", "lower"),
        )
    ),
    _m("regalloc.spilled_registers", "count", "lower", "regalloc",
       _wall(PAPER) + [{"metric": "kernel_norm", "workloads": [PAPER]}]),
    *(
        _m(f"exact.{name}", unit, better, "exact",
           _wall(GAP) + [{"metric": "decided_share", "workloads": [GAP]}])
        for name, unit, better in (
            ("problem_s", "s", "lower"), ("solve_s", "s", "lower"),
            ("nodes", "count", "lower"), ("nodes_per_s", "1/s", "higher"),
            ("proven", "count", "higher"),
        )
    ),
    *(
        _m(f"store.{name}", unit, better, "store", _SERVE_LAT)
        for name, unit, better in (
            ("hits_l1", "count", "higher"), ("hits_l2", "count", "higher"),
            ("misses", "count", "lower"), ("hit_rate", "ratio", "higher"),
        )
    ),
    _m("serve.request_s", "s", "lower", "serve", _SERVE_LAT),
    *(
        _m(f"serve.{name}", unit, better, "serve", _SERVE_LAT)
        for name, unit, better in (
            ("accept_ms", "ms", "lower"), ("first_cell_ms", "ms", "lower"),
            ("server_ms", "ms", "lower"), ("transport_ms", "ms", "lower"),
            ("refused", "count", "lower"), ("requests_per_s", "1/s", "higher"),
            ("warm_p50_ms", "ms", "lower"), ("warm_p99_ms", "ms", "lower"),
        )
    ),
    *(
        _m(f"trace.{name}", unit, better, "trace",
           [{"metric": "wall_s", "workloads": list(ALL)}])
        for name, unit, better in (
            ("wall_s", "s", "lower"), ("untraced_wall_s", "s", "lower"),
            ("overhead_s", "s", "lower"), ("coverage", "ratio", "higher"),
        )
    ),
)

#: per-layer counts of the traced run that must repeat exactly for a
#: seed (the steadiness self-check in ``steady.py``).  Not on gap_exact,
#: where the wall-clock budget decides which cells get past partitioning.
LAYER_COUNTS = (
    "ddg.builds", "sched.ideal_calls", "sched.cluster_calls", "sched.ii_excess",
    "rcg.nodes", "rcg.edges", "greedy.calls", "copies.inserted",
    "regalloc.attempts", "regalloc.interference_nodes",
    "regalloc.spilled_registers", "exact.nodes", "exact.proven",
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document (only the keys its format has)."""
    keep = ("name", "unit", "better", "bound")
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [{k: m[k] for k in keep if k in m} for m in END_TO_END],
        "per_layer": [
            {k: m[k] for k in keep if k in m} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
