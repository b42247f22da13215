#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_regalloc --seed 7 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports every end-to-end
metric; ``--trace 1`` runs it once untraced and once with the layer
wrappers of ``layers.py`` installed, and reports every per-layer metric
(self times, counts, the tracing overhead).  Set-up (a fresh interpreter
importing the program, then the workload's own set-up) runs three times
and ``setup_s`` is the median (with any set-ups the workload repeats
while it measures).  Reported times are scaled to a reference host
speed by probes taken around each timed interval (``Workload.scaled``);
``host_scale`` prints the median factor.  Either way the workload's correctness
gate runs after the timed phase; a wrong answer prints the mismatch to
stderr and exits 1 without a result.  The last line of standard output
is the result as one JSON object.  Workloads and metrics are described
in ``catalogue.py``; ``python3 -m pytest perfbench/tests`` runs the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import traceback
from pathlib import Path

import catalogue
import layers
import steady

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def per_layer(rec: layers.Recorder, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from the recorder plus workload extras."""
    selfs = layers.self_times(rec.spans)
    counts, samples = rec.counts, rec.samples
    derived = {
        "regalloc.success_ratio": (
            counts["regalloc.successes"] / counts["regalloc.attempts"]
            if counts.get("regalloc.attempts") else 0.0
        ),
        "exact.nodes_per_s": (
            counts["exact.nodes"] / counts["exact.solved_s"]
            if counts.get("exact.solved_s") else 0.0
        ),
    }
    roots = sum(s.end - s.start for s in rec.spans if s.name == "bench")
    extra.setdefault("trace.wall_s", roots)
    extra["trace.overhead_s"] = extra["trace.wall_s"] - extra["trace.untraced_wall_s"]
    extra["trace.coverage"] = 1.0 - selfs.get("bench", 0.0) / roots if roots else 0.0
    out = {}
    for m in catalogue.PER_LAYER:
        name = m["name"]
        if name in extra:
            value = extra[name]
        elif name in derived:
            value = derived[name]
        elif name in counts:
            value = counts[name]
        elif name in samples:
            value = statistics.median(samples[name])
        elif name.endswith("_s"):
            value = selfs.get(name[:-2], 0.0)
        else:
            value = 0.0
        out[name] = float(value)
    return out


def layer_table(rec: layers.Recorder) -> list[str]:
    """Self time grouped by layer (span name up to the first dot)."""
    by_layer: dict[str, float] = {}
    for name, seconds in layers.self_times(rec.spans).items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    total = sum(by_layer.values()) or 1.0
    return [f"  {layer:<12}{seconds:>10.3f} s {100 * seconds / total:>6.1f}%"
            for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1])]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, OUT_DIR)
    rec = layers.Recorder() if args.trace else None
    try:
        for _ in range(SETUP_REPS):
            wl.fresh_setup()
        if rec is None:
            outcome = wl.measure()
            outcome.metrics["setup_s"] = statistics.median(wl.setup_times)
            outcome.samples["setup_s"] = wl.setup_times
            wl.info["host_scale"] = statistics.median(wl.scales)
            metrics = {m["name"]: outcome.metrics[m["name"]] for m in catalogue.END_TO_END}
            specs = catalogue.END_TO_END
        else:
            outcome, extra = wl.trace(rec)
            rec.finish()
            extra["workloads.corpus_s"] = statistics.median(wl.corpus_s)
            metrics = per_layer(rec, extra)
            outcome.counts.update({k: int(rec.counts.get(k, 0)) for k in wl.layer_counts})
            specs = catalogue.PER_LAYER
            (OUT_DIR / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps(rec.to_json()), encoding="utf-8")
        problems = wl.gate()
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        wl.close()

    session = OUT_DIR / "session.jsonl"
    run = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "program": steady.program_fingerprint(ROOT), "counts": outcome.counts}
    problems += steady.session_problems(session, run)
    for note in wl.notes:
        print(f"perfbench: note: {note}", file=sys.stderr)
    if problems:
        print(f"perfbench: {args.workload} seed {args.seed}: wrong answer; "
              f"no numbers published", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    steady.record(session, run)

    units = {m["name"]: m["unit"] for m in specs}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} attempted={outcome.attempted} failed={outcome.failed}")
    for line in steady.summary_lines(metrics, outcome.samples, units):
        print(line)
    if rec is not None:
        print("self time by layer:")
        for line in layer_table(rec):
            print(line)
    for name, value in wl.info.items():
        print(f"{name:<30}{value:>13.6g}")
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
