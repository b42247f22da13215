"""Summaries and the steadiness self-check.

Every run prints, per metric, the median, the quartiles and the sample
count with the unit.  A run whose gate passed appends one record
(workload, seed, trace mode, program fingerprint, exact counts) to
``session.jsonl`` in the output directory.  Exact counts must be
identical on every run with the same workload, seed and trace mode (a
traced run may cover less input) on the same program: a difference is
a nondeterminism in the program or the benchmark and fails the run.
Runs of another version of the program (another fingerprint) are never
compared, so a change that moves the counts on purpose is not flagged.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) by ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary_lines(metrics: dict[str, float], samples: dict[str, list[float]],
                  units: dict[str, str]) -> list[str]:
    """One line per metric: the reported value with its unit, and for a
    metric measured over repetitions the median, quartiles and count of
    the per-repetition samples."""
    lines = [f"{'metric':<30}{'value':>13} {'unit':<7}"
             f"{'median':>11}{'q1':>11}{'q3':>11}{'n':>6}"]
    for name, value in metrics.items():
        line = f"{name:<30}{value:>13.6g} {units.get(name, ''):<7}"
        if name in samples:
            q1, med, q3 = quartiles(samples[name])
            line += f"{med:>11.5g}{q1:>11.5g}{q3:>11.5g}{len(samples[name]):>6}"
        lines.append(line)
    return lines


def program_fingerprint(root: Path) -> str:
    """Hash of every source file of the program (``src/``) and of the
    benchmark (``perfbench/*.py``) under ``root``."""
    h = hashlib.sha256()
    files = [*(root / "src").rglob("*.py"), *(root / "perfbench").glob("*.py")]
    for path in sorted(files):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


#: what a record must share with a run to be compared with it
KEY = ("workload", "seed", "trace", "program")


def session_problems(path: Path, run: dict) -> list[str]:
    """Messages for every exact count of ``run`` (the ``KEY`` fields and
    ``counts``) that differs from the earlier record at ``path`` with the
    same key (all such records agree, since only passing runs are
    recorded)."""
    if not path.exists():
        return []
    key = [run[k] for k in KEY]
    for line in path.read_text(encoding="utf-8").splitlines():
        old = json.loads(line)
        if [old.get(k) for k in KEY] == key:
            return [f"exact count {name} was {old['counts'][name]}, "
                    f"now {run['counts'][name]} (seed {run['seed']})"
                    for name in sorted(run["counts"].keys() & old["counts"].keys())
                    if run["counts"][name] != old["counts"][name]]
    return []


def record(path: Path, run: dict) -> None:
    """Append ``run`` to the session record (only runs whose gate passed)."""
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(run, sort_keys=True) + "\n")
