"""Outside-in layer tracing for the benchmark's traced run.

The program under test is not instrumented.  Instead, :func:`installed`
swaps wrappers onto the names through which each layer is called and
puts the originals back on exit.  A wrapper goes where the *caller*
looks the name up: ``repro.core.passes`` imports its helpers by name, so
wrapping ``repro.ddg.builder.build_loop_ddg`` would miss every call the
pipeline makes.  Each wrapper records a :class:`Span` (name, start, end,
parent) in a :class:`Recorder` kept in memory; counts that are costly to
derive (``sched.ii_excess`` needs a MinII computation) are deferred
until the traced phase is over, so they do not land in a layer's time.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans (:func:`self_times`).  Span names
are the per-layer metric names without the ``_s`` suffix.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in ``Recorder.spans`` (None = root)
    parent: int | None
    thread: int


class Recorder:
    """Spans, counts and deferred counts of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._deferred: list[Callable[[], None]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        span = Span(name, time.perf_counter(), 0.0,
                    stack[-1] if stack else None, threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def defer(self, fn: Callable[[], None]) -> None:
        self._deferred.append(fn)

    def finish(self) -> None:
        """Run the deferred counts (call once the traced phase is over)."""
        deferred, self._deferred = self._deferred, []
        for fn in deferred:
            fn()

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "thread": s.thread}
            for s in self.spans
        ]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: Σ (duration − part covered by child spans)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += (s.end - s.start) - covered(children.get(i, []), s.start, s.end)
    return dict(out)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _wrap(rec: Recorder, name: str | Callable[..., str], fn, after=None):
    """``fn`` timed as span ``name``; ``after(rec, result, args, span)``
    runs outside the span, on success only."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name(*args, **kwargs) if callable(name) else name
        with rec.span(span_name) as span:
            result = fn(*args, **kwargs)
        if after is not None:
            after(rec, result, args, span)
        return result

    return wrapper


def _count(key: str):
    def after(rec, _result, _args, _span):
        rec.add(key)
    return after


def _after_rcg(rec, rcg, _args, _span):
    rec.add("rcg.nodes", len(rcg.nodes()))
    rec.add("rcg.edges", rcg.n_edges)


def _after_copies(rec, partitioned, _args, _span):
    rec.add("copies.inserted", partitioned.n_body_copies)


def _sched_kind(loop, ddg, machine, *_a, **_k) -> str:
    return "sched.cluster" if machine.is_clustered else "sched.ideal"


def _after_sched(rec, kernel, args, span):
    _loop, ddg, machine = args[:3]
    rec.add(f"{span.name}_calls")

    def excess():
        from repro.ddg.analysis import min_ii

        rec.add("sched.ii_excess", kernel.ii - min_ii(ddg, machine))

    rec.defer(excess)


def _after_assign(rec, outcome, _args, _span):
    rec.add("regalloc.attempts")
    rec.add("regalloc.successes", int(outcome.success))


def _after_interference(rec, graph, _args, _span):
    rec.add("regalloc.interference_nodes", len(graph))


def _after_spill(rec, result, _args, _span):
    rec.add("regalloc.spilled_registers", result[1])


def _after_solve(rec, result, _args, span):
    # timed-out solves raise out of the span and never get here
    _partition, proof = result
    rec.add("exact.nodes", proof.nodes)
    rec.add("exact.proven", int(proof.proven))
    rec.add("exact.solved_s", span.end - span.start)


#: (module, attribute, span name, after-hook) — module-level names,
#: patched in the module whose code calls them
FUNCTION_SITES: tuple[tuple[str, str, object, object], ...] = (
    ("repro.evalx.runner", "compile_loop", "pipeline.compile_loop", None),
    ("repro.core.passes", "build_loop_ddg", "ddg.build", _count("ddg.builds")),
    ("repro.core.passes", "build_rcg_from_kernel", "rcg.build", _after_rcg),
    ("repro.core.passes", "greedy_partition", "greedy.partition",
     _count("greedy.calls")),
    ("repro.core.passes", "insert_copies", "copies.insert", _after_copies),
    ("repro.core.passes", "validate_kernel_schedule", "sched.validate", None),
    ("repro.core.context", "modulo_schedule", _sched_kind, _after_sched),
    ("repro.regalloc.assignment", "assign_banks", "regalloc.assign", _after_assign),
    ("repro.regalloc.assignment", "cyclic_liveness", "regalloc.liveness", None),
    ("repro.regalloc.assignment", "plan_mve", "regalloc.mve", None),
    ("repro.regalloc.assignment", "build_interference", "regalloc.interference",
     _after_interference),
    ("repro.regalloc.assignment", "chaitin_briggs_color", "regalloc.color", None),
    ("repro.regalloc.spill", "spill_registers", "regalloc.spill", _after_spill),
    ("repro.exact.strategy", "build_rcg_from_kernel", "rcg.build", _after_rcg),
    ("repro.exact.strategy", "greedy_partition", "greedy.partition",
     _count("greedy.calls")),
    ("repro.exact.strategy", "build_problem", "exact.problem", None),
    ("repro.exact.strategy", "solve_exact", "exact.solve", _after_solve),
)

#: pass classes whose ``run`` becomes a ``pass.<name>`` span
PASS_CLASSES: tuple[str, ...] = (
    "StoreLookup", "BuildDDG", "IdealSchedule", "PartitionPass",
    "SpillRetryLoop", "InsertCopies", "ClusterReschedule", "AssignBanks",
    "SimulateCheck", "CheckOracles", "ComputeMetrics", "StoreWrite",
    # the closure adapter SpillRetryLoop runs "SpillRepartition" through
    "_Step",
)


def _pass_name(self, *_a, **_k) -> str:
    return f"pass.{self.name}"


class _ServeMarks(threading.local):
    """Per-client-thread timestamps of the request being traced."""

    sent: float = 0.0
    first_cell: float | None = None


def _serve_sites(rec: Recorder):
    """ServeClient wrappers: send → accepted → first cell → done."""
    from repro.serve.client import ServeClient

    marks = _ServeMarks()
    request, response, submit = (
        ServeClient._request, ServeClient._response, ServeClient.submit
    )

    def traced_request(self, doc):
        if doc.get("op") == "submit":
            marks.sent, marks.first_cell = time.perf_counter(), None
        return request(self, doc)

    def traced_response(self):
        doc = response(self)
        now_ms = (time.perf_counter() - marks.sent) * 1e3
        kind = doc.get("type")
        if kind == "accepted":
            rec.sample("serve.accept_ms", now_ms)
        elif kind == "cell" and marks.first_cell is None:
            marks.first_cell = now_ms
            rec.sample("serve.first_cell_ms", now_ms)
        elif kind == "done":
            server_ms = float(doc.get("elapsed_ms", 0))
            rec.sample("serve.server_ms", server_ms)
            rec.sample("serve.transport_ms", now_ms - server_ms)
        return doc

    traced_submit = _wrap(rec, "serve.request", submit)
    return (
        (ServeClient, "_request", functools.wraps(request)(traced_request)),
        (ServeClient, "_response", functools.wraps(response)(traced_response)),
        (ServeClient, "submit", traced_submit),
    )


@contextmanager
def installed(rec: Recorder) -> Iterator[Recorder]:
    """Install every layer wrapper; restore the original names on exit."""
    patches: list[tuple[object, str, object]] = []
    for module_name, attr, name, after in FUNCTION_SITES:
        module = importlib.import_module(module_name)
        patches.append((module, attr, _wrap(rec, name, getattr(module, attr), after)))
    passes = importlib.import_module("repro.core.passes")
    for cls_name in PASS_CLASSES:
        cls = getattr(passes, cls_name)
        patches.append((cls, "run", _wrap(rec, _pass_name, cls.__dict__["run"])))
    coloring = importlib.import_module("repro.regalloc.coloring")
    verify = coloring.ColoringResult.__dict__["verify"]
    patches.append((coloring.ColoringResult, "verify",
                    _wrap(rec, "regalloc.verify", verify)))
    patches.extend(_serve_sites(rec))

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield rec
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
