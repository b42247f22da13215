"""The benchmark's three workloads, each against a public entry point.

Every workload has the same life cycle, driven by ``run.py``:

``setup()``    build the seeded inputs and warm up; run several times so
               set-up time is a median (the last set-up is the one used);
``measure()``  the timed phase, untraced: repetitions until ``seconds``
               have passed (and at least ``min_reps`` of them);
``trace()``    one untraced and one traced repetition, for per-layer
               self times and the tracing overhead;
``gate()``     the correctness check against an independent judge, run
               after timing; any message it returns fails the run;
``close()``    stop every process the workload started.

Inputs come from ``spec95_corpus(seed=...)``: the twenty named kernels
are fixed, the synthetic loops vary with the seed.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import random
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.context import PipelineConfig
from repro.core.pipeline import compile_loop
from repro.core.results import LoopMetrics
from repro.evalx.gap import compute_gap
from repro.evalx.runner import PAPER_CONFIG_ORDER, EvalRun, config_label, run_evaluation
from repro.exact.brute import brute_force_cost
from repro.exact.cost import OVERFLOW_WEIGHT, build_problem
from repro.ir.parser import parse_loop
from repro.ir.printer import format_loop
from repro.machine.presets import paper_machine
from repro.serve.client import ServeClient, ServeError
from repro.store.tiered import ArtifactStore
from repro.workloads.corpus import spec95_corpus

import catalogue
import layers

ROOT = Path(__file__).resolve().parent.parent
#: what a fresh process imports before it can run any workload
IMPORTS = "import repro.evalx.runner, repro.evalx.gap, repro.serve.client"
#: config label -> (clusters, copy model), for rebuilding machines
CONFIGS = {config_label(n, m): (n, m) for n, m in PAPER_CONFIG_ORDER}


@dataclass
class Outcome:
    """What one run measured: reported values, their per-repetition
    samples (for the printed quartiles) and the exact counts."""

    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    counts: dict[str, int] = field(default_factory=dict)


#: the host-speed probe's time on the reference host (a 2-vCPU shared VM
#: when it was quiet); every reported time is scaled to that speed
CALIBRATION_REF_S = 0.0125


def calibration_s() -> float:
    """One run of a fixed interpreter-bound loop (integer arithmetic and
    dict traffic, the kind of work the compiler does).

    The host's speed drifts by tens of percent, and at times by 2x,
    within minutes as other tenants come and go; it slows this probe and
    the workloads alike, so a time divided by probes taken right around
    it compares across runs made at different moments.
    """
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(100_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    return time.perf_counter() - t0


def host_probe(n: int) -> float:
    """Median of ``n`` host-speed probes; for ``n == 0`` the reference
    time, so an interval timed with no probes is not scaled."""
    if n == 0:
        return CALIBRATION_REF_S
    return statistics.median(calibration_s() for _ in range(n))


@contextmanager
def one_cpu(*pids: int):
    """Run this process, the processes it starts and ``pids`` on one CPU
    (the first this process may use); this process gets its CPUs back on
    exit.

    The shared host's CPUs run at different speeds from moment to moment,
    so the host-speed probes, taken in this process, only describe work
    that runs on their CPU.
    """
    allowed = os.sched_getaffinity(0)
    cpu = {min(allowed)}
    for pid in (*pids, 0):
        os.sched_setaffinity(pid, cpu)
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def quality(metrics: list[LoopMetrics]) -> dict[str, int]:
    """Exact code-quality counts over cells (Table 2's inputs)."""
    return {
        "cells": len(metrics),
        "kernel_cycles": sum(m.partitioned_ii for m in metrics),
        "ideal_cycles": sum(m.ideal_ii for m in metrics),
        "body_copies": sum(m.n_body_copies for m in metrics),
        "spilled_registers": sum(m.spilled_registers for m in metrics),
    }


def quality_metrics(q: dict[str, int]) -> dict[str, float]:
    return {
        "kernel_norm": 100.0 * q["kernel_cycles"] / q["ideal_cycles"],
        "copies_per_cell": q["body_copies"] / q["cells"],
    }


def cells_of(run: EvalRun) -> dict[tuple[str, str], LoopMetrics]:
    return {
        (label, m.loop_name): m
        for label, ms in run.per_config.items() for m in ms
    }


def compare_cells(
    judged: dict[tuple[str, str], LoopMetrics],
    measured: dict[tuple[str, str], LoopMetrics],
    what: str,
) -> list[str]:
    """Messages for every judged cell the measured run got wrong."""
    problems = []
    for key, want in judged.items():
        got = measured.get(key)
        if got is None:
            problems.append(f"{what}: {key[1]} @ {key[0]} missing")
        elif got != want:
            diff = [
                f.name for f in dataclasses.fields(want)
                if getattr(want, f.name) != getattr(got, f.name)
            ]
            problems.append(f"{what}: {key[1]} @ {key[0]} differs in {diff}")
    return problems


def cache_hit_rate(runs: list[EvalRun]) -> float:
    hits = sum(r.cache_hits for r in runs)
    lookups = hits + sum(r.cache_misses for r in runs)
    return hits / lookups if lookups else 0.0


class Workload:
    name = ""
    #: minimum repetitions in the timed phase, however short ``seconds``
    min_reps = 3
    #: the traced run's per-layer counts that repeat exactly per seed
    #: (checked by the steadiness self-check)
    layer_counts = catalogue.LAYER_COUNTS
    #: host-speed probes on each side of the workload's timed intervals
    #: (one 12.5 ms probe catches only a moment of an interval of seconds)
    probes = 1
    #: host-speed probes on each side of a set-up step; set-up steps are
    #: short, and one probe a side leaves their times spread ~1.5x wider
    setup_probes = 5

    def __init__(self, seed: int, seconds: float, out_dir: Path):
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.corpus_s: list[float] = []
        #: scaled time of every fresh set-up (see fresh_setup)
        self.setup_times: list[float] = []
        #: host-speed scale factor of every scaled interval (see scaled)
        self.scales: list[float] = []
        #: printed alongside the metrics: figures outside the metric set
        #: and findings that do not fail the run
        self.info: dict[str, float] = {}
        self.notes: list[str] = []

    def corpus(self, n: int | None = None):
        t0 = time.perf_counter()
        loops = (spec95_corpus(seed=self.seed) if n is None
                 else spec95_corpus(n=n, seed=self.seed))
        self.corpus_s.append(time.perf_counter() - t0)
        return loops

    def repeat(self, once) -> list[float]:
        """Call ``once(i)``, which returns the (scaled) time it measured,
        until ``seconds`` have passed and ``min_reps`` calls were made."""
        walls: list[float] = []
        start = time.perf_counter()
        while len(walls) < self.min_reps or time.perf_counter() - start < self.seconds:
            walls.append(once(len(walls)))
        return walls

    def scaled(self, fn, probes: int = 1):
        """Run ``fn(before)``, ``before`` being the host-speed probe taken
        just before it; return (its wall time scaled to the reference host
        speed by that probe and one taken just after, its result).  Long
        intervals take the median of more ``probes`` on each side."""
        before = host_probe(probes)
        t0 = time.perf_counter()
        result = fn(before)
        wall = time.perf_counter() - t0
        scale = 2 * CALIBRATION_REF_S / (before + host_probe(probes))
        self.scales.append(scale)
        return wall * scale, result

    def setup_steps(self):
        """The set-up as callables to run in turn (``fresh_setup`` scales
        each on its own, because the host's speed moves within a long
        set-up)."""
        yield self.setup

    def fresh_setup(self) -> None:
        """Stop what an earlier set-up started, then set up as a new user
        would: a fresh interpreter importing the program, then the set-up
        steps, all on one CPU; the summed scaled time joins
        ``setup_times``."""
        def imports(_before):
            subprocess.run([sys.executable, "-c", IMPORTS], check=True, timeout=60,
                           env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))

        self.close()
        with one_cpu():
            total = self.scaled(imports, self.setup_probes)[0]
            for step in self.setup_steps():
                total += self.scaled(lambda _before: step(), self.setup_probes)[0]
        self.setup_times.append(total)

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# paper_regalloc
# ----------------------------------------------------------------------


class PaperRegalloc(Workload):
    """Full seeded corpus x 6 configs with register assignment, serial.

    The corpus is compiled in chunks of loops through ``run_evaluation``;
    ``wall_s`` is the sum over chunks of each chunk's median scaled time
    across passes, so a burst of load from elsewhere on the host that hits
    one pass does not move the figure.
    """

    name = "paper_regalloc"
    config = PipelineConfig(run_regalloc=True)
    chunk = 12
    check_loops = 4

    def __init__(self, seed, seconds, out_dir, n_loops: int | None = None):
        super().__init__(seed, seconds, out_dir)
        self.n_loops = n_loops
        self.cells: dict[tuple[str, str], LoopMetrics] = {}
        #: cells the timed run could not compile, with the failure kind
        self.failed_cells: dict[tuple[str, str], str] = {}
        self.problems: list[str] = []

    def setup(self) -> None:
        loops = self.corpus()
        self.loops = loops if self.n_loops is None else loops[: self.n_loops]
        run_evaluation(self.loops[:2], config=self.config)
        self.chunks = [
            self.loops[i:i + self.chunk] for i in range(0, len(self.loops), self.chunk)
        ]

    def _pass(self, chunk_times: list[list[float]]) -> list[EvalRun]:
        runs: list[EvalRun] = []
        for i, chunk in enumerate(self.chunks):
            wall, run = self.scaled(lambda _before: run_evaluation(chunk, config=self.config))
            chunk_times[i].append(wall)
            runs.append(run)
        return runs

    def _absorb(self, runs: list[EvalRun], pass_no: int) -> None:
        cells: dict[tuple[str, str], LoopMetrics] = {}
        for run in runs:
            cells.update(cells_of(run))
            self.failed_cells.update(
                {(f.config, f.loop_name): f.kind for f in run.failures})
        if not self.cells:
            self.cells = cells
        elif cells != self.cells:
            self.problems.append(f"pass {pass_no} metrics differ from pass 0")

    def measure(self) -> Outcome:
        chunk_times: list[list[float]] = [[] for _ in self.chunks]
        failed = [0]

        def once(pass_no):
            runs = self._pass(chunk_times)
            failed[0] += sum(len(r.failures) for r in runs)
            self._absorb(runs, pass_no)
            return sum(times[-1] for times in chunk_times)

        walls = self.repeat(once)
        out = self._outcome(len(walls), failed[0])
        out.metrics["wall_s"] = sum(statistics.median(t) for t in chunk_times)
        out.samples["wall_s"] = walls
        return out

    def _outcome(self, passes: int, failed: int) -> Outcome:
        n_cells = len(self.loops) * len(PAPER_CONFIG_ORDER)
        q = quality(list(self.cells.values()))
        out = Outcome(attempted=n_cells * passes, failed=failed)
        out.metrics.update(quality_metrics(q))
        out.metrics["decided_share"] = q["cells"] / n_cells
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        out.counts.update({k: v for k, v in q.items() if k != "cells"})
        return out

    def trace(self, rec: layers.Recorder) -> tuple[Outcome, dict[str, float]]:
        t0 = time.perf_counter()
        runs = [run_evaluation(chunk, config=self.config) for chunk in self.chunks]
        untraced = time.perf_counter() - t0
        self._absorb(runs, 0)
        with layers.installed(rec), rec.span("bench"):
            for chunk in self.chunks:
                with rec.span("runner.overhead"):
                    runs.append(run_evaluation(chunk, config=self.config))
        self._absorb(runs[len(self.chunks):], 1)
        out = self._outcome(2, sum(len(r.failures) for r in runs))
        return out, {
            "trace.untraced_wall_s": untraced,
            "runner.cache_hit_rate": cache_hit_rate(runs),
        }

    def gate(self) -> list[str]:
        """Re-run a seeded sample of loops (all 6 configs) under the
        ``repro.check`` oracles, which include the ``repro.sim``
        simulator; their metrics must equal the timed run's."""
        sample = random.Random(self.seed).sample(
            self.loops, min(self.check_loops, len(self.loops))
        )
        judged = run_evaluation(
            sample, config=dataclasses.replace(self.config, run_check=True)
        )
        problems = list(self.problems)
        # a cell the timed run failed the same way is consistent; an
        # oracle violation never is
        problems += [f"check run: {f.loop_name} @ {f.config}: {f.kind} {f.error}"
                     for f in judged.failures
                     if f.kind == "oracle"
                     or self.failed_cells.get((f.config, f.loop_name)) != f.kind]
        problems += compare_cells(cells_of(judged), self.cells, "checked re-run")
        return problems


# ----------------------------------------------------------------------
# gap_exact
# ----------------------------------------------------------------------


class GapExact(Workload):
    """``repro gap``'s two legs over the seeded corpus (``prefix`` loops;
    the whole corpus by default, because on a short prefix the seed moves
    the code-quality metrics more than any bound could tolerate).

    The exact leg's per-cell budget is ``budget`` seconds *on the
    reference host*.  The exact leg runs in slices of ``slice_loops``
    loops, each turning the budget into wall-clock seconds with the
    host-speed probe taken just before it, so a slow spell on the host
    neither shrinks the search each cell gets nor, since timed-out cells
    cost the budget in wall-clock time, breaks the scaled ``wall_s``; the
    host's speed moves within a ~20 s repetition, hence slices.  A cell
    whose search ends close to the budget can still land on either side;
    ``decided_share`` is the median over repetitions.
    """

    name = "gap_exact"
    greedy = PipelineConfig(partitioner="greedy", run_regalloc=False)
    exact = PipelineConfig(partitioner="exact", run_regalloc=False)
    #: the exact leg's per-cell budget at the reference host speed; the
    #: greedy leg gets a hang guard only, so its cells (the code-quality
    #: metrics) never hang on timing
    budget = 0.05
    greedy_budget = 5.0
    #: which cells reach the passes after partitioning depends on the
    #: budget, so none of the traced run's per-layer counts is exact
    layer_counts = ()
    jobs = 2
    #: one repetition is ~17 s on a quiet host, and the budget stretches
    #: with the host's slow spells; a second one runs when time allows
    min_reps = 1
    probes = 5
    slice_loops = 24
    #: loops of the traced run (serial, twice)
    trace_loops = 96
    brute_sample = 6
    brute_limit = 20_000

    def __init__(self, seed, seconds, out_dir, prefix: int | None = None):
        super().__init__(seed, seconds, out_dir)
        self.prefix = prefix
        self.legs: tuple[EvalRun, EvalRun] | None = None

    def setup(self) -> None:
        self.loops = self.corpus(self.prefix)
        run_evaluation(self.loops[:2], config=self.exact, timeout=self.budget)

    def _gap(self, loops, jobs: int, probes: int, rec: layers.Recorder | None = None):
        """Both legs over ``loops``, the exact one in slices, each leg timed
        between ``probes`` host-speed probes and a ``runner.overhead`` span
        when traced; returns (scaled time, joined report)."""
        def leg(loops, config, budget):
            def run(before):
                with rec.span("runner.overhead") if rec is not None else nullcontext():
                    return run_evaluation(loops, config=config, jobs=jobs,
                                          timeout=budget * before / CALIBRATION_REF_S)
            return self.scaled(run, probes)

        wall, g = leg(loops, self.greedy, self.greedy_budget)
        e = EvalRun(machines=g.machines)
        for i in range(0, len(loops), self.slice_loops):
            part_wall, part = leg(loops[i:i + self.slice_loops], self.exact, self.budget)
            wall += part_wall
            for label, metrics in part.per_config.items():
                e.per_config.setdefault(label, []).extend(metrics)
            e.failures.extend(part.failures)
            e.cache_hits += part.cache_hits
            e.cache_misses += part.cache_misses
        self.legs = (g, e)
        self.n_cells = len(loops) * len(PAPER_CONFIG_ORDER)
        return wall, compute_gap(g, e)

    def _outcome(self, reports, reps: int) -> Outcome:
        g, _e = self.legs
        n_cells = self.n_cells
        q = quality(list(cells_of(g).values()))
        shares = [
            sum(c.status == "proven" for c in r.all_cells()) / n_cells for r in reports
        ]
        out = Outcome(attempted=2 * n_cells * reps,
                      failed=sum(len(r.hard_failures) for r in reports))
        out.metrics.update(quality_metrics(q))
        out.metrics["decided_share"] = statistics.median(shares)
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        out.samples["decided_share"] = shares
        out.counts.update({k: v for k, v in q.items() if k != "cells"})
        return out

    def measure(self) -> Outcome:
        reports = []

        def once(_i):
            wall, report = self._gap(self.loops, self.jobs, self.probes)
            reports.append(report)
            return wall

        walls = self.repeat(once)
        out = self._outcome(reports, len(walls))
        out.metrics["wall_s"] = statistics.median(walls)
        out.samples["wall_s"] = walls
        return out

    def trace(self, rec: layers.Recorder) -> tuple[Outcome, dict[str, float]]:
        # serial, because spans recorded in forked workers would stay
        # there; on a prefix, so the two serial runs fit in the time a run
        # may take on a slow host; with no probes, so the budget is not
        # stretched and the two runs differ by the tracing only
        loops = self.loops[:self.trace_loops]
        t0 = time.perf_counter()
        self._gap(loops, 1, 0)
        untraced = time.perf_counter() - t0
        with layers.installed(rec), rec.span("bench"):
            report = self._gap(loops, 1, 0, rec)[1]
        g, e = self.legs
        out = self._outcome([report], 1)
        return out, {
            "trace.untraced_wall_s": untraced,
            "runner.cache_hit_rate": cache_hit_rate([g, e]),
            "runner.timeouts": sum(f.kind == "timeout" for f in e.failures),
        }

    def gate(self) -> list[str]:
        """Exact never worse than the greedy leg on a proven cell; exact
        equal to brute-force enumeration on a seeded sample of small cells.

        The greedy leg reports body copies but not bank overflow, so it is
        the judge where the exact solver's own greedy start overflowed no
        bank: there that start must cost what the greedy leg compiled (it
        is the same partition), and the proven cost must not exceed it.
        Elsewhere the proven cost is held to the start's own cost.
        """
        g, e = self.legs
        report = compute_gap(g, e)
        problems = [f"hard failure: {f.loop_name} @ {f.config}: {f.kind}"
                    for f in report.hard_failures]
        proven = [c for c in report.all_cells() if c.status == "proven"]
        judged_by_greedy = 0
        for c in proven:
            where = f"{c.loop_name} @ {c.config}"
            if c.exact_bound != c.exact_cost:
                problems.append(f"proven but bound {c.exact_bound} != cost "
                                f"{c.exact_cost}: {where}")
            overflow, copies = divmod(c.exact_warm_cost, OVERFLOW_WEIGHT)
            if overflow:
                greedy_cost = c.exact_warm_cost
            else:
                judged_by_greedy += 1
                greedy_cost = c.greedy_copies
                if copies != c.greedy_copies:
                    problems.append(f"exact's greedy start costs {copies} copies, the "
                                    f"greedy leg compiled {c.greedy_copies}: {where}")
            if not 0 <= c.exact_cost <= greedy_cost:
                problems.append(f"exact worse than greedy: {where} "
                                f"cost {c.exact_cost} greedy {greedy_cost}")
        if proven and not judged_by_greedy:
            problems.append("no proven cell to check against the greedy leg")
        by_name = {loop.name: loop for loop in self.loops}
        exact_cells = cells_of(e)
        small = []
        for c in proven:
            n_clusters, model = CONFIGS[c.config]
            m = exact_cells[(c.config, c.loop_name)]
            machine = paper_machine(n_clusters, model)
            problem = build_problem(by_name[c.loop_name], n_clusters,
                                    slots_per_bank=machine.fus_per_cluster * m.ideal_ii)
            free = len([r for r in problem.regs if r not in problem.precolored])
            if n_clusters ** free <= self.brute_limit:
                small.append((c, problem))
        rng = random.Random(self.seed)
        for c, problem in rng.sample(small, min(self.brute_sample, len(small))):
            want = brute_force_cost(problem)
            if want != c.exact_cost:
                problems.append(f"exact != brute force: {c.loop_name} @ {c.config} "
                                f"exact {c.exact_cost} brute {want}")
        if not small:
            problems.append("no small proven cell to check against brute force")
        return problems


# ----------------------------------------------------------------------
# serve_warm
# ----------------------------------------------------------------------


class Daemon:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: Path, store: Path, log: Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.port: int | None = None
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store),
             "--port", "0", "--jobs", "1"],
            stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=root,
        )
        try:
            line = self._first_line(timeout=60.0)
            # "repro serve: listening on HOST:PORT (store ..., jobs N)"
            self.port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
        except Exception:
            self.stop()
            raise

    def _first_line(self, timeout: float) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise RuntimeError("repro serve did not start")
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return line

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                try:
                    if self.port is None:
                        raise OSError("no port to ask for a drain")
                    with ServeClient(port=self.port, timeout=10.0) as client:
                        client.shutdown()
                except (OSError, ServeError):
                    self.proc.terminate()
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        finally:
            self._log.close()


class ServeWarm(Workload):
    """A closed loop of two ``ServeClient`` connections against one daemon
    serving a pre-filled store.

    Set-up pre-fills a fresh store with the seeded corpus, in parts of
    ``prefill_loops`` loops, and starts the daemon.  A repetition sends one seeded, shuffled request plan, each
    request one loop x the 6 paper configs, every loop
    ``requests_per_loop`` times.  Each repetition runs on a newly started
    daemon (started outside the timing), so the first request for a cell
    reads it from disk (L2) and later ones from memory (L1).  Repetitions
    run until ``seconds`` have passed; ``wall_s`` is the median plan time.

    While a plan runs, the client threads and the daemon share one CPU
    (``one_cpu``), so that the host-speed probes describe it.  The plan is
    sent and timed in ``segments`` parts, each scaled by its own probes,
    because the host's speed moves within a repetition.

    No request makes the daemon compile.  The daemon parses each request
    itself, drawing register ids from its per-process counter
    (``repro.ir.registers._GLOBAL_RID``); its pool worker, forked earlier,
    draws the ids of the registers it adds from its own copy of that
    counter.  The two can hand out the same id, and the answer served for
    such a cold loop then differs from a local compile.  Cold requests
    belong in the plan once the ids cannot collide.
    """

    name = "serve_warm"
    clients = 2
    requests_per_loop = 3
    segments = 3
    prefill_loops = 72
    min_reps = 3
    probes = 5
    check_cells = 24

    def __init__(self, seed, seconds, out_dir, n_loops: int | None = None):
        super().__init__(seed, seconds, out_dir)
        self.n_loops = n_loops
        self.work = out_dir / f"serve-{os.getpid()}"
        self.daemon: Daemon | None = None
        self.served: dict[tuple[str, str], LoopMetrics] = {}
        #: cells served with two different answers (across repetitions or
        #: within one)
        self.inconsistent: set[tuple[str, str]] = set()
        self._reset()
        self.rec: layers.Recorder | None = None

    def setup(self) -> None:
        for step in self.setup_steps():
            step()

    def setup_steps(self):
        yield self._prepare
        for i in range(0, len(self.loops), self.prefill_loops):
            yield functools.partial(run_evaluation, self.loops[i:i + self.prefill_loops],
                                    store=self.store)
        yield self._start_daemon

    def _prepare(self) -> None:
        """The seeded loops, as the daemon receives them, and the plan."""
        loops = self.corpus()
        if self.n_loops is not None:
            loops = loops[: self.n_loops]
        self.originals = {loop.name: loop for loop in loops}
        # the loops as the daemon receives them: submitted as IR text
        self.loops = [parse_loop(format_loop(loop)) for loop in loops]
        self.by_name = {loop.name: loop for loop in self.loops}
        self.plan = self.loops * self.requests_per_loop
        random.Random(self.seed).shuffle(self.plan)
        self.work.mkdir(parents=True, exist_ok=True)
        self.store = ArtifactStore.open(self.work / "store")

    def _start_daemon(self) -> None:
        """(Re)start the daemon on the store and wait until it answers."""
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        self.daemon = Daemon(ROOT, self.work / "store", self.work / "daemon.log")
        with ServeClient(port=self.daemon.port) as client:
            client.ping()

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        if self.work.exists():
            shutil.rmtree(self.work, ignore_errors=True)

    def _run_plan(self, plan) -> float:
        """Send ``plan`` through the closed loop; returns its wall."""
        queue = deque(plan)
        lock = threading.Lock()
        errors: list[BaseException] = []

        def client_loop():
            scope = self.rec.span("bench") if self.rec is not None else nullcontext()
            try:
                with scope, ServeClient(port=self.daemon.port, timeout=120.0) as client:
                    while True:
                        with lock:
                            if not queue:
                                return
                            loop = queue.popleft()
                        t0 = time.perf_counter()
                        try:
                            result = client.submit([loop])
                        except ServeError:
                            with lock:
                                self.totals["refused"] += 1
                            continue
                        ms = (time.perf_counter() - t0) * 1e3
                        with lock:
                            self._absorb(ms, result)
            except Exception as exc:  # re-raised in the caller's thread
                errors.append(exc)

        t0 = time.perf_counter()
        threads = [threading.Thread(target=client_loop) for _ in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        if errors:
            raise errors[0]
        self.plan_walls.append(wall)
        return wall

    def _absorb(self, ms: float, result) -> None:
        self.latencies.append(ms)
        self.totals["requests"] += 1
        self.totals["failed"] += result.failures > 0
        for cell in result.cells:
            if cell.ok:
                self.totals["ok_cells"] += 1
                key = (cell.config, cell.loop_name)
                if self.served.setdefault(key, cell.metrics) != cell.metrics:
                    self.inconsistent.add(key)

    def _reset(self) -> None:
        self.plan_walls: list[float] = []
        self.latencies: list[float] = []
        self.totals = dict.fromkeys(("requests", "refused", "failed", "ok_cells"), 0)

    def _plan_rep(self, i: int) -> float:
        """Repetition ``i`` (on a newly started daemon after the first);
        returns the plan's scaled time."""
        if i:
            self._start_daemon()
        n = len(self.plan)
        cuts = [n * k // self.segments for k in range(self.segments + 1)]
        with one_cpu(self.daemon.proc.pid):
            return sum(
                self.scaled(lambda _before, part=self.plan[a:b]: self._run_plan(part),
                            self.probes)[0]
                for a, b in zip(cuts, cuts[1:])
            )

    def _outcome(self, walls: list[float]) -> Outcome:
        q = quality(list(self.served.values()))
        requested = self.totals["requests"] + self.totals["refused"]
        out = Outcome(attempted=requested,
                      failed=self.totals["refused"] + self.totals["failed"])
        out.metrics.update(quality_metrics(q))
        out.metrics["decided_share"] = (
            self.totals["ok_cells"] / (requested * len(PAPER_CONFIG_ORDER)))
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        out.metrics["wall_s"] = statistics.median(walls)
        out.samples["wall_s"] = walls
        out.counts.update({k: v for k, v in q.items() if k != "cells"})
        return out

    def latency_metrics(self) -> dict[str, float]:
        """Client-side request latencies and throughput, as measured."""
        pct = statistics.quantiles(self.latencies, n=100)
        return {
            "serve.warm_p50_ms": pct[49], "serve.warm_p99_ms": pct[98],
            "serve.requests_per_s": self.totals["requests"] / sum(self.plan_walls),
        }

    def measure(self) -> Outcome:
        self._reset()
        walls = self.repeat(self._plan_rep)
        self.info = self.latency_metrics()
        return self._outcome(walls)

    def trace(self, rec: layers.Recorder) -> tuple[Outcome, dict[str, float]]:
        self._reset()
        with one_cpu(self.daemon.proc.pid):
            untraced = self._run_plan(self.plan)
        extra = self.latency_metrics()
        self._reset()
        self._start_daemon()
        self.rec = rec
        try:
            with one_cpu(self.daemon.proc.pid), layers.installed(rec):
                traced = self._run_plan(self.plan)
        finally:
            self.rec = None
        with ServeClient(port=self.daemon.port) as client:
            stats = client.stats()
        server = stats["server_store"]
        hits = server["hits_l1"] + server["hits_l2"]
        extra.update({
            "trace.untraced_wall_s": untraced,
            "trace.wall_s": traced,
            "store.hits_l1": server["hits_l1"],
            "store.hits_l2": server["hits_l2"],
            "store.misses": server["misses"],
            "store.hit_rate": hits / (hits + server["misses"]),
            "serve.refused": self.totals["refused"],
        })
        return self._outcome([traced]), extra

    def gate(self) -> list[str]:
        """A seeded sample of served cells must equal a local
        ``compile_loop`` of the loop text that was submitted."""
        problems = [f"{loop} @ {label} served two different answers"
                    for label, loop in sorted(self.inconsistent)]
        if not self.served:
            return problems + ["no cell was served"]
        keys = sorted(self.served)
        sample = random.Random(self.seed).sample(keys, min(self.check_cells, len(keys)))
        config = PipelineConfig(run_regalloc=False)
        judged = {}
        text_sensitive = 0
        for label, loop_name in sample:
            machine = paper_machine(*CONFIGS[label])
            judged[(label, loop_name)] = compile_loop(
                self.by_name[loop_name], machine, config).metrics
            # the generator's Loop object, before the text round trip:
            # reported, not gated (its register ids were allocated in
            # another order, which neither the IR text nor the store key
            # records, and the greedy partitioner breaks ties by id)
            original = compile_loop(self.originals[loop_name], machine, config).metrics
            text_sensitive += original != judged[(label, loop_name)]
        if text_sensitive:
            self.notes.append(
                f"{text_sensitive} of {len(sample)} sampled cells compile differently "
                f"from the generator's Loop object than from its IR text")
        return problems + compare_cells(judged, self.served, "served cell")


WORKLOADS = {w.name: w for w in (PaperRegalloc, GapExact, ServeWarm)}
