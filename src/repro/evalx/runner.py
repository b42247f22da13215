"""Corpus evaluation runner.

Compiles every corpus loop for each of the paper's six clustered
configurations (2/4/8 clusters x embedded/copy-unit) and collects
:class:`~repro.core.results.LoopMetrics` per configuration.  Table,
figure and report modules consume the resulting :class:`EvalRun`.

The run is a grid of (loop, configuration) **cells**; each cell yields
either a ``LoopMetrics`` or a :class:`~repro.core.results.LoopFailure`.
Two execution strategies fill the grid:

* **serial** (``jobs=1``, the default) — one process, one shared
  :class:`~repro.core.cache.ArtifactCache`, so each loop's DDG and
  16-wide ideal schedule are computed once and reused by the other five
  configurations;
* **parallel** (``jobs=N``) — each loop's cells are grouped, groups
  are chunked ~4 per worker, and the chunks run through the supervised
  pool engine (:mod:`repro.evalx.engine`) — the same engine ``repro
  serve`` uses.  :func:`compile_chunk`, the one pool worker, compiles a
  chunk's cells with a worker-local cache (preserving the
  cross-configuration reuse); this module merges the results in the
  parent.

Both strategies are **fault-tolerant** (see :mod:`repro.core.faults`):

* a per-cell wall-clock ``timeout`` degrades a hung schedule to a
  recorded ``timeout`` failure, enforced with ``SIGALRM`` inside the
  compiling process so even CPU-bound pure-Python loops are
  interrupted; in parallel runs the engine's watchdog also SIGKILLs a
  worker wedged past its deadline and types its chunk's cells
  ``timeout``.  Serial ``timeout`` is the one deliberately unsupervised
  path: with no process boundary there is nothing to kill, so a compile
  that blocks ``SIGALRM`` hangs the run;
* a crashed or unpicklable worker poisons only its chunk: the engine
  retries the chunk one cell at a time on an isolated pool, so the bad
  cell is recorded as a ``crash`` failure while every other loop's
  metrics survive;
* an optional :class:`~repro.evalx.checkpoint.CheckpointLog` persists
  each completed cell, so an interrupted run resumes from where it died.

However the grid was filled — serially, in parallel, resumed, or any
mix — the assembly step orders cells configuration-major/loop-minor,
exactly the order a clean serial run produces, so tables, figures, CSV
and the failure list are byte-identical across strategies.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain

from repro.core.cache import ArtifactCache, CacheStats
from repro.core.faults import DeadlineExceeded, deadline, maybe_inject_fault
from repro.core.fingerprint import StoreKeyPrefix, key_prefix
from repro.core.pipeline import PipelineConfig, compile_loop
from repro.core.results import LoopFailure, LoopMetrics
from repro.evalx.checkpoint import Cell, CellKey, CheckpointLog, CheckpointMismatch
from repro.ir.block import Loop
from repro.ir.registers import reserve_register_ids
from repro.machine.machine import CopyModel, MachineDescription
from repro.machine.presets import paper_machine
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer
from repro.store.tiered import ArtifactStore, StoreStats
from repro.workloads.corpus import spec95_corpus

#: the paper's column order: (clusters, copy model) pairs of Tables 1-2
PAPER_CONFIG_ORDER: tuple[tuple[int, CopyModel], ...] = (
    (2, CopyModel.EMBEDDED),
    (2, CopyModel.COPY_UNIT),
    (4, CopyModel.EMBEDDED),
    (4, CopyModel.COPY_UNIT),
    (8, CopyModel.EMBEDDED),
    (8, CopyModel.COPY_UNIT),
)


def config_label(n_clusters: int, model: CopyModel) -> str:
    kind = "Embedded" if model is CopyModel.EMBEDDED else "Copy Unit"
    return f"{n_clusters} Clusters / {kind}"


@dataclass
class EvalRun:
    """Metrics for every (loop, configuration) pair of one evaluation."""

    machines: dict[str, MachineDescription] = field(default_factory=dict)
    per_config: dict[str, list[LoopMetrics]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    failures: list[LoopFailure] = field(default_factory=list)
    #: how the run executed (1 = serial) and what the artifact cache saw
    jobs: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: durable artifact-store outcomes (``store=`` runs only): hits count
    #: cells answered without compiling, misses count compiled-and-stored
    #: cells, invalid counts corrupt/foreign entries degraded to misses
    store_hits: int = 0
    store_misses: int = 0
    store_invalid: int = 0
    store_writes: int = 0
    #: aggregate wall time per pass name, summed over every compilation
    pass_seconds: dict[str, float] = field(default_factory=dict)
    #: per-cell wall-clock budget (None = unbounded)
    timeout_seconds: float | None = None
    #: cells served from a resume checkpoint instead of compiled
    resumed_cells: int = 0
    #: per-cell MetricsRegistry snapshots (``collect_metrics=True``);
    #: keyed like the checkpoint grid, ``{"loop": name, **snapshot}``.
    #: Covers only cells compiled by this run, never resumed ones.
    cell_metrics: dict[CellKey, dict] = field(default_factory=dict)

    def config_labels(self) -> list[str]:
        # per_config is populated in the requested configuration order, so
        # insertion order *is* presentation order — including for custom
        # configurations outside PAPER_CONFIG_ORDER.
        return list(self.per_config)

    def metrics_for(self, n_clusters: int, model: CopyModel) -> list[LoopMetrics]:
        return self.per_config[config_label(n_clusters, model)]

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def store_hit_rate(self) -> float:
        lookups = self.store_hits + self.store_misses
        return self.store_hits / lookups if lookups else 0.0

    def absorb_cache_stats(self, stats: CacheStats) -> None:
        self.cache_hits += stats.hits
        self.cache_misses += stats.misses
        self.cache_evictions += stats.evictions

    def absorb_store_stats(self, stats: StoreStats) -> None:
        self.store_hits += stats.hits
        self.store_misses += stats.misses
        self.store_invalid += stats.invalid
        self.store_writes += stats.writes


def _merge_pass_seconds(into: dict[str, float], new: dict[str, float]) -> None:
    for name, seconds in new.items():
        into[name] = into.get(name, 0.0) + seconds


def _compile_cell(
    loop: Loop,
    machine: MachineDescription,
    pipeline_config: PipelineConfig,
    cache: ArtifactCache,
    timeout: float | None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    store: ArtifactStore | None = None,
    store_prefix: StoreKeyPrefix | None = None,
):
    """Compile one cell under the wall-clock budget (and fault fixture).

    With a ``store``, hits hydrate metrics only — the runner never needs
    the heavyweight artifacts, which is what keeps the warm path at a
    two-line read per cell.
    """
    with deadline(timeout):
        maybe_inject_fault(loop.name)
        return compile_loop(
            loop, machine, pipeline_config, cache=cache,
            tracer=tracer, metrics=metrics,
            store=store, store_hydrate="metrics", store_prefix=store_prefix,
        )


def _failure_cell(
    idx: int, label: str, loop: Loop, exc: BaseException, attempts: int
) -> Cell:
    from repro.check.oracles import OracleViolation

    if isinstance(exc, DeadlineExceeded):
        kind = "timeout"
    elif isinstance(exc, OracleViolation):
        kind = "oracle"
    else:
        kind = "exception"
    return Cell(
        loop_index=idx,
        config=label,
        failure=LoopFailure(
            config=label,
            loop_name=loop.name,
            error=repr(exc),
            kind=kind,
            attempts=attempts,
        ),
    )


def run_evaluation(
    loops: list[Loop] | None = None,
    config: PipelineConfig | None = None,
    configs: tuple[tuple[int, CopyModel], ...] = PAPER_CONFIG_ORDER,
    progress: bool = False,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    timeout: float | None = None,
    checkpoint: CheckpointLog | None = None,
    tracer: Tracer | None = None,
    collect_metrics: bool = False,
    store: ArtifactStore | None = None,
) -> EvalRun:
    """Run the corpus through the pipeline for each configuration.

    A loop that fails to compile for some configuration — by raising, by
    exceeding ``timeout`` seconds of wall clock, or by killing its worker
    process — is recorded in ``failures`` (with the fault kind and
    attempt count) and excluded from that configuration's metrics; with
    the shipped corpus there are none, and the test suite asserts that.

    ``jobs > 1`` fans the work out over a process pool; the resulting
    :class:`EvalRun` (metrics order, failure order, machine table) is
    identical to the serial run's.  ``cache`` lets callers share one
    :class:`ArtifactCache` across several serial evaluations; the
    parallel path always uses worker-local caches and only merges their
    stats.  ``checkpoint`` persists every completed cell and seeds the
    run with cells already recorded (see :mod:`repro.evalx.checkpoint`);
    timing, pass and cache statistics then cover only the work actually
    performed, while metrics and failures merge byte-identically with an
    uninterrupted run's.

    ``tracer`` (a :class:`repro.obs.Tracer`) records one span tree per
    compiled cell; the parallel path records spans in worker-local
    tracers and merges them back keyed by (loop id, configuration), so
    serial and parallel runs yield the same span identities.  Cells
    already present in a resume checkpoint are never recompiled, hence
    emit no spans — a resumed run never duplicates a cell's trace.
    ``collect_metrics=True`` attaches a fresh
    :class:`~repro.obs.MetricsRegistry` to each compilation and stores
    the snapshots in ``run.cell_metrics``.  Neither affects metrics,
    failures or table output.

    ``store`` (a :class:`repro.store.ArtifactStore`) makes the run
    incremental: each cell's full content key is looked up before
    compiling, hits are answered from disk (``run.store_hits``) and
    fresh compilations are written back.  The serial path threads the
    caller's store through every cell; parallel workers open the same
    on-disk store independently (atomic entry writes make that safe) and
    their outcome counters are merged into the run.  Stored metrics are
    the same objects a compilation produces, so reports from warm runs
    are identical to cold and store-less ones.
    """
    loops = loops if loops is not None else spec95_corpus()
    pipeline_config = config if config is not None else PipelineConfig(run_regalloc=False)
    labels = [config_label(n, m) for n, m in configs]

    cells: dict[CellKey, Cell] = {}
    if checkpoint is not None:
        if checkpoint.header.get("configs") != labels or checkpoint.header.get(
            "n_loops"
        ) != len(loops):
            raise CheckpointMismatch(
                f"checkpoint {checkpoint.path} does not describe this run "
                f"(configs/corpus size differ)"
            )
        cells.update(checkpoint.cells)

    run = EvalRun(jobs=max(1, jobs), timeout_seconds=timeout,
                  resumed_cells=len(cells))
    for (n_clusters, model), label in zip(configs, labels):
        run.machines[label] = paper_machine(n_clusters, model)

    obs_tracer = tracer if tracer is not None and tracer.enabled else None
    t0 = time.time()
    if jobs > 1:
        _fill_parallel(
            run, cells, loops, pipeline_config, configs, jobs, progress,
            timeout, checkpoint, obs_tracer, collect_metrics, store,
        )
    else:
        _fill_serial(
            run, cells, loops, pipeline_config, configs, progress, cache,
            timeout, checkpoint, obs_tracer, collect_metrics, store,
        )

    # deterministic assembly: configuration-major, loop-minor — the order
    # a clean serial run produces, whatever actually filled the grid
    for label in labels:
        metrics: list[LoopMetrics] = []
        for i in range(len(loops)):
            cell = cells.get((i, label))
            if cell is not None and cell.ok:
                metrics.append(cell.metrics)
        run.per_config[label] = metrics
    for label in labels:
        for i in range(len(loops)):
            cell = cells.get((i, label))
            if cell is not None and not cell.ok:
                run.failures.append(cell.failure)
    run.elapsed_seconds = time.time() - t0
    return run


def _record(
    run_cells: dict[CellKey, Cell], checkpoint: CheckpointLog | None, cell: Cell
) -> None:
    run_cells[cell.key] = cell
    if checkpoint is not None:
        checkpoint.record(cell)


# ----------------------------------------------------------------------
# Serial execution
# ----------------------------------------------------------------------


def _fill_serial(
    run: EvalRun,
    cells: dict[CellKey, Cell],
    loops: list[Loop],
    pipeline_config: PipelineConfig,
    configs: tuple[tuple[int, CopyModel], ...],
    progress: bool,
    cache: ArtifactCache | None,
    timeout: float | None,
    checkpoint: CheckpointLog | None,
    tracer: Tracer | None = None,
    collect_metrics: bool = False,
    store: ArtifactStore | None = None,
) -> None:
    shared_cache = cache if cache is not None else ArtifactCache()
    cache0 = dataclasses.replace(shared_cache.stats)
    store0 = dataclasses.replace(store.stats) if store is not None else None
    for n_clusters, model in configs:
        label = config_label(n_clusters, model)
        # the loop-independent four fifths of the store key, once per
        # configuration — warm cells then hash only the (memoized) loop
        prefix = (
            key_prefix(run.machines[label], pipeline_config)
            if store is not None else None
        )
        compiled = 0
        for i, loop in enumerate(loops):
            if (i, label) in cells:
                continue
            registry = MetricsRegistry() if collect_metrics else None
            scope = (
                tracer.cell(i, label, loop_name=loop.name)
                if tracer is not None else nullcontext()
            )
            with scope:
                try:
                    result = _compile_cell(
                        loop, run.machines[label], pipeline_config,
                        shared_cache, timeout, tracer=tracer, metrics=registry,
                        store=store, store_prefix=prefix,
                    )
                except Exception as exc:
                    cell = _failure_cell(i, label, loop, exc, attempts=1)
                else:
                    cell = Cell(loop_index=i, config=label, metrics=result.metrics)
                    _merge_pass_seconds(run.pass_seconds, result.pass_seconds)
            if registry is not None:
                run.cell_metrics[(i, label)] = {
                    "loop": loop.name, **registry.snapshot()
                }
            _record(cells, checkpoint, cell)
            compiled += 1
            if progress and compiled % 50 == 0:
                print(f"  [{label}] {compiled}/{len(loops)}", file=sys.stderr)
        if progress:
            print(f"[{label}] done: {compiled} compiled", file=sys.stderr)
    delta = dataclasses.replace(shared_cache.stats)
    delta.hits -= cache0.hits
    delta.misses -= cache0.misses
    delta.evictions -= cache0.evictions
    run.absorb_cache_stats(delta)
    if store is not None:
        sdelta = dataclasses.replace(store.stats)
        sdelta.hits_l1 -= store0.hits_l1
        sdelta.hits_l2 -= store0.hits_l2
        sdelta.misses -= store0.misses
        sdelta.invalid -= store0.invalid
        sdelta.writes -= store0.writes
        run.absorb_store_stats(sdelta)




# ----------------------------------------------------------------------
# Parallel execution: the pool worker and the batch adapter
# ----------------------------------------------------------------------

#: one cell of pool work: (cell id, loop, cluster count, copy model).
#: The id comes back as the outcome's ``Cell.loop_index``: the loop
#: index for the runner, a service-wide slot for the daemon.
WorkCell = tuple[int, Loop, int, CopyModel]


@dataclass(frozen=True)
class ChunkJob:
    """One unit of pool work: an explicit cell list and how to run it.

    Cells of one loop travel together, so the worker-local cache gives
    them the serial runner's 1-miss/(k-1)-hit profile.  ``budget`` bounds
    the whole chunk (the daemon's request deadline) on top of the
    per-cell ``cell_timeout``; ``attempt`` is stamped into failures.
    """

    cells: tuple[WorkCell, ...]
    pipeline_config: PipelineConfig
    cell_timeout: float | None = None
    budget: float | None = None
    store_path: str | None = None
    trace: bool = False
    metrics: bool = False
    attempt: int = 1

    def failed(self, error: str, kind: str) -> ChunkResult:
        """Every cell of the job as a typed failure (an engine verdict)."""
        out = []
        for cell_id, loop, n_clusters, model in self.cells:
            label = config_label(n_clusters, model)
            out.append(Cell(loop_index=cell_id, config=label, failure=LoopFailure(
                config=label, loop_name=loop.name, error=error, kind=kind,
                attempts=self.attempt,
            )))
        return ChunkResult(out)


@dataclass
class ChunkResult:
    """What travels home from a worker: cell outcomes, the worker-local
    cache and store counters (store counters None without a store), pass
    wall time, recorded spans and per-cell metric snapshots."""

    cells: list[Cell]
    cache_stats: CacheStats = field(default_factory=CacheStats)
    store_stats: StoreStats | None = None
    pass_seconds: dict[str, float] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    cell_metrics: list[tuple[CellKey, dict]] = field(default_factory=list)


def compile_chunk(job: ChunkJob) -> ChunkResult:
    """Pool worker: compile a chunk's cells under stacked deadlines.

    Machines are rebuilt locally (a ``MachineDescription`` holds a
    mapping-proxy latency table and does not pickle); loops and configs
    do pickle.  The deadlines run *here*, in the worker's main thread:
    the whole chunk under ``job.budget`` and every cell under
    ``job.cell_timeout``.  A cell exceeding its own budget becomes a
    ``timeout`` cell and the chunk moves on; the chunk budget expiring
    fails the cell it interrupted and every cell not yet attempted.  A
    worker wedged beyond ``SIGALRM``'s reach is the engine's watchdog's
    business (:mod:`repro.evalx.engine`).

    The loops were built in another process, after this worker may have
    been forked, so the worker first moves its register-id counter past
    every id they hold: copies and spill temporaries it mints must not
    collide with the loop's own registers.

    Spans land in a worker-local :class:`~repro.obs.Tracer` whose
    plain-dataclass spans pickle back with the result, and each cell's
    metric snapshot is a plain dict; span identity is (cell id, config,
    seq)-based, so merging worker traces reproduces the serial trace.
    With a store path the worker opens the shared on-disk store for
    itself (stores hold OS state and do not pickle); entry writes are
    atomic and deterministic, so workers racing on one key are harmless.
    """
    loops = {id(loop): loop for _, loop, _, _ in job.cells}.values()
    reserve_register_ids(max(
        (reg.rid for loop in loops
         for reg in chain(loop.registers(), loop.factory.all_registers())),
        default=0,
    ))
    cache = ArtifactCache()
    store = ArtifactStore.open(job.store_path) if job.store_path is not None else None
    tracer = Tracer() if job.trace else None
    machines: dict[tuple[int, CopyModel], tuple[str, MachineDescription,
                                                StoreKeyPrefix | None]] = {}
    result = ChunkResult([], cache.stats, store.stats if store is not None else None)
    try:
        with deadline(job.budget):
            for cell_id, loop, n_clusters, model in job.cells:
                if (n_clusters, model) not in machines:
                    machine = paper_machine(n_clusters, model)
                    machines[(n_clusters, model)] = (
                        config_label(n_clusters, model), machine,
                        key_prefix(machine, job.pipeline_config)
                        if store is not None else None,
                    )
                label, machine, prefix = machines[(n_clusters, model)]
                registry = MetricsRegistry() if job.metrics else None
                scope = (
                    tracer.cell(cell_id, label, loop_name=loop.name)
                    if tracer is not None else nullcontext()
                )
                with scope:
                    try:
                        compiled = _compile_cell(
                            loop, machine, job.pipeline_config, cache,
                            job.cell_timeout, tracer=tracer, metrics=registry,
                            store=store, store_prefix=prefix,
                        )
                    except DeadlineExceeded as exc:
                        if job.budget is not None and exc.seconds == job.budget:
                            raise  # the chunk budget, not this cell's
                        cell = _failure_cell(cell_id, label, loop, exc, job.attempt)
                    except Exception as exc:
                        cell = _failure_cell(cell_id, label, loop, exc, job.attempt)
                    else:
                        cell = Cell(loop_index=cell_id, config=label,
                                    metrics=compiled.metrics)
                        _merge_pass_seconds(result.pass_seconds, compiled.pass_seconds)
                if registry is not None:
                    result.cell_metrics.append(
                        ((cell_id, label), {"loop": loop.name, **registry.snapshot()})
                    )
                result.cells.append(cell)
    except DeadlineExceeded as exc:
        # the chunk budget expired: the interrupted cell and everything
        # after it become timeout failures
        for cell_id, loop, n_clusters, model in job.cells[len(result.cells):]:
            result.cells.append(_failure_cell(
                cell_id, config_label(n_clusters, model), loop, exc, job.attempt,
            ))
    if tracer is not None:
        result.spans = tracer.spans
    return result


def _fill_parallel(
    run: EvalRun,
    cells: dict[CellKey, Cell],
    loops: list[Loop],
    pipeline_config: PipelineConfig,
    configs: tuple[tuple[int, CopyModel], ...],
    jobs: int,
    progress: bool,
    timeout: float | None,
    checkpoint: CheckpointLog | None,
    tracer: Tracer | None = None,
    collect_metrics: bool = False,
    store: ArtifactStore | None = None,
) -> None:
    """The batch adapter over :class:`~repro.evalx.engine.PoolEngine`:
    each loop's outstanding cells form one group, groups are chunked ~4
    per worker, and every result merges into ``run`` in the parent."""
    from repro.evalx.engine import PoolEngine, chunked

    groups = [
        [(i, loop, n, model) for n, model in configs
         if (i, config_label(n, model)) not in cells]
        for i, loop in enumerate(loops)
    ]
    store_path = store.path if store is not None else None
    work = [
        ChunkJob(tuple(chunk), pipeline_config, cell_timeout=timeout,
                 store_path=store_path, trace=tracer is not None,
                 metrics=collect_metrics)
        for chunk in chunked([g for g in groups if g], jobs)
    ]
    if not work:
        return
    n_cells = sum(len(job.cells) for job in work)
    settled = 0

    def absorb(result: ChunkResult) -> None:
        nonlocal settled
        for cell in result.cells:
            _record(cells, checkpoint, cell)
        run.absorb_cache_stats(result.cache_stats)
        if result.store_stats is not None:
            run.absorb_store_stats(result.store_stats)
        _merge_pass_seconds(run.pass_seconds, result.pass_seconds)
        if tracer is not None:
            tracer.add_spans(result.spans)
        run.cell_metrics.update(result.cell_metrics)
        settled += len(result.cells)
        if progress:
            print(f"  {settled}/{n_cells} cells done", file=sys.stderr)

    PoolEngine.run_batch(jobs, work, absorb)
