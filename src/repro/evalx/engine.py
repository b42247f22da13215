"""The supervised process-pool engine behind every parallel path.

``repro evaluate`` and ``repro gap`` (through
:func:`repro.evalx.runner.run_evaluation`) and the ``repro serve``
daemon (:mod:`repro.serve.server`) hand :class:`PoolEngine` chunks of
cells as :class:`~repro.evalx.runner.ChunkJob` s.  It runs each on a
:class:`~concurrent.futures.ProcessPoolExecutor` through the one pool
worker, :func:`~repro.evalx.runner.compile_chunk`, and passes every
outcome — compiled, failed in the worker, or judged here — to one
callback: the runner merges a batch, the daemon streams cells.

* **Semaphore gate.**  At most ``jobs`` chunks are submitted at once.
  ``ProcessPoolExecutor`` marks queued work items RUNNING as soon as
  they enter its call queue, so without the gate a chunk parked behind
  a slow one would look stuck; gated, a submitted chunk is executing and
  its running time is honest.
* **Watchdog.**  The worker enforces its budgets with ``SIGALRM``, which
  a worker wedged in uninterruptible work (a C extension, blocked
  signals — see ``REPRO_FAULT_STUCK``) never honours.  Past
  :func:`watchdog_limit` the engine cancels the chunk, or else
  ``SIGKILL``\\ s the pool's processes — the one signal a wedged worker
  cannot block — swaps in a new pool and types the chunk's cells
  ``timeout``.  A chunk with no budget at all runs unsupervised.
* **Poison isolation.**  A chunk whose pool broke (a worker died, or a
  reap killed it as collateral) or that did not pickle is retried one
  cell at a time on a single-worker pool no other chunk uses, so a
  break there convicts that cell alone: ``crash``, ``attempts=2``.
* **Chunking.**  :func:`chunked` joins per-loop cell groups into ~4
  chunks per worker.

Serial runs never come here: serial ``--timeout`` is the one
deliberately unsupervised path, because with no process boundary there
is no worker to kill.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, TypeVar

from repro.evalx.runner import ChunkJob, ChunkResult, compile_chunk
from repro.obs.metrics import MetricsRegistry

T = TypeVar("T")

#: seconds a running chunk may outlive its worker-side deadline before
#: the watchdog reaps it; covers honest overhead (store writes, pickling)
WATCHDOG_GRACE = 2.0


def chunked(groups: list[list[T]], jobs: int) -> list[list[T]]:
    """Join per-loop groups into ~4 chunks per worker, groups kept whole."""
    per_chunk = max(1, math.ceil(len(groups) / (jobs * 4)))
    return [
        [item for group in groups[i:i + per_chunk] for item in group]
        for i in range(0, len(groups), per_chunk)
    ]


def watchdog_limit(
    n_cells: int, cell_timeout: float | None, budget: float | None
) -> float | None:
    """How long a running chunk may take before the watchdog reaps it.

    The worker's own deadlines bound it to ``min(budget, cell_timeout *
    n_cells)``; :data:`WATCHDOG_GRACE` goes on top.  ``None`` means the
    chunk carries no deadline at all and runs unsupervised.
    """
    bounds = []
    if budget is not None and budget > 0:
        bounds.append(budget)
    if cell_timeout is not None and cell_timeout > 0:
        bounds.append(cell_timeout * n_cells)
    return min(bounds) + WATCHDOG_GRACE if bounds else None


class PoolEngine:
    """Supervised chunk execution on a process pool (see module doc).

    ``on_result`` receives every :class:`ChunkResult` in the event
    loop's thread; an exception it raises propagates to the caller
    instead of being mistaken for a worker fault.  Reaps and pool breaks
    are counted in ``metrics`` as ``<scope>.watchdog_reaps`` and
    ``<scope>.pool_breaks``.
    """

    def __init__(
        self,
        jobs: int,
        on_result: Callable[[ChunkResult], None],
        metrics: MetricsRegistry | None = None,
        scope: str = "pool",
    ):
        self.jobs = max(1, jobs)
        self.on_result = on_result
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.scope = scope
        self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        self._isolation_pool: ProcessPoolExecutor | None = None
        self._gate = asyncio.Semaphore(self.jobs)
        self._isolation_lock = asyncio.Lock()

    @classmethod
    def run_batch(
        cls, jobs: int, work: list[ChunkJob],
        on_result: Callable[[ChunkResult], None],
    ) -> None:
        """Run ``work`` to completion on a fresh engine, then shut it down."""
        async def main() -> None:
            engine = cls(jobs, on_result)
            try:
                await asyncio.gather(*(engine.run(job) for job in work))
            except BaseException:
                engine.close(wait=False)
                raise
            engine.close()

        asyncio.run(main())

    def close(self, wait: bool = True) -> None:
        for pool in (self._pool, self._isolation_pool):
            if pool is not None:
                pool.shutdown(wait=wait, cancel_futures=not wait)

    async def run(self, job: ChunkJob) -> None:
        """Run one chunk; every one of its cells reaches ``on_result``."""
        async with self._gate:
            # read the live pool only once a slot is free: a chunk that
            # waited out a reap must land on the replacement pool
            try:
                result = await self._supervise(self._pool, job)
            except Exception:
                result = None  # the chunk broke its pool or did not pickle
        if result is not None:
            self.on_result(result)
            return
        self.metrics.counter(f"{self.scope}.pool_breaks").inc()
        for cell in job.cells:
            single = dataclasses.replace(job, cells=(cell,), attempt=2)
            async with self._isolation_lock:
                if self._isolation_pool is None:
                    self._isolation_pool = ProcessPoolExecutor(max_workers=1)
                try:
                    result = await self._supervise(self._isolation_pool, single)
                except Exception as exc:
                    # died alone on a pool of its own: this cell is the culprit
                    result = single.failed(repr(exc), "crash")
            self.on_result(result)

    async def _supervise(
        self, pool: ProcessPoolExecutor, job: ChunkJob
    ) -> ChunkResult:
        """Run ``job`` on ``pool``, reaping it past its watchdog limit.

        Raises when the pool broke or the job or its result did not
        pickle.
        """
        limit = watchdog_limit(len(job.cells), job.cell_timeout, job.budget)
        try:
            cf = pool.submit(compile_chunk, job)
            done = asyncio.wrap_future(cf)
            try:
                return await asyncio.wait_for(asyncio.shield(done), limit)
            except asyncio.TimeoutError:
                if done.done():  # finished between the deadline and now
                    return done.result()
        except BrokenExecutor:
            self._replace(pool)
            raise
        self.metrics.counter(f"{self.scope}.watchdog_reaps").inc()
        # the abandoned future fails once its pool dies; retrieve the
        # exception so it is not logged as never consumed
        done.add_done_callback(lambda f: None if f.cancelled() else f.exception())
        if not cf.cancel():
            for proc in list((pool._processes or {}).values()):
                proc.kill()
        self._replace(pool)
        return job.failed(
            f"worker stuck past its deadline; reaped by the watchdog "
            f"after {limit:.1f}s", "timeout",
        )

    def _replace(self, pool: ProcessPoolExecutor) -> None:
        """Retire ``pool`` iff it is still live (several chunks may see
        one break; only the first swaps)."""
        if pool is self._pool:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        elif pool is self._isolation_pool:
            self._isolation_pool = None
        else:
            return
        pool.shutdown(wait=False)
