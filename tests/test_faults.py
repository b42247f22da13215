"""Fault primitives and the evaluation runner's fault paths.

Covers the three failure kinds end-to-end: a worker that raises
(``exception``), a worker killed mid-chunk (``crash``, isolated by the
chunk-size-1 retry) and a loop exceeding the wall-clock timeout
(``timeout``) — in each case the run completes, the failure carries the
right kind/attempt metadata, and every surviving loop's metrics match
the clean serial run's exactly.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.core.faults import (
    FAULT_CRASH_ENV,
    FAULT_HANG_ENV,
    FAULT_RAISE_ENV,
    FAULT_STUCK_ENV,
    DeadlineExceeded,
    call_with_deadline,
    deadline,
    maybe_inject_fault,
    retry,
)
from repro.core.pipeline import PipelineConfig
from repro.evalx.export import run_to_csv
from repro.evalx.runner import run_evaluation
from repro.machine.machine import CopyModel
from repro.workloads.corpus import spec95_corpus

CONFIG = PipelineConfig(run_regalloc=False)
ONE_CONFIG = ((2, CopyModel.EMBEDDED),)
REPO_ROOT = pathlib.Path(__file__).parent.parent


class TestDeadline:
    def test_fast_call_returns_value(self):
        assert call_with_deadline(lambda x: x + 1, 41, seconds=10.0) == 42

    def test_sleep_is_interrupted(self):
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            with deadline(0.2):
                time.sleep(30)
        assert time.monotonic() - t0 < 10

    def test_cpu_bound_python_is_interrupted(self):
        with pytest.raises(DeadlineExceeded):
            with deadline(0.2):
                x = 0
                while True:  # pure-Python spin, no sleeps, no IO
                    x += 1

    def test_none_and_nonpositive_mean_no_budget(self):
        with deadline(None):
            pass
        with deadline(0):
            pass
        with deadline(-1.0):
            pass

    def test_exception_carries_budget(self):
        with pytest.raises(DeadlineExceeded) as info:
            call_with_deadline(time.sleep, 30, seconds=0.1)
        assert info.value.seconds == 0.1

    def test_timer_and_handler_restored(self):
        before = signal.getsignal(signal.SIGALRM)
        with deadline(30.0):
            pass
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0
        assert signal.getsignal(signal.SIGALRM) is before


class TestNestedDeadline:
    """Regression: nested ``deadline()`` calls must not lose the outer
    budget.  The inner block's exit used to run ``setitimer(ITIMER_REAL,
    0.0)`` unconditionally, cancelling the outer timer — code after a
    completed inner deadline then ran with no budget at all (the serve
    workers stack a per-cell timeout inside a per-request budget, which
    is exactly this shape)."""

    def test_outer_budget_survives_completed_inner(self):
        # fails on the unfixed code: the outer timer is cancelled by the
        # inner exit, the sleep completes, and no DeadlineExceeded raises
        with pytest.raises(DeadlineExceeded) as info:
            with deadline(0.4):
                with deadline(5.0):
                    time.sleep(0.05)  # inner finishes well under budget
                time.sleep(2.0)  # outer must still fire here
        assert info.value.seconds == 0.4

    def test_outer_remaining_reduced_by_inner_elapsed(self):
        # the restored outer budget is what *remains*, not a fresh start
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceeded) as info:
            with deadline(0.5):
                with deadline(5.0):
                    time.sleep(0.3)
                time.sleep(2.0)
        elapsed = time.monotonic() - t0
        assert info.value.seconds == 0.5
        assert 0.4 <= elapsed < 1.5  # ~0.5s total, not 0.3 + 0.5

    def test_inner_fires_inside_outer(self):
        with pytest.raises(DeadlineExceeded) as info:
            with deadline(30.0):
                with deadline(0.1):
                    time.sleep(5)
        assert info.value.seconds == 0.1

    def test_timer_clean_after_nested_exit(self):
        before = signal.getsignal(signal.SIGALRM)
        with deadline(5.0):
            with deadline(1.0):
                pass
            # between the blocks the outer budget must be armed
            assert 0.0 < signal.getitimer(signal.ITIMER_REAL)[0] <= 5.0
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0
        assert signal.getsignal(signal.SIGALRM) is before


class TestRetry:
    def test_first_attempt_success(self):
        value, attempts = retry(lambda attempt: attempt * 10, attempts=3)
        assert (value, attempts) == (10, 1)

    def test_retries_until_success(self):
        def flaky(attempt):
            if attempt < 3:
                raise ValueError("not yet")
            return "ok"

        value, attempts = retry(flaky, attempts=3)
        assert (value, attempts) == ("ok", 3)

    def test_exhausted_attempts_raise_last_error(self):
        def always(attempt):
            raise ValueError(f"attempt {attempt}")

        with pytest.raises(ValueError, match="attempt 2"):
            retry(always, attempts=2)

    def test_non_matching_exception_propagates_immediately(self):
        calls = []

        def wrong_kind(attempt):
            calls.append(attempt)
            raise KeyError("boom")

        with pytest.raises(KeyError):
            retry(wrong_kind, attempts=5, retry_on=(ValueError,))
        assert calls == [1]

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            retry(lambda attempt: attempt, attempts=0)


class TestFaultInjection:
    def test_no_env_is_a_noop(self, monkeypatch):
        for var in (FAULT_CRASH_ENV, FAULT_HANG_ENV, FAULT_RAISE_ENV):
            monkeypatch.delenv(var, raising=False)
        maybe_inject_fault("anything")

    def test_raise_injection_matches_by_name(self, monkeypatch):
        monkeypatch.setenv(FAULT_RAISE_ENV, "alpha, beta")
        maybe_inject_fault("gamma")  # not listed: no-op
        with pytest.raises(RuntimeError, match="injected fault for 'beta'"):
            maybe_inject_fault("beta")


class TestRunnerTimeout:
    def test_serial_timeout_recorded_and_survivors_match(self, monkeypatch):
        loops = spec95_corpus(n=4)
        clean = run_evaluation(loops=loops, config=CONFIG, configs=ONE_CONFIG)
        monkeypatch.setenv(FAULT_HANG_ENV, loops[1].name)
        run = run_evaluation(
            loops=loops, config=CONFIG, configs=ONE_CONFIG, timeout=0.5
        )
        assert [(f.loop_name, f.kind, f.attempts) for f in run.failures] == [
            (loops[1].name, "timeout", 1)
        ]
        assert "deadline" in run.failures[0].error
        assert run.timeout_seconds == 0.5
        (label,) = run.per_config
        survivors = [m for m in clean.per_config[label]
                     if m.loop_name != loops[1].name]
        assert run.per_config[label] == survivors

    def test_parallel_timeout_recorded_in_worker(self, monkeypatch):
        loops = spec95_corpus(n=4)
        clean = run_evaluation(loops=loops, config=CONFIG, configs=ONE_CONFIG)
        monkeypatch.setenv(FAULT_HANG_ENV, loops[2].name)
        run = run_evaluation(
            loops=loops, config=CONFIG, configs=ONE_CONFIG, timeout=0.5, jobs=2
        )
        assert [(f.loop_name, f.kind) for f in run.failures] == [
            (loops[2].name, "timeout")
        ]
        (label,) = run.per_config
        survivors = [m for m in clean.per_config[label]
                     if m.loop_name != loops[2].name]
        assert run.per_config[label] == survivors

    def test_generous_timeout_changes_nothing(self):
        loops = spec95_corpus(n=4)
        untimed = run_evaluation(loops=loops, config=CONFIG, configs=ONE_CONFIG)
        timed = run_evaluation(
            loops=loops, config=CONFIG, configs=ONE_CONFIG, timeout=300.0
        )
        assert not timed.failures
        assert run_to_csv(timed) == run_to_csv(untimed)


class TestRunnerWorkerRaises:
    def test_injected_exception_identical_serial_and_parallel(self, monkeypatch):
        loops = spec95_corpus(n=5)
        monkeypatch.setenv(FAULT_RAISE_ENV, loops[3].name)
        serial = run_evaluation(loops=loops, config=CONFIG)
        parallel = run_evaluation(loops=loops, config=CONFIG, jobs=2)
        assert serial.failures == parallel.failures
        assert len(serial.failures) == 6  # one per paper configuration
        assert all(
            f.kind == "exception" and f.attempts == 1 and "injected fault" in f.error
            for f in serial.failures
        )
        assert run_to_csv(serial) == run_to_csv(parallel)


class TestRunnerCrash:
    def test_worker_killed_mid_chunk_is_isolated(self, monkeypatch):
        loops = spec95_corpus(n=6)
        clean = run_evaluation(loops=loops, config=CONFIG)
        monkeypatch.setenv(FAULT_CRASH_ENV, loops[2].name)
        run = run_evaluation(loops=loops, config=CONFIG, jobs=2)
        # the dead loop is recorded once per configuration, as a crash,
        # after the chunk-size-1 isolation retry
        assert {f.loop_name for f in run.failures} == {loops[2].name}
        assert len(run.failures) == 6
        assert all(f.kind == "crash" and f.attempts == 2 for f in run.failures)
        # every other loop's metrics survive, in clean serial order
        for label, metrics in clean.per_config.items():
            survivors = [m for m in metrics if m.loop_name != loops[2].name]
            assert run.per_config[label] == survivors


class TestAbsorbErrorsPropagate:
    """Regression: the parallel runner's chunk loop used to wrap
    ``absorb(fut.result())`` in one bare ``except Exception``, so a
    merge/accounting bug in the coordinator was retried in isolation and
    misreported as a worker crash.  Only failures that crossed the
    process boundary may poison a chunk; absorb-side errors are real
    bugs and must propagate."""

    def test_absorb_bug_propagates_instead_of_poisoning(self, monkeypatch):
        import repro.evalx.runner as runner_mod

        def boom(self, stats):
            raise RuntimeError("absorb-side accounting bug")

        # absorb_cache_stats runs only in the coordinating process, on
        # every successfully returned chunk
        monkeypatch.setattr(runner_mod.EvalRun, "absorb_cache_stats", boom)
        with pytest.raises(RuntimeError, match="absorb-side accounting bug"):
            run_evaluation(
                loops=spec95_corpus(n=2), config=CONFIG,
                configs=ONE_CONFIG, jobs=2,
            )


class TestAcceptance:
    def test_one_crash_one_timeout_under_two_jobs(self, monkeypatch):
        """ISSUE acceptance: with one loop forced to crash and one forced
        to time out under jobs=2, the run completes, records exactly
        those two failures (per configuration) with the correct kinds,
        and all other metrics are byte-identical to a clean serial run."""
        loops = spec95_corpus(n=6)
        crash, hang = loops[1].name, loops[4].name
        clean = run_evaluation(loops=loops, config=CONFIG)
        monkeypatch.setenv(FAULT_CRASH_ENV, crash)
        monkeypatch.setenv(FAULT_HANG_ENV, hang)
        run = run_evaluation(loops=loops, config=CONFIG, jobs=2, timeout=1.0)

        assert {(f.loop_name, f.kind) for f in run.failures} == {
            (crash, "crash"),
            (hang, "timeout"),
        }
        assert len(run.failures) == 12  # 2 loops x 6 configurations
        for label, metrics in clean.per_config.items():
            survivors = [m for m in metrics if m.loop_name not in (crash, hang)]
            assert run.per_config[label] == survivors


class TestRunnerStuckWorker:
    """A worker wedged past every ``SIGALRM`` deadline (blocked signals,
    modelled by ``REPRO_FAULT_STUCK``) must not hang a parallel batch:
    the engine's watchdog SIGKILLs it and types the loop's cells
    ``timeout``, while every other cell matches a clean serial run.

    The subprocess leg runs first and bounds a hang with a hard timeout,
    so under ``pytest -x`` a regression fails here instead of stalling
    the suite in the in-process leg."""

    VICTIM = "dot"

    def _evaluate(self, tmp_path, name, *args, env=None):
        csv = tmp_path / f"{name}.csv"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "evaluate", "--quick", "6",
             "--csv", str(csv), *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
                 **(env or {})},
            start_new_session=True,
        )
        try:
            out, _err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the stuck workers too
            proc.communicate()
            pytest.fail(f"repro evaluate {' '.join(args)} hung")
        return proc.returncode, out, csv.read_text(encoding="utf-8")

    def test_cli_stuck_worker_ends_with_timeout_rows(self, tmp_path):
        rc, out, csv = self._evaluate(
            tmp_path, "stuck", "--jobs", "2", "--timeout", "1",
            env={FAULT_STUCK_ENV: self.VICTIM},
        )
        assert rc == 1
        assert "Failures (6):" in out
        rows = [line for line in out.splitlines() if f" {self.VICTIM} " in line]
        assert len(rows) == 6
        assert all("timeout" in row and "watchdog" in row for row in rows)
        clean_rc, _out, clean_csv = self._evaluate(tmp_path, "clean")
        assert clean_rc == 0
        survivors = [line for line in clean_csv.splitlines()
                     if f",{self.VICTIM}," not in line]
        assert csv.splitlines() == survivors

    def test_run_evaluation_stuck_worker_is_reaped(self, monkeypatch):
        loops = spec95_corpus(n=6)
        assert self.VICTIM in {loop.name for loop in loops}
        clean = run_evaluation(loops=loops, config=CONFIG)
        monkeypatch.setenv(FAULT_STUCK_ENV, self.VICTIM)
        run = run_evaluation(loops=loops, config=CONFIG, jobs=2, timeout=1.0)
        assert [(f.loop_name, f.kind) for f in run.failures] == [
            (self.VICTIM, "timeout")
        ] * 6
        assert all("watchdog" in f.error for f in run.failures)
        for label, metrics in clean.per_config.items():
            survivors = [m for m in metrics if m.loop_name != self.VICTIM]
            assert run.per_config[label] == survivors
