"""Unit tests for repro.runtime.pool: supervised fork worker pools.

The tests drive every recovery path with real forked children: clean
runs, crashed workers (``os._exit``), raising workers, wedged workers
(timeout), poison tasks that exhaust retries (serial fallback), and the
``fallback=False`` hard-error mode.  First-attempt-only faults are
armed through marker files on disk so the retry genuinely succeeds.
"""

import multiprocessing
import os
import time

import pytest

from repro.runtime.pool import (
    OUTCOME_CRASH,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_SERIAL_OK,
    PoolConfig,
    PoolTaskError,
    RunReport,
    TaskAttempt,
    backoff_delay,
    resolve_jobs,
    run_supervised,
    supervised_map,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")

# Fast-retry config so fault tests don't sleep out real backoff.
FAST = dict(retries=2, base_delay=0.001, max_delay=0.005)


def _square(value):
    return value * value


class _FlakyCrash:
    """Dies with ``os._exit`` until its marker file exists, then works."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __call__(self, value):
        if not os.path.exists(self.marker):
            with open(self.marker, "w") as handle:
                handle.write("armed")
            os._exit(1)
        return value * value


class _FlakyCrashPid(_FlakyCrash):
    """:class:`_FlakyCrash` that also reports which process ran it."""

    def __call__(self, value):
        return super().__call__(value), os.getpid()


def _pid(_value):
    return os.getpid()


class _FlakyRaise:
    """Raises until its marker file exists, then works."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __call__(self, value):
        if not os.path.exists(self.marker):
            with open(self.marker, "w") as handle:
                handle.write("armed")
            raise RuntimeError("transient fault")
        return value * value


class _FlakyHang:
    """Sleeps past the timeout until its marker file exists, then works."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __call__(self, value):
        if not os.path.exists(self.marker):
            with open(self.marker, "w") as handle:
                handle.write("armed")
            time.sleep(30.0)
        return value * value


class _ChildPoison:
    """Dies in every forked child but succeeds inline in the parent."""

    def __init__(self, parent_pid):
        self.parent_pid = parent_pid

    def __call__(self, value):
        if os.getpid() != self.parent_pid:
            os._exit(1)
        return value * value


def _always_raises(value):
    raise ValueError(f"poison task {value}")


class TestResolveJobs:
    def test_none_is_serial(self):
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestBackoff:
    def test_deterministic_for_same_inputs(self):
        config = PoolConfig(seed=7, label="x")
        assert backoff_delay(config, 3, 1) == backoff_delay(config, 3, 1)

    def test_varies_with_task_and_attempt(self):
        config = PoolConfig(seed=7, label="x")
        delays = {backoff_delay(config, i, a) for i in range(4) for a in (1, 2)}
        assert len(delays) == 8  # jitter separates every (task, attempt)

    def test_bounded_by_max_delay_and_jitter(self):
        config = PoolConfig(base_delay=0.1, max_delay=0.2)
        for attempt in range(1, 8):
            delay = backoff_delay(config, 0, attempt)
            assert 0.05 * 0.5 <= delay <= 0.2 * 1.5


class TestSerialPath:
    def test_jobs_one_runs_inline(self):
        results, report = run_supervised(_square, [1, 2, 3], PoolConfig(jobs=1))
        assert results == [1, 4, 9]
        assert report.clean and report.tasks == 3

    def test_exceptions_propagate_unchanged(self):
        # Serial execution must behave exactly like a plain loop.
        with pytest.raises(ValueError, match="poison task 2"):
            run_supervised(_always_raises, [2], PoolConfig(jobs=1))

    def test_single_task_skips_fork(self):
        results, report = run_supervised(_square, [5], PoolConfig(jobs=8))
        assert results == [25]
        assert [a.outcome for a in report.attempts] == [OUTCOME_OK]

    def test_empty_tasks(self):
        results, report = run_supervised(_square, [], PoolConfig(jobs=4))
        assert results == [] and report.attempts == []

    def test_on_result_fires_serially(self):
        seen = []
        run_supervised(
            _square, [1, 2], PoolConfig(jobs=1), on_result=lambda i, v: seen.append((i, v))
        )
        assert seen == [(0, 1), (1, 4)]


@needs_fork
class TestParallelPath:
    def test_results_in_task_order(self):
        tasks = list(range(12))
        results, report = run_supervised(_square, tasks, PoolConfig(jobs=4))
        assert results == [t * t for t in tasks]
        assert report.clean
        assert report.crashes == report.timeouts == report.errors == 0

    def test_on_result_sees_every_task_once(self):
        seen = {}
        run_supervised(
            _square,
            list(range(8)),
            PoolConfig(jobs=4),
            on_result=lambda i, v: seen.__setitem__(i, v),
        )
        assert seen == {i: i * i for i in range(8)}

    def test_crashed_worker_is_retried(self, tmp_path):
        func = _FlakyCrash(tmp_path / "armed")
        results, report = run_supervised(
            func, [3, 4], PoolConfig(jobs=2, **FAST)
        )
        assert results == [9, 16]
        assert report.crashes >= 1
        assert report.retries >= 1
        assert not report.clean

    def test_raising_worker_is_retried(self, tmp_path):
        func = _FlakyRaise(tmp_path / "armed")
        results, report = run_supervised(
            func, [3, 4], PoolConfig(jobs=2, **FAST)
        )
        assert results == [9, 16]
        assert report.errors >= 1
        # The traceback text travels back through the pipe.
        faulted = [a for a in report.attempts if a.outcome == OUTCOME_ERROR]
        assert "transient fault" in faulted[0].detail

    def test_wedged_worker_is_killed_and_retried(self, tmp_path):
        func = _FlakyHang(tmp_path / "armed")
        results, report = run_supervised(
            func, [3, 4], PoolConfig(jobs=2, timeout=0.5, **FAST)
        )
        assert results == [9, 16]
        assert report.timeouts >= 1

    def test_poison_task_falls_back_to_serial(self):
        func = _ChildPoison(os.getpid())
        results, report = run_supervised(
            func, [3, 4], PoolConfig(jobs=2, **FAST)
        )
        assert results == [9, 16]
        assert report.fallbacks >= 1
        serial = [a for a in report.attempts if a.outcome == OUTCOME_SERIAL_OK]
        assert serial, report.summary()

    def test_fallback_disabled_raises_pool_task_error(self):
        func = _ChildPoison(os.getpid())
        with pytest.raises(PoolTaskError) as info:
            run_supervised(
                func, [3, 4], PoolConfig(jobs=2, fallback=False, **FAST)
            )
        assert info.value.index in (0, 1)
        assert "died" in info.value.detail

    def test_serial_fallback_surfaces_real_exception(self):
        # A genuinely-broken task must raise its own exception type with
        # its real traceback, not a pickled shadow or a PoolTaskError.
        with pytest.raises(ValueError, match="poison task"):
            run_supervised(
                _always_raises, [3, 4], PoolConfig(jobs=2, **FAST)
            )


@needs_fork
class TestPersistentWorkers:
    def test_each_worker_forked_once(self):
        results, report = run_supervised(_pid, list(range(40)), PoolConfig(jobs=2))
        assert len(set(results)) <= 2
        assert os.getpid() not in results
        assert report.clean and len(report.attempts) == 40

    def test_crashed_worker_is_replaced(self, tmp_path):
        func = _FlakyCrashPid(tmp_path / "armed")
        results, report = run_supervised(
            func, list(range(20)), PoolConfig(jobs=2, **FAST)
        )
        assert [value for value, _pid in results] == [t * t for t in range(20)]
        assert report.crashes == 1
        assert len({pid for _value, pid in results}) <= 2 + report.crashes

    def test_no_child_outlives_a_clean_run(self):
        run_supervised(_square, list(range(10)), PoolConfig(jobs=2))
        assert multiprocessing.active_children() == []

    def test_no_child_outlives_pool_task_error(self):
        func = _ChildPoison(os.getpid())
        with pytest.raises(PoolTaskError):
            run_supervised(
                func, [3, 4, 5], PoolConfig(jobs=2, fallback=False, **FAST)
            )
        assert multiprocessing.active_children() == []

    def test_no_child_outlives_on_result_error(self):
        def on_result(index, value):
            raise KeyError(index)

        with pytest.raises(KeyError):
            run_supervised(
                _square, list(range(10)), PoolConfig(jobs=2), on_result=on_result
            )
        assert multiprocessing.active_children() == []


class TestRunReport:
    def _report(self):
        report = RunReport(label="t", tasks=2)
        report.attempts = [
            TaskAttempt(0, 0, OUTCOME_CRASH, detail="died"),
            TaskAttempt(0, 1, OUTCOME_OK),
            TaskAttempt(1, 0, OUTCOME_ERROR, detail="boom"),
            TaskAttempt(1, 1, OUTCOME_ERROR, detail="boom"),
            TaskAttempt(1, 2, OUTCOME_SERIAL_OK, detail="boom"),
        ]
        return report

    def test_counters(self):
        report = self._report()
        assert report.crashes == 1
        assert report.errors == 2
        assert report.timeouts == 0
        assert report.retries == 2  # attempts 1 of task 0 and 1 of task 1
        assert report.fallbacks == 1
        assert not report.clean

    def test_clean_requires_first_attempt_success(self):
        report = RunReport(label="t", tasks=1)
        report.attempts = [TaskAttempt(0, 0, OUTCOME_OK)]
        assert report.clean

    def test_summary_mentions_everything(self):
        text = self._report().summary()
        assert "1 crash(es)" in text
        assert "2 error(s)" in text
        assert "1 serial fallback(s)" in text


class TestSupervisedMap:
    def test_report_sink_collects_report(self):
        sink = []
        results = supervised_map(_square, [1, 2, 3], jobs=1, report_sink=sink)
        assert results == [1, 4, 9]
        assert len(sink) == 1 and sink[0].tasks == 3

    @needs_fork
    def test_jobs_capped_to_task_count(self):
        sink = []
        supervised_map(_square, [1, 2], jobs=16, report_sink=sink)
        assert sink[0].tasks == 2

    def test_config_jobs_used_when_jobs_omitted(self):
        results = supervised_map(
            _square, [2], config=PoolConfig(jobs=1, label="m")
        )
        assert results == [4]
