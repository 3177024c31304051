"""Deterministic fault injection (repro.sim.faults).

Determinism is the load-bearing property: the same seed must damage the
same lines, files, and workers on every run, or the fault-injection
gauntlet (``repro-faultcheck``) could never assert that every injected
fault was accounted for.
"""

import os

import pytest

from repro.data.logfile import load_store, save_store, write_daily_log
from repro.runtime.pool import PoolConfig, supervised_map
from repro.runtime.quarantine import ERRORS_QUARANTINE, QuarantineReport
from repro.sim.faults import (
    FAULT_ENV,
    FaultEvent,
    FaultPlan,
    apply_worker_faults,
    parse_fault_env,
)


def _campaign(directory, n_days=4, per_day=30):
    os.makedirs(str(directory), exist_ok=True)
    paths = []
    for day in range(n_days):
        path = os.path.join(str(directory), f"log-{day}.txt")
        write_daily_log(
            path,
            day,
            [((0x20010DB8 << 96) | (day * 100 + i), i + 1) for i in range(per_day)],
        )
        paths.append(path)
    return paths


class TestFaultEvent:
    def test_format(self):
        event = FaultEvent("corrupt-line", "log-0.txt", "line 3: garble-address")
        assert event.format() == "corrupt-line: log-0.txt (line 3: garble-address)"
        assert FaultEvent("drop-day", "log-1.txt").format() == "drop-day: log-1.txt"


class TestCorruptLogs:
    def test_same_seed_same_damage(self, tmp_path):
        a_paths = _campaign(tmp_path / "a")
        b_paths = _campaign(tmp_path / "b")
        plan = FaultPlan(seed=5, corrupt_line_rate=0.2)
        a_events = plan.corrupt_logs(a_paths)
        b_events = plan.corrupt_logs(b_paths)
        assert a_events  # the rate is high enough to hit something
        assert [(e.kind, os.path.basename(e.target), e.detail) for e in a_events] == [
            (e.kind, os.path.basename(e.target), e.detail) for e in b_events
        ]
        for a, b in zip(a_paths, b_paths):
            with open(a, encoding="utf-8") as ha, open(b, encoding="utf-8") as hb:
                assert ha.read() == hb.read()

    def test_different_seed_different_damage(self, tmp_path):
        a_events = FaultPlan(seed=1, corrupt_line_rate=0.2).corrupt_logs(
            _campaign(tmp_path / "a")
        )
        b_events = FaultPlan(seed=2, corrupt_line_rate=0.2).corrupt_logs(
            _campaign(tmp_path / "b")
        )
        assert [e.detail for e in a_events] != [e.detail for e in b_events]

    def test_comments_never_touched(self, tmp_path):
        paths = _campaign(tmp_path, n_days=2)
        FaultPlan(seed=5, corrupt_line_rate=1.0).corrupt_logs(paths)
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                first = handle.readline()
            assert first.startswith("# repro aggregated log day=")

    def test_every_corruption_is_quarantinable(self, tmp_path):
        # rate=1.0 exercises all four mutation shapes; every one must
        # land in the quarantine, none may abort or pass through.
        paths = _campaign(tmp_path, n_days=2, per_day=20)
        events = FaultPlan(seed=5, corrupt_line_rate=1.0).corrupt_logs(paths)
        assert len(events) == 40
        report = QuarantineReport()
        from repro.runtime.quarantine import QuarantinePolicy

        store = load_store(
            paths,
            errors=ERRORS_QUARANTINE,
            report=report,
            policy=QuarantinePolicy(max_line_fraction=1.0),
        )
        assert report.total_line_faults == len(events)
        assert all(len(store.get(day)) == 0 for day in store.days())

    def test_zero_rate_is_a_no_op(self, tmp_path):
        paths = _campaign(tmp_path, n_days=1)
        before = open(paths[0], encoding="utf-8").read()
        assert FaultPlan(seed=5).corrupt_logs(paths) == []
        assert open(paths[0], encoding="utf-8").read() == before


class TestCacheAndDayFaults:
    def test_truncate_cache_is_deterministic_and_recoverable(self, tmp_path):
        paths = _campaign(tmp_path / "logs")
        cache = str(tmp_path / "cache")
        baseline = load_store(paths, cache_dir=cache)
        plan = FaultPlan(seed=5, truncate_cache_rate=0.7)
        events = plan.truncate_cache(cache)
        assert events
        # Deterministic: a second pass picks the same payloads.
        assert [os.path.basename(e.target) for e in events] == [
            os.path.basename(e.target) for e in plan.truncate_cache(cache)
        ]
        report = QuarantineReport()
        rebuilt = load_store(
            paths, cache_dir=cache, errors=ERRORS_QUARANTINE, report=report
        )
        assert rebuilt.days() == baseline.days()
        assert report.by_rule().get("cache-rebuilt") == len(events)

    def test_truncate_missing_dir_is_empty(self, tmp_path):
        plan = FaultPlan(seed=5, truncate_cache_rate=1.0)
        assert plan.truncate_cache(str(tmp_path / "nope")) == []

    def test_drop_and_restore_days(self, tmp_path):
        paths = _campaign(tmp_path / "a", n_days=6)
        plan = FaultPlan(seed=5, drop_day_rate=0.4)
        events = plan.drop_days(paths)
        assert events
        for event in events:
            assert not os.path.exists(event.target)
            assert os.path.exists(event.target + ".dropped")
        # Deterministic: the same seed picks the same days elsewhere.
        other = FaultPlan(seed=5, drop_day_rate=0.4).drop_days(
            _campaign(tmp_path / "b", n_days=6)
        )
        assert [os.path.basename(e.target) for e in events] == [
            os.path.basename(e.target) for e in other
        ]
        plan.restore_days(events)
        for path in paths:
            assert os.path.exists(path)


class TestWorkerFaultEnv:
    def test_env_roundtrip(self):
        plan = FaultPlan(
            seed=9,
            kill_worker_rate=0.5,
            delay_worker_rate=0.25,
            delay_seconds=1.5,
            poison_tasks=(2, 7),
        )
        env = plan.worker_env()
        spec = parse_fault_env(env[FAULT_ENV])
        assert spec["seed"] == 9
        assert spec["kill"] == 0.5
        assert spec["delay"] == 0.25
        assert spec["delay_seconds"] == 1.5
        assert spec["poison"] == frozenset({2, 7})

    def test_parse_tolerates_garbage(self):
        spec = parse_fault_env("seed=x,,bogus,kill=nope,delay=0.5,wat")
        assert spec["seed"] == 0 and spec["kill"] == 0.0 and spec["delay"] == 0.5

    def test_apply_without_env_is_inert(self, monkeypatch):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        apply_worker_faults("pool", 0, 0)  # must not raise or kill

    def test_kill_fires_only_on_first_attempt(self):
        # attempt > 0 never kills, even at rate 1.0 — that is the
        # retry-recovers contract.
        env = FaultPlan(seed=5, kill_worker_rate=1.0).worker_env()[FAULT_ENV]
        apply_worker_faults("pool", 0, 1, env=env)  # survives

    def test_delay_sleeps_deterministically(self, monkeypatch):
        slept = []
        monkeypatch.setattr("time.sleep", lambda s: slept.append(s))
        env = FaultPlan(
            seed=5, delay_worker_rate=1.0, delay_seconds=2.5
        ).worker_env()[FAULT_ENV]
        apply_worker_faults("pool", 3, 0, env=env)
        assert slept == [2.5]
        apply_worker_faults("pool", 3, 1, env=env)  # retries are not delayed
        assert slept == [2.5]

    def test_killed_workers_recover_through_pool(self, tmp_path, monkeypatch):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork start method")
        paths = _campaign(tmp_path, n_days=4)
        baseline = load_store(paths)
        monkeypatch.setenv(
            FAULT_ENV, FaultPlan(seed=5, kill_worker_rate=1.0).worker_env()[FAULT_ENV]
        )
        sink = []
        survived = load_store(paths, jobs=2, report_sink=sink)
        # Every first attempt was SIGKILLed, and each retry then ran once.
        assert sink[0].crashes == len(paths)
        assert len(sink[0].attempts) == 2 * len(paths)
        assert survived.days() == baseline.days()
        import numpy as np

        for day in baseline.days():
            np.testing.assert_array_equal(
                survived.get(day).addresses, baseline.get(day).addresses
            )

    def test_poison_task_forces_serial_fallback(self, monkeypatch):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork start method")
        monkeypatch.setenv(
            FAULT_ENV,
            FaultPlan(seed=5, poison_tasks=(1,)).worker_env()[FAULT_ENV],
        )
        sink = []
        results = supervised_map(
            _double,
            [10, 20, 30],
            jobs=2,
            config=PoolConfig(retries=1, base_delay=0.001, label="poisoned"),
            report_sink=sink,
        )
        assert results == [20, 40, 60]
        assert sink[0].fallbacks >= 1  # task 1 died in every child


def _double(value):
    return value * 2
