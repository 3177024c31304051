"""Checkpoint/resume for the sweep engine: atomicity, validation, and
bit-identical recovery from a SIGKILL mid-run.

The core guarantee under test: a sweep killed partway through (the
deterministic ``REPRO_FAULT_KILL_AFTER_CHECKPOINTS`` power cut) and then
resumed from its checkpoint directory produces results bit-identical to
an uninterrupted run — and stale or corrupted checkpoint entries are
never trusted, only silently recomputed.
"""

import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.core import sweep as sweep_mod
from repro.data.logfile import load_store, save_store
from repro.data.store import DailyObservations, ObservationStore
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    KILL_AFTER_CHECKPOINTS_ENV,
    SweepCheckpoint,
    sweep_signature,
)

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _make_store(n_days=8):
    store = ObservationStore()
    hi_value = np.uint64(0x20010DB8 << 32)
    for day in range(n_days):
        count = 5 + day
        lo = np.arange(1, count + 1, dtype=np.uint64) + np.uint64(day * 3)
        hi = np.full(count, hi_value, dtype=np.uint64)
        hits = np.ones(count, dtype=np.uint64)
        store.add_observations(
            DailyObservations.from_halves(day, hi, lo, hits, merged=True)
        )
    return store


def _interior_edit_pair():
    """Two stores whose day 3 differs in one interior address only: the
    same size and the same first and last address."""
    old, new = ObservationStore(), ObservationStore()
    for day in range(8):
        values = [1, 10 + day % 3, 20 + day % 2, 100]
        old.add_day(day, values)
        new.add_day(day, [15 if v == 10 and day == 3 else v for v in values])
    return old, new


def _pairs(days=(0, 1, 2)):
    return [(day, np.arange(day + 2, dtype=np.int64)) for day in days]


class TestSweepSignature:
    def test_deterministic(self):
        store = _make_store()
        days = store.days()
        a = sweep_signature({0: store}, days, 3, 3, 4)
        b = sweep_signature({0: store}, days, 3, 3, 4)
        assert a == b

    def test_sensitive_to_every_parameter(self):
        store = _make_store()
        days = store.days()
        base = sweep_signature({0: store}, days, 3, 3, 4)
        assert sweep_signature({0: store}, days, 2, 3, 4) != base
        assert sweep_signature({0: store}, days, 3, 2, 4) != base
        assert sweep_signature({0: store}, days, 3, 3, 5) != base
        assert sweep_signature({0: store}, days[:-1], 3, 3, 4) != base

    def test_sensitive_to_store_content(self):
        store, other = _make_store(), _make_store()
        days = store.days()
        base = sweep_signature({0: store}, days, 3, 3, 4)
        # Re-ingesting day 0 with one more address must invalidate.
        hi = np.full(3, np.uint64(0x20010DB8 << 32), dtype=np.uint64)
        lo = np.arange(1, 4, dtype=np.uint64)
        other.add_observations(DailyObservations.from_halves(0, hi, lo, merged=True))
        assert sweep_signature({0: other}, days, 3, 3, 4) != base

    def test_sensitive_to_interior_address(self):
        old, new = _interior_edit_pair()
        days = old.days()
        assert sweep_signature({0: new}, days, 3, 3, 4) != sweep_signature(
            {0: old}, days, 3, 3, 4
        )

    def test_sensitive_to_store_key(self):
        store = _make_store()
        days = store.days()
        assert sweep_signature({0: store}, days, 3, 3, 4) != sweep_signature(
            {64: store}, days, 3, 3, 4
        )


class TestSweepCheckpointStore:
    def test_roundtrip(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), "sig")
        pairs = _pairs()
        checkpoint.save_chunk(128, 0, pairs)
        loaded = checkpoint.load_chunk(128, 0, [0, 1, 2])
        assert loaded is not None
        for (day, gaps), (expected_day, expected_gaps) in zip(loaded, pairs):
            assert day == expected_day
            np.testing.assert_array_equal(gaps, expected_gaps)
        assert checkpoint.completed_chunks() == 1

    def test_absent_chunk_is_none(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), "sig")
        assert checkpoint.load_chunk(128, 0, [0, 1, 2]) is None

    def test_signature_mismatch_rejected(self, tmp_path):
        SweepCheckpoint(str(tmp_path), "old-run").save_chunk(128, 0, _pairs())
        fresh = SweepCheckpoint(str(tmp_path), "new-run")
        assert fresh.load_chunk(128, 0, [0, 1, 2]) is None

    def test_day_list_mismatch_rejected(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), "sig")
        checkpoint.save_chunk(128, 0, _pairs())
        assert checkpoint.load_chunk(128, 0, [0, 1, 9]) is None

    def test_truncated_payload_rejected(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), "sig")
        checkpoint.save_chunk(128, 0, _pairs())
        npz_path, _meta_path = checkpoint.chunk_paths(128, 0)
        with open(npz_path, "rb") as handle:
            payload = handle.read()
        with open(npz_path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        assert checkpoint.load_chunk(128, 0, [0, 1, 2]) is None

    def test_version_bump_rejected(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), "sig")
        checkpoint.save_chunk(128, 0, _pairs())
        _npz_path, meta_path = checkpoint.chunk_paths(128, 0)
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        meta["version"] = CHECKPOINT_VERSION + 1
        with open(meta_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        assert checkpoint.load_chunk(128, 0, [0, 1, 2]) is None

    def test_garbage_meta_rejected(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), "sig")
        checkpoint.save_chunk(128, 0, _pairs())
        _npz_path, meta_path = checkpoint.chunk_paths(128, 0)
        with open(meta_path, "w", encoding="utf-8") as handle:
            handle.write("not json {")
        assert checkpoint.load_chunk(128, 0, [0, 1, 2]) is None

    def test_missing_payload_rejected(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), "sig")
        checkpoint.save_chunk(128, 0, _pairs())
        npz_path, _meta_path = checkpoint.chunk_paths(128, 0)
        os.unlink(npz_path)
        assert checkpoint.load_chunk(128, 0, [0, 1, 2]) is None


def _results_equal(a, b):
    return len(a) == len(b) and all(
        x.reference_day == y.reference_day
        and np.array_equal(x.active, y.active)
        and np.array_equal(x.gaps, y.gaps)
        for x, y in zip(a, b)
    )


class TestSweepWithCheckpoints:
    def test_checkpointed_sweep_matches_plain(self, tmp_path):
        store = _make_store()
        plain = sweep_mod.sweep_days(store, window_before=3, window_after=3)
        checkpointed = sweep_mod.sweep_days(
            store,
            window_before=3,
            window_after=3,
            chunk_days=3,
            checkpoint_dir=str(tmp_path),
        )
        assert _results_equal(plain, checkpointed)
        assert os.listdir(tmp_path)  # chunks landed on disk

    def test_second_run_is_fully_cached(self, tmp_path):
        store = _make_store()
        sweep_mod.sweep_days(
            store, window_before=3, window_after=3, chunk_days=3,
            checkpoint_dir=str(tmp_path),
        )
        sink = []
        again = sweep_mod.sweep_days(
            store, window_before=3, window_after=3, chunk_days=3,
            checkpoint_dir=str(tmp_path), report_sink=sink,
        )
        assert sink and sink[0].tasks == 0  # every chunk came from disk
        plain = sweep_mod.sweep_days(store, window_before=3, window_after=3)
        assert _results_equal(again, plain)

    def test_parameter_change_invalidates_cache(self, tmp_path):
        store = _make_store()
        sweep_mod.sweep_days(
            store, window_before=3, window_after=3, chunk_days=3,
            checkpoint_dir=str(tmp_path),
        )
        sink = []
        widened = sweep_mod.sweep_days(
            store, window_before=4, window_after=3, chunk_days=3,
            checkpoint_dir=str(tmp_path), report_sink=sink,
        )
        assert sink and sink[0].tasks > 0  # stale entries were not trusted
        plain = sweep_mod.sweep_days(store, window_before=4, window_after=3)
        assert _results_equal(widened, plain)

    def test_interior_edit_is_not_resumed(self, tmp_path):
        """A day edited inside its boundaries invalidates the old chunks."""
        old, new = _interior_edit_pair()
        ck = str(tmp_path / "ck")
        sweep_mod.sweep_days(old, window_before=3, window_after=3, checkpoint_dir=ck)
        resumed = sweep_mod.sweep_days(
            new, window_before=3, window_after=3, checkpoint_dir=ck
        )
        fresh = sweep_mod.sweep_days(new, window_before=3, window_after=3)
        stale = sweep_mod.sweep_days(old, window_before=3, window_after=3)
        assert [r.gaps.tolist() for r in fresh] != [r.gaps.tolist() for r in stale]
        assert _results_equal(resumed, fresh)

    def test_parallel_checkpointed_matches_serial(self, tmp_path):
        store = _make_store()
        parallel = sweep_mod.sweep_days(
            store, window_before=3, window_after=3, jobs=4, chunk_days=2,
            checkpoint_dir=str(tmp_path / "ck"),
        )
        serial = sweep_mod.sweep_days(store, window_before=3, window_after=3)
        assert _results_equal(parallel, serial)


class TestKillAndResume:
    """The headline guarantee: SIGKILL mid-sweep, resume bit-identically."""

    def test_sigkill_then_resume_is_bit_identical(self, tmp_path):
        store = _make_store(n_days=10)
        log_dir = tmp_path / "logs"
        ck_dir = tmp_path / "checkpoints"
        log_dir.mkdir()
        save_store(store, str(log_dir))

        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        env[KILL_AFTER_CHECKPOINTS_ENV] = "1"
        env.pop("REPRO_FAULTS", None)
        child = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "faultcheck",
                "--child-sweep",
                str(log_dir),
                str(ck_dir),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        chunks = [n for n in os.listdir(ck_dir) if n.endswith(".npz")]
        assert len(chunks) >= 1  # died after its first checkpoint write

        # Resume in-process with the same parameters the child used
        # (window 3/3, chunk 3 — pinned in repro.cli for this hook).
        reloaded = load_store(
            sorted(
                (str(p) for p in log_dir.glob("log-*.txt")),
                key=lambda p: int(os.path.basename(p)[4:-4]),
            )
        )
        resumed = sweep_mod.sweep_days(
            reloaded,
            window_before=3,
            window_after=3,
            jobs=2,
            chunk_days=3,
            checkpoint_dir=str(ck_dir),
        )
        uninterrupted = sweep_mod.sweep_days(
            reloaded, window_before=3, window_after=3, chunk_days=3
        )
        assert _results_equal(resumed, uninterrupted)

    def test_kill_env_threshold_zero_is_inert(self, tmp_path, monkeypatch):
        monkeypatch.setenv(KILL_AFTER_CHECKPOINTS_ENV, "0")
        checkpoint = SweepCheckpoint(str(tmp_path), "sig")
        checkpoint.save_chunk(128, 0, _pairs())  # must not kill us
        assert checkpoint.completed_chunks() == 1

    def test_kill_env_garbage_is_inert(self, tmp_path, monkeypatch):
        monkeypatch.setenv(KILL_AFTER_CHECKPOINTS_ENV, "soon")
        checkpoint = SweepCheckpoint(str(tmp_path), "sig")
        checkpoint.save_chunk(128, 0, _pairs())
        assert checkpoint.completed_chunks() == 1
