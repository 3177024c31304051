"""Atomic, content-hash-validated checkpointing for the sweep engine.

A multi-month temporal sweep is chunked into bounded day spans
(:data:`repro.core.sweep.DEFAULT_CHUNK_DAYS`); each chunk's result — the
per-day gap arrays — is a pure function of the store and the window
parameters.  That makes chunks the natural checkpoint unit: persist
each completed chunk as it lands, and a killed sweep resumes by loading
every completed chunk and recomputing only the rest, bit-identical to
an uninterrupted run.

Layout — one pair of files per completed ``(store key, chunk index)``::

    <dir>/chunk-<key>-<index>.npz        # one int64 gaps array per ref day
    <dir>/chunk-<key>-<index>.meta.json  # {"version", "signature", "sha256",
                                         #  "store_key", "chunk_index", "days"}

Safety properties, mirroring the day-log cache's design:

* **Atomicity** — payload and meta are written via temp file +
  ``os.replace``; a SIGKILL mid-write leaves either the previous state
  or a temp file that is never read.  Meta lands after the payload, so
  a reader that sees the meta can trust the payload it points at.
* **Content validation** — the meta records the SHA-256 of the payload
  bytes; a truncated or corrupted payload fails the hash check, and
  the chunk is silently recomputed.
* **Run signature** — every entry embeds a digest of the sweep's
  parameters and of its input stores (every day's number and full
  ``(hi, lo)`` address bytes).  Changing any address of any day, the
  window, or the chunking invalidates old entries wholesale; stale
  resume cannot occur.

The fault-injection harness can arm ``REPRO_FAULT_KILL_AFTER_CHECKPOINTS``
to SIGKILL the process after the N-th checkpoint write — the
deterministic "power cut mid-sweep" the resume test recovers from.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import signal
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Bump when the on-disk layout changes; mismatched entries are ignored.
CHECKPOINT_VERSION = 2

#: Environment variable: SIGKILL the process after this many checkpoint
#: writes (deterministic fault injection; see repro.sim.faults).
KILL_AFTER_CHECKPOINTS_ENV = "REPRO_FAULT_KILL_AFTER_CHECKPOINTS"


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def sweep_signature(
    stores: "Dict[int, object]",
    ref_days: Sequence[int],
    window_before: int,
    window_after: int,
    chunk_days: int,
) -> str:
    """Digest of a sweep's parameters and of its input stores.

    The store part hashes, per store key and day, the day number, the
    array size and the day's whole ``(hi, lo)`` address array, so any
    edited address changes the signature — an interior one included,
    with the day's size and boundary addresses unchanged.  Hashing is
    one SHA-256 pass over 16 bytes per address.
    """
    hasher = hashlib.sha256()
    header = {
        "version": CHECKPOINT_VERSION,
        "ref_days": [int(day) for day in ref_days],
        "window_before": int(window_before),
        "window_after": int(window_after),
        "chunk_days": int(chunk_days),
    }
    hasher.update(json.dumps(header, sort_keys=True).encode("utf-8"))
    for key in sorted(stores):
        store = stores[key]
        hasher.update(f"|store={int(key)}".encode())
        for day in store.days():  # type: ignore[attr-defined]
            array = store.array(day)  # type: ignore[attr-defined]
            hasher.update(f"|{int(day)}:{int(array.shape[0])}".encode())
            hasher.update(np.ascontiguousarray(array).view(np.uint8))
    return hasher.hexdigest()


class SweepCheckpoint:
    """Checkpoint store for one sweep run, bound to its run signature."""

    def __init__(self, directory: str, signature: str) -> None:
        self.directory = os.fspath(directory)
        self.signature = signature
        self._writes = 0
        os.makedirs(self.directory, exist_ok=True)

    def chunk_paths(self, store_key: int, chunk_index: int) -> Tuple[str, str]:
        """The (payload, meta) paths for one chunk entry."""
        stem = os.path.join(
            self.directory, f"chunk-{int(store_key)}-{int(chunk_index)}"
        )
        return f"{stem}.npz", f"{stem}.meta.json"

    def save_chunk(
        self,
        store_key: int,
        chunk_index: int,
        pairs: Sequence[Tuple[int, np.ndarray]],
    ) -> None:
        """Persist one completed chunk's (day, gaps) results atomically."""
        npz_path, meta_path = self.chunk_paths(store_key, chunk_index)
        buffer = io.BytesIO()
        arrays = {
            f"g{position}": np.ascontiguousarray(gaps, dtype=np.int64)
            for position, (_day, gaps) in enumerate(pairs)
        }
        np.savez(buffer, **arrays)
        payload = buffer.getvalue()
        _atomic_write_bytes(npz_path, payload)
        meta = {
            "version": CHECKPOINT_VERSION,
            "signature": self.signature,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "store_key": int(store_key),
            "chunk_index": int(chunk_index),
            "days": [int(day) for day, _gaps in pairs],
        }
        _atomic_write_bytes(
            meta_path, json.dumps(meta, sort_keys=True).encode("utf-8")
        )
        self._writes += 1
        self._maybe_fault_kill()

    def load_chunk(
        self, store_key: int, chunk_index: int, expected_days: Sequence[int]
    ) -> Optional[List[Tuple[int, np.ndarray]]]:
        """Load one chunk if present and valid; ``None`` means recompute.

        Validation is strict: version, signature, day list, payload
        hash, and array dtypes must all match, else the entry is
        treated as absent (never trusted, never fatal).
        """
        npz_path, meta_path = self.chunk_paths(store_key, chunk_index)
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
            if not isinstance(meta, dict):
                return None
            if meta.get("version") != CHECKPOINT_VERSION:
                return None
            if meta.get("signature") != self.signature:
                return None
            days = meta.get("days")
            if not isinstance(days, list) or days != [
                int(day) for day in expected_days
            ]:
                return None
            recorded = meta.get("sha256")
            if not isinstance(recorded, str):
                return None
            with open(npz_path, "rb") as handle:
                payload = handle.read()
            if hashlib.sha256(payload).hexdigest() != recorded:
                return None
            pairs: List[Tuple[int, np.ndarray]] = []
            with np.load(io.BytesIO(payload), allow_pickle=False) as data:
                for position, day in enumerate(days):
                    gaps = data[f"g{position}"]
                    if gaps.dtype != np.int64 or gaps.ndim != 1:
                        return None
                    pairs.append((int(day), gaps))
            return pairs
        except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError):
            return None

    def completed_chunks(self) -> int:
        """Number of valid-looking chunk entries on disk (for reporting)."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        return sum(
            1 for name in names if name.startswith("chunk-") and name.endswith(".npz")
        )

    def _maybe_fault_kill(self) -> None:
        """Deterministic fault hook: die by SIGKILL after N writes."""
        value = os.environ.get(KILL_AFTER_CHECKPOINTS_ENV)
        if not value:
            return
        try:
            threshold = int(value)
        except ValueError:
            return
        if threshold > 0 and self._writes >= threshold:
            os.kill(os.getpid(), signal.SIGKILL)
