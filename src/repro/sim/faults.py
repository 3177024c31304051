"""Deterministic fault injection for the resilience layer.

The quarantine, supervision, and checkpoint machinery in
:mod:`repro.runtime` is only trustworthy if every failure mode it
claims to handle is actually exercised — repeatably.  This module is
the fault side of that contract: a seeded :class:`FaultPlan` that
damages a pipeline's inputs and environment in exactly the ways a
year-long operational run encounters, with every decision drawn from
:mod:`repro.sim.rng` substreams so the same seed injects the same
faults in every run and on every machine:

* **corrupt log bytes** — entry lines rewritten into the malformed
  shapes seen in the wild (garbled address, non-digit or negative hit
  count, truncated line);
* **truncated cache entries** — binary day-cache payloads cut short,
  exercising hash-validation and rebuild;
* **dropped days** — whole day files made unreadable, exercising
  explicit-gap classification;
* **killed / delayed workers** — pool children SIGKILLed or stalled on
  their first attempt, exercising crash detection, timeout, retry, and
  serial fallback.  Worker faults cross the fork boundary through the
  ``REPRO_FAULTS`` environment variable (children are separate
  processes; the environment is the only channel that needs no
  plumbing), applied by :func:`apply_worker_faults` in the worker before
  each task attempt.

The ``repro-faultcheck`` CLI (:func:`repro.cli.main_faultcheck`) drives
a full gauntlet of these faults against a synthetic store and verifies
that each one ends in a classified report, a successful retry, or a
clean resume — never a hang, never a silently wrong table.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim import rng as rng_mod

#: Environment variable carrying worker-fault parameters across fork.
FAULT_ENV = "REPRO_FAULTS"

#: Re-exported here so the harness has one import for all fault hooks.
KILL_AFTER_CHECKPOINTS_ENV = "REPRO_FAULT_KILL_AFTER_CHECKPOINTS"

#: The corruption shapes a log line can be rewritten into.
_LINE_MUTATIONS = ("garble-address", "bad-hit-count", "negative-hits", "drop-token")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: what was done to which target."""

    kind: str
    target: str
    detail: str = ""

    def format(self) -> str:
        """``kind: target (detail)`` — the canonical one-line form."""
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.kind}: {self.target}{suffix}"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded plan of faults to inject; every method is deterministic.

    Rates are per-candidate probabilities evaluated on independent
    substreams keyed by the target's basename, so injecting cache
    faults never perturbs which log lines get corrupted, and adding a
    day to the campaign never reshuffles earlier days' faults.
    """

    seed: int = 0
    corrupt_line_rate: float = 0.0
    truncate_cache_rate: float = 0.0
    drop_day_rate: float = 0.0
    kill_worker_rate: float = 0.0
    delay_worker_rate: float = 0.0
    delay_seconds: float = 0.0
    poison_tasks: Tuple[int, ...] = ()

    # -- input faults ------------------------------------------------------

    def corrupt_logs(self, paths: Sequence[str]) -> List[FaultEvent]:
        """Rewrite a deterministic subset of entry lines as malformed.

        Comment and blank lines are never touched (the faults modeled
        are per-entry aggregator glitches, not header loss).  Returns
        one event per corrupted line so a harness can assert that the
        quarantine accounted for every injected fault.
        """
        events: List[FaultEvent] = []
        for path in paths:
            name = os.path.basename(path)
            stream = rng_mod.substream(self.seed, "faults", "corrupt", name)
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
            changed = False
            for index, line in enumerate(lines):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if stream.random() >= self.corrupt_line_rate:
                    continue
                mutation = stream.choice(_LINE_MUTATIONS)
                lines[index] = self._mutate_line(stripped, mutation) + "\n"
                changed = True
                events.append(
                    FaultEvent("corrupt-line", path, f"line {index + 1}: {mutation}")
                )
            if changed:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.writelines(lines)
        return events

    @staticmethod
    def _mutate_line(line: str, mutation: str) -> str:
        parts = line.split()
        address = parts[0]
        hits = parts[1] if len(parts) > 1 else "1"
        if mutation == "garble-address":
            return f"zz{address}zz {hits}"
        if mutation == "bad-hit-count":
            return f"{address} x{hits}"
        if mutation == "negative-hits":
            return f"{address} -{hits}"
        return address  # drop-token: hit count lost entirely

    def truncate_cache(self, cache_dir: str) -> List[FaultEvent]:
        """Cut a deterministic subset of cache payloads short."""
        events: List[FaultEvent] = []
        try:
            names = sorted(os.listdir(cache_dir))
        except OSError:
            return events
        for name in names:
            if not (name.startswith("day-") and name.endswith(".npy")):
                continue
            if (
                rng_mod.stable_uniform(self.seed, "faults", "truncate", name)
                >= self.truncate_cache_rate
            ):
                continue
            path = os.path.join(cache_dir, name)
            size = os.path.getsize(path)
            keep = size // 2
            with open(path, "r+b") as handle:
                handle.truncate(keep)
            events.append(
                FaultEvent("truncate-cache", path, f"{size} -> {keep} bytes")
            )
        return events

    def drop_days(self, paths: Sequence[str]) -> List[FaultEvent]:
        """Make a deterministic subset of day files unreadable.

        Files are renamed aside (``<path>.dropped``) rather than
        deleted, so a harness can restore them; loading the original
        path list then fails with file-not-found, the "day never
        arrived" failure mode.
        """
        events: List[FaultEvent] = []
        for path in paths:
            name = os.path.basename(path)
            if (
                rng_mod.stable_uniform(self.seed, "faults", "drop", name)
                >= self.drop_day_rate
            ):
                continue
            os.replace(path, path + ".dropped")
            events.append(FaultEvent("drop-day", path))
        return events

    @staticmethod
    def restore_days(events: Sequence[FaultEvent]) -> None:
        """Undo :meth:`drop_days` (for harness cleanup)."""
        for event in events:
            if event.kind != "drop-day":
                continue
            try:
                os.replace(event.target + ".dropped", event.target)
            except OSError:
                pass  # best-effort cleanup; the file may already be back

    # -- worker faults (cross the fork via the environment) ----------------

    def worker_env(self) -> Dict[str, str]:
        """The ``REPRO_FAULTS`` environment carrying this plan's worker
        faults to forked pool children."""
        fields = [
            f"seed={int(self.seed)}",
            f"kill={self.kill_worker_rate!r}",
            f"delay={self.delay_worker_rate!r}",
            f"delay_seconds={self.delay_seconds!r}",
        ]
        if self.poison_tasks:
            fields.append("poison=" + "|".join(str(i) for i in self.poison_tasks))
        return {FAULT_ENV: ",".join(fields)}


def parse_fault_env(text: str) -> Dict[str, object]:
    """Parse a ``REPRO_FAULTS`` value into its typed fields."""
    spec: Dict[str, object] = {
        "seed": 0,
        "kill": 0.0,
        "delay": 0.0,
        "delay_seconds": 0.0,
        "poison": frozenset(),
    }
    for part in text.split(","):
        part = part.strip()
        if not part or "=" not in part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "seed":
                spec[key] = int(value)
            elif key in ("kill", "delay", "delay_seconds"):
                spec[key] = float(value)
            elif key == "poison":
                spec[key] = frozenset(
                    int(item) for item in value.split("|") if item
                )
        except ValueError:
            continue
    return spec


def apply_worker_faults(
    label: str, index: int, attempt: int, env: Optional[str] = None
) -> None:
    """Apply the environment's worker-fault plan inside a forked child.

    Called by a supervised pool worker before each task attempt it
    runs.  Kill and delay faults fire only on a task's *first*
    attempt (so retry recovers), drawn deterministically from the task
    identity; poison tasks die on *every* worker attempt, forcing the
    supervisor's serial fallback.  The parent process never applies
    faults — serial fallback is the designed escape hatch.
    """
    text = env if env is not None else os.environ.get(FAULT_ENV)
    if not text:
        return
    spec = parse_fault_env(text)
    seed = int(spec["seed"])  # type: ignore[arg-type]
    if index in spec["poison"]:  # type: ignore[operator]
        os.kill(os.getpid(), signal.SIGKILL)
    if attempt == 0:
        kill_rate = float(spec["kill"])  # type: ignore[arg-type]
        if (
            kill_rate > 0.0
            and rng_mod.stable_uniform(seed, "faults", "kill", label, index) < kill_rate
        ):
            os.kill(os.getpid(), signal.SIGKILL)
        delay_rate = float(spec["delay"])  # type: ignore[arg-type]
        if (
            delay_rate > 0.0
            and rng_mod.stable_uniform(seed, "faults", "delay", label, index)
            < delay_rate
        ):
            time.sleep(float(spec["delay_seconds"]))  # type: ignore[arg-type]
