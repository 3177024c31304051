"""Streaming (online) stability classification.

§5.1: "we wish to perform stability analysis on an ongoing basis" — the
production setting is a pipeline that receives one aggregated log per
day, forever, and must classify each day as soon as its trailing window
completes, holding only a bounded number of days in memory.

:class:`StabilityStream` implements that: feed days in chronological
order with :meth:`push`; whenever a day's ``(-before, +after)`` window
is complete, the classification for that day is emitted.  Memory is
bounded by the window length — old days are dropped as the window
slides — so the stream can run over unbounded log sequences.

Classification rides on the sweep engine's incremental window state
(:class:`repro.core.sweep.SweepState`): the live window's observations
are kept merged and sorted by (address, day) — a new day is merged in
with one 128-bit ``searchsorted`` and expired days are filtered out, so
the window is never re-sorted — and emitting a day costs two vectorized
binary searches instead of rebuilding an :class:`ObservationStore` and
re-scanning all window days (the pre-sweep implementation did both for
every emitted day).  Pending days wait in a ``deque``, so draining is
O(1) per emission rather than an O(n) list shift.

The emitted results are identical to the batch classifier's
(:func:`repro.core.sweep.sweep_days` over a store holding the same
days), which a test asserts.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Iterator, List, Optional

from repro.core.sweep import SweepState
from repro.core.temporal import StabilityResult
from repro.data.store import DailyObservations


class StabilityStream:
    """Online nd-stable classification with bounded memory.

    Args:
        window_before: days of history each classification needs.
        window_after: days of future each classification waits for.
    """

    def __init__(self, window_before: int = 7, window_after: int = 7) -> None:
        if window_before < 0 or window_after < 0:
            raise ValueError("window spans must be non-negative")
        self.window_before = window_before
        self.window_after = window_after
        self._state = SweepState(window_before, window_after)
        self._last_day: Optional[int] = None
        self._pending: Deque[int] = deque()  # days awaiting their window

    def push(self, day: int, addresses: Iterable[int]) -> List[StabilityResult]:
        """Ingest one day's log; return any newly complete classifications.

        Days must arrive in strictly increasing order (the aggregation
        pipeline's natural order); gaps are allowed and simply count as
        empty days.
        """
        return self.push_observations(DailyObservations(day, addresses))

    def push_observations(
        self, observations: DailyObservations
    ) -> List[StabilityResult]:
        """Ingest one prebuilt day of observations (no re-parsing).

        The fast path for pipelines that already hold
        :class:`DailyObservations` (e.g. from the day-log cache); same
        ordering contract and emissions as :meth:`push`.
        """
        day = observations.day
        if self._last_day is not None and day <= self._last_day:
            raise ValueError(
                f"days must be pushed in increasing order: {day} after "
                f"{self._last_day}"
            )
        self._last_day = day
        self._state.push_day(day, observations.addresses)
        self._pending.append(day)
        return self._drain()

    def _drain(self) -> List[StabilityResult]:
        """Classify every pending day whose trailing window has arrived."""
        results: List[StabilityResult] = []
        while self._pending:
            reference = self._pending[0]
            if self._last_day < reference + self.window_after:
                break
            self._pending.popleft()
            results.append(self._state.classify(reference))
            # Drop days that no pending classification can still need.
            self._state.evict_before(reference + 1 - self.window_before)
        return results

    def flush(self) -> List[StabilityResult]:
        """Classify the trailing days whose future window will never fill.

        Call at end of stream: remaining days are classified with
        whatever future context exists (fewer following days than the
        window requests — exactly what a live pipeline would do at the
        data's edge).
        """
        results: List[StabilityResult] = []
        while self._pending:
            results.append(self._state.classify(self._pending.popleft()))
        return results

    @property
    def days_held(self) -> int:
        """How many days are currently buffered (bounded by the window)."""
        return self._state.days_held


def stream_classify(
    days: Iterable[tuple],
    window_before: int = 7,
    window_after: int = 7,
) -> Iterator[StabilityResult]:
    """Run a whole (day, addresses) sequence through a stability stream.

    Yields classifications in day order, including the flushed tail.
    """
    stream = StabilityStream(window_before, window_after)
    for day, addresses in days:
        yield from stream.push(day, addresses)
    yield from stream.flush()
