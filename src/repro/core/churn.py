"""Address lifetime and churn analysis.

Figure 4's stepwise decay is a window onto the underlying *lifetime
distribution* of addresses: privacy addresses live a day or two, EUI-64
and static hosts persist indefinitely (observed intermittently).  This
module measures the distributions directly from a day-indexed store:

* :func:`observation_spans` — per address: first day, last day, and
  number of days observed within a range;
* :func:`lifetime_histogram` — distribution of observed spans;
* :func:`survival_curve` — P(an address active on day d is seen again
  at distance >= k), the decay Figure 4 samples at one reference day;
* :func:`daily_churn` — per consecutive-day pair: born, died, retained.

These quantify what the paper's temporal classes discretize, and back
the lifetime benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data import store as obstore
from repro.data.store import ObservationStore


@dataclass
class SpanTable:
    """Per-address observation spans over a day range.

    Parallel arrays: ``addresses`` (structured), ``first``, ``last`` and
    ``days_seen`` (int64).
    """

    addresses: np.ndarray
    first: np.ndarray
    last: np.ndarray
    days_seen: np.ndarray

    @property
    def spans(self) -> np.ndarray:
        """Observed lifetime of each address: last - first, in days."""
        return self.last - self.first

    def __len__(self) -> int:
        return int(self.addresses.shape[0])


def observation_spans(
    observations: ObservationStore, days: Sequence[int]
) -> SpanTable:
    """Compute per-address first/last/day-count over the given days.

    Runs on the sweep engine's grouped pass
    (:func:`repro.core.sweep.grouped_spans`): one numeric sort of int64
    (address id, day) keys replaces the structured ``np.unique`` and the
    scalar-dispatch ``ufunc.at`` updates of the original implementation.
    """
    from repro.core.sweep import grouped_spans

    arrays = [observations.array(day) for day in days]
    addresses, first, last, days_seen = grouped_spans(arrays, list(days))
    return SpanTable(addresses=addresses, first=first, last=last, days_seen=days_seen)


def lifetime_histogram(
    observations: ObservationStore, days: Sequence[int]
) -> Dict[int, int]:
    """Histogram of observed spans (0 = seen on a single day only).

    The privacy-address mass sits at span 0-1; the long tail is the
    stable population the paper's classes isolate.
    """
    table = observation_spans(observations, days)
    # A histogram of one int64 span column, not an address set:
    # repro-lint: ignore[R008]
    spans, counts = np.unique(table.spans, return_counts=True)
    return {int(span): int(count) for span, count in zip(spans, counts)}


def survival_curve(
    observations: ObservationStore,
    reference_day: int,
    max_distance: int = 7,
) -> List[Tuple[int, float]]:
    """P(address active on the reference day is also active at +k).

    The forward half of Figure 4's common-with-reference series, as a
    probability; k runs 1..max_distance.
    """
    reference = observations.array(reference_day)
    size = obstore.array_size(reference)
    curve: List[Tuple[int, float]] = []
    for distance in range(1, max_distance + 1):
        if size == 0:
            curve.append((distance, 0.0))
            continue
        future = observations.array(reference_day + distance)
        common = obstore.array_size(obstore.intersect(reference, future))
        curve.append((distance, common / size))
    return curve


@dataclass(frozen=True)
class ChurnDay:
    """One consecutive-day transition."""

    day: int
    born: int  # active today, not yesterday
    died: int  # active yesterday, not today
    retained: int  # active both days


def daily_churn(
    observations: ObservationStore, days: Sequence[int]
) -> List[ChurnDay]:
    """Born/died/retained counts for each consecutive day pair."""
    ordered = sorted(days)
    results: List[ChurnDay] = []
    for yesterday, today in zip(ordered, ordered[1:]):
        previous = observations.array(yesterday)
        current = observations.array(today)
        retained = obstore.array_size(obstore.intersect(previous, current))
        results.append(
            ChurnDay(
                day=today,
                born=obstore.array_size(current) - retained,
                died=obstore.array_size(previous) - retained,
                retained=retained,
            )
        )
    return results
