"""Temporal classification: address and prefix stability analysis (§5.1).

Definitions, from the paper:

* An address is **nd-stable** when it was observed active on two different
  days with at least ``n - 1`` intervening days — equivalently, on two days
  whose day numbers differ by at least ``n``.  Classes are not mutually
  exclusive: nd-stable implies (n-1)d-stable.
* Daily analysis uses a **sliding window**, canonically 15 days —
  ``(-7d, +7d)`` around the reference day: only observations inside the
  window count toward the reference day's classification.  The window also
  absorbs the up-to-one-day timestamp slew of aggregated-log processing.
* Longer horizons compare *epochs*: an address active in the current epoch
  that was also active one epoch earlier is **6m-stable (-6m)** or
  **1y-stable (-1y)**.
* Everything not shown stable is labelled **not stable**, meaning only
  "not known to be stable" — passive observation cannot prove absence.
* All of this generalizes to prefixes of any length by truncating the
  observed addresses first (the paper's /64 analysis).

Every classification runs on the sweep engine (:mod:`repro.core.sweep`)
over the day-indexed :class:`~repro.data.store.ObservationStore`;
:func:`classify_day` is its one-day case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data import store as obstore
from repro.data.store import ObservationStore

#: The paper's canonical window: 7 days before through 7 days after.
DEFAULT_WINDOW_BEFORE = 7
DEFAULT_WINDOW_AFTER = 7


@dataclass
class StabilityResult:
    """Stability classification of the addresses active on a reference day.

    Attributes:
        reference_day: the day whose active set was classified.
        window: (before, after) day spans of the sliding window.
        active: sorted address array of the reference day.
        gaps: per-address maximum day gap observed within the window
            (0 when the address was seen on no other window day).
    """

    reference_day: int
    window: Tuple[int, int]
    active: np.ndarray
    gaps: np.ndarray

    @property
    def active_count(self) -> int:
        """Number of addresses active on the reference day."""
        return obstore.array_size(self.active)

    def stable_mask(self, n: int) -> np.ndarray:
        """Boolean mask of nd-stable members of the active set."""
        if n < 1:
            raise ValueError(f"n must be >= 1: {n}")
        return self.gaps >= n

    def stable(self, n: int) -> np.ndarray:
        """The nd-stable subset of the reference day's active set."""
        return self.active[self.stable_mask(n)]

    def not_stable(self, n: int) -> np.ndarray:
        """The complement: active addresses not shown to be nd-stable."""
        return self.active[~self.stable_mask(n)]

    def stable_count(self, n: int) -> int:
        """Number of nd-stable addresses."""
        return int(np.count_nonzero(self.stable_mask(n)))

    def stable_fraction(self, n: int) -> float:
        """nd-stable share of the reference day's active set."""
        if self.active_count == 0:
            return 0.0
        return self.stable_count(n) / self.active_count


def classify_day(
    observations: ObservationStore,
    reference_day: int,
    window_before: int = DEFAULT_WINDOW_BEFORE,
    window_after: int = DEFAULT_WINDOW_AFTER,
) -> StabilityResult:
    """Classify the reference day's active set within its sliding window.

    For each address active on ``reference_day``, finds the earliest and
    latest window days on which it was observed; the difference is the
    largest day gap witnessing stability, so ``gap >= n`` is exactly
    *nd-stable*.  Days absent from the store contribute nothing (no data
    is different from an empty set only in what it proves; both yield
    "not stable").

    The one-day case of the sweep engine
    (:func:`repro.core.sweep.sweep_days`).
    """
    from repro.core.sweep import sweep_days

    return sweep_days(observations, [reference_day], window_before, window_after)[0]


@dataclass
class WeeklyStability:
    """Union-based weekly stability (the Table 2c/2d construction).

    For each day of the week the nd-stable addresses are determined (each
    with its own sliding window); the weekly figures are the union of the
    per-day stable sets, and "not stable" is the weekly active union minus
    that.
    """

    days: List[int]
    n: int
    active_union: np.ndarray
    stable_union: np.ndarray

    @property
    def active_count(self) -> int:
        """Unique addresses active during the week."""
        return obstore.array_size(self.active_union)

    @property
    def stable_count(self) -> int:
        """Unique addresses nd-stable on at least one day of the week."""
        return obstore.array_size(self.stable_union)

    @property
    def not_stable_count(self) -> int:
        """Weekly active addresses never shown nd-stable."""
        return self.active_count - self.stable_count

    @property
    def stable_fraction(self) -> float:
        """Stable share of the weekly active union."""
        if self.active_count == 0:
            return 0.0
        return self.stable_count / self.active_count


def classify_week(
    observations: ObservationStore,
    days: Sequence[int],
    n: int,
    window_before: int = DEFAULT_WINDOW_BEFORE,
    window_after: int = DEFAULT_WINDOW_AFTER,
) -> WeeklyStability:
    """Run per-day stability over ``days`` and report the weekly unions.

    The per-day classifications run through the sweep engine
    (:func:`repro.core.sweep.sweep_days`), so each window day is touched
    once for the whole week rather than once per overlapping window.
    """
    from repro.core.sweep import sweep_days

    results = {
        result.reference_day: result
        for result in sweep_days(
            observations, list(days), window_before, window_after
        )
    }
    stable_sets = [results[int(day)].stable(n) for day in days]
    return WeeklyStability(
        days=list(days),
        n=n,
        active_union=observations.union_over(days),
        stable_union=obstore.union_many(stable_sets),
    )


def cross_epoch_stable(
    current: np.ndarray, earlier: np.ndarray
) -> np.ndarray:
    """Addresses active now that were also active an epoch earlier.

    This is the 6m-stable (-6m) / 1y-stable (-1y) construction: pass the
    current epoch's active set (a day or a week union) and the set from 6
    or 12 months before; the intersection is the cross-epoch stable class.
    """
    return obstore.intersect(current, earlier)


@dataclass
class WindowSeries:
    """Data behind Figure 4: daily activity versus a reference day.

    Attributes:
        reference_day: the centre of the window.
        days: each day of the window, in order.
        active_counts: unique active addresses per day.
        common_counts: per day, how many of its addresses were also
            active on the reference day.
    """

    reference_day: int
    days: List[int]
    active_counts: List[int]
    common_counts: List[int]

    def rows(self) -> List[Tuple[int, int, int]]:
        """(day, active, common-with-reference) rows for plotting."""
        return list(zip(self.days, self.active_counts, self.common_counts))


def window_series(
    observations: ObservationStore,
    reference_day: int,
    window_before: int = DEFAULT_WINDOW_BEFORE,
    window_after: int = DEFAULT_WINDOW_AFTER,
) -> WindowSeries:
    """Compute the Figure 4 series for one reference day."""
    reference = observations.array(reference_day)
    days: List[int] = []
    active_counts: List[int] = []
    common_counts: List[int] = []
    for day in range(reference_day - window_before, reference_day + window_after + 1):
        array = observations.array(day)
        days.append(day)
        active_counts.append(obstore.array_size(array))
        common_counts.append(obstore.array_size(obstore.intersect(array, reference)))
    return WindowSeries(
        reference_day=reference_day,
        days=days,
        active_counts=active_counts,
        common_counts=common_counts,
    )


@dataclass
class StabilityTable:
    """One column of Table 2: daily and weekly stability at one epoch.

    All counts concern a single address granularity (full addresses or
    /64s — derive the store first for prefixes).
    """

    epoch_name: str
    reference_day: int
    week_days: List[int]
    n: int
    daily_active: int = 0
    daily_stable: int = 0
    weekly_active: int = 0
    weekly_stable: int = 0
    cross_epoch_daily: Dict[str, int] = field(default_factory=dict)
    cross_epoch_weekly: Dict[str, int] = field(default_factory=dict)

    @property
    def daily_not_stable(self) -> int:
        """Reference-day actives not shown nd-stable."""
        return self.daily_active - self.daily_stable

    @property
    def weekly_not_stable(self) -> int:
        """Weekly actives not shown nd-stable."""
        return self.weekly_active - self.weekly_stable


def stability_table(
    observations: ObservationStore,
    epoch_name: str,
    reference_day: int,
    n: int = 3,
    week_length: int = 7,
    window_before: int = DEFAULT_WINDOW_BEFORE,
    window_after: int = DEFAULT_WINDOW_AFTER,
    earlier_epochs: Optional[Dict[str, int]] = None,
) -> StabilityTable:
    """Build a Table 2 column for one epoch.

    ``earlier_epochs`` optionally maps labels (e.g. ``"6m-stable (-6m)"``)
    to the *reference day* of an earlier epoch.  For each label two
    cross-epoch counts are produced: daily (this reference day's actives
    also active on the earlier reference day) and weekly (this week's
    union intersected with the earlier week's union), matching Tables
    2a/2b versus 2c/2d.

    The daily and weekly figures share one sweep-engine pass, so the
    reference day (which is also a week day) is classified exactly once.
    """
    from repro.core.sweep import sweep_days

    week_days = list(range(reference_day, reference_day + week_length))
    results = {
        result.reference_day: result
        for result in sweep_days(
            observations,
            week_days + [reference_day],
            window_before,
            window_after,
        )
    }
    daily = results[reference_day]
    weekly = WeeklyStability(
        days=week_days,
        n=n,
        active_union=observations.union_over(week_days),
        stable_union=obstore.union_many(
            [results[day].stable(n) for day in week_days]
        ),
    )
    table = StabilityTable(
        epoch_name=epoch_name,
        reference_day=reference_day,
        week_days=week_days,
        n=n,
        daily_active=daily.active_count,
        daily_stable=daily.stable_count(n),
        weekly_active=weekly.active_count,
        weekly_stable=weekly.stable_count,
    )
    if earlier_epochs:
        for label, earlier_reference in earlier_epochs.items():
            daily_common = cross_epoch_stable(
                daily.active, observations.array(earlier_reference)
            )
            table.cross_epoch_daily[label] = obstore.array_size(daily_common)
            earlier_week = list(
                range(earlier_reference, earlier_reference + week_length)
            )
            weekly_common = cross_epoch_stable(
                weekly.active_union, observations.union_over(earlier_week)
            )
            table.cross_epoch_weekly[label] = obstore.array_size(weekly_common)
    return table
