"""Unit tests for repro.core.temporal: stability classification (§5.1)."""

import pytest

from repro.core.temporal import (
    classify_day,
    classify_week,
    cross_epoch_stable,
    stability_table,
    window_series,
)
from repro.data import store as obstore
from repro.data.store import ObservationStore
from tests.oracles.temporal import reference_classify_day


def make_store(schedule):
    """Build a store from {day: [addresses]}."""
    store = ObservationStore()
    for day, addresses in schedule.items():
        store.add_day(day, addresses)
    return store


class TestPaperDefinition:
    """The paper's worked definitions: March 17/18/19 examples."""

    def test_consecutive_days_is_1d_stable(self):
        # Seen March 17 and 18 (no intervening days): 1d-stable only.
        store = make_store({17: [1], 18: [1]})
        result = classify_day(store, 17)
        assert result.stable_count(1) == 1
        assert result.stable_count(2) == 0

    def test_one_intervening_day_is_2d_stable(self):
        # Seen March 17 and 19 (one intervening day): 2d- and 1d-stable.
        store = make_store({17: [1], 19: [1]})
        result = classify_day(store, 17)
        assert result.stable_count(2) == 1
        assert result.stable_count(1) == 1  # classes are nested
        assert result.stable_count(3) == 0

    def test_nd_stable_implies_n_minus_1d_stable(self):
        store = make_store({10: [1], 15: [1]})
        result = classify_day(store, 10)
        for n in range(1, 6):
            assert result.stable_count(n) == 1
        assert result.stable_count(6) == 0

    def test_single_sighting_not_stable(self):
        store = make_store({17: [1]})
        result = classify_day(store, 17)
        assert result.stable_count(1) == 0
        assert result.not_stable(1).shape[0] == 1


class TestWindow:
    def test_observations_outside_window_ignored(self):
        # Active on day 0 and day 20; a (-7,+7) window around day 0
        # cannot see day 20.
        store = make_store({0: [1], 20: [1]})
        result = classify_day(store, 0)
        assert result.stable_count(1) == 0

    def test_pair_need_not_include_reference_day(self):
        # Active on the reference day, and on days -7 and +7: the
        # 14-day gap between the outer days counts.
        store = make_store({0: [1], -7: [1], 7: [1]})
        result = classify_day(store, 0)
        assert result.stable_count(14) == 1

    def test_asymmetric_window(self):
        store = make_store({0: [1], 5: [1]})
        result = classify_day(store, 0, window_before=0, window_after=3)
        assert result.stable_count(1) == 0
        result = classify_day(store, 0, window_before=0, window_after=7)
        assert result.stable_count(5) == 1

    def test_negative_window_rejected(self):
        store = make_store({0: [1]})
        with pytest.raises(ValueError):
            classify_day(store, 0, window_before=-1)

    def test_only_reference_day_addresses_classified(self):
        store = make_store({0: [1], 1: [1, 2], 4: [2]})
        result = classify_day(store, 0)
        # Address 2 is 3d-stable across days 1..4 but was not active on
        # the reference day, so it is not in this day's census.
        assert result.active_count == 1

    def test_gaps_reflect_extremes(self):
        store = make_store({0: [1], -3: [1], 2: [1]})
        result = classify_day(store, 0)
        assert result.gaps[0] == 5


class TestWeekly:
    def test_union_of_per_day_stable(self):
        # Address 1 is 3d-stable as seen from day 0 (also on day 3);
        # address 2 is 3d-stable as seen from day 3 (also on day 6);
        # address 3 is never stable.
        store = make_store(
            {0: [1, 3], 3: [1, 2], 6: [2]}
        )
        weekly = classify_week(store, [0, 1, 2, 3, 4, 5, 6], 3)
        assert weekly.stable_count == 2
        assert weekly.active_count == 3
        assert weekly.not_stable_count == 1

    def test_weekly_fraction(self):
        store = make_store({0: [1, 2], 3: [1]})
        weekly = classify_week(store, [0, 1, 2, 3], 3)
        assert weekly.stable_fraction == pytest.approx(0.5)

    def test_empty_week(self):
        weekly = classify_week(make_store({}), [0, 1], 3)
        assert weekly.active_count == 0
        assert weekly.stable_fraction == 0.0


class TestCrossEpoch:
    def test_intersection(self):
        now = obstore.to_array([1, 2, 3])
        earlier = obstore.to_array([2, 4])
        assert obstore.from_array(cross_epoch_stable(now, earlier)) == [2]


class TestWindowSeries:
    def test_figure4_shape(self):
        store = make_store({0: [1, 2, 3], 1: [1, 9], 2: [2]})
        series = window_series(store, 0, window_before=1, window_after=2)
        assert series.days == [-1, 0, 1, 2]
        assert series.active_counts == [0, 3, 2, 1]
        assert series.common_counts == [0, 3, 1, 1]

    def test_reference_day_common_equals_active(self):
        store = make_store({5: [1, 2]})
        series = window_series(store, 5, 2, 2)
        index = series.days.index(5)
        assert series.common_counts[index] == series.active_counts[index] == 2


class TestStabilityTable:
    def test_full_column(self):
        # Reference day 100; address 1 stable, 2 ephemeral; earlier epoch
        # at day 50 shares address 1.
        store = make_store(
            {
                50: [1],
                100: [1, 2],
                103: [1],
                104: [5],
            }
        )
        table = stability_table(
            store,
            "test",
            100,
            n=3,
            week_length=7,
            earlier_epochs={"6m-stable (-6m)": 50},
        )
        assert table.daily_active == 2
        assert table.daily_stable == 1
        assert table.daily_not_stable == 1
        assert table.weekly_active == 3
        assert table.weekly_stable == 1
        assert table.cross_epoch_daily["6m-stable (-6m)"] == 1
        assert table.cross_epoch_weekly["6m-stable (-6m)"] == 1

    def test_works_on_truncated_store(self):
        from repro.net import addr

        base = addr.parse("2001:db8:1:2::")
        store = make_store(
            {
                100: [base + 0x1111],
                103: [base + 0x2222],
            }
        )
        table_addresses = stability_table(store, "addrs", 100, n=3)
        table_64s = stability_table(store.truncated(64), "/64s", 100, n=3)
        # The address churns, but its /64 is 3d-stable.
        assert table_addresses.daily_stable == 0
        assert table_64s.daily_stable == 1


class TestClassifyDayRegression:
    """classify_day must match the original per-day window rescan
    (``np.minimum.at``/``np.maximum.at`` over ``nonzero``) bit-for-bit on
    randomized stores."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_original_on_random_stores(self, seed):
        import random

        import numpy as np

        rng = random.Random(seed)
        store = ObservationStore()
        for day in range(30):
            if rng.random() < 0.2:
                continue
            store.add_day(
                day, [rng.randrange(1, 400) for _ in range(rng.randrange(0, 120))]
            )
        for day in store.days():
            for window in ((7, 7), (3, 0), (0, 3)):
                result = classify_day(store, day, *window)
                active, gaps = reference_classify_day(store, day, *window)
                assert np.array_equal(result.active, active)
                assert result.gaps.dtype == gaps.dtype
                assert np.array_equal(result.gaps, gaps)
