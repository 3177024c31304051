"""Unit tests for repro.core.sweep: the incremental sweep engine.

The engine's contract is bit-identity with the per-day window rescan
(:func:`tests.oracles.temporal.reference_classify_day`) regardless of
store gaps, window shape, chunking, parallelism, or streaming delivery; these tests pin that contract down, plus a golden
multi-epoch Table 2 end-to-end run on a seeded synthetic store.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import StabilityStream, stream_classify
from repro.core import sweep as sweep_module
from repro.core.sweep import (
    SweepState,
    _concat_columns,
    _SortedWindow,
    grouped_spans,
    sweep_days,
    sweep_granularities,
)
from repro.core.temporal import StabilityResult, classify_week, stability_table
from repro.data import store as obstore
from repro.data.logfile import load_store
from repro.data.store import ObservationStore
from tests.oracles import sweep as oracle_sweep
from tests.oracles.temporal import reference_classify_day
from tests.test_store import ALL_ONES, boundary_address


def make_gappy_store(seed=11, num_days=60, pool=700, missing=0.25):
    """A 60-day store with random day gaps and churning address sets."""
    rng = random.Random(seed)
    store = ObservationStore()
    schedule = {}
    for day in range(num_days):
        if rng.random() < missing:
            continue
        addresses = sorted(rng.sample(range(1, pool + 1), rng.randrange(10, 80)))
        schedule[day] = addresses
        store.add_day(day, addresses)
    return store, schedule


def oracle_day(store, day, before=7, after=7):
    """The per-day oracle's classification, as a StabilityResult."""
    active, gaps = reference_classify_day(store, day, before, after)
    return StabilityResult(day, (before, after), active, gaps)


def assert_result_equal(result, baseline):
    assert result.reference_day == baseline.reference_day
    assert result.window == baseline.window
    assert result.active.dtype == baseline.active.dtype
    assert result.gaps.dtype == baseline.gaps.dtype
    assert np.array_equal(result.active, baseline.active)
    assert np.array_equal(result.gaps, baseline.gaps)


class TestSweepMatchesClassifyDay:
    def test_gappy_store_default_window(self):
        store, _ = make_gappy_store()
        results = sweep_days(store)
        assert [r.reference_day for r in results] == store.days()
        for result in results:
            assert_result_equal(result, oracle_day(store, result.reference_day))

    @pytest.mark.parametrize("window", [(7, 7), (4, 4), (0, 3), (3, 0), (0, 0)])
    def test_every_window_shape(self, window):
        store, _ = make_gappy_store(seed=5)
        before, after = window
        for result in sweep_days(store, None, before, after):
            assert_result_equal(
                result, oracle_day(store, result.reference_day, before, after)
            )

    def test_requested_days_absent_from_store(self):
        store, schedule = make_gappy_store(seed=7)
        days = list(range(-3, 63))  # includes gap days and out-of-range days
        results = sweep_days(store, days)
        assert [r.reference_day for r in results] == days
        for result in results:
            assert_result_equal(result, oracle_day(store, result.reference_day))
            if result.reference_day not in schedule:
                assert result.active_count == 0

    def test_duplicate_and_unsorted_day_requests(self):
        store, _ = make_gappy_store(seed=9)
        results = sweep_days(store, [20, 5, 20, 11])
        assert [r.reference_day for r in results] == [5, 11, 20]

    def test_chunking_invariance(self):
        store, _ = make_gappy_store(seed=13)
        wide = sweep_days(store, chunk_days=1000)
        for narrow_chunk in (1, 3, 9):
            narrow = sweep_days(store, chunk_days=narrow_chunk)
            for a, b in zip(wide, narrow):
                assert_result_equal(a, b)

    def test_jobs_equal_serial(self):
        store, _ = make_gappy_store(seed=17)
        serial = sweep_days(store, chunk_days=10)
        for jobs in (2, 4):
            parallel = sweep_days(store, jobs=jobs, chunk_days=10)
            assert len(parallel) == len(serial)
            for a, b in zip(serial, parallel):
                assert_result_equal(a, b)

    def test_empty_store(self):
        assert sweep_days(ObservationStore()) == []
        results = sweep_days(ObservationStore(), [1, 2])
        assert [r.active_count for r in results] == [0, 0]

    def test_bad_arguments(self):
        store, _ = make_gappy_store()
        with pytest.raises(ValueError):
            sweep_days(store, window_before=-1)
        with pytest.raises(ValueError):
            sweep_days(store, chunk_days=0)
        with pytest.raises(ValueError):
            sweep_days(store, jobs=-2)
        with pytest.raises(ValueError):
            load_store([], jobs=-2)


class TestSweepGranularities:
    def test_matches_per_store_sweeps(self):
        from repro.net import addr

        base = addr.parse("2001:db8::")
        store = ObservationStore()
        rng = random.Random(23)
        for day in range(20):
            store.add_day(
                day,
                [base + (rng.randrange(1, 40) << 64) + rng.randrange(1, 1000)
                 for _ in range(30)],
            )
        swept = sweep_granularities(store, [128, 64], jobs=2, chunk_days=7)
        assert set(swept) == {128, 64}
        truncated = store.truncated(64)
        for result in swept[128]:
            assert_result_equal(result, oracle_day(store, result.reference_day))
        for result in swept[64]:
            assert_result_equal(result, oracle_day(truncated, result.reference_day))


class TestSweepMatchesStream:
    def test_stream_emissions_identical(self):
        store, schedule = make_gappy_store(seed=29)
        emitted = list(stream_classify(sorted(schedule.items()), 7, 7))
        swept = {r.reference_day: r for r in sweep_days(store)}
        assert sorted(r.reference_day for r in emitted) == store.days()
        for result in emitted:
            assert_result_equal(result, swept[result.reference_day])

    def test_stream_with_prebuilt_observations(self):
        store, _ = make_gappy_store(seed=31)
        stream = StabilityStream(4, 4)
        emitted = []
        for observations in store.iter_days():
            emitted.extend(stream.push_observations(observations))
        emitted.extend(stream.flush())
        for result in emitted:
            assert_result_equal(result, oracle_day(store, result.reference_day, 4, 4))


class TestSweepState:
    def test_classify_excludes_unevicted_days_outside_window(self):
        state = SweepState(2, 2)
        state.push_day(0, obstore.to_array([1, 2]))
        state.push_day(10, obstore.to_array([1]))
        result = state.classify(0)
        # Day 10 is buffered but outside day 0's window: no stability.
        assert result.active_count == 2
        assert result.gaps.tolist() == [0, 0]

    def test_eviction_and_days_held(self):
        state = SweepState(1, 1)
        for day in range(5):
            state.push_day(day, obstore.to_array([day]))
        assert state.days_held == 5
        state.evict_before(3)
        assert state.days_held == 2
        # Evicted days no longer contribute observations.
        assert state.classify(2).active_count == 0

    def test_out_of_order_push_rejected(self):
        state = SweepState()
        state.push_day(5, obstore.to_array([1]))
        with pytest.raises(ValueError):
            state.push_day(5, obstore.to_array([1]))

    def test_empty_days_classify_empty(self):
        state = SweepState(2, 2)
        state.push_day(0, obstore.to_array([]))
        state.push_day(1, obstore.to_array([7]))
        assert state.classify(0).active_count == 0
        assert state.classify(1).gaps.tolist() == [0]

    def test_incremental_window_equals_fresh_rebuild(self):
        """After every push and eviction the merged window is exactly the
        sorted rebuild of the held days (gaps, empty days, an evicted
        address that returns, addresses straddling 2**64)."""
        straddle = [(1 << 64) - 1, 1 << 64, (1 << 64) + 1]
        days = {
            0: [5, 9, (1 << 128) - 1] + straddle,
            1: [],
            2: [9, 1 << 64],
            5: [5, 7, 1 << 64],
            6: [],
            9: [5, 9, 11, (1 << 64) - 1],
            10: [0, 5],
            14: [5, 7, 9, (1 << 128) - 1],
            15: [],
            21: [9, 0],
        }
        state = SweepState(3, 3)
        margin = 3 + 3 + 1
        held = []

        def assert_matches_rebuild():
            arrays = [array for day, array in held if array.shape[0]]
            window = state._sorted_window()
            if not arrays:
                assert window is None
                return
            hi, lo, day = _concat_columns(
                arrays, [day for day, array in held if array.shape[0]]
            )
            order = np.lexsort((lo, hi))
            fresh = _SortedWindow(hi[order], lo[order], day[order], margin)
            for name in ("hi", "lo", "day", "gid", "key"):
                got, want = getattr(window, name), getattr(fresh, name)
                assert got.dtype == want.dtype, name
                assert got.tolist() == want.tolist(), name
            assert (window.scale, window.offset) == (fresh.scale, fresh.offset)

        for day, values in days.items():
            array = obstore.to_array(values)
            state.push_day(day, array)
            held.append((day, array))
            assert_matches_rebuild()
            state.evict_before(day - 4)
            held = [(d, a) for d, a in held if d >= day - 4]
            assert state.days_held == len(held)
            assert_matches_rebuild()
            if day == 10:
                # Day 5, the only one holding address 7, is gone...
                assert 7 not in state._sorted_window().lo.tolist()
            if day == 14:
                # ...and address 7 comes back.
                assert 7 in obstore.from_array(state.classify(14).active)


class TestWeekAndTableRebase:
    def test_classify_week_matches_per_day_construction(self):
        store, _ = make_gappy_store(seed=37)
        days = list(range(10, 17))
        weekly = classify_week(store, days, 3)
        stable_sets = [oracle_day(store, day).stable(3) for day in days]
        assert np.array_equal(weekly.stable_union, obstore.union_many(stable_sets))
        assert np.array_equal(weekly.active_union, store.union_over(days))

    def test_stability_table_matches_old_construction(self):
        store, _ = make_gappy_store(seed=41)
        table = stability_table(
            store, "test", 20, n=3, earlier_epochs={"earlier": 5}
        )
        daily = oracle_day(store, 20)
        assert table.daily_active == daily.active_count
        assert table.daily_stable == daily.stable_count(3)
        week_days = list(range(20, 27))
        stable_union = obstore.union_many(
            [oracle_day(store, day).stable(3) for day in week_days]
        )
        assert table.weekly_active == obstore.array_size(store.union_over(week_days))
        assert table.weekly_stable == obstore.array_size(stable_union)

    def test_stability_table_classifies_reference_day_once(self, monkeypatch):
        """The daily column and the week share one sweep classification."""
        store, _ = make_gappy_store(seed=43)
        seen_days = []
        original = sweep_module._sweep_chunk

        def counting_chunk(observations, ref_days, before, after):
            seen_days.extend(ref_days)
            return original(observations, ref_days, before, after)

        monkeypatch.setattr(sweep_module, "_sweep_chunk", counting_chunk)
        stability_table(store, "test", 20, n=3)
        assert sorted(seen_days) == list(range(20, 27))
        assert len(seen_days) == len(set(seen_days))


class TestGroupedSpans:
    def test_matches_bruteforce(self):
        store, schedule = make_gappy_store(seed=47)
        days = store.days()
        addresses, first, last, seen = grouped_spans(
            [store.array(day) for day in days], days
        )
        expected = {}
        for day, addrs in schedule.items():
            for value in addrs:
                lo, hi, count = expected.get(value, (day, day, 0))
                expected[value] = (min(lo, day), max(hi, day), count + 1)
        as_ints = obstore.from_array(addresses)
        assert as_ints == sorted(expected)
        for value, f, l, c in zip(as_ints, first, last, seen):
            assert expected[value] == (f, l, c)

    def test_empty(self):
        addresses, first, last, seen = grouped_spans([], [])
        assert addresses.shape[0] == 0
        assert first.shape[0] == last.shape[0] == seen.shape[0] == 0


#: Address pools: boundary-biased, or every address under one /120.
address_pool = st.one_of(
    st.lists(boundary_address, min_size=1, max_size=12),
    st.integers(0, ALL_ONES).map(
        lambda base: [(base & ~0xFF) | i for i in range(256)]
    ),
)


@st.composite
def gappy_stores(draw):
    """(store, ref_days): empty days, single-address days and day gaps
    sized to the tested windows (1, 3, 4, 7, 8, 10, 11 days)."""
    pool = draw(address_pool)
    store = ObservationStore()
    day = draw(st.integers(0, 5))
    for _ in range(draw(st.integers(0, 9))):
        day += draw(st.sampled_from([1, 1, 2, 3, 4, 7, 8, 10, 11]))
        values = draw(
            st.one_of(
                st.just([]),
                st.sampled_from(pool).map(lambda value: [value]),
                st.lists(st.sampled_from(pool), max_size=30),
            )
        )
        store.add_day(day, values)
    absent = draw(st.lists(st.integers(0, day + 12), max_size=3))
    return store, sorted(set(store.days()) | set(absent))


def assert_chunks_equal(got, want):
    assert [day for day, _ in got] == [day for day, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a.dtype == b.dtype == np.int64
        assert a.tolist() == b.tolist()


class TestSweepChunkMatchesOracle:
    """The id-key chunk kernel against the column-``lexsort`` oracle,
    chunk for chunk."""

    @settings(max_examples=150, deadline=None)
    @given(
        gappy_stores(),
        st.sampled_from([1, 7, 64]),
        st.sampled_from([(0, 0), (7, 7), (3, 10)]),
    )
    def test_every_chunk_identical(self, case, chunk_days, window):
        store, ref_days = case
        if not ref_days:
            return
        for chunk in sweep_module._plan_chunks(ref_days, chunk_days):
            assert_chunks_equal(
                sweep_module._sweep_chunk(store, chunk, *window),
                oracle_sweep._sweep_chunk(store, chunk, *window),
            )

    @settings(max_examples=100, deadline=None)
    @given(gappy_stores())
    def test_grouped_spans_identical(self, case):
        store, _ = case
        days = store.days()
        arrays = [store.array(day) for day in days]
        got = grouped_spans(arrays, days)
        want = oracle_sweep.grouped_spans(arrays, days)
        assert got[0].tobytes() == want[0].tobytes()
        for a, b in zip(got[1:], want[1:]):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()

    def test_key_overflow_reranks_to_the_same_result(self):
        """Distinct hi and lo columns make the id bound n**2; a window
        that overflows ``bound * scale`` but not the oracle's
        ``distinct * scale`` guard must re-rank, not raise."""
        values = [(i << 64) | (7 * i + 3) for i in range(1, 300)]
        store = ObservationStore()
        for day in range(6):
            store.add_day(day, values[day * 40 : day * 40 + 120])
        ref_days = store.days()
        before, after = 2**62 // 80_000, 2
        hi, lo, _ = _concat_columns(
            [store.array(day) for day in ref_days], ref_days
        )
        scale = 6 + before + after + 1
        assert obstore.address_ids(hi, lo)[1] * scale >= 2**62
        assert len(values) * scale < 2**62
        got = sweep_module._sweep_chunk(store, ref_days, before, after)
        assert_chunks_equal(
            got, oracle_sweep._sweep_chunk(store, ref_days, before, after)
        )
        assert any(gaps.any() for _, gaps in got)

    def test_key_overflow_past_dense_ranks_raises(self):
        store = ObservationStore()
        store.add_day(0, [1, 2, 3])
        for chunk_kernel in (sweep_module._sweep_chunk, oracle_sweep._sweep_chunk):
            with pytest.raises(ValueError, match="reduce chunk_days"):
                chunk_kernel(store, [0], 2**61, 0)


def _golden_store():
    """Seeded synthetic store spanning three epochs, with a persistent
    pool so cross-epoch classes are populated."""
    rng = np.random.default_rng(1234)
    pool = [int(v) for v in rng.integers(1, 1 << 40, size=300)]
    store = ObservationStore()
    for epoch in (100, 280, 465):
        for day in range(epoch - 7, epoch + 14):
            keep = rng.random(len(pool)) < 0.5
            stable = [value for value, k in zip(pool, keep) if k]
            ephemeral = [int(v) for v in rng.integers(1 << 41, 1 << 42, size=120)]
            store.add_day(day, stable + ephemeral)
    return store


class TestGoldenTable2:
    """End-to-end Table 2 over three epochs of a seeded synthetic store.

    The golden numbers were computed with the per-day window rescan and
    the pre-sweep ``classify_week``; the sweep-based pipeline must
    reproduce them exactly.
    """

    def test_multi_epoch_golden(self):
        store = _golden_store()
        earlier = {"6m-stable (-6m)": 280, "1y-stable (-1y)": 100}
        table = stability_table(store, "epoch-3", 465, n=3, earlier_epochs=earlier)
        daily = oracle_day(store, 465)
        assert table.daily_active == daily.active_count
        assert table.daily_stable == daily.stable_count(3)
        golden = {
            "daily_active": table.daily_active,
            "daily_stable": table.daily_stable,
            "weekly_active": table.weekly_active,
            "weekly_stable": table.weekly_stable,
            "cross_daily": dict(table.cross_epoch_daily),
            "cross_weekly": dict(table.cross_epoch_weekly),
        }
        expected = {
            "daily_active": 267,
            "daily_stable": 147,
            "weekly_active": 1139,
            "weekly_stable": 299,
            "cross_daily": {"6m-stable (-6m)": 78, "1y-stable (-1y)": 80},
            "cross_weekly": {"6m-stable (-6m)": 298, "1y-stable (-1y)": 295},
        }
        assert golden == expected

    def test_epochs_consistent_across_granularities(self):
        store = _golden_store()
        for epoch in (100, 280, 465):
            table = stability_table(store, str(epoch), epoch, n=3)
            # The persistent pool keeps a majority of actives 3d-stable.
            assert 0 < table.daily_stable <= table.daily_active
            assert table.weekly_stable <= table.weekly_active
