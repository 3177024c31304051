"""Unit tests for repro.data.store: the observation store."""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stableprefix import _stable_truncations
from repro.data import logfile
from repro.data import store as obstore
from repro.data.store import DailyObservations, ObservationStore, day_date, day_number
from repro.net import addr
from repro.net.batchparse import ints_to_halves
from tests.oracles import setops


def p(text: str) -> int:
    return addr.parse(text)


class TestDayNumbers:
    def test_epoch(self):
        assert day_number("2014-01-01") == 0

    def test_paper_epochs_ordering(self):
        march14 = day_number("2014-03-17")
        sept14 = day_number("2014-09-17")
        march15 = day_number("2015-03-17")
        assert march14 < sept14 < march15
        assert sept14 - march14 == 184
        assert march15 - sept14 == 181

    def test_roundtrip(self):
        assert day_number(day_date(440)) == 440

    def test_accepts_date_objects(self):
        import datetime

        assert day_number(datetime.date(2014, 1, 2)) == 1


class TestArrays:
    def test_to_array_sorts_and_dedupes(self):
        array = obstore.to_array([5, 1, 5, 3])
        assert obstore.from_array(array) == [1, 3, 5]

    def test_roundtrip_preserves_128_bits(self):
        values = [0, 1, (1 << 128) - 1, 1 << 64, (1 << 64) - 1]
        assert obstore.from_array(obstore.to_array(values)) == sorted(values)

    def test_sorted_order_is_numeric(self):
        # hi must dominate lo in the sort.
        values = [(1 << 64) | 0, 0xFFFFFFFFFFFFFFFF]
        assert obstore.from_array(obstore.to_array(values)) == sorted(values)

    def test_set_operations(self):
        a = obstore.to_array([1, 2, 3])
        b = obstore.to_array([2, 3, 4])
        assert obstore.from_array(obstore.intersect(a, b)) == [2, 3]
        assert obstore.from_array(obstore.union(a, b)) == [1, 2, 3, 4]
        assert obstore.from_array(obstore.difference(a, b)) == [1]

    def test_member_mask(self):
        a = obstore.to_array([1, 2, 3])
        b = obstore.to_array([2, 9])
        assert obstore.member_mask(a, b).tolist() == [False, True, False]

    def test_member_mask_empty_haystack(self):
        a = obstore.to_array([1, 2])
        empty = obstore.to_array([])
        assert obstore.member_mask(a, empty).tolist() == [False, False]

    def test_union_many_empty(self):
        assert obstore.array_size(obstore.union_many([])) == 0


class TestTruncation:
    def test_truncate_to_64(self):
        values = [p("2001:db8::1"), p("2001:db8::2"), p("2001:db9::1")]
        truncated = obstore.truncate_array(obstore.to_array(values), 64)
        assert obstore.from_array(truncated) == [p("2001:db8::"), p("2001:db9::")]

    def test_truncate_above_64(self):
        values = [p("2001:db8::1"), p("2001:db8::2"), p("2001:db8::1:0")]
        truncated = obstore.truncate_array(obstore.to_array(values), 112)
        assert obstore.from_array(truncated) == [p("2001:db8::"), p("2001:db8::1:0")]

    def test_truncate_to_zero_collapses(self):
        values = [p("2001:db8::1"), p("2a00::1")]
        truncated = obstore.truncate_array(obstore.to_array(values), 0)
        assert obstore.from_array(truncated) == [0]

    def test_truncate_128_identity(self):
        array = obstore.to_array([1, 2, 3])
        assert obstore.from_array(obstore.truncate_array(array, 128)) == [1, 2, 3]

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            obstore.truncate_array(obstore.to_array([1]), 129)


class TestDailyObservations:
    def test_basic(self):
        day = DailyObservations(5, [3, 1, 3])
        assert day.day == 5
        assert len(day) == 2
        assert day.as_ints() == [1, 3]

    def test_hits_summed_per_unique_address(self):
        day = DailyObservations(0, [1, 2, 1], hits=[10, 5, 7])
        assert day.as_ints() == [1, 2]
        assert day.hits.tolist() == [17, 5]

    def test_hits_length_mismatch(self):
        with pytest.raises(ValueError):
            DailyObservations(0, [1, 2], hits=[1])

    def test_truncated(self):
        day = DailyObservations(0, [p("2001:db8::1"), p("2001:db8::2")])
        assert day.truncated(64).as_ints() == [p("2001:db8::")]


class TestObservationStore:
    def test_add_and_get(self):
        store = ObservationStore()
        store.add_day(3, [1, 2])
        assert 3 in store
        assert 4 not in store
        assert store.days() == [3]
        assert obstore.from_array(store.array(3)) == [1, 2]

    def test_missing_day_is_empty(self):
        store = ObservationStore()
        assert obstore.array_size(store.array(9)) == 0
        assert store.get(9) is None

    def test_union_over(self):
        store = ObservationStore()
        store.add_day(0, [1, 2])
        store.add_day(1, [2, 3])
        assert obstore.from_array(store.union_over([0, 1, 7])) == [1, 2, 3]

    def test_truncated_store(self):
        store = ObservationStore()
        store.add_day(0, [p("2001:db8::1"), p("2001:db8::2")])
        derived = store.truncated(64)
        assert obstore.from_array(derived.array(0)) == [p("2001:db8::")]

    def test_iter_days_chronological(self):
        store = ObservationStore()
        store.add_day(5, [1])
        store.add_day(2, [1])
        assert [d.day for d in store.iter_days()] == [2, 5]

    def test_save_load_roundtrip(self, tmp_path):
        store = ObservationStore()
        store.add_day(0, [p("2001:db8::1"), 1], hits=[4, 2])
        store.add_day(1, [2])
        path = str(tmp_path / "store.npz")
        store.save(path)
        loaded = ObservationStore.load(path)
        assert loaded.days() == [0, 1]
        assert obstore.from_array(loaded.array(0)) == [1, p("2001:db8::1")]
        assert loaded.get(0).hits.tolist() == [2, 4]
        assert loaded.get(1).hits is None


# ---------------------------------------------------------------------------
# Column kernels against the structured-dtype oracle (tests/oracles/setops).
# ---------------------------------------------------------------------------

ALL_ONES = (1 << 128) - 1
EDGE_LENGTHS = (0, 1, 63, 64, 65, 127, 128)

#: Addresses biased toward the column boundaries: ``::``, all-ones, and
#: values straddling multiples of 2**64 (where ``hi`` changes and ``lo``
#: wraps), plus a few uniform draws.
boundary_address = st.one_of(
    st.sampled_from([0, 1, ALL_ONES, ALL_ONES - 1, 1 << 64, (1 << 64) - 1]),
    st.builds(
        lambda k, d: (k * (1 << 64) + d) % (1 << 128),
        st.integers(0, 5),
        st.integers(-3, 3),
    ),
    st.builds(
        lambda k, d: (k << 64) | d,
        st.integers(0, (1 << 64) - 1),
        st.integers(0, 3),
    ),
    st.integers(0, ALL_ONES),
)
#: Raw address lists: unsorted, with duplicates, possibly empty.
raw_addresses = st.lists(boundary_address, max_size=40).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=60) if pool else st.just([])
)
address_sets = raw_addresses.map(setops.to_array)


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestColumnKernelsMatchOracle:
    @settings(max_examples=150, deadline=None)
    @given(raw_addresses)
    def test_to_array(self, values):
        assert_same_array(obstore.to_array(values), setops.to_array(values))

    @settings(max_examples=150, deadline=None)
    @given(raw_addresses)
    def test_halves_to_array(self, values):
        hi, lo = ints_to_halves(values)
        assert_same_array(
            obstore.halves_to_array(hi, lo), setops.halves_to_array(hi, lo)
        )

    @settings(max_examples=150, deadline=None)
    @given(address_sets, address_sets)
    def test_binary_set_operations(self, a, b):
        for name in ("intersect", "union", "difference"):
            assert_same_array(
                getattr(obstore, name)(a, b), getattr(setops, name)(a, b)
            )
        assert obstore.member_mask(a, b).tolist() == setops.member_mask(a, b).tolist()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(raw_addresses, max_size=5))
    def test_union_many(self, value_lists):
        arrays = [setops.to_array(values) for values in value_lists]
        assert_same_array(obstore.union_many(arrays), setops.union_many(arrays))

    @settings(max_examples=100, deadline=None)
    @given(address_sets, st.sampled_from(EDGE_LENGTHS))
    def test_truncate_sorted_input(self, array, length):
        assert_same_array(
            obstore.truncate_array(array, length), setops.truncate_array(array, length)
        )

    @settings(max_examples=100, deadline=None)
    @given(raw_addresses, st.sampled_from(EDGE_LENGTHS))
    def test_truncate_unsorted_input(self, values, length):
        hi, lo = ints_to_halves(values)
        raw = obstore._pack(hi, lo)
        assert_same_array(
            obstore.truncate_array(raw, length), setops.truncate_array(raw, length)
        )

    @settings(max_examples=150, deadline=None)
    @given(
        raw_addresses.flatmap(
            lambda values: st.tuples(
                st.just(values),
                st.lists(
                    st.sampled_from([0, 1, 7, (1 << 63), (1 << 64) - 1]),
                    min_size=len(values),
                    max_size=len(values),
                ),
            )
        )
    )
    def test_hit_sums(self, case):
        values, hits = case
        hi, lo = ints_to_halves(values)
        hit_array = np.asarray(hits, dtype=np.uint64)
        want_addresses, want_hits = setops.merge_hits(hi, lo, hit_array)

        got_hi, got_lo, got_hits = obstore.canonical_columns(hi, lo, hit_array)
        assert_same_array(obstore._pack(got_hi, got_lo), want_addresses)
        assert got_hits.dtype == np.uint64
        assert got_hits.tolist() == want_hits.tolist()

        day = DailyObservations(3, values, hits=hits)
        assert_same_array(day.addresses, want_addresses)
        assert day.hits.tolist() == want_hits.tolist()
        from_halves = DailyObservations.from_halves(3, hi, lo, hit_array)
        assert_same_array(from_halves.addresses, want_addresses)
        assert from_halves.hits.tolist() == want_hits.tolist()

    @settings(max_examples=40, deadline=None)
    @given(raw_addresses)
    def test_log_writer_and_reader_merge(self, values):
        hi, lo = ints_to_halves(values)
        want_addresses, want_hits = setops.merge_hits(hi, lo, None)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/log-1.txt"
            logfile.write_daily_log_arrays(path, 1, hi, lo)
            _day, got_hi, got_lo, got_hits = logfile.read_daily_log_arrays(path)
            assert_same_array(obstore._pack(got_hi, got_lo), want_addresses)
            assert got_hits.tolist() == want_hits.tolist()
            # Reversed duplicated rows take the reader's own merge path.
            order = np.arange(hi.shape[0])[::-1]
            logfile.write_daily_log(
                path, 1, [(values[i], 2) for i in order]
            )
            _day, got_hi, got_lo, got_hits = logfile.read_daily_log_arrays(path)
            want_addresses, want_hits = setops.merge_hits(
                hi[order], lo[order], np.full(hi.shape[0], 2, dtype=np.uint64)
            )
            assert_same_array(obstore._pack(got_hi, got_lo), want_addresses)
            assert got_hits.tolist() == want_hits.tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(raw_addresses, max_size=6),
        st.sampled_from((16, 48, 64, 96, 128)),
        st.integers(1, 4),
        st.integers(1, 3),
    )
    def test_stable_truncations(self, value_lists, length, n, min_days):
        store = ObservationStore()
        for day, values in enumerate(value_lists):
            store.add_day(day * 2, values)
        days = store.days()
        want = setops.stable_truncations(
            [store.array(day) for day in days], days, length, n, min_days
        )
        assert_same_array(_stable_truncations(store, length, n, min_days), want)

    def test_search_sorted_matches_structured_searchsorted(self):
        rng = np.random.default_rng(5)
        hi = np.sort(rng.integers(0, 4, 300, dtype=np.uint64))
        lo = rng.integers(0, 6, 300, dtype=np.uint64)
        haystack = np.sort(obstore._pack(hi, lo))
        queries = obstore._pack(
            rng.integers(0, 5, 200, dtype=np.uint64),
            rng.integers(0, 7, 200, dtype=np.uint64),
        )
        for side in ("left", "right"):
            got = obstore.search_sorted(
                haystack["hi"], haystack["lo"], queries["hi"], queries["lo"], side
            )
            assert got.tolist() == np.searchsorted(haystack, queries, side).tolist()


class TestAddressIds:
    """``address_ids``: the rank kernel the sweep and the unsorted
    ``canonical_columns`` path sort on instead of a column ``lexsort``."""

    @settings(max_examples=200, deadline=None)
    @given(raw_addresses)
    def test_order_preserving_injective_and_bounded(self, values):
        hi, lo = ints_to_halves(values)
        ids, bound = obstore.address_ids(hi, lo)
        assert ids.dtype == np.int64
        assert ids.shape == hi.shape
        assert bound == len(set(hi.tolist())) * len(set(lo.tolist()))
        assert bound <= len(values) ** 2
        assert all(0 <= i < bound for i in ids.tolist())
        # Same order as the 128-bit values, ties exactly where they tie:
        # order-preserving and injective on distinct addresses.
        for a, i in zip(values, ids.tolist()):
            for b, j in zip(values, ids.tolist()):
                assert (a < b) == (i < j) and (a == b) == (i == j)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, (1 << 64) - 1), max_size=50))
    def test_dense_ranks(self, values):
        column = np.asarray(values, dtype=np.uint64)
        ranks, count = obstore.dense_ranks(column)
        distinct = sorted(set(values))
        assert ranks.dtype == np.int64
        assert count == len(distinct)
        assert ranks.tolist() == [distinct.index(v) for v in values]

    def test_straddles_and_extremes(self):
        values = [ALL_ONES, 1 << 64, 0, (1 << 64) - 1, 1 << 64, ALL_ONES - 1]
        hi, lo = ints_to_halves(values)
        ids, bound = obstore.address_ids(hi, lo)
        assert bound == 3 * 3
        assert np.argsort(ids, kind="stable").tolist() == sorted(
            range(len(values)), key=lambda i: values[i]
        )
        assert ids[1] == ids[4]
