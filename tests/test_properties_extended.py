"""Extended property-based tests: parser fuzzing, densify invariants,
streaming equivalence, and census conservation."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.census import census
from repro.core.spatial import general_dense_prefixes
from repro.core.streaming import stream_classify
from repro.core.temporal import classify_day
from repro.data import store as obstore
from repro.data.store import ObservationStore
from repro.net import addr
from tests.oracles.tree import dense_prefixes_fixed

addresses_strategy = st.integers(min_value=0, max_value=(1 << 128) - 1)


class TestParserFuzzing:
    @given(st.text(alphabet=string.printable, max_size=60))
    @settings(max_examples=300)
    def test_parser_never_crashes_unexpectedly(self, text):
        """Arbitrary text either parses to a valid address or raises
        AddressError — never any other exception type."""
        try:
            value = addr.parse(text)
        except addr.AddressError:
            return
        assert 0 <= value < (1 << 128)
        # Anything that parses must round-trip through the formatter.
        assert addr.parse(addr.format_address(value)) == value

    @given(
        st.lists(
            st.integers(min_value=0, max_value=0xFFFF), min_size=8, max_size=8
        )
    )
    def test_all_full_forms_parse(self, groups):
        text = ":".join(f"{g:x}" for g in groups)
        value = addr.parse(text)
        for index, group in enumerate(groups):
            assert addr.segment16(value, index) == group

    @given(addresses_strategy, st.sampled_from(["upper", "lower"]))
    def test_case_insensitivity(self, value, case):
        text = addr.format_address(value)
        transformed = text.upper() if case == "upper" else text.lower()
        assert addr.parse(transformed) == value


class TestDensifyInvariants:
    @given(
        st.sets(addresses_strategy, max_size=50),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=64, max_value=124),
    )
    @settings(max_examples=100)
    def test_dense_counts_bounded_by_input(self, values, n, p):
        found = general_dense_prefixes(values, n, p)
        total_contained = sum(count for _n, _l, count in found)
        assert total_contained <= len(values)
        for _network, length, count in found:
            assert count >= n
            assert length <= 127

    @given(
        st.sets(addresses_strategy, max_size=50),
        st.integers(min_value=64, max_value=124),
    )
    @settings(max_examples=100)
    def test_fixed_dense_monotone_in_n(self, values, p):
        low = {net for net, _l, _c in dense_prefixes_fixed(values, 2, p)}
        high = {net for net, _l, _c in dense_prefixes_fixed(values, 4, p)}
        assert high <= low


class TestStreamingEquivalence:
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=12),
            st.sets(st.integers(min_value=0, max_value=25), max_size=8),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_stream_equals_batch(self, schedule):
        store = ObservationStore()
        for day, values in schedule.items():
            store.add_day(day, values)
        streamed = {
            result.reference_day: result
            for result in stream_classify(
                sorted(schedule.items()), window_before=3, window_after=3
            )
        }
        for day in schedule:
            batch = classify_day(store, day, 3, 3)
            assert obstore.from_array(streamed[day].active) == obstore.from_array(
                batch.active
            )
            assert streamed[day].gaps.tolist() == batch.gaps.tolist()


class TestCensusConservation:
    @given(st.sets(addresses_strategy, max_size=80))
    @settings(max_examples=100)
    def test_buckets_partition_total(self, values):
        row = census(values)
        assert row.teredo + row.isatap + row.sixto4 + row.other == row.total
        assert row.total == len(values)

    @given(st.sets(addresses_strategy, max_size=80))
    @settings(max_examples=100)
    def test_other_64s_bounded(self, values):
        row = census(values)
        assert row.other_64s <= row.other
        if row.other:
            assert row.avg_addrs_per_64 >= 1.0
