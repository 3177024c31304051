"""Property-based tests (hypothesis) on the core data structures.

These assert the paper's mathematical identities and the substrate's
invariants over arbitrary inputs: parse/format round trips, trie count
conservation, MRA ratio identities, stability-class nesting, and density
monotonicity.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mra import aggregate_counts, profile
from repro.core.spatial import density_threshold, general_dense_prefixes
from repro.core.temporal import classify_day
from repro.data import store as obstore
from repro.data.store import ObservationStore
from repro.net import addr
from tests.oracles.tree import build_tree, dense_prefixes_fixed

addresses_strategy = st.integers(min_value=0, max_value=(1 << 128) - 1)
address_sets = st.sets(addresses_strategy, min_size=0, max_size=80)
prefix_lengths = st.integers(min_value=0, max_value=128)


class TestAddressProperties:
    @given(addresses_strategy)
    def test_parse_format_roundtrip(self, value):
        assert addr.parse(addr.format_address(value)) == value

    @given(addresses_strategy)
    def test_format_full_roundtrip(self, value):
        assert addr.parse(addr.format_full(value)) == value

    @given(addresses_strategy, prefix_lengths)
    def test_truncate_idempotent(self, value, length):
        once = addr.truncate(value, length)
        assert addr.truncate(once, length) == once

    @given(addresses_strategy, prefix_lengths)
    def test_truncate_only_clears_bits(self, value, length):
        truncated = addr.truncate(value, length)
        assert truncated & value == truncated
        assert truncated <= value

    @given(addresses_strategy, addresses_strategy)
    def test_common_prefix_symmetric(self, a, b):
        assert addr.common_prefix_len(a, b) == addr.common_prefix_len(b, a)

    @given(addresses_strategy, addresses_strategy)
    def test_common_prefix_defines_equal_truncations(self, a, b):
        shared = addr.common_prefix_len(a, b)
        assert addr.truncate(a, shared) == addr.truncate(b, shared)
        if shared < 128:
            assert addr.truncate(a, shared + 1) != addr.truncate(b, shared + 1)

    @given(addresses_strategy)
    def test_halves_recompose(self, value):
        assert addr.from_halves(addr.high64(value), addr.low64(value)) == value


class TestStoreProperties:
    @given(address_sets, address_sets)
    def test_set_algebra_matches_python(self, a, b):
        array_a = obstore.to_array(a)
        array_b = obstore.to_array(b)
        assert set(obstore.from_array(obstore.intersect(array_a, array_b))) == a & b
        assert set(obstore.from_array(obstore.union(array_a, array_b))) == a | b
        assert set(obstore.from_array(obstore.difference(array_a, array_b))) == a - b

    @given(address_sets, prefix_lengths)
    def test_truncate_array_matches_scalar(self, values, length):
        array = obstore.truncate_array(obstore.to_array(values), length)
        expected = sorted({addr.truncate(v, length) for v in values})
        assert obstore.from_array(array) == expected

    @given(address_sets)
    def test_to_array_sorted_unique(self, values):
        result = obstore.from_array(obstore.to_array(values))
        assert result == sorted(set(values))


class TestTrieProperties:
    @given(st.lists(addresses_strategy, min_size=0, max_size=60))
    def test_total_count_conserved(self, values):
        tree = build_tree(values)
        assert tree.total_count == len(values)

    @given(address_sets)
    def test_counted_prefixes_roundtrip(self, values):
        tree = build_tree(values)
        leaves = {
            network for network, length, _c in tree.counted_prefixes()
            if length == 128
        }
        assert leaves == values

    @given(address_sets)
    def test_lookup_finds_inserted_address(self, values):
        tree = build_tree(values)
        for value in values:
            node = tree.lookup(value)
            assert node is not None
            assert node.network == value and node.length == 128


class TestMraProperties:
    @given(address_sets)
    def test_counts_monotone(self, values):
        counts = aggregate_counts(values)
        assert all(counts[i] <= counts[i + 1] for i in range(128))

    @given(address_sets)
    def test_endpoints(self, values):
        counts = aggregate_counts(values)
        if values:
            assert counts[0] == 1
            assert counts[128] == len(values)
        else:
            assert counts.sum() == 0

    @given(st.sets(addresses_strategy, min_size=1, max_size=60))
    def test_ratio_product_identity(self, values):
        # Exact, not approximate: the product telescopes over integer counts.
        prof = profile(values)
        for k in (1, 4, 16):
            assert prof.ratio_product(k) == float(len(values))

    @given(st.sets(addresses_strategy, min_size=1, max_size=60))
    def test_split_bound(self, values):
        # n_{p+1} <= 2 * n_p: splitting can at most double the cover.
        counts = aggregate_counts(values)
        assert all(counts[i + 1] <= 2 * counts[i] for i in range(128))

    @given(st.sets(addresses_strategy, min_size=2, max_size=60))
    def test_counts_match_bruteforce_at_random_lengths(self, values):
        counts = aggregate_counts(values)
        for length in (7, 33, 64, 65, 127):
            assert counts[length] == len({addr.truncate(v, length) for v in values})


class TestDensityProperties:
    @given(address_sets, st.integers(min_value=1, max_value=8))
    def test_fixed_counts_sum(self, values, n):
        dense = dense_prefixes_fixed(values, n, 112)
        for network, length, count in dense:
            assert count >= n
            members = {
                v for v in values if addr.truncate(v, length) == network
            }
            assert len(members) == count

    @given(address_sets)
    def test_general_dense_nonoverlapping(self, values):
        dense = general_dense_prefixes(values, 2, 112)
        spans = sorted(
            (network, network + (1 << (128 - length)) - 1)
            for network, length, _c in dense
        )
        for (a0, a1), (b0, _b1) in zip(spans, spans[1:]):
            assert a1 < b0

    @given(st.integers(min_value=1, max_value=64), prefix_lengths, prefix_lengths)
    def test_threshold_monotone_in_length(self, n, p, q):
        low, high = sorted((p, q))
        # A less-specific (shorter) prefix never needs fewer addresses.
        assert density_threshold(n, p, low) >= density_threshold(n, p, high)


class TestTemporalProperties:
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=14),
            st.sets(st.integers(min_value=0, max_value=30), max_size=12),
            max_size=10,
        )
    )
    @settings(max_examples=50)
    def test_stability_classes_nested(self, schedule):
        store = ObservationStore()
        for day, values in schedule.items():
            store.add_day(day, values)
        result = classify_day(store, 7)
        for n in range(2, 15):
            stable_n = set(obstore.from_array(result.stable(n)))
            stable_prev = set(obstore.from_array(result.stable(n - 1)))
            assert stable_n <= stable_prev

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=14),
            st.sets(st.integers(min_value=0, max_value=30), max_size=12),
            max_size=10,
        )
    )
    @settings(max_examples=50)
    def test_prefix_stability_dominates_address_stability(self, schedule):
        # An address's /64 is stable whenever the address itself is: the
        # paper's "upper limit" remark.
        store = ObservationStore()
        for day, values in schedule.items():
            # Spread the small integers into distinct /64s plus IID noise.
            store.add_day(day, [(v << 64) | (day % 3) for v in values])
        address_result = classify_day(store, 7)
        prefix_result = classify_day(store.truncated(64), 7)
        for n in (1, 3, 7):
            stable_addresses = obstore.from_array(address_result.stable(n))
            stable_64s = set(obstore.from_array(prefix_result.stable(n)))
            for value in stable_addresses:
                assert addr.truncate(value, 64) in stable_64s
