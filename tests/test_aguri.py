"""Unit tests for the paper's densify (§5.2.3): density thresholds, the
general and fixed-length dense-prefix searches, and widening."""

import pytest

from repro.core.spatial import (
    density_threshold,
    general_dense_prefixes,
    widen_dense_prefixes,
)
from repro.net import addr
from tests.oracles.tree import dense_prefixes_fixed


def p(text: str) -> int:
    return addr.parse(text)


class TestDensityThreshold:
    def test_at_target_length(self):
        assert density_threshold(2, 112, 112) == 2

    def test_shorter_prefix_needs_more(self):
        # A /104 spans 256x the addresses of a /112.
        assert density_threshold(2, 112, 104) == 2 * 256

    def test_longer_prefix_needs_fewer_but_at_least_one(self):
        assert density_threshold(2, 112, 120) == 1
        assert density_threshold(64, 112, 117) == 2  # ceil(64/32)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            density_threshold(0, 112, 112)


class TestPaperExample:
    """§5.2.2's worked example: 2001:db8::1 and 2001:db8::4 active."""

    ADDRS = [p("2001:db8::1"), p("2001:db8::4")]

    def test_sole_dense_112_fixed(self):
        dense = dense_prefixes_fixed(self.ADDRS, 2, 112)
        assert dense == [(p("2001:db8::"), 112, 2)]

    def test_sole_dense_125(self):
        dense = dense_prefixes_fixed(self.ADDRS, 2, 125)
        assert dense == [(p("2001:db8::"), 125, 2)]

    def test_no_dense_126(self):
        assert dense_prefixes_fixed(self.ADDRS, 2, 126) == []

    def test_general_densify_finds_branch_point(self):
        dense = general_dense_prefixes(self.ADDRS, 2, 112)
        assert dense == [(p("2001:db8::"), 125, 2)]

    def test_widen_to_class_length(self):
        dense = general_dense_prefixes(self.ADDRS, 2, 112, widen=True)
        assert dense == [(p("2001:db8::"), 112, 2)]


class TestDensify:
    def test_sparse_addresses_not_reported(self):
        spread = [p("2001:db8::1"), p("2a00:1::1"), p("2400:2::1")]
        assert general_dense_prefixes(spread, 2, 112) == []

    def test_duplicates_do_not_inflate_density(self):
        values = [p("2001:db8::1")] * 5
        assert general_dense_prefixes(values, 2, 112) == []

    def test_mixed_dense_and_sparse(self):
        dense_block = [p("2001:db8::") + i for i in range(8)]
        sparse = [p("2a00::1"), p("2400::9")]
        found = general_dense_prefixes(dense_block + sparse, 2, 112)
        assert len(found) == 1
        network, length, count = found[0]
        assert network == p("2001:db8::")
        assert count == 8

    def test_least_specific_wins(self):
        # Two addresses in each of the 256 /112 blocks of one /104: the
        # fixed-length query reports 256 dense /112s, but the general
        # densify aggregates all the way up, because the /104 itself
        # meets the 2@/112 density (512 addresses >= 2 * 256), and
        # reports the single least-specific prefix.
        values = []
        for block in range(256):
            base = p("2001:db8::") + (block << 16)
            values.extend([base, base + 1])
        assert len(dense_prefixes_fixed(values, 2, 112)) == 256
        general = general_dense_prefixes(values, 2, 112)
        assert len(general) == 1
        _network, length, count = general[0]
        assert length <= 104
        assert count == 512

    def test_non_overlapping_output(self):
        values = [p("2001:db8::") + i for i in range(64)]
        found = general_dense_prefixes(values, 2, 112)
        spans = [
            (network, network + (1 << (128 - length)) - 1)
            for network, length, _count in found
        ]
        spans.sort()
        for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
            assert a_end < b_start

    def test_max_length_127_excludes_lone_128s(self):
        # With n=1 every address alone would qualify; a /128 must still
        # never be reported as a dense *prefix*.
        found = general_dense_prefixes([p("2001:db8::1")], 1, 128)
        assert all(length <= 127 for _n, length, _c in found)


class TestFixedPath:
    def test_count_is_distinct_addresses(self):
        values = [p("2001:db8::1"), p("2001:db8::1"), p("2001:db8::2")]
        dense = dense_prefixes_fixed(values, 2, 112)
        assert dense[0][2] == 2

    def test_matches_general_path_when_widened(self):
        values = [p("2001:db8::") + i * 3 for i in range(50)]
        values += [p("2a00:5:6:7::") + i for i in range(10)]
        fixed = dense_prefixes_fixed(values, 4, 112)
        general = general_dense_prefixes(values, 4, 112, widen=True)
        assert {(n, l) for n, l, _ in fixed} == {(n, l) for n, l, _ in general}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            dense_prefixes_fixed([], 0, 112)


class TestWidenDedup:
    """Regression: widen=True could emit overlapping prefixes.

    A reported prefix longer than p is widened to /p, but a dense prefix
    already shorter than p is kept as-is — so a widened /p could come to
    sit nested inside a kept shorter prefix, double-counting its
    addresses.  Nested entries are now dropped after widening.
    """

    def test_nested_after_widening_dropped(self):
        container = (p("2001:db8::"), 104, 512)  # subtree total: includes below
        nested = (p("2001:db8::be00"), 120, 2)  # widens to /112 inside the /104
        result = widen_dense_prefixes([container, nested], 112)
        assert result == [container]

    def test_widened_prefixes_never_overlap(self):
        import random

        from repro.net.addr import ADDRESS_BITS

        rng = random.Random(11)
        for _ in range(50):
            found = []
            base = rng.getrandbits(128)
            for _ in range(rng.randint(1, 8)):
                length = rng.choice([96, 104, 108, 112, 116, 120, 124])
                network = addr.truncate(
                    base ^ rng.getrandbits(32), length
                )
                found.append((network, length, rng.randint(1, 100)))
            result = widen_dense_prefixes(sorted(set(found)), 112)
            spans = sorted(
                (network, network | ((1 << (ADDRESS_BITS - length)) - 1))
                for network, length, _count in result
            )
            for (_, first_end), (second_start, _) in zip(spans, spans[1:]):
                assert first_end < second_start

    def test_disjoint_prefixes_kept(self):
        disjoint = [(p("2001:db8::"), 112, 5), (p("2a00::"), 104, 9)]
        assert widen_dense_prefixes(disjoint, 112) == disjoint

    def test_same_slash_p_merged(self):
        result = widen_dense_prefixes(
            [(p("2001:db8::1000"), 120, 2), (p("2001:db8::2000"), 120, 3)], 112
        )
        assert result == [(p("2001:db8::"), 112, 5)]
