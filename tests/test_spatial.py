"""Unit tests for repro.core.spatial: the array-native spatial engine.

The load-bearing assertion is bit-identity: the vectorized general
densify must return exactly what the tree-based reference
(:func:`tests.oracles.tree.compute_dense_prefixes_tree`) returns, across
randomized address sets and (n, p) classes.
"""

import random

import numpy as np
import pytest

from repro.core.density import TABLE3_CLASSES, DensityClass, table3
from repro.core.mra import adjacent_common_prefix_lengths, aggregate_counts
from repro.core.spatial import (
    _nearest_smaller_left,
    _nearest_smaller_right,
    day_spatial_summary,
    dense_runs,
    density_threshold,
    general_dense_prefixes,
    prefix_runs,
    sweep_spatial,
    threshold_table,
)
from repro.data import store as obstore
from repro.net import addr
from tests.oracles.tree import compute_dense_prefixes_tree, dense_prefixes_fixed

#: (n, p) classes at the edges: the root, both sides of the hi/lo split
#: of a 128-bit address, and full-length prefixes.
EDGE_CLASSES = [
    (1, 0), (2, 0), (2, 63), (2, 64), (2, 65), (2, 112), (1, 127), (1, 128), (2, 128)
]


def p(text: str) -> int:
    return addr.parse(text)


def random_clustered(rng: random.Random, size: int, clusters: int) -> list:
    """Addresses drawn from random-density clusters (plus stragglers)."""
    out = []
    for _ in range(clusters):
        plen = rng.choice([32, 48, 64, 96, 104, 112, 116, 120, 124, 126, 127, 128])
        network = addr.truncate(rng.getrandbits(128), plen)
        for _ in range(rng.randint(1, max(1, size // clusters))):
            offset = rng.getrandbits(128 - plen) if plen < 128 else 0
            out.append(network | offset)
    rng.shuffle(out)
    return out[:size]


def random_boundary(rng: random.Random) -> list:
    """Addresses at the edges of the address space and of the hi/lo split.

    Mixes ``::`` and all-ones (and small clusters next to each) with
    clusters that straddle a multiple of 2**64, so adjacent addresses
    differ in the ``hi`` column, the ``lo`` column, or both.
    """
    out = []
    for extreme in (0, addr.MAX_ADDRESS):
        if rng.random() < 0.5:
            out.append(extreme)
        if rng.random() < 0.3:
            bits = rng.choice([1, 8, 63, 64, 65])
            out.extend(extreme ^ rng.getrandbits(bits) for _ in range(rng.randint(1, 4)))
    for _ in range(rng.randint(0, 4)):
        boundary = rng.choice([1, 2, rng.getrandbits(64), (1 << 64) - 1]) << 64
        span = rng.choice([1, 2, 16, 1 << 32, 1 << 63])
        out.extend(
            boundary + rng.randrange(-span, span) for _ in range(rng.randint(1, 6))
        )
    rng.shuffle(out)
    return out


class TestThresholdTable:
    def test_matches_reference(self):
        for n, prefix_len in [(1, 0), (2, 112), (64, 112), (3, 120), (2, 124)]:
            table = threshold_table(n, prefix_len)
            for length in range(129):
                expected = min(density_threshold(n, prefix_len, length), 1 << 62)
                assert table[length] == expected

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            threshold_table(0, 112)
        with pytest.raises(ValueError):
            threshold_table(2, 129)


class TestNearestSmaller:
    def naive_left(self, values):
        out = []
        for i in range(len(values)):
            j = i - 1
            while j >= 0 and values[j] >= values[i]:
                j -= 1
            out.append(j)
        return out

    def naive_right(self, values):
        out = []
        for i in range(len(values)):
            j = i + 1
            while j < len(values) and values[j] >= values[i]:
                j += 1
            out.append(j)
        return out

    def test_matches_naive(self):
        rng = random.Random(5)
        for _ in range(60):
            size = rng.randint(1, 120)
            values = np.array(
                [rng.randint(0, 8) for _ in range(size)], dtype=np.int64
            )
            assert _nearest_smaller_left(values).tolist() == self.naive_left(values)
            assert _nearest_smaller_right(values).tolist() == self.naive_right(values)

    def test_monotone_and_flat(self):
        up = np.arange(10, dtype=np.int64)
        assert _nearest_smaller_left(up).tolist() == list(range(-1, 9))
        flat = np.full(6, 3, dtype=np.int64)
        assert _nearest_smaller_left(flat).tolist() == [-1] * 6
        assert _nearest_smaller_right(flat).tolist() == [6] * 6


class TestPrefixRuns:
    def test_matches_truncate_array(self):
        rng = random.Random(9)
        for _ in range(30):
            values = random_clustered(rng, rng.randint(0, 150), rng.randint(1, 8))
            array = obstore.to_array(values)
            for prefix_len in (0, 32, 64, 112, 128):
                starts, counts = prefix_runs(array, prefix_len)
                aggregates = obstore.truncate_array(array, prefix_len)
                assert starts.shape == counts.shape
                assert len(starts) == aggregates.shape[0]
                assert int(counts.sum()) == array.shape[0]
                for start, length in zip(starts, counts):
                    run = array[start : start + length]
                    truncated = obstore.truncate_array(run, prefix_len)
                    assert truncated.shape[0] == 1

    def test_empty(self):
        starts, counts = prefix_runs(np.empty(0, dtype=obstore.ADDRESS_DTYPE), 112)
        assert starts.tolist() == [] and counts.tolist() == []


class TestDenseRuns:
    def test_matches_fixed_reference(self):
        rng = random.Random(13)
        for _ in range(40):
            values = random_clustered(rng, rng.randint(0, 150), rng.randint(1, 8))
            n = rng.choice([1, 2, 4, 8])
            prefix_len = rng.choice([0, 48, 64, 104, 112, 120, 128])
            expected = dense_prefixes_fixed(values, n, prefix_len)
            found, contained = dense_runs(obstore.to_array(values), n, prefix_len)
            assert found == expected
            assert contained == sum(count for _net, _len, count in expected)
        rng = random.Random(64)
        for _ in range(60):
            values = random_boundary(rng)
            array = obstore.to_array(values)
            for n, prefix_len in EDGE_CLASSES:
                expected = dense_prefixes_fixed(values, n, prefix_len)
                found, contained = dense_runs(array, n, prefix_len)
                assert found == expected, (n, prefix_len, sorted(set(values)))
                assert contained == sum(count for _net, _len, count in expected)


class TestGeneralDensify:
    """The tentpole property: vectorized == tree-based, bit for bit."""

    def test_property_identity_across_classes(self):
        rng = random.Random(4242)
        trials = 0
        for _ in range(120):
            values = random_clustered(rng, rng.randint(0, 250), rng.randint(1, 10))
            if values and rng.random() < 0.4:
                values += rng.choices(values, k=rng.randint(1, 10))
            n = rng.choice([1, 2, 3, 4, 8, 16, 64])
            prefix_len = rng.choice([0, 16, 64, 104, 112, 116, 120, 124, 127, 128])
            widen = rng.random() < 0.5
            expected = compute_dense_prefixes_tree(values, n, prefix_len, widen=widen)
            got = general_dense_prefixes(
                obstore.to_array(values), n, prefix_len, widen=widen
            )
            assert got == expected, (n, prefix_len, widen, sorted(set(values))[:6])
            trials += 1
        assert trials == 120
        rng = random.Random(6464)
        for _ in range(60):
            values = random_boundary(rng)
            array = obstore.to_array(values)
            for n, prefix_len in EDGE_CLASSES:
                for widen in (False, True):
                    expected = compute_dense_prefixes_tree(
                        values, n, prefix_len, widen=widen
                    )
                    got = general_dense_prefixes(array, n, prefix_len, widen=widen)
                    assert got == expected, (n, prefix_len, widen, sorted(set(values)))

    def test_table3_classes_on_one_set(self):
        rng = random.Random(77)
        values = random_clustered(rng, 400, 12)
        array = obstore.to_array(values)
        lengths = adjacent_common_prefix_lengths(array)
        for cls in TABLE3_CLASSES:
            expected = compute_dense_prefixes_tree(values, cls.n, cls.p)
            assert general_dense_prefixes(array, cls.n, cls.p, lengths=lengths) == expected

    def test_accepts_int_iterable(self):
        values = [p("2001:db8::1"), p("2001:db8::2"), p("2001:db8::2")]
        assert general_dense_prefixes(values, 2, 112) == [(p("2001:db8::"), 126, 2)]

    def test_empty(self):
        assert general_dense_prefixes([], 2, 112) == []
        assert (
            general_dense_prefixes(np.empty(0, dtype=obstore.ADDRESS_DTYPE), 2, 112)
            == []
        )

    def test_single_address(self):
        assert general_dense_prefixes([p("2001:db8::1")], 2, 112) == []
        assert general_dense_prefixes([p("2001:db8::1")], 1, 112) == []
        # 1@/0 density is met by any single address: the root reports.
        assert general_dense_prefixes([p("2001:db8::1")], 1, 0) == [(0, 0, 1)]

    def test_root_dense_without_branch(self):
        # Two addresses sharing a long prefix, searched at 2@/0: the
        # root (not itself a branch point) absorbs everything.
        values = [p("2001:db8::1"), p("2001:db8::2")]
        assert general_dense_prefixes(values, 2, 0) == [(0, 0, 2)]
        assert compute_dense_prefixes_tree(values, 2, 0) == [(0, 0, 2)]

    def test_widen_identity(self):
        values = [p("2001:db8::1"), p("2001:db8::2"), p("2a00::8001"), p("2a00::8002")]
        expected = compute_dense_prefixes_tree(values, 2, 112, widen=True)
        assert general_dense_prefixes(values, 2, 112, widen=True) == expected
        assert expected == [(p("2001:db8::"), 112, 2), (p("2a00::"), 112, 2)]


class TestGoldenTable3:
    """Table 3 on a seeded simulated store, pinned against golden values
    and cross-checked against the tree-based reference."""

    GOLDEN = [
        ("2 @ /124", 97, 288),
        ("3 @ /120", 59, 258),
        ("2 @ /120", 80, 300),
        ("2 @ /116", 80, 300),
        ("64 @ /112", 0, 0),
        ("32 @ /112", 0, 0),
        ("16 @ /112", 2, 36),
        ("8 @ /112", 4, 53),
        ("4 @ /112", 30, 171),
        ("2 @ /112", 80, 300),
        ("2 @ /104", 94, 328),
    ]

    @pytest.fixture(scope="class")
    def union(self):
        from repro.sim import EPOCH_2015_03, InternetConfig, build_internet

        internet = build_internet(seed=42, config=InternetConfig(scale=0.05))
        store = internet.build_store(range(EPOCH_2015_03, EPOCH_2015_03 + 7))
        return store.union_over(store.days())

    def test_golden_rows(self, union):
        assert union.shape[0] == 15713
        rows = {row.density_class.label: row for row in table3(union)}
        for label, num_prefixes, contained in self.GOLDEN:
            assert rows[label].num_prefixes == num_prefixes, label
            assert rows[label].contained_addresses == contained, label

    def test_rows_match_general_densify_widened(self, union):
        # The fixed-length /p search equals the widened general densify
        # restricted to the same count floor on this store.
        for cls in (DensityClass(2, 112), DensityClass(8, 112)):
            fixed, _ = dense_runs(union, cls.n, cls.p)
            widened = [
                entry
                for entry in general_dense_prefixes(union, cls.n, cls.p, widen=True)
                if entry[2] >= cls.n
            ]
            assert fixed == widened


class TestSweepSpatial:
    @pytest.fixture(scope="class")
    def store(self):
        from repro.sim import EPOCH_2015_03, InternetConfig, build_internet

        internet = build_internet(seed=7, config=InternetConfig(scale=0.05))
        return internet.build_store(range(EPOCH_2015_03, EPOCH_2015_03 + 6))

    def test_serial_matches_per_day(self, store):
        classes = [DensityClass(2, 112), DensityClass(2, 120)]
        results = sweep_spatial(store, classes=classes)
        assert [result.day for result in results] == store.days()
        for result in results:
            array = store.array(result.day)
            assert result.total == array.shape[0]
            assert result.mra_counts.tolist() == aggregate_counts(array).tolist()
            expected = day_spatial_summary(array, classes, day=result.day)
            assert result.dense == expected.dense

    def test_jobs_identical(self, store):
        classes = [DensityClass(2, 112)]
        serial = sweep_spatial(store, classes=classes, jobs=1)
        parallel = sweep_spatial(store, classes=classes, jobs=2)
        assert [result.day for result in serial] == [result.day for result in parallel]
        for one, two in zip(serial, parallel):
            assert one.total == two.total
            assert one.dense == two.dense
            assert one.mra_counts.tolist() == two.mra_counts.tolist()

    def test_cull_scopes_to_other(self, store):
        from repro.core.census import other_mask

        results = sweep_spatial(store, classes=[DensityClass(2, 112)], cull=True)
        for result in results:
            array = store.array(result.day)
            assert result.total == int(np.count_nonzero(other_mask(array)))

    def test_keep_prefixes_and_accounting(self, store):
        cls = DensityClass(2, 112)
        results = sweep_spatial(store, classes=[cls], keep_prefixes=True)
        for result in results:
            summary = result.dense[0]
            found = result.prefixes[summary.label]
            assert summary.num_prefixes == len(found)
            assert summary.contained_addresses == sum(c for _n, _l, c in found)
            assert summary.possible_addresses == len(found) * cls.span
            if summary.possible_addresses:
                assert summary.address_density == pytest.approx(
                    summary.contained_addresses / summary.possible_addresses
                )

    def test_accepts_plain_tuples_and_day_subset(self, store):
        days = store.days()[:2]
        results = sweep_spatial(store, days=days, classes=[(2, 112)])
        assert [result.day for result in results] == days
        assert results[0].dense[0].label == "2 @ /112"

    def test_empty_store_days(self):
        empty = obstore.ObservationStore()
        assert sweep_spatial(empty) == []


class TestCli:
    def test_main_spatial_smoke(self, capsys):
        from repro.cli import main_spatial

        assert main_spatial(["--simulate", "0.02", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Spatial sweep" in out
        assert "2 @ /112" in out

    def test_main_spatial_cull_and_density(self, capsys):
        from repro.cli import main_spatial

        code = main_spatial(
            ["--simulate", "0.02", "--seed", "1", "--cull", "--density", "4@/112"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "native (Other) addresses" in out
        assert "4 @ /112" in out

    def test_bad_density_rejected(self):
        from repro.cli import main_spatial

        with pytest.raises(SystemExit):
            main_spatial(["--simulate", "0.02", "--density", "nope"])
