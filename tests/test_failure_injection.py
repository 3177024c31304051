"""Failure-injection and robustness tests across the library.

These exercise the unhappy paths: corrupted persistence files, missing
observation days, degenerate inputs (empty sets, single elements,
boundary prefix lengths), and hostile log content.
"""

import numpy as np
import pytest

from repro.core.census import census
from repro.core.mra import aggregate_counts, profile
from repro.core.population import figure3_series
from repro.core.spatial import general_dense_prefixes
from repro.core.temporal import classify_day, classify_week, window_series
from repro.data import logfile
from repro.data.store import ObservationStore
from repro.net import addr
from tests.oracles.tree import RadixTree, build_tree, densify


class TestCorruptedPersistence:
    def test_corrupt_npz_raises(self, tmp_path):
        path = tmp_path / "store.npz"
        path.write_bytes(b"this is not an npz archive at all")
        with pytest.raises(Exception):
            ObservationStore.load(str(path))

    def test_missing_npz_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ObservationStore.load(str(tmp_path / "missing.npz"))

    def test_truncated_log_file(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("2001:db8::1 5\n2001:db8::2")  # missing hit count
        with pytest.raises(logfile.LogFormatError):
            logfile.read_daily_log(str(path))

    def test_log_with_binary_noise(self, tmp_path):
        path = tmp_path / "log.bin"
        path.write_bytes(b"\x00\xff\xfe garbage\n")
        with pytest.raises((logfile.LogFormatError, UnicodeDecodeError)):
            logfile.read_daily_log(str(path))

    def test_negative_hit_count_rejected(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("2001:db8::1 -5\n")
        with pytest.raises(logfile.LogFormatError):
            logfile.read_daily_log(str(path))


class TestMissingAndEmptyData:
    def test_classify_day_with_no_data_at_all(self):
        result = classify_day(ObservationStore(), 10)
        assert result.active_count == 0
        assert result.stable_count(3) == 0
        assert result.stable_fraction(3) == 0.0

    def test_classify_week_with_holes(self):
        store = ObservationStore()
        store.add_day(0, [1])
        store.add_day(6, [1])  # days 1-5 missing entirely
        weekly = classify_week(store, list(range(7)), 3)
        assert weekly.active_count == 1
        assert weekly.stable_count == 1  # 6-day gap witnesses 3d-stability

    def test_window_series_over_absent_days(self):
        store = ObservationStore()
        store.add_day(5, [1, 2])
        series = window_series(store, 5)
        assert sum(series.active_counts) == 2  # only the reference day

    def test_census_of_empty_day(self):
        row = census([])
        assert row.total == 0
        assert row.other_addresses is not None
        assert row.other_addresses.shape[0] == 0

    def test_figure3_of_empty_set(self):
        series = figure3_series([])
        assert all(s.num_aggregates == 0 for s in series)

    def test_mra_of_empty_and_singleton(self):
        assert aggregate_counts([]).sum() == 0
        singleton = profile([addr.parse("2001:db8::1")])
        assert singleton.ratio_product(16) == pytest.approx(1.0)


class TestDegenerateBoundaries:
    def test_full_range_addresses(self):
        values = [0, addr.MAX_ADDRESS]
        counts = aggregate_counts(values)
        assert counts[0] == 1
        assert counts[1] == 2  # they differ at the first bit

    def test_dense_prefixes_at_length_zero(self):
        # Every address is in the single /0; n=2 at p=0 requires two.
        found = general_dense_prefixes([1, 2], 2, 0)
        assert len(found) == 1
        network, length, count = found[0]
        assert length <= 127 and count == 2

    def test_densify_on_empty_tree(self):
        tree = RadixTree()
        densify(tree, 2, 112)  # must not raise
        assert tree.total_count == 0

    def test_trie_with_adversarial_insert_order(self):
        # Strictly nested prefixes inserted deepest-first: exercises the
        # split path repeatedly without recursion.
        tree = RadixTree()
        for length in range(128, 0, -1):
            tree.add_prefix(addr.parse("2001:db8::"), length)
        assert tree.total_count == 128
        node = tree.lookup(addr.parse("2001:db8::"))
        assert node is not None and node.length == 128

    def test_trie_alternating_extremes(self):
        tree = build_tree([0, addr.MAX_ADDRESS, 1, addr.MAX_ADDRESS - 1])
        assert tree.total_count == 4
        assert tree.lookup(0).length == 128

    def test_store_with_single_huge_day(self):
        store = ObservationStore()
        values = list(range(1, 50_001))
        store.add_day(0, values)
        assert len(store.get(0)) == 50_000
        result = classify_day(store, 0)
        assert result.stable_count(1) == 0  # nothing to compare against


class TestHostileLogContent:
    def test_comment_only_file(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("# just a comment\n# day=notanumber\n")
        day, entries = logfile.read_daily_log(str(path))
        assert day is None
        assert entries == []

    def test_duplicate_day_header_first_wins(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("# day=3\n# day=9\n2001:db8::1 1\n")
        day, _entries = logfile.read_daily_log(str(path))
        assert day == 3

    def test_enormous_hit_count_survives(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text(f"2001:db8::1 {10**18}\n")
        _day, entries = logfile.read_daily_log(str(path))
        assert entries[0][1] == 10**18
