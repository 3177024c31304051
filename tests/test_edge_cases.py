"""Edge-case sweep across modules with thinner direct coverage."""

import pytest

from repro.analysis.tables import render_table, si_count
from repro.core.signature import PrefixClass, classify_profile
from repro.core.mra import profile
from repro.core.streaming import StabilityStream
from repro.data.hitlist import read_hitlist, write_hitlist
from repro.data.store import ObservationStore
from repro.net import addr
from repro.viz.mra_plot import MraPlot, mra_plot


def p(text: str) -> int:
    return addr.parse(text)


class TestMraPlotEdges:
    def test_empty_plot(self):
        plot = mra_plot([], title="empty")
        assert plot.profile.size == 0
        assert "(no data)" not in plot.render_ascii() or plot.render_ascii()
        assert plot.privacy_plateau() == 0.0 or plot.privacy_plateau() >= 0.0

    def test_single_address_plot(self):
        plot = mra_plot([p("2001:db8::1")])
        assert plot.profile.size == 1
        assert plot.privacy_plateau() == pytest.approx(1.0)
        assert plot.u_bit_dip() == pytest.approx(1.0)
        assert plot.iid_flatline_start() == 64

    def test_flatline_never_found(self):
        # Two addresses differing only in the last bit: single-bit ratio
        # is 1 everywhere except position 127, so no 8-run of ~1 exists
        # after it... the run ends exactly at the tail.
        plot = mra_plot([p("2001:db8::0"), p("2001:db8::1")])
        assert 64 <= plot.iid_flatline_start() <= 128

    def test_pool_saturation_bounds(self):
        plot = mra_plot([p("2001:db8::1"), p("2001:db8::2")])
        assert 0.0 <= plot.pool_saturation() <= 1.0


class TestSignatureProfileOnly:
    def test_classify_profile_without_dense_share(self):
        # From a bare profile (no addresses), the tail ratios stand in
        # for the dense share.
        dense = [p("2400:100:0:8::") + i for i in range(100)]
        cls, features = classify_profile(profile(dense))
        assert cls is PrefixClass.DENSE_BLOCK
        assert features.dense_share is None

    def test_unknown_features_still_populated(self):
        cls, features = classify_profile(profile([1, 2]))
        assert cls is PrefixClass.UNKNOWN
        assert features.size == 2


class TestStreamingEdges:
    def test_zero_window(self):
        stream = StabilityStream(window_before=0, window_after=0)
        results = stream.push(0, [1, 2])
        assert [r.reference_day for r in results] == [0]
        assert results[0].stable_count(1) == 0

    def test_flush_empty_stream(self):
        assert StabilityStream().flush() == []

    def test_push_after_flush_continues(self):
        stream = StabilityStream(window_before=1, window_after=1)
        stream.push(0, [1])
        stream.flush()
        results = stream.push(1, [1])
        # Day 1's window needs day 2; nothing completes yet.
        assert results == []


class TestTablesEdges:
    def test_render_without_title(self):
        output = render_table(["a"], [["x"]])
        assert output.splitlines()[0] == "a"

    def test_si_count_exact_boundaries(self):
        assert si_count(1000) == "1.00K"
        assert si_count(999_999) == "1000K"
        assert si_count(10**6) == "1.00M"


class TestHitlistEdges:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        report = read_hitlist(str(path))
        assert report.addresses == []
        assert report.total_lines == 0

    def test_write_empty(self, tmp_path):
        path = str(tmp_path / "empty-out.txt")
        assert write_hitlist(path, []) == 0
        assert read_hitlist(path).addresses == []


class TestStoreEdges:
    def test_replace_day(self):
        store = ObservationStore()
        store.add_day(0, [1, 2])
        store.add_day(0, [9])  # replaces
        from repro.data.store import from_array

        assert from_array(store.array(0)) == [9]

    def test_len_counts_days(self):
        store = ObservationStore()
        store.add_day(0, [1])
        store.add_day(5, [1])
        assert len(store) == 2
