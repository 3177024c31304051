"""Unit tests for streaming stability and CSV export."""

import random

import pytest

from repro.core.streaming import StabilityStream, stream_classify
from repro.core.temporal import classify_day
from repro.data import store as obstore
from repro.data.store import ObservationStore
from repro.net import addr
from repro.viz import (
    CcdfPlot,
    mra_plot,
    read_series_csv,
    write_boxstats_csv,
    write_ccdf_csv,
    write_mra_csv,
)
from repro.viz.boxplot import BoxStats


def p(text: str) -> int:
    return addr.parse(text)


class TestStabilityStream:
    def make_schedule(self, seed=1, num_days=20, pool=40):
        rng = random.Random(seed)
        return {
            day: sorted(rng.sample(range(1, pool + 1), rng.randrange(5, 20)))
            for day in range(num_days)
        }

    def test_matches_batch_classifier(self):
        schedule = self.make_schedule()
        # Batch reference.
        store = ObservationStore()
        for day, values in schedule.items():
            store.add_day(day, values)
        # Streaming.
        results = list(
            stream_classify(sorted(schedule.items()), window_before=4,
                            window_after=4)
        )
        by_day = {result.reference_day: result for result in results}
        assert set(by_day) == set(schedule)
        for day in schedule:
            batch = classify_day(store, day, 4, 4)
            stream = by_day[day]
            assert obstore.from_array(stream.active) == obstore.from_array(
                batch.active
            )
            assert stream.gaps.tolist() == batch.gaps.tolist()

    def test_emission_timing(self):
        stream = StabilityStream(window_before=2, window_after=2)
        assert stream.push(0, [1]) == []
        assert stream.push(1, [1]) == []
        results = stream.push(2, [1])
        assert [r.reference_day for r in results] == [0]

    def test_gap_days_emit_older_classifications(self):
        stream = StabilityStream(window_before=2, window_after=2)
        stream.push(0, [1])
        results = stream.push(10, [2])  # jumps far ahead
        assert [r.reference_day for r in results] == [0]

    def test_memory_bounded(self):
        stream = StabilityStream(window_before=3, window_after=3)
        for day in range(50):
            stream.push(day, [day % 7])
        assert stream.days_held <= 3 + 3 + 1 + 1

    def test_flush_classifies_tail(self):
        stream = StabilityStream(window_before=2, window_after=2)
        stream.push(0, [1])
        stream.push(1, [1])
        tail = stream.flush()
        assert [r.reference_day for r in tail] == [0, 1]
        # Day 0 sees day 1: 1d-stable.
        assert tail[0].stable_count(1) == 1

    def test_out_of_order_rejected(self):
        stream = StabilityStream()
        stream.push(5, [1])
        with pytest.raises(ValueError):
            stream.push(5, [1])
        with pytest.raises(ValueError):
            stream.push(4, [1])

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            StabilityStream(window_before=-1)


class TestCsvExport:
    def test_mra_roundtrip(self, tmp_path):
        plot = mra_plot([p("2001:db8::1"), p("2001:db8::2"), p("2a00::1")])
        path = str(tmp_path / "mra.csv")
        write_mra_csv(plot, path)
        header, rows = read_series_csv(path)
        assert header == ["prefix_len", "ratio_16bit", "ratio_4bit", "ratio_1bit"]
        assert len(rows) == 32
        assert rows[0][0] == "0"

    def test_ccdf_export(self, tmp_path):
        plot = CcdfPlot(title="t")
        plot.add("a", [1, 2, 4])
        path = str(tmp_path / "ccdf.csv")
        write_ccdf_csv(plot, path)
        header, rows = read_series_csv(path)
        assert header == ["series", "x", "ccdf"]
        assert all(row[0] == "a" for row in rows)
        assert float(rows[0][2]) == 1.0

    def test_boxstats_export(self, tmp_path):
        stats = [BoxStats(1, 2, 3, 4, 5, 6)] * 8
        path = str(tmp_path / "box.csv")
        write_boxstats_csv(stats, path)
        header, rows = read_series_csv(path)
        assert len(rows) == 8
        assert rows[0][0] == "0"
        assert rows[-1][0] == "112"

    def test_empty_csv_read(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        open(path, "w").close()
        header, rows = read_series_csv(path)
        assert header == [] and rows == []
