"""Scan assembly and report serialization."""

import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rangetunnel.market import VolSeries
from rangetunnel.scan import REPORT_COLUMNS, ScanConfig, _pick_sigma, report_csv, report_json, scan
from rangetunnel.types import Regime

from conftest import band_series, gbm_series, trending_series


class TestScan:
    def test_narrow_band_case(self):
        series = band_series("LNKD", support=123.3, resistance=127.2)
        events = scan(series, r=0.03, cfg=ScanConfig(sigma_override=0.47))
        assert len(events) == 1
        event = events[0]
        assert event.band.width == pytest.approx(3.9, abs=1e-12)
        assert event.geometry.width_d == pytest.approx(0.058114, abs=1e-6)
        assert event.transmission.t_exact == pytest.approx(0.998675, abs=1e-6)
        assert event.geometry.regime is Regime.TUNNELING
        assert event.sigma == 0.47 and event.r == 0.03

    def test_wide_band_case(self):
        series = band_series("NFLX", support=97.81, resistance=101.17)
        events = scan(series, r=0.03, cfg=ScanConfig(sigma_override=0.55))
        assert len(events) == 1
        event = events[0]
        assert event.band.width == pytest.approx(3.36, abs=1e-9)
        assert event.geometry.width_d == pytest.approx(0.921744, abs=1e-6)
        assert event.transmission.t_exact == pytest.approx(0.933, abs=1e-3)

    def test_trending_series_empty(self):
        assert scan(trending_series(), r=0.03, cfg=ScanConfig(sigma_override=0.5)) == []

    def test_width_equals_band_difference_exactly(self):
        series = band_series("X", support=66.95, resistance=70.08)
        events = scan(series, r=0.03, cfg=ScanConfig(sigma_override=0.31))
        event = events[0]
        assert event.band.width == event.band.resistance - event.band.support

    def test_sigma_from_estimator_when_long_enough(self):
        series = gbm_series(sigma_true=0.3, n=300, seed=3)
        # force one big window over everything the detector accepts
        events = scan(series, r=0.03, cfg=ScanConfig(band_tol=10.0, touch_count=1))
        assert events
        assert all(e.sigma > 0 for e in events)

    def test_missing_sigma_raises(self):
        series = band_series("SHORT", support=100.0, resistance=102.0)
        with pytest.raises(ValueError, match="volatility"):
            scan(series, r=0.03)

    def test_invalid_rate_rejected(self):
        series = band_series("X", support=100.0, resistance=102.0)
        with pytest.raises(ValueError):
            scan(series, r=0.0, cfg=ScanConfig(sigma_override=0.5))

    def test_vol_fall_attached_from_supplied_series(self):
        series = band_series("F", support=123.3, resistance=127.2, n=20)
        dates = series.dates[:20]
        values = np.array([0.63] * 10 + [0.39] * 10)
        vol = VolSeries(dates=dates, values=values, window=0)
        events = scan(series, r=0.03, cfg=ScanConfig(sigma_override=0.47), vol=vol)
        assert len(events) == 1
        event = events[0]
        assert event.vol_fall_ratio == 0.39 / 0.63

    def test_no_fall_leaves_fields_empty(self):
        series = band_series("NF", support=123.3, resistance=127.2)
        events = scan(series, r=0.03, cfg=ScanConfig(sigma_override=0.47))
        assert events[0].vol_fall_ratio is None


def linear_pick(vol, window_start, window_end):
    """The original O(len(vol)) pick: the last estimate dated inside the window."""
    inside = [v for d, v in zip(vol.dates, vol.values) if window_start <= d <= window_end]
    return float(inside[-1]) if inside else None


class TestPickSigma:
    DAY0 = dt.date(2013, 1, 1)

    @given(
        offsets=st.sets(st.integers(0, 60), min_size=1, max_size=30),
        bounds=st.tuples(st.integers(-5, 65), st.integers(-5, 65)).map(sorted),
    )
    def test_bisect_matches_linear_scan(self, offsets, bounds):
        dates = tuple(self.DAY0 + dt.timedelta(days=o) for o in sorted(offsets))
        vol = VolSeries(dates=dates, values=0.1 + 0.01 * np.arange(len(dates)), window=0)
        start, end = (self.DAY0 + dt.timedelta(days=b) for b in bounds)
        expected = linear_pick(vol, start, end)
        if expected is not None:
            assert _pick_sigma(vol, start, end, ScanConfig()) == expected
        else:  # windows before, after or between the estimates
            with pytest.raises(ValueError) as excinfo:
                _pick_sigma(vol, start, end, ScanConfig())
            assert str(excinfo.value) == (
                f"no volatility estimate inside window {start}..{end}; "
                "supply a longer history, a volatility series, or a sigma override"
            )


class TestReports:
    @pytest.fixture
    def events(self):
        series = band_series("LNKD", support=123.3, resistance=127.2)
        return scan(series, r=0.03, cfg=ScanConfig(sigma_override=0.47))

    def test_csv_header_and_row(self, events):
        text = report_csv(events)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(REPORT_COLUMNS)
        cells = lines[1].split(",")
        row = dict(zip(REPORT_COLUMNS, cells))
        assert row["symbol"] == "LNKD"
        assert row["support"] == "123.3"
        assert row["resistance"] == "127.2"
        assert row["K"] == "3.9"
        assert row["T"] == "0.998675"
        assert row["d"] == "0.058114"
        assert row["vol_fall_ratio"] == ""

    def test_json_mirrors_csv_fields(self, events):
        rows = json.loads(report_json(events))
        assert isinstance(rows, list) and len(rows) == 1
        assert list(rows[0].keys()) == REPORT_COLUMNS
        assert rows[0]["T"] == pytest.approx(0.998675, abs=1e-6)
        assert rows[0]["vol_fall_ratio"] is None

    def test_reports_deterministic(self, events):
        assert report_csv(events) == report_csv(events)
        assert report_json(events) == report_json(events)

    def test_empty_report(self):
        assert report_csv([]).strip() == ",".join(REPORT_COLUMNS)
        assert json.loads(report_json([])) == []
