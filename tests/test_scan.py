"""Scan assembly and report serialization."""

import contextlib
import csv
import datetime as dt
import importlib
import inspect
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rangetunnel import barrier, cli
from rangetunnel.market import (
    VolFallEvent,
    VolSeries,
    detect_ranges,
    detect_vol_fall,
    historical_volatility,
)
from rangetunnel.scan import (
    REPORT_COLUMNS,
    ScanConfig,
    _cell,
    _event_row,
    _json_value,
    _latest_inside,
    _pick_sigma,
    report_csv,
    report_json,
    scan,
)
from rangetunnel.types import Regime

from conftest import band_series, gbm_series, trending_series

scan_module = importlib.import_module("rangetunnel.scan")  # the package binds the name to the function


def test_config_defaults_are_the_detection_defaults():
    def default(function, name):
        return inspect.signature(function).parameters[name].default

    assert ScanConfig() == ScanConfig(
        min_len=default(detect_ranges, "min_len"),
        band_tol=default(detect_ranges, "band_tol"),
        touch_count=default(detect_ranges, "touch_count"),
        vol_window=default(historical_volatility, "window"),
        fall_lookback=default(detect_vol_fall, "lookback"),
        fall_ratio=default(detect_vol_fall, "fall_ratio"),
    )


# a knob value that breaks its rule, and the call of the function that owns the rule
BAD_KNOBS = [
    ({"min_len": 4}, lambda series, vol: detect_ranges(series, min_len=4)),
    ({"band_tol": 0.0}, lambda series, vol: detect_ranges(series, band_tol=0.0)),
    ({"vol_window": 1}, lambda series, vol: historical_volatility(series, 1)),
    ({"fall_lookback": 0}, lambda series, vol: detect_vol_fall(vol, lookback=0)),
    ({"fall_ratio": 5.0}, lambda series, vol: detect_vol_fall(vol, fall_ratio=5.0)),
    ({"fall_ratio": 0.0}, lambda series, vol: detect_vol_fall(vol, fall_ratio=0.0)),
    ({"touch_count": 0}, lambda series, vol: detect_ranges(series, touch_count=0)),
    ({"touch_count": -3}, lambda series, vol: detect_ranges(series, touch_count=-3)),
    # NaN fails every comparison, so each rule must be written to refuse it
    ({"band_tol": math.nan}, lambda series, vol: detect_ranges(series, band_tol=math.nan)),
    ({"fall_ratio": math.nan}, lambda series, vol: detect_vol_fall(vol, fall_ratio=math.nan)),
]


@pytest.mark.parametrize("knob,call", BAD_KNOBS)
def test_config_checks_each_knob_rule_of_its_function(knob, call):
    series = band_series("LNKD", support=123.3, resistance=127.2, n=40)
    vol = historical_volatility(series, 5)
    with pytest.raises(ValueError) as owner:
        call(series, vol)
    with pytest.raises(ValueError) as config:
        ScanConfig(**knob)
    assert str(config.value) == str(owner.value)


@pytest.mark.parametrize(
    "sigma,message", [(0.0, "sigma must be > 0, got 0.0"), (float("nan"), "sigma must be finite")]
)
def test_config_checks_the_sigma_override(sigma, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        ScanConfig(sigma_override=sigma)


def geometry_calls(run):
    """``run()`` and the ``barrier_geometry`` calls it made, through every module binding it."""
    real = barrier.barrier_geometry
    spy = mock.Mock(wraps=real)
    with contextlib.ExitStack() as stack:
        for module in (barrier, scan_module, cli):
            if getattr(module, "barrier_geometry", None) is real:
                stack.enter_context(mock.patch.object(module, "barrier_geometry", spy))
        result = run()
    return result, spy.call_count


def test_each_scored_window_forms_its_geometry_once():
    events, calls = geometry_calls(lambda: scan(gbm_series(n=1000, seed=3), r=0.03))
    assert len(events) == 11
    assert calls == len(events)


def test_tc_forms_the_geometry_of_t_once(capsys):
    # one call for the geometry and the exact T, one inside the thin-wall estimate
    argv = ["tc", "--r", "0.03", "--sigma", "0.47", "--strike", "2.4"]
    code, calls = geometry_calls(lambda: cli.main(argv))
    assert (code, calls) == (0, 2)
    assert "T_exact" in capsys.readouterr().out


class TestScan:
    def test_narrow_band_case(self):
        series = band_series("LNKD", support=123.3, resistance=127.2)
        events = scan(series, r=0.03, cfg=ScanConfig(sigma_override=0.47))
        assert len(events) == 1
        event = events[0]
        assert event.band.width == pytest.approx(3.9, abs=1e-12)
        assert event.geometry.width_d == pytest.approx(0.058114, abs=1e-6)
        assert event.transmission == pytest.approx(0.998675, abs=1e-6)
        assert event.geometry.regime is Regime.TUNNELING
        assert event.sigma == 0.47 and event.r == 0.03

    def test_wide_band_case(self):
        series = band_series("NFLX", support=97.81, resistance=101.17)
        events = scan(series, r=0.03, cfg=ScanConfig(sigma_override=0.55))
        assert len(events) == 1
        event = events[0]
        assert event.band.width == pytest.approx(3.36, abs=1e-9)
        assert event.geometry.width_d == pytest.approx(0.921744, abs=1e-6)
        assert event.transmission == pytest.approx(0.933, abs=1e-3)

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

    def test_events_follow_windows_left_to_right(self):
        series = gbm_series(sigma_true=0.3, n=300, seed=1)
        events = scan(series, r=0.03)
        windows = detect_ranges(series)
        assert len(events) == len(windows) > 1
        assert [(e.window_start, e.window_end) for e in events] == [
            (series.dates[w.start], series.dates[w.end]) for w in windows
        ]
        ends = [e.window_end for e in events]
        assert all(a < b for a, b in zip(ends, ends[1:]))

    @pytest.mark.parametrize("r", [0.0, -0.03, float("nan"), float("inf")])
    def test_invalid_rate_rejected_without_windows(self, r):
        with pytest.raises(ValueError, match="^r must be "):
            scan(trending_series(), r=r, cfg=ScanConfig(sigma_override=0.5))

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
        vol = VolSeries(dates=dates, values=values)
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
        vol = VolSeries(dates=dates, values=0.1 + 0.01 * np.arange(len(dates)))
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


    @given(
        offsets=st.sets(st.integers(0, 60), max_size=30),
        bounds=st.tuples(st.integers(-5, 65), st.integers(-5, 65)).map(sorted),
    )
    def test_fall_bisect_matches_linear_scan(self, offsets, bounds):
        falls = [
            VolFallEvent(date=self.DAY0 + dt.timedelta(days=o), sigma_before=0.5, sigma_after=0.01 * k)
            for k, o in enumerate(sorted(offsets))
        ]
        start, end = (self.DAY0 + dt.timedelta(days=b) for b in bounds)
        # the pass scan once made per window over every fall
        expected = next((f for f in reversed(falls) if start <= f.date <= end), None)
        i = _latest_inside([f.date for f in falls], start, end)
        assert (None if i is None else falls[i]) == expected


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

    @pytest.mark.parametrize("symbol", ["LNKD", "A,B", 'A"B', "A\nB"])
    def test_csv_reads_back_cell_for_cell(self, symbol):
        series = band_series(symbol, support=123.3, resistance=127.2)
        events = scan(series, r=0.03, cfg=ScanConfig(sigma_override=0.47))
        rows = list(csv.reader(io.StringIO(report_csv(events))))
        assert rows == [REPORT_COLUMNS] + [[_cell(v) for v in _event_row(e).values()] for e in events]
        assert len(rows) == 2 and rows[1][0] == symbol

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

    # JSON escapes each of these; the newline and the row-boundary text must not split a row
    @pytest.mark.parametrize(
        "symbol",
        ["LNKD", 'A"B', "A\\B", "{A}", "A}", "A\nB", "},\n    {", "\x00\x1f\x7f", "Ωé漢", "\udcff\udcfe", "\ud800"],
    )
    def test_json_has_the_bytes_of_an_indented_dump(self, symbol):
        def events_of(name):
            series = band_series(name, support=123.3, resistance=127.2)
            return scan(series, r=0.03, cfg=ScanConfig(sigma_override=0.47))

        events = events_of(symbol) + events_of("LNKD") + events_of(symbol)
        for count in range(4):
            rows = [{k: _json_value(v) for k, v in _event_row(e).items()} for e in events[:count]]
            assert report_json(events[:count]) == json.dumps(rows, indent=2) + "\n"
