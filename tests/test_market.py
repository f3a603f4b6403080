"""OHLC parsing, volatility estimation, range and volatility-fall detection."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rangetunnel import market
from rangetunnel.market import (
    OhlcParseError,
    OhlcValidationError,
    PriceSeries,
    RangeWindow,
    VolSeries,
    detect_ranges,
    detect_vol_fall,
    historical_volatility,
    parse_ohlc_csv,
    parse_vol_csv,
    serialize_ohlc_csv,
)

from conftest import band_series, flat_series, gbm_series, trending_series


class TestParse:
    def test_minimal_row(self):
        series = parse_ohlc_csv("date,open,high,low,close\n2013-02-07,124.0,127.2,123.3,126.1\n")
        assert len(series) == 1
        assert series.dates == (dt.date(2013, 2, 7),)
        assert (series.open, series.high, series.low, series.close) == ((124.0,), (127.2,), (123.3,), (126.1,))
        assert series.volume is None

    def test_volume_column(self):
        series = parse_ohlc_csv(
            "date,open,high,low,close,volume\n2013-02-07,124.0,127.2,123.3,126.1,1000\n"
        )
        assert series.volume == (1000.0,)

    def test_empty_body_rejected(self):
        with pytest.raises(OhlcValidationError, match="no bars"):
            parse_ohlc_csv("date,open,high,low,close\n")

    def test_missing_header_rejected(self):
        with pytest.raises(OhlcValidationError):
            parse_ohlc_csv("")
        with pytest.raises(OhlcParseError):
            parse_ohlc_csv("time,o,h,l,c\n")

    def test_high_below_low_names_row(self):
        text = (
            "date,open,high,low,close\n"
            "2013-02-07,124.0,127.2,123.3,126.1\n"
            "2013-02-08,124.0,123.0,125.0,124.0\n"
        )
        with pytest.raises(OhlcValidationError, match="row 3"):
            parse_ohlc_csv(text)

    def test_malformed_row_carries_line_number(self):
        text = "date,open,high,low,close\n2013-02-07,124.0,xx,123.3,126.1\n"
        with pytest.raises(OhlcParseError) as excinfo:
            parse_ohlc_csv(text)
        assert excinfo.value.line == 2

    def test_bad_date_rejected(self):
        with pytest.raises(OhlcParseError):
            parse_ohlc_csv("date,open,high,low,close\n07/02/2013,124.0,127.2,123.3,126.1\n")

    def test_duplicate_dates_rejected(self):
        text = (
            "date,open,high,low,close\n"
            "2013-02-07,124.0,127.2,123.3,126.1\n"
            "2013-02-07,124.0,127.2,123.3,126.1\n"
        )
        with pytest.raises(OhlcValidationError, match="duplicate"):
            parse_ohlc_csv(text)

    def test_duplicate_report_names_earliest_date_before_order_check(self):
        # unsorted as well, but the duplicate check runs first
        rows = ["2013-02-09", "2013-02-09", "2013-02-05", "2013-02-07", "2013-02-05", "2013-02-07"]
        text = "date,open,high,low,close\n" + "".join(
            f"{d},124.0,127.2,123.3,126.1\n" for d in rows
        )
        with pytest.raises(OhlcValidationError, match=r"^duplicate dates: 2013-02-05$"):
            parse_ohlc_csv(text)

    def test_unsorted_dates_rejected(self):
        text = (
            "date,open,high,low,close\n"
            "2013-02-08,124.0,127.2,123.3,126.1\n"
            "2013-02-07,124.0,127.2,123.3,126.1\n"
        )
        with pytest.raises(OhlcValidationError, match="sorted"):
            parse_ohlc_csv(text)

    def test_round_trip_identity(self):
        text = (
            "date,open,high,low,close,volume\n"
            "2013-02-07,124.0,127.2,123.3,126.1,1000\n"
            "2013-02-08,126.1,127.9,125.5,127.2,\n"
        )
        first = parse_ohlc_csv(text, symbol="X")
        second = parse_ohlc_csv(serialize_ohlc_csv(first), symbol="X")
        assert first == second

    def test_round_trip_keeps_volume_column_of_empty_cells(self):
        first = parse_ohlc_csv("date,open,high,low,close,volume\n2013-02-07,124.0,127.2,123.3,126.1,\n")
        assert first.volume == (None,)
        assert parse_ohlc_csv(serialize_ohlc_csv(first)) == first

    def test_round_trip_without_volume(self):
        first = parse_ohlc_csv(
            "date,open,high,low,close\n2013-02-07,124.0,127.2,123.3,126.1\n", symbol="X"
        )
        assert parse_ohlc_csv(serialize_ohlc_csv(first), symbol="X") == first


_H = "date,open,high,low,close\n"
_HV = "date,open,high,low,close,volume\n"
_OK = "124.0,127.2,123.3,126.1"

# (parser, input, error type, exact message), which the CLI prints after
# "error: <path>: "; lines are physical lines, where each record starts
INGEST_ERRORS = {
    "ohlc-empty": (parse_ohlc_csv, "", OhlcValidationError, "empty input: missing header"),
    "ohlc-bad-header": (
        parse_ohlc_csv,
        "time,o,h,l,c\n",
        OhlcParseError,
        "line 1: expected header 'date,open,high,low,close[,volume]', got time,o,h,l,c",
    ),
    "ohlc-header-only": (
        parse_ohlc_csv, _H, OhlcValidationError, "no bars: input has a header but no data rows"
    ),
    "ohlc-blank-rows-only": (
        parse_ohlc_csv,
        _H + "\n , , , , \n",
        OhlcValidationError,
        "no bars: input has a header but no data rows",
    ),
    "ohlc-field-count": (
        parse_ohlc_csv,
        _H + f"2013-02-07,{_OK}\n2013-02-08,1,2,3\n",
        OhlcParseError,
        "line 3: expected 5 fields, got 4",
    ),
    "ohlc-bad-date": (
        parse_ohlc_csv,
        _H + f"07/02/2013,{_OK}\n",
        OhlcParseError,
        "line 2: bad date '07/02/2013': Invalid isoformat string: '07/02/2013'",
    ),
    "ohlc-non-numeric-price": (
        parse_ohlc_csv,
        _H + "2013-02-07,124.0,xx,123.3,126.1\n",
        OhlcParseError,
        "line 2: non-numeric price in ['124.0', 'xx', '123.3', '126.1']",
    ),
    "ohlc-non-numeric-volume": (
        parse_ohlc_csv,
        _HV + f"2013-02-07,{_OK},abc\n",
        OhlcParseError,
        "line 2: non-numeric volume 'abc'",
    ),
    # as a numpy 2 scalar the value would print as np.float64(-1.0)
    "ohlc-negative-open": (
        parse_ohlc_csv,
        _H + f"2013-02-07,{_OK}\n2013-02-08,-1.0,127.2,123.3,126.1\n",
        OhlcValidationError,
        "row 3: open must be a positive finite price, got -1.0",
    ),
    "ohlc-exponent-open": (
        parse_ohlc_csv,
        _H + "2013-02-07,-1e-3,127.2,123.3,126.1\n",
        OhlcValidationError,
        "row 2: open must be a positive finite price, got -0.001",
    ),
    "ohlc-inf-high": (
        parse_ohlc_csv,
        _H + "2013-02-07,124.0,inf,123.3,126.1\n",
        OhlcValidationError,
        "row 2: high must be a positive finite price, got inf",
    ),
    "ohlc-zero-low": (
        parse_ohlc_csv,
        _H + "2013-02-07,124.0,127.2,0,126.1\n",
        OhlcValidationError,
        "row 2: low must be a positive finite price, got 0.0",
    ),
    "ohlc-nan-close": (
        parse_ohlc_csv,
        _H + f"2013-02-07,{_OK}\n2013-02-08,124.0,127.2,123.3,nan\n",
        OhlcValidationError,
        "row 3: close must be a positive finite price, got nan",
    ),
    "ohlc-low-above": (
        parse_ohlc_csv,
        _H + f"2013-02-07,{_OK}\n2013-02-08,124.0,127.0,125.0,126.0\n",
        OhlcValidationError,
        "row 3: low 125.0 above min(open, close) on 2013-02-08",
    ),
    "ohlc-high-below": (
        parse_ohlc_csv,
        _H + "2013-02-07,124.0,123.0,122.0,124.5\n",
        OhlcValidationError,
        "row 2: high 123.0 below max(open, close) on 2013-02-07",
    ),
    "ohlc-negative-volume": (
        parse_ohlc_csv,
        _HV + f"2013-02-07,{_OK},\n2013-02-08,{_OK}, \n2013-02-09,{_OK},-0.5\n",
        OhlcValidationError,
        "row 4: volume must be >= 0, got -0.5",
    ),
    "ohlc-nan-volume": (
        parse_ohlc_csv,
        _HV + f"2013-02-07,{_OK},\n2013-02-08,{_OK},nan\n",
        OhlcValidationError,
        "row 3: volume must be finite, got nan",
    ),
    "ohlc-inf-volume": (
        parse_ohlc_csv,
        _HV + f"2013-02-07,{_OK},inf\n",
        OhlcValidationError,
        "row 2: volume must be finite, got inf",
    ),
    "ohlc-minus-inf-volume-is-negative": (
        parse_ohlc_csv,
        _HV + f"2013-02-07,{_OK},-inf\n",
        OhlcValidationError,
        "row 2: volume must be >= 0, got -inf",
    ),
    "ohlc-price-before-nan-volume": (
        parse_ohlc_csv,
        _HV + "2013-02-07,124.0,123.0,122.0,124.5,nan\n",
        OhlcValidationError,
        "row 2: high 123.0 below max(open, close) on 2013-02-07",
    ),
    # a quoted cell holding a newline: later records keep their physical line
    "ohlc-quoted-newline-then-malformed": (
        parse_ohlc_csv,
        _H + '2013-02-07,124.0,127.2,123.3,"126.1\n"\n2013-02-08,1,2,3\n',
        OhlcParseError,
        "line 4: expected 5 fields, got 4",
    ),
    "ohlc-quoted-newline-then-bad-bar": (
        parse_ohlc_csv,
        _H + '2013-02-07,"124.0\n\n",127.2,123.3,126.1\n2013-02-08,124.0,123.0,122.0,124.5\n',
        OhlcValidationError,
        "row 5: high 123.0 below max(open, close) on 2013-02-08",
    ),
    "ohlc-malformed-record-spanning-lines": (
        parse_ohlc_csv,
        _H + f'2013-02-07,{_OK}\n2013-02-08,"1\n",2,3\n',
        OhlcParseError,
        "line 3: expected 5 fields, got 4",
    ),
    "ohlc-duplicate-before-unsorted": (
        parse_ohlc_csv,
        _H + "".join(f"{d},{_OK}\n" for d in ["2013-02-09", "2013-02-09", "2013-02-05", "2013-02-05"]),
        OhlcValidationError,
        "duplicate dates: 2013-02-05",
    ),
    "ohlc-unsorted": (
        parse_ohlc_csv,
        _H + f"2013-02-08,{_OK}\n2013-02-07,{_OK}\n",
        OhlcValidationError,
        "rows are not sorted by date",
    ),
    "ohlc-two-rules-one-bar": (
        parse_ohlc_csv,
        _H + "2013-02-07,-1.0,127.2,130.0,126.1\n",
        OhlcValidationError,
        "row 2: open must be a positive finite price, got -1.0",
    ),
    "ohlc-bar-before-malformed": (
        parse_ohlc_csv,
        _H + f"2013-02-07,-2.5,127.2,123.3,126.1\n2013-02-08,{_OK}\n2013-02-09,1,2\n",
        OhlcValidationError,
        "row 2: open must be a positive finite price, got -2.5",
    ),
    "ohlc-malformed-before-bar": (
        parse_ohlc_csv,
        _H + f"2013-02-07,{_OK}\n2013-02-08,1,2\n2013-02-09,-2.5,127.2,123.3,126.1\n",
        OhlcParseError,
        "line 3: expected 5 fields, got 3",
    ),
    "ohlc-bar-before-bad-date": (
        parse_ohlc_csv,
        _H + f"2013-02-07,{_OK}\n2013-02-08,124.0,127.0,125.0,126.0\nxx,{_OK}\n",
        OhlcValidationError,
        "row 3: low 125.0 above min(open, close) on 2013-02-08",
    ),
    "ohlc-bad-price-and-volume-same-row": (
        parse_ohlc_csv,
        _HV + "2013-02-07,-1.0,127.2,123.3,126.1,abc\n",
        OhlcParseError,
        "line 2: non-numeric volume 'abc'",
    ),
    "ohlc-bar-before-duplicate": (
        parse_ohlc_csv,
        _H + f"2013-02-07,{_OK}\n2013-02-07,{_OK}\n2013-02-08,124.0,123.0,122.0,124.5\n",
        OhlcValidationError,
        "row 4: high 123.0 below max(open, close) on 2013-02-08",
    ),
    "ohlc-blank-rows-counted": (
        parse_ohlc_csv,
        _H + f"2013-02-07,{_OK}\n\n , , , , \n2013-02-08,124.0,123.0,122.0,124.5\n",
        OhlcValidationError,
        "row 5: high 123.0 below max(open, close) on 2013-02-08",
    ),
    # a stray opening quote swallows the rest of a large file into one field
    "ohlc-oversized-field": (
        parse_ohlc_csv,
        _H + f'2013-02-07,{_OK}\n2013-02-08,"{_OK}\n' + f"2013-02-09,{_OK}\n" * 4000,
        OhlcParseError,
        "line 3: field larger than field limit (131072)",
    ),
    "ohlc-bar-before-oversized-field": (
        parse_ohlc_csv,
        _H + f'2013-02-07,-1.0,127.2,123.3,126.1\n2013-02-08,"{_OK}\n' + f"2013-02-09,{_OK}\n" * 4000,
        OhlcValidationError,
        "row 2: open must be a positive finite price, got -1.0",
    ),
    "ohlc-oversized-header-field": (
        parse_ohlc_csv,
        'date,"open,high,low,close\n' + f"2013-02-09,{_OK}\n" * 4000,
        OhlcParseError,
        "line 1: field larger than field limit (131072)",
    ),
    "vol-empty": (parse_vol_csv, "", OhlcValidationError, "empty input: missing header"),
    "vol-bad-header": (
        parse_vol_csv, "date,vol\n2013-01-02,0.63\n", OhlcParseError, "line 1: expected header 'date,sigma'"
    ),
    "vol-no-rows": (parse_vol_csv, "date,sigma\n\n", OhlcValidationError, "no volatility rows"),
    "vol-field-count": (
        parse_vol_csv, "date,sigma\n2013-01-02,0.63,1\n", OhlcParseError, "line 2: expected 2 fields, got 3"
    ),
    "vol-bad-date": (
        parse_vol_csv, "date,sigma\nx,0.63\n", OhlcParseError, "line 2: Invalid isoformat string: 'x'"
    ),
    "vol-bad-sigma-text": (
        parse_vol_csv,
        "date,sigma\n2013-01-02,abc\n",
        OhlcParseError,
        "line 2: could not convert string to float: 'abc'",
    ),
    "vol-nan-sigma": (
        parse_vol_csv,
        "date,sigma\n2013-01-02,0.63\n2013-01-03,nan\n",
        OhlcParseError,
        "line 3: sigma must be finite and >= 0, got 'nan'",
    ),
    "vol-negative-sigma-as-written": (
        parse_vol_csv,
        "date,sigma\n2013-01-02, -1e-1 \n",
        OhlcParseError,
        "line 2: sigma must be finite and >= 0, got '-1e-1'",
    ),
    "vol-sigma-before-malformed": (
        parse_vol_csv,
        "date,sigma\n2013-01-02,inf\n2013-01-03,0.4\n2013-01-04\n",
        OhlcParseError,
        "line 2: sigma must be finite and >= 0, got 'inf'",
    ),
    "vol-malformed-before-sigma": (
        parse_vol_csv,
        "date,sigma\n2013-01-02,0.4\n2013-01-03\n2013-01-04,-1\n",
        OhlcParseError,
        "line 3: expected 2 fields, got 1",
    ),
    "vol-sigma-before-unsorted": (
        parse_vol_csv,
        "date,sigma\n2013-01-03,0.4\n2013-01-02,-0.2\n",
        OhlcParseError,
        "line 3: sigma must be finite and >= 0, got '-0.2'",
    ),
    "vol-quoted-newline-then-bad-sigma": (
        parse_vol_csv,
        'date,sigma\n2013-01-02,"0.4\n"\n2013-01-03,-1\n',
        OhlcParseError,
        "line 4: sigma must be finite and >= 0, got '-1'",
    ),
    "vol-quoted-newline-then-malformed": (
        parse_vol_csv,
        'date,sigma\n2013-01-02,"0.4\n"\n2013-01-03\n',
        OhlcParseError,
        "line 4: expected 2 fields, got 1",
    ),
    "vol-oversized-field": (
        parse_vol_csv,
        'date,sigma\n2013-01-02,0.4\n2013-01-03,"0.3\n' + "2013-01-04,0.4\n" * 10000,
        OhlcParseError,
        "line 3: field larger than field limit (131072)",
    ),
    "vol-sigma-before-oversized-field": (
        parse_vol_csv,
        'date,sigma\n2013-01-02,-1\n2013-01-03,"0.3\n' + "2013-01-04,0.4\n" * 10000,
        OhlcParseError,
        "line 2: sigma must be finite and >= 0, got '-1'",
    ),
    "vol-oversized-header-field": (
        parse_vol_csv,
        'date,"sigma\n' + "2013-01-04,0.4\n" * 10000,
        OhlcParseError,
        "line 1: field larger than field limit (131072)",
    ),
    "vol-duplicate": (
        parse_vol_csv,
        "date,sigma\n2013-01-02,0.4\n\n2013-01-02,0.2\n",
        OhlcValidationError,
        "volatility dates must be strictly increasing",
    ),
}


@pytest.mark.parametrize("parse,text,error,message", INGEST_ERRORS.values(), ids=INGEST_ERRORS.keys())
def test_ingest_error_table(parse, text, error, message):
    with pytest.raises(error) as excinfo:
        parse(text)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
    if error is OhlcParseError:
        assert excinfo.value.line == int(message.split(":")[0].removeprefix("line "))


_positive = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False)


@st.composite
def price_series(draw):
    """Valid series: increasing dates, prices bracketed by low and high, optional volume."""
    n = draw(st.integers(min_value=1, max_value=25))
    gaps = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=n, max_size=n))
    dates = tuple(dt.date(2013, 1, 1) + dt.timedelta(days=sum(gaps[: i + 1])) for i in range(n))
    bars = []
    for _ in range(n):
        low, a, b, high = sorted(draw(st.lists(_positive, min_size=4, max_size=4)))
        bars.append((a, high, low, b) if draw(st.booleans()) else (b, high, low, a))
    volume = draw(
        st.none()
        | st.lists(
            st.none() | st.floats(min_value=0.0, max_value=1e12, allow_nan=False), min_size=n, max_size=n
        ).map(tuple)
    )
    opens, highs, lows, closes = zip(*bars)
    return PriceSeries(draw(st.sampled_from(["", "X"])), dates, opens, highs, lows, closes, volume)


@settings(max_examples=200)
@given(price_series())
def test_round_trip_random_series(series):
    assert parse_ohlc_csv(serialize_ohlc_csv(series), symbol=series.symbol) == series


class TestPriceSeries:
    def test_bar_fault_names_its_index(self):
        prices = (124.0, -1.0)
        with pytest.raises(OhlcValidationError) as excinfo:
            PriceSeries("X", (dt.date(2013, 2, 7), dt.date(2013, 2, 8)), prices, prices, prices, prices)
        assert excinfo.value.index == 1
        assert str(excinfo.value) == "bar 1: open must be a positive finite price, got -1.0"

    def test_date_faults(self):
        day = dt.date(2013, 2, 7)
        prices = (1.0, 1.0)
        with pytest.raises(OhlcValidationError, match="^duplicate dates: 2013-02-07$") as excinfo:
            PriceSeries("X", (day, day), prices, prices, prices, prices)
        assert excinfo.value.index is None
        with pytest.raises(OhlcValidationError, match="^rows are not sorted by date$"):
            PriceSeries("X", (day, day - dt.timedelta(days=1)), prices, prices, prices, prices)

    def test_column_lengths_must_match(self):
        with pytest.raises(ValueError, match="one value per date"):
            PriceSeries("X", (dt.date(2013, 2, 7),), (1.0,), (1.0,), (1.0,), (1.0,), volume=())


class TestVolCsv:
    def test_parse(self):
        vol = parse_vol_csv("date,sigma\n2013-01-02,0.63\n2013-01-03,0.39\n")
        assert len(vol) == 2
        assert vol.values[1] == 0.39

    def test_bad_header(self):
        with pytest.raises(OhlcParseError):
            parse_vol_csv("date,vol\n2013-01-02,0.63\n")

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "-0.1"])
    def test_bad_sigma_carries_line_number(self, sigma):
        text = f"date,sigma\n2013-01-02,0.63\n\n2013-01-03,{sigma}\n"
        with pytest.raises(OhlcParseError, match="sigma") as excinfo:
            parse_vol_csv(text)
        assert excinfo.value.line == 4

    @pytest.mark.parametrize("second", ["2013-01-02", "2013-01-01"])
    def test_dates_must_increase(self, second):
        text = f"date,sigma\n2013-01-02,0.63\n{second},0.39\n"
        with pytest.raises(OhlcValidationError, match="^volatility dates must be strictly increasing$"):
            parse_vol_csv(text)

    def test_vol_series_checks_date_order(self):
        dates = (dt.date(2013, 1, 3), dt.date(2013, 1, 2))
        with pytest.raises(OhlcValidationError, match="strictly increasing"):
            VolSeries(dates=dates, values=np.array([0.4, 0.3]), window=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_vol_series_rejects_non_finite(self, bad):
        dates = (dt.date(2013, 1, 2), dt.date(2013, 1, 3))
        with pytest.raises(ValueError, match="finite"):
            VolSeries(dates=dates, values=np.array([0.4, bad]), window=0)


class TestHistoricalVolatility:
    def test_constant_closes_zero_vol(self):
        series = flat_series("C", [100.0] * 40)
        vol = historical_volatility(series)
        assert len(vol) == 40 - 21
        assert np.all(vol.values == 0.0)

    def test_alternating_returns_closed_form(self):
        # closes alternating between c0 and c1 give log returns +x, -x, ...
        # an odd window of w returns holds (w+1)/2 of one sign and (w-1)/2 of
        # the other, so the sample variance is x^2 * (w+1)/w and every rolling
        # estimate equals x * sqrt((w+1)/w * periods)
        c0, c1 = 100.0, 102.0
        x = math.log(c1 / c0)
        series = flat_series("ALT", [c0 if i % 2 == 0 else c1 for i in range(60)])
        vol = historical_volatility(series, window=21, periods_per_year=252)
        expected = x * math.sqrt((22.0 / 21.0) * 252.0)
        assert np.allclose(vol.values, expected, rtol=1e-12)

    def test_gbm_statistical_recovery(self):
        series = gbm_series(sigma_true=0.30, n=5000, seed=42)
        vol = historical_volatility(series)
        assert abs(float(np.mean(vol.values)) - 0.30) <= 0.02

    def test_dates_align_to_window_close(self):
        series = flat_series("C", [100.0] * 30)
        vol = historical_volatility(series, window=21)
        assert vol.dates[0] == series.dates[21]
        assert vol.dates[-1] == series.dates[-1]

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_vectorised_matches_per_window_loop(self, window, extra, seed):
        closes = 100.0 * np.exp(np.random.default_rng(seed).normal(0.0, 0.02, window + extra))
        vol = historical_volatility(
            flat_series("R", closes.tolist()), window=window
        )
        returns = np.diff(np.log(closes))
        loop = np.array([np.std(returns[i : i + window], ddof=1) for i in range(extra)])
        assert np.array_equal(vol.values, loop * math.sqrt(252))

    def test_too_short_rejected(self):
        series = flat_series("C", [100.0] * 21)
        with pytest.raises(ValueError):
            historical_volatility(series, window=21)
        with pytest.raises(ValueError):
            historical_volatility(series, window=1)

    @given(st.floats(min_value=0.1, max_value=1000.0))
    def test_price_scale_invariance(self, scale):
        base = gbm_series(sigma_true=0.4, n=120, seed=7)
        scaled = PriceSeries(
            "S",
            base.dates,
            *(tuple(p * scale for p in column) for column in (base.open, base.high, base.low, base.close)),
        )
        vol_base = historical_volatility(base)
        vol_scaled = historical_volatility(scaled)
        assert np.allclose(vol_base.values, vol_scaled.values, rtol=1e-9)


def brute_force_ranges(series, min_len=15, band_tol=0.05, touch_count=2, touch_frac=0.25):
    """Oracle for detect_ranges: try every end from the last bar down, per start."""
    closes = series.closes()
    n = len(closes)
    windows = []
    i = 0
    while i + min_len - 1 < n:
        found = None
        for j in range(n - 1, i + min_len - 2, -1):
            band = market._window_qualifies(closes, i, j, band_tol, touch_count, touch_frac)
            if band is not None:
                found = RangeWindow(start=i, end=j, band=band)
                break
        if found is not None:
            windows.append(found)
            i = found.end + 1
        else:
            i += 1
    return windows


@st.composite
def close_paths(draw):
    """Positive closes built from 1-4 stretches of mixed shapes, optionally tick-rounded."""
    price = draw(st.floats(min_value=1.0, max_value=1000.0))
    closes = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        n = draw(st.integers(min_value=1, max_value=40))
        shape = draw(st.sampled_from(["flat", "spike", "trend", "alternating", "walk"]))
        if shape == "flat":
            part = [price] * n
        elif shape == "spike":
            part = [price] * n
            part[draw(st.integers(min_value=0, max_value=n - 1))] *= draw(
                st.floats(min_value=0.9, max_value=1.1)
            )
        elif shape == "trend":
            growth = draw(st.floats(min_value=-0.02, max_value=0.02))
            part = [price * (1.0 + growth) ** k for k in range(n)]
        elif shape == "alternating":
            amp = draw(st.floats(min_value=0.0, max_value=0.05))
            part = [price * (1.0 + amp if k % 2 else 1.0 - amp) for k in range(n)]
        else:
            steps = draw(st.lists(st.floats(-0.02, 0.02), min_size=n, max_size=n))
            part = (price * np.exp(np.cumsum(steps))).tolist()
        closes.extend(part)
        price = part[-1]
    tick = draw(st.sampled_from([None, 0.01, 0.25, 1.0]))
    if tick is not None:
        closes = [max(tick, round(c / tick) * tick) for c in closes]
    return closes


def first_failing_end(closes, band_tol, i):
    """Oracle for a band horizon: the first end whose window fails the band test, else n."""
    for j in range(i, len(closes)):
        lo, hi = min(closes[i : j + 1]), max(closes[i : j + 1])
        if (hi - lo) / lo > band_tol:
            return j
    return len(closes)


@st.composite
def runs_of_closes(draw):
    """1-70 closes in flat runs, drawn partly from a few shared levels so ties are common."""
    level = st.sampled_from([100.0, 102.5, 105.0, 95.0]) | st.floats(min_value=90.0, max_value=110.0)
    runs = draw(st.lists(st.tuples(level, st.integers(min_value=1, max_value=20)), min_size=1, max_size=12))
    return [price for price, length in runs for _ in range(length)][:70]


def window_tuples(windows):
    return [(w.start, w.end, w.band.support, w.band.resistance) for w in windows]


class TestDetectRanges:
    @settings(max_examples=300, deadline=None)
    @given(
        close_paths(),
        st.integers(min_value=5, max_value=25),
        st.floats(min_value=1e-4, max_value=0.2),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_brute_force(self, closes, min_len, band_tol, touch_count, touch_frac):
        series = flat_series("H", closes)
        params = dict(
            min_len=min_len, band_tol=band_tol, touch_count=touch_count, touch_frac=touch_frac
        )
        assert window_tuples(detect_ranges(series, **params)) == window_tuples(
            brute_force_ranges(series, **params)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_on_gbm(self, seed):
        series = gbm_series(sigma_true=0.30, n=300, seed=seed)
        assert window_tuples(detect_ranges(series)) == window_tuples(brute_force_ranges(series))

    def test_candidate_count_stays_below_bar_count(self, monkeypatch):
        calls = 0
        qualifies = market._window_qualifies

        def counting(*args):
            nonlocal calls
            calls += 1
            return qualifies(*args)

        monkeypatch.setattr(market, "_window_qualifies", counting)
        n = 2000
        assert detect_ranges(gbm_series(n=n))
        assert 0 < calls < n  # trying every end makes about n**2 / 2 calls

    @settings(max_examples=200, deadline=None)
    @given(
        runs_of_closes(),
        # 0.05 puts 100 -> 105 exactly at the tolerance; inf and nan pass every window
        st.sampled_from([0.05, 0.025, math.inf, math.nan]) | st.floats(min_value=1e-4, max_value=0.2),
    )
    def test_band_horizons_match_first_failing_end(self, closes, band_tol):
        horizons = market._band_horizons(np.array(closes), band_tol, len(closes))
        assert horizons == [first_failing_end(closes, band_tol, i) for i in range(len(closes))]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 63, 64, 65])
    def test_band_horizons_at_powers_of_two(self, n):
        closes = [100.0, 105.0] * (n // 2) + [100.0] * (n % 2)  # every window exactly at 0.05
        assert market._band_horizons(np.array(closes), 0.05, n) == [n] * n
        closes[-1] = 105.5  # the last bar breaks every window that reaches it
        expected = [first_failing_end(closes, 0.05, i) for i in range(n)]
        assert market._band_horizons(np.array(closes), 0.05, n) == expected

    def test_flat_closes_rejected_but_small_wiggle_accepted(self):
        flat = flat_series("F", [100.0] * 20)
        assert detect_ranges(flat) == []
        wiggle = flat_series("W", [100.0 * (1.005 if i % 2 else 0.995) for i in range(20)])
        windows = detect_ranges(wiggle)
        assert len(windows) == 1
        assert windows[0].band.width > 0

    def test_trending_market_has_no_ranges(self):
        assert detect_ranges(trending_series()) == []

    def test_band_fixture_recovers_width(self, lnkd_series):
        windows = detect_ranges(lnkd_series)
        assert len(windows) == 1
        window = windows[0]
        assert window.start == 0 and window.end == 19
        assert window.band.support == 123.3
        assert window.band.resistance == 127.2
        assert window.band.width == pytest.approx(3.9, abs=1e-12)

    def test_windows_never_overlap(self):
        # two oscillation blocks separated by a trend
        prices = (
            [100.0 if i % 2 == 0 else 101.0 for i in range(20)]
            + [105.0 * 1.02**i for i in range(12)]
            + [130.0 if i % 2 == 0 else 131.5 for i in range(20)]
        )
        series = flat_series("TWO", prices)
        windows = detect_ranges(series)
        assert len(windows) >= 2
        for a, b in zip(windows, windows[1:]):
            assert a.end < b.start

    def test_qualifying_conditions_enforced(self):
        series = band_series("B", 100.0, 101.0, n=20)
        for window in detect_ranges(series, min_len=15, band_tol=0.05, touch_count=2):
            closes = series.closes()[window.start : window.end + 1]
            width = window.band.width
            assert window.end - window.start + 1 >= 15
            assert (closes.max() - closes.min()) / closes.min() <= 0.05
            assert (closes >= window.band.resistance - 0.25 * width).sum() >= 2
            assert (closes <= window.band.support + 0.25 * width).sum() >= 2

    def test_band_exactly_at_tolerance_qualifies(self):
        series = band_series("EDGE", 100.0, 105.0, n=20)  # (105 - 100) / 100 == 0.05
        assert window_tuples(detect_ranges(series, band_tol=0.05)) == [(0, 19, 100.0, 105.0)]
        assert detect_ranges(series, band_tol=0.0499) == []

    def test_min_len_guard(self, lnkd_series):
        with pytest.raises(ValueError):
            detect_ranges(lnkd_series, min_len=4)


def vol_fall_loop(vol, lookback=5, fall_ratio=0.7):
    """Oracle for detect_vol_fall: the per-index loop it replaced."""
    events = []
    values = np.asarray(vol.values, dtype=float)
    for t in range(lookback, len(values)):
        before = values[t - lookback]
        after = values[t]
        with np.errstate(over="ignore"):  # a subnormal sigma before
            fell = before > 0 and after / before <= fall_ratio
        if fell:
            events.append(
                market.VolFallEvent(date=vol.dates[t], sigma_before=float(before), sigma_after=float(after))
            )
    return events


class TestDetectVolFall:
    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, 0.35, 0.5, 0.7, 1.0]) | st.floats(min_value=0.0, max_value=2.0),
            min_size=2,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=10),
        # 0.7 and 0.5 put 0.7 / 1.0 and 0.35 / 0.7 exactly at the ratio
        st.sampled_from([0.7, 0.5]) | st.floats(min_value=0.01, max_value=0.99),
    )
    def test_matches_loop(self, values, lookback, fall_ratio):
        dates = tuple(dt.date(2013, 1, 1) + dt.timedelta(days=i) for i in range(len(values)))
        vol = VolSeries(dates=dates, values=np.array(values), window=0)
        if len(values) <= lookback:
            with pytest.raises(ValueError, match="too short"):
                detect_vol_fall(vol, lookback, fall_ratio)
            return
        assert detect_vol_fall(vol, lookback, fall_ratio) == vol_fall_loop(vol, lookback, fall_ratio)

    def test_zero_sigmas_and_exact_ratio(self):
        values = [0.0, 1.0, 0.0, 0.7, 0.0, 0.49]
        dates = tuple(dt.date(2013, 1, 1) + dt.timedelta(days=i) for i in range(len(values)))
        vol = VolSeries(dates=dates, values=np.array(values), window=0)
        events = detect_vol_fall(vol, lookback=1, fall_ratio=0.7)
        assert [(e.sigma_before, e.sigma_after) for e in events] == [(1.0, 0.0), (0.7, 0.0)]
        events = detect_vol_fall(vol, lookback=2, fall_ratio=0.7)
        assert [(e.sigma_before, e.sigma_after) for e in events] == [(1.0, 0.7)]
        assert events == vol_fall_loop(vol, 2, 0.7)


    @staticmethod
    def step_vol(before, after, n_before=10, n_after=10):
        values = [before] * n_before + [after] * n_after
        dates = tuple(dt.date(2013, 1, 1) + dt.timedelta(days=i) for i in range(len(values)))
        return VolSeries(dates=dates, values=np.array(values), window=0)

    @pytest.mark.parametrize(
        "before,after",
        [(0.63, 0.39), (0.40, 0.15), (0.43, 0.25), (0.95, 0.55)],
    )
    def test_reference_steps_flagged(self, before, after):
        events = detect_vol_fall(self.step_vol(before, after))
        assert events
        assert events[0].sigma_before == before
        assert events[0].sigma_after == after
        assert events[0].ratio == pytest.approx(after / before, rel=1e-12)
        assert 0 < events[0].ratio <= 0.7

    def test_constant_vol_no_events(self):
        assert detect_vol_fall(self.step_vol(0.5, 0.5)) == []

    def test_mild_drift_not_flagged(self):
        # a 10% easing is not a collapse at the default 0.7 ratio
        assert detect_vol_fall(self.step_vol(0.50, 0.45)) == []

    def test_short_series_rejected(self):
        vol = self.step_vol(0.6, 0.3, n_before=2, n_after=2)
        with pytest.raises(ValueError):
            detect_vol_fall(vol, lookback=5)

    def test_threshold_validation(self):
        vol = self.step_vol(0.6, 0.3)
        with pytest.raises(ValueError):
            detect_vol_fall(vol, lookback=0)
        with pytest.raises(ValueError):
            detect_vol_fall(vol, fall_ratio=1.0)
