"""OHLC parsing, volatility estimation, range and volatility-fall detection."""

import csv
import dataclasses
import datetime as dt
import io
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from rangetunnel.types import RangeBound

from conftest import band_series, flat_series, gbm_series, trending_series


class TestParse:
    def test_minimal_row(self):
        series = parse_ohlc_csv("date,open,high,low,close\n2013-02-07,124.0,127.2,123.3,126.1\n")
        assert len(series) == 1
        assert series.dates == (dt.date(2013, 2, 7),)
        columns = (series.open, series.high, series.low, series.close)
        assert [column.tolist() for column in columns] == [[124.0], [127.2], [123.3], [126.1]]
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
        with pytest.raises(OhlcValidationError, match=r"^row 6: duplicate dates: 2013-02-05$"):
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
    # Python 3.11 reads these too; every Python refuses them as 3.10 does
    "ohlc-basic-format-date": (
        parse_ohlc_csv,
        _H + f"20130101,{_OK}\n",
        OhlcParseError,
        "line 2: bad date '20130101': Invalid isoformat string: '20130101'",
    ),
    "ohlc-week-date": (
        parse_ohlc_csv,
        _H + f"2013-01-01,{_OK}\n 2013-W01-3 ,{_OK}\n",
        OhlcParseError,
        "line 3: bad date ' 2013-W01-3 ': Invalid isoformat string: '2013-W01-3'",
    ),
    "ohlc-digits-then-text-date": (
        parse_ohlc_csv,
        _H + f"20130101xx,{_OK}\n",
        OhlcParseError,
        "line 2: bad date '20130101xx': Invalid isoformat string: '20130101xx'",
    ),
    # the digits that float() reads in a price cell (see test_numeric_cells_read_as_float) are refused here
    "ohlc-arabic-indic-date": (
        parse_ohlc_csv,
        _H + f"\u0662\u0660\u0661\u0663-\u0660\u0661-\u0660\u0662,{_OK}\n",
        OhlcParseError,
        "line 2: bad date '\u0662\u0660\u0661\u0663-\u0660\u0661-\u0660\u0662': "
        "Invalid isoformat string: '\u0662\u0660\u0661\u0663-\u0660\u0661-\u0660\u0662'",
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
    "ohlc-non-numeric-volume-after-a-blank-one": (
        parse_ohlc_csv,
        _HV + f"2013-02-07,{_OK},\n2013-02-08,{_OK},7\n2013-02-09,{_OK},abc\n",
        OhlcParseError,
        "line 4: non-numeric volume 'abc'",
    ),
    "ohlc-non-numeric-volume-before-a-blank-one": (
        parse_ohlc_csv,
        _HV + f"2013-02-07,{_OK},7\n2013-02-08,{_OK},abc\n2013-02-09,{_OK}, \n",
        OhlcParseError,
        "line 3: non-numeric volume 'abc'",
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
        "row 5: duplicate dates: 2013-02-05",
    ),
    # three copies: the second names the fault; a blank row still counts as a line
    "ohlc-duplicate-named-at-second-copy": (
        parse_ohlc_csv,
        _H + f"2013-02-05,{_OK}\n2013-02-06,{_OK}\n\n2013-02-05,{_OK}\n2013-02-05,{_OK}\n",
        OhlcValidationError,
        "row 5: duplicate dates: 2013-02-05",
    ),
    "ohlc-unsorted": (
        parse_ohlc_csv,
        _H + f"2013-02-08,{_OK}\n2013-02-07,{_OK}\n",
        OhlcValidationError,
        "row 3: rows are not sorted by date",
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
        parse_vol_csv, "date,vol\n2013-01-02,0.63\n", OhlcParseError, "line 1: expected header 'date,sigma', got date,vol"
    ),
    "vol-no-rows": (parse_vol_csv, "date,sigma\n\n", OhlcValidationError, "no volatility rows"),
    "vol-field-count": (
        parse_vol_csv, "date,sigma\n2013-01-02,0.63,1\n", OhlcParseError, "line 2: expected 2 fields, got 3"
    ),
    "vol-bad-date": (
        parse_vol_csv, "date,sigma\nx,0.63\n", OhlcParseError, "line 2: Invalid isoformat string: 'x'"
    ),
    # Python 3.11 reads these too; every Python refuses them as 3.10 does
    "vol-basic-format-date": (
        parse_vol_csv,
        "date,sigma\n20130101,0.63\n",
        OhlcParseError,
        "line 2: Invalid isoformat string: '20130101'",
    ),
    "vol-week-date": (
        parse_vol_csv,
        "date,sigma\n2013-01-01,0.63\n2013-W01-3,0.63\n",
        OhlcParseError,
        "line 3: Invalid isoformat string: '2013-W01-3'",
    ),
    # a row's date is converted before its sigma
    "vol-bad-date-and-sigma-same-row": (
        parse_vol_csv, "date,sigma\nx,nan\n", OhlcParseError, "line 2: Invalid isoformat string: 'x'"
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
        "row 4: volatility dates must be strictly increasing",
    ),
    "vol-unsorted": (
        parse_vol_csv,
        "date,sigma\n2013-01-02,0.4\n2013-01-04,0.3\n2013-01-03,0.2\n2013-01-01,0.2\n",
        OhlcValidationError,
        "row 4: volatility dates must be strictly increasing",
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


# a price, volume or sigma cell is read by float(), so these spellings are numbers; a date must be ASCII
@pytest.mark.parametrize(
    "cell,value", [("1_0", 10.0), ("\u0661\u0662", 12.0), ("\uff11.5", 1.5), (" 2.5 ", 2.5)]
)
def test_numeric_cells_read_as_float(cell, value):
    series = parse_ohlc_csv(_HV + f"2013-02-07,{cell},{cell},{cell},{cell},{cell}\n")
    columns = (series.open, series.high, series.low, series.close)
    assert [column.tolist() for column in columns] == [[value]] * 4
    assert series.volume == (value,)
    assert parse_vol_csv(f"date,sigma\n2013-02-07,{cell}\n").values.tolist() == [value]


def _volume_text(cells):
    return _HV + "".join(f"2013-02-{7 + i:02d},{_OK},{cell}\n" for i, cell in enumerate(cells))


# a blank volume cell, empty or only whitespace, is None wherever it stands
@pytest.mark.parametrize("cells", [["", "7", "8"], ["7", "", "8"], ["7", "8", ""], ["7", " \t", "8"]])
def test_blank_volume_cells_read_as_none(cells):
    expected = tuple(float(cell) if cell.strip() else None for cell in cells)
    assert parse_ohlc_csv(_volume_text(cells)).volume == expected
    assert parse_ohlc_csv(_volume_text(cells).replace("\n", "\r\n")).volume == expected


def test_volume_column_is_read_cell_by_cell_only_with_a_blank_cell(monkeypatch):
    read = []

    def counting(cell, volume_cell=market._volume_cell):
        read.append(cell)
        return volume_cell(cell)

    monkeypatch.setattr(market, "_volume_cell", counting)
    assert parse_ohlc_csv(_volume_text(["7", "8", "9"])).volume == (7.0, 8.0, 9.0)
    assert read == []
    assert parse_ohlc_csv(_volume_text(["7", "", "9"])).volume == (7.0, None, 9.0)
    assert read == ["7", "", "9"]


_positive = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False)


@st.composite
def price_series(draw):
    """Valid series: increasing dates, prices bracketed by low and high, optional volume.

    A bar has four distinct prices, or all four equal (O=H=L=C), or opens at
    the last close, so the open, high and low cells often repeat a close's text.
    """
    n = draw(st.integers(min_value=1, max_value=25))
    gaps = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=n, max_size=n))
    dates = tuple(dt.date(2013, 1, 1) + dt.timedelta(days=sum(gaps[: i + 1])) for i in range(n))
    bars = []
    for _ in range(n):
        shape = draw(st.sampled_from(["distinct", "flat", "opens-at-last-close"]))
        if shape == "flat":
            close = draw(_positive)
            bars.append((close, close, close, close))
        elif shape == "opens-at-last-close" and bars:
            open_ = bars[-1][3]
            close, a, b = draw(st.lists(_positive, min_size=3, max_size=3))
            bars.append((open_, max(open_, close, a, b), min(open_, close, a, b), close))
        else:
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


# Mutations of valid texts, on which the parsers must match the references below.
_LIMIT = 131072  # the csv module's default field size limit
# 5 000 short lines: a plain text longer than the csv field limit
_LONG = _H + "".join(f"{dt.date(2000, 1, 1) + dt.timedelta(days=i)},{_OK}\n" for i in range(5000))
_CELLS = (
    "nan", "inf", "-inf", "-0", "-1", "-1e-3", "1e999", "", " ", "abc", "1_0", " 2.5 ", "2.5\r", "\x00",
    "2013-02-30", "x", "20130101", "2013-W01-3", "20130101xx", "2013-1-1", " 2013-01-05 ", "2013-01-05T00:00",
    "0" * _LIMIT, "0" * (_LIMIT + 1),
)


def _at(draw, items):
    return draw(st.integers(min_value=0, max_value=max(len(items) - 1, 0)))


def _misalign(draw, lines):
    # one line gains the first field of the next, which loses it: the total count holds
    i = _at(draw, lines[:-1])
    if i + 1 >= len(lines):
        return lines
    head, _, rest = lines[i + 1].partition(",")
    return lines[:i] + [f"{lines[i]},{head}", rest] + lines[i + 2 :]


def _gain_field(draw, lines):
    i = _at(draw, lines)
    return lines[:i] + [f"{lines[i]},{draw(st.sampled_from(_CELLS[:12]))}"] + lines[i + 1 :]


def _lose_field(draw, lines):
    i = _at(draw, lines)
    return lines[:i] + [lines[i].rpartition(",")[0]] + lines[i + 1 :]


def _insert_line(draw, lines):
    i = _at(draw, lines)
    return lines[:i] + [draw(st.sampled_from(["", "  ", ",", ",,,,", ",,,,,", " , , , , ", "\t"]))] + lines[i:]


def _insert_blank_row(draw, lines):
    # a row of the header's field count whose cells are empty or whitespace: csv skips it
    i = _at(draw, lines)
    n = lines[0].count(",") + 1
    row = ",".join(draw(st.lists(st.sampled_from(["", " ", "\t"]), min_size=n, max_size=n)))
    return lines[:i] + [row] + lines[i:]


def _set_cell(draw, lines, cell):
    i = _at(draw, lines)
    cells = lines[i].split(",")
    j = _at(draw, cells)
    cells[j] = cell(cells[j])
    return lines[:i] + [",".join(cells)] + lines[i + 1 :]


def _substitute_cell(draw, lines):
    value = draw(st.sampled_from(_CELLS))
    return _set_cell(draw, lines, lambda _: value)


def _respell_close(draw, lines):
    # a close's text spelled another way in some cell, 1.5 as 1.50, 15e-1, ' 1.5' or 1_5:
    # a text table must miss it (1_5 is 15, and 1e-05 as 1e-050 another number)
    close = lines[_at(draw, lines)].split(",")[4:5]
    if not close:
        return lines
    text = close[0]
    whole, _, frac = text.partition(".")
    spelled = draw(st.sampled_from([f"{text}0", f"{whole}{frac}e-{len(frac)}", f" {text}", f"{whole}_{frac}"]))
    return _set_cell(draw, lines, lambda _: spelled)


def _respell_date(draw, lines):
    # one row's date cell spelled another way, nothing else changed: a lone bad date among good rows
    rows = [i for i, line in enumerate(lines) if i and "," in line]
    if not rows:
        return lines
    i = draw(st.sampled_from(rows))
    _, comma, rest = lines[i].partition(",")
    return lines[:i] + [draw(st.sampled_from(_CELLS[14:22])) + comma + rest] + lines[i + 1 :]


def _quote_cell(draw, lines):
    inner = draw(st.sampled_from(["", "\n", "\n\n", '""']))
    return _set_cell(draw, lines, lambda cell: f'"{cell}{inner}"')


def _insert_char(draw, lines):
    char = draw(st.sampled_from([",", '"', "\r", "\x00", " ", "\n", "a", "-", ".", "e"]))
    i = _at(draw, lines)
    k = draw(st.integers(min_value=0, max_value=len(lines[i])))
    return lines[:i] + [lines[i][:k] + char + lines[i][k:]] + lines[i + 1 :]


def _crlf(draw, lines):
    return [line + "\r" for line in lines[:-1]] + lines[-1:]


def _swap_lines(draw, lines):
    i, j = _at(draw, lines), _at(draw, lines)
    lines = list(lines)
    lines[i], lines[j] = lines[j], lines[i]
    return lines


def _duplicate_line(draw, lines):
    i = _at(draw, lines)
    return lines[: i + 1] + lines[i:]


def _header_only(draw, lines):
    return lines[:1] + draw(st.sampled_from([[], [""], ["", ""]]))


def _restyle_header(draw, lines):
    header = draw(st.sampled_from([str.upper, lambda h: h.replace(",", " , "), lambda h: "\ufeff" + h]))
    return [header(lines[0])] + lines[1:]


def _strip_last_newline(draw, lines):
    return lines[:-1] if len(lines) > 1 and lines[-1] == "" else lines


_MUTATIONS = (
    _misalign, _gain_field, _lose_field, _insert_line, _insert_blank_row, _substitute_cell, _respell_close,
    _respell_date, _quote_cell, _insert_char, _crlf, _swap_lines, _duplicate_line, _header_only,
    _restyle_header, _strip_last_newline,
)


@st.composite
def mutated(draw, texts):
    """A text drawn from ``texts`` with up to three of the mutations above."""
    lines = draw(texts).split("\n")
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lines = draw(st.sampled_from(_MUTATIONS))(draw, lines)
    return "\n".join(lines)


@st.composite
def vol_texts(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    start = dt.date(2013, 1, 1)
    rows = "".join(
        f"{start + dt.timedelta(days=i)},{sigma!r}\n"
        for i, sigma in enumerate(draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n)))
    )
    return "date,sigma\n" + rows


def _outcome(parse, text):
    """The result to the bit, or the error's class, message and line."""
    try:
        result = parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    fields = vars(result).values()
    return type(result), [v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in fields]


# The parsers against references that each run their own csv.reader loop and
# convert row by row, one float() per cell, with the header, line, blank-row,
# field-count and csv.Error handling, the sigma check and the date order
# written out inline, so a change to the shared reader shows as a difference
# in class, message, line or bits.
def _blank(row):
    return not any(cell.strip() for cell in row)


def _iso_date(cell):
    # Python 3.10's rule on every Python: 3.11 also reads 20130101 and 2013-W01-3
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", cell):
        raise ValueError(f"Invalid isoformat string: {cell!r}")
    return dt.date.fromisoformat(cell)


def reference_ohlc_rows(text, symbol):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise OhlcValidationError("empty input: missing header") from None
    except csv.Error as exc:
        raise OhlcParseError(str(exc), line=1) from None
    header = [h.strip().lower() for h in header]
    if header != market._HEADER and header != market._HEADER + ["volume"]:
        raise OhlcParseError(
            f"expected header 'date,open,high,low,close[,volume]', got {','.join(header)}",
            line=1,
        )
    n_fields = len(header)
    has_volume = n_fields == 6
    dates, prices, volumes, lines = [], [], [], []

    def malformed(message, line_no):
        if dates:
            market._check_bars(dates, *np.array(prices).T, volumes if has_volume else None)
        return OhlcParseError(message, line_no)

    last_line = reader.line_num
    try:
        try:
            for row in reader:
                line_no, last_line = last_line + 1, reader.line_num
                if len(row) != n_fields:
                    if _blank(row):
                        continue
                    raise malformed(f"expected {n_fields} fields, got {len(row)}", line_no)
                try:
                    date = _iso_date(row[0].strip())
                except ValueError as exc:
                    if _blank(row):
                        continue
                    raise malformed(f"bad date {row[0]!r}: {exc}", line_no) from None
                try:
                    bar = (float(row[1]), float(row[2]), float(row[3]), float(row[4]))
                except ValueError:
                    raise malformed(f"non-numeric price in {row[1:5]}", line_no) from None
                if has_volume:
                    cell = row[5]
                    try:
                        volumes.append(float(cell) if cell.strip() else None)
                    except ValueError:
                        raise malformed(f"non-numeric volume {cell!r}", line_no) from None
                dates.append(date)
                prices.append(bar)
                lines.append(line_no)
        except csv.Error as exc:
            raise malformed(str(exc), last_line + 1) from None
        if not dates:
            raise OhlcValidationError("no bars: input has a header but no data rows")
        market._check_bars(dates, *np.array(prices).T, volumes if has_volume else None)
        second = {}  # date -> index of its second copy
        for i, date in enumerate(dates):
            if date in dates[:i]:
                second.setdefault(date, i)
        if second:
            day = min(second)
            raise OhlcValidationError(f"row {lines[second[day]]}: duplicate dates: {day.isoformat()}")
        for i in range(1, len(dates)):
            if dates[i] <= dates[i - 1]:
                raise OhlcValidationError(f"row {lines[i]}: rows are not sorted by date")
        return PriceSeries(symbol, tuple(dates), *zip(*prices), tuple(volumes) if has_volume else None)
    except OhlcValidationError as exc:
        if exc.index is None:
            raise
        raise OhlcValidationError(f"row {lines[exc.index]}: {exc.reason}") from None


def reference_vol_rows(text):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise OhlcValidationError("empty input: missing header") from None
    except csv.Error as exc:
        raise OhlcParseError(str(exc), line=1) from None
    header = [h.strip().lower() for h in header]
    if header != ["date", "sigma"]:
        raise OhlcParseError(f"expected header 'date,sigma', got {','.join(header)}", line=1)
    dates, values, cells, lines = [], [], [], []

    def check_sigma():
        sigma = np.array(values, dtype=float)
        with np.errstate(invalid="ignore"):
            bad = ~np.isfinite(sigma) | (sigma < 0)
        if bad.any():
            i = int(bad.argmax())
            raise OhlcParseError(f"sigma must be finite and >= 0, got {cells[i].strip()!r}", lines[i])

    last_line = reader.line_num
    try:
        for row in reader:
            line_no, last_line = last_line + 1, reader.line_num
            if len(row) != 2:
                if _blank(row):
                    continue
                check_sigma()
                raise OhlcParseError(f"expected 2 fields, got {len(row)}", line_no)
            try:
                date = _iso_date(row[0].strip())
                sigma = float(row[1])
            except ValueError as exc:
                if _blank(row):
                    continue
                check_sigma()
                raise OhlcParseError(str(exc), line_no) from None
            dates.append(date)
            values.append(sigma)
            cells.append(row[1])
            lines.append(line_no)
    except csv.Error as exc:
        check_sigma()
        raise OhlcParseError(str(exc), last_line + 1) from None
    check_sigma()
    if not dates:
        raise OhlcValidationError("no volatility rows")
    for i in range(1, len(dates)):
        if dates[i] <= dates[i - 1]:
            raise OhlcValidationError(f"row {lines[i]}: volatility dates must be strictly increasing")
    return VolSeries(dates=tuple(dates), values=np.array(values, dtype=float))


# An open, high or low column that repeats the closes, or the closes one bar late, takes
# their floats; one that misses either by one cell, or repeats them in part, goes through
# float(). Each text is an example of the reference test below, split and through
# csv.reader (CRLF).
_CLOSES = ("101.5", "102.25", "100.75", "103.0", "99.5", "101.0")


def _ohlc_text(opens, highs, lows, closes=_CLOSES):
    days = (dt.date(2013, 1, 2) + dt.timedelta(days=i) for i in range(len(closes)))
    return _H + "".join(f"{day},{o},{h},{l},{c}\n" for day, o, h, l, c in zip(days, opens, highs, lows, closes))


def _bracketed(opens):
    """Bars of these opens and _CLOSES, each high and low the text of the bar's larger and smaller price."""
    highs = [max(o, c, key=float) for o, c in zip(opens, _CLOSES)]
    lows = [min(o, c, key=float) for o, c in zip(opens, _CLOSES)]
    return _ohlc_text(opens, highs, lows)


def _one_price_off(column, k):
    """O=H=L=C bars but for one other price in one column at row k (an open takes its low along)."""
    step = 0.25 if column == "high" else -0.25
    moved = list(_CLOSES)
    moved[k] = repr(float(moved[k]) + step)
    return {
        "open": _ohlc_text(moved, _CLOSES, moved),
        "high": _ohlc_text(_CLOSES, moved, _CLOSES),
        "low": _ohlc_text(_CLOSES, _CLOSES, moved),
    }[column]


_REUSE = {
    **{
        f"{column}-off-at-row-{k}": _one_price_off(column, k)
        for column in ("open", "high", "low")
        for k in (0, 3, len(_CLOSES) - 1)
    },
    "late-open-first-cell-differs": _bracketed(["100.0", *_CLOSES[:-1]]),
    **{
        f"late-open-off-at-row-{k}": _bracketed(["100.0", *_CLOSES[: k - 1], "100.5", *_CLOSES[k:-1]])
        for k in (1, 3, len(_CLOSES) - 1)
    },
    "part-late-open": _bracketed([_CLOSES[0], *_CLOSES[:2], "100.5", *_CLOSES[3:-1]]),
}


def _reuse_examples(test):
    for text in _REUSE.values():
        for newline in ("\n", "\r\n"):
            test = example(text.replace("\n", newline))(test)
    return test


@settings(max_examples=400)
@given(mutated(price_series().map(serialize_ohlc_csv)))
# line 2 gains the date of line 3: the strided columns would read two good bars
@example("date,open,high,low,close\n2013-01-02,1,1,1,1,2013-01-03\n1,1,1,1\n")
# an unquoted volume cell over the csv field limit
@example(_HV + f"2013-02-07,{_OK},{'0' * (_LIMIT + 1)}\n")
# a carriage return ends a csv record inside the line
@example(_H + "2013-02-07,124.0\r,127.2,123.3,126.1\n")
# a bar that breaks a bar rule before a malformed line, and before a stray quote
@example(_H + f"2013-02-07,{_OK}\n2013-02-08,124.0,127.2,123.3,-1\n2013-02-09,{_OK},7\n")
@example(_H + f"2013-02-07,124.0,127.2,128.0,126.1\n2013-02-08,\"{_OK}\n2013-02-09,{_OK}\n")
# blank rows of the header's field count inside a plain text: two bars each
@example(_H + f"2013-01-02,{_OK}\n,,,,\n2013-01-03,{_OK}\n")
@example(_H + f"2013-01-02,{_OK}\n , , , , \n2013-01-03,{_OK}\n")
# a lone bad date among good rows, which Python 3.11's fromisoformat would read
@example(_H + f"2013-01-01,{_OK}\n2013-W01-3,{_OK}\n")
# cells whose UTF-8 bytes are more than one each: a lone surrogate, which is no number,
# and full-width digits, which float() reads
@example(_H + f"2013-02-07,{_OK}\n2013-02-08,124.0,\udcff,123.3,126.1\n")
@example(_H + "2013-02-07,\uff11\uff12\uff14,127.2,123.3,126.1\n2013-02-08,124.0,127.2,123.3,126.1\n")
# a header alone, with and without its newline
@example(_H)
@example(_H.removesuffix("\n"))
# longer than the csv field limit, every field short but one on the last line
@example(_LONG + f"2014-01-01,{'0' * (_LIMIT + 1)},127.2,123.3,126.1\n")
@_reuse_examples
def test_ohlc_row_loop_matches_reference(text):
    assert _outcome(parse_ohlc_csv, text) == _outcome(lambda t: reference_ohlc_rows(t, ""), text)


@settings(max_examples=400)
@given(mutated(vol_texts()))
@example("date,sigma\n2013-01-02,0.4,2013-01-03\n0.3\n")
@example(f"date,sigma\n2013-01-02,{'0' * (_LIMIT + 1)}\n")
@example("date,sigma\n2013-01-02,0.4\r,\n")
# a bad sigma before a malformed line, and before a stray quote
@example("date,sigma\n2013-01-02,0.4\n2013-01-03,nan\n2013-01-04,0.3,7\n")
@example('date,sigma\n2013-01-02,-1\n2013-01-03,"0.3\n2013-01-04,0.4\n')
# a blank row of the header's field count inside a plain text
@example("date,sigma\n2013-01-02,0.4\n,\n2013-01-03,0.3\n")
# a lone bad date among good rows, and the same with a bad sigma in its row: the date is named
@example("date,sigma\n2013-01-01,0.4\n2013-W01-3,0.3\n")
@example("date,sigma\n2013-01-01,0.4\n2013-W01-3,-1\n")
# a lone surrogate, and full-width digits
@example("date,sigma\n2013-01-02,0.4\n2013-01-03,\udcff\n")
@example("date,sigma\n2013-01-02,\uff10.\uff14\n2013-01-03,0.3\n")
# a header alone, with and without its newline
@example("date,sigma\n")
@example("date,sigma")
def test_vol_row_loop_matches_reference(text):
    assert _outcome(parse_vol_csv, text) == _outcome(reference_vol_rows, text)


def _no_csv_reader(*args):
    raise AssertionError("a plain text reached csv.reader")


@settings(max_examples=100)
@given(price_series())
def test_clean_ohlc_text_skips_row_loop(series):
    text = serialize_ohlc_csv(series)
    with mock.patch.object(market.csv, "reader", _no_csv_reader):
        assert parse_ohlc_csv(text, symbol=series.symbol) == series


@settings(max_examples=100)
@given(vol_texts())
def test_clean_vol_text_skips_row_loop(text):
    expected = _outcome(reference_vol_rows, text)
    with mock.patch.object(market.csv, "reader", _no_csv_reader):
        assert _outcome(parse_vol_csv, text) == expected


# plain texts beyond what serialize_ohlc_csv writes: the split takes them too
_PLAIN = {
    "ohlc-padded-dates": (
        parse_ohlc_csv, _H + f" 2013-02-07 ,{_OK}\n\t2013-02-08,{_OK}\n2013-02-09\t,{_OK}\n"
    ),
    "ohlc-padded-header": (parse_ohlc_csv, f" DATE , Open,HIGH,low ,Close\n2013-02-07,{_OK}\n"),
    "ohlc-no-trailing-newline": (parse_ohlc_csv, _H + f"2013-02-07,{_OK}\n2013-02-08,{_OK}"),
    "ohlc-blank-volume-cells": (
        parse_ohlc_csv, _HV + f"2013-02-07,{_OK},\n2013-02-08,{_OK}, \n2013-02-09,{_OK},7\n"
    ),
    "ohlc-padded-numbers": (parse_ohlc_csv, _H + "2013-02-07, 124.0 ,127.2\t,1_23.3,+126.1\n"),
    "vol-padded": (parse_vol_csv, " Date , SIGMA \n 2013-01-02 , 0.4 \n2013-01-03,-0"),
    "vol-zero-and-exponent": (parse_vol_csv, "date,sigma\n2013-01-02,0\n2013-01-03,4E-1\n"),
    "ohlc-longer-than-the-field-limit": (parse_ohlc_csv, _LONG),
}


@pytest.mark.parametrize("parse,text", _PLAIN.values(), ids=_PLAIN.keys())
def test_plain_text_skips_row_loop(parse, text):
    expected = _outcome(parse, text)
    assert expected[0] not in (OhlcParseError, OhlcValidationError)
    with mock.patch.object(market.csv, "reader", _no_csv_reader):
        assert _outcome(parse, text) == expected


# The split against csv.reader alone, on texts of a three-field header and lines of
# layout characters, digits and characters of two to four UTF-8 bytes
_LAYOUT_ALPHABET = ",\n0123456789.- \u00e9\uff13\udcff"
_ABC = ["a", "b", "c"]
_ABC_CELL = st.text(_LAYOUT_ALPHABET.replace(",", "").replace("\n", ""), max_size=4)
_ABC_LINES = st.lists(
    st.one_of(st.lists(_ABC_CELL, min_size=3, max_size=3), st.lists(_ABC_CELL, min_size=1, max_size=5)),
    max_size=6,
)


@st.composite
def abc_texts(draw):
    header = draw(st.sampled_from(["a,b,c", " A ,b, C", "a,b", "a,b,c,d", "a,b,c5"]))
    lines = [",".join(cells) for cells in draw(_ABC_LINES)]
    return header + "".join("\n" + line for line in lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


def _abc_columns(cells):
    """The cells as lists, one per column; like each parser's conversion it fails on a blank row."""
    columns = [list(column) for column in cells]
    if any(not "".join(row).strip() for row in zip(*columns)):
        raise ValueError("a blank row")
    return columns


def _read_abc(text):
    return market._table(text, (_ABC,), "got {got}", _abc_columns, lambda row: None)


def reference_abc(text):
    """``_read_abc`` from csv.reader alone (no quote in these texts: a record is a line)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise OhlcValidationError("empty input: missing header") from None
    names = [h.strip().lower() for h in header]
    if names != _ABC:
        raise OhlcParseError(f"got {','.join(names)}", line=1)
    rows, lines, fault = [], [], None
    for line_no, row in enumerate(reader, start=2):
        if not "".join(row).strip():
            continue
        if len(row) != 3:
            fault = OhlcParseError(f"expected 3 fields, got {len(row)}", line_no)
            break
        rows.append(row)
        lines.append(line_no)
    return [list(column) for column in zip(*rows)] or [[], [], []], lines, fault


def _table_outcome(read, text):
    try:
        values, lines, fault = read(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return values, list(lines), fault and (str(fault), fault.line)


def _split_takes(text):
    """The split's rule, line by line: the header, a body, three fields on every line, no blank row."""
    rows = text.removesuffix("\n").split("\n")
    return (
        [h.strip().lower() for h in rows[0].split(",")] == _ABC
        and len(rows) > 1
        and all(row.count(",") == 2 for row in rows)
        and all(row.replace(",", "").strip() for row in rows[1:])
    )


@settings(max_examples=500)
@given(st.one_of(abc_texts(), st.text(_LAYOUT_ALPHABET, max_size=30).map("a,b,c".__add__)))
# one line a field long next to one a field short: the commas add up
@example("a,b,c\n1,2,3,4\n5,6\n")
@example("a,b,c\n\udcff,\u00e9,\uff13\n1,2,3")
# a last line with no comma and no newline: its layout is the body's newline alone
@example("a,b,c\n,,0\n0")
def test_split_matches_csv_reader(text):
    with mock.patch.object(market.csv, "reader", wraps=csv.reader) as reader:
        outcome = _table_outcome(_read_abc, text)
    assert outcome == _table_outcome(reference_abc, text)
    assert reader.called != _split_takes(text)


@pytest.mark.parametrize("n", [20, 1000])
def test_cells_that_repeat_a_close_are_not_converted_again(monkeypatch, n):
    converted = []  # per _floats call, the cells it converts

    def counting(cells, floats=market._floats):
        converted.append(len(cells))
        return floats(cells)

    monkeypatch.setattr(market, "_floats", counting)
    closes = [repr(100.0 + i / 8) for i in range(1, n + 1)]
    wide = (["1000.0"] * n, ["50.0"] * n)  # highs and lows that repeat no close
    late = ["99.0", *closes[:-1]]
    for opens, highs, lows, expected in ((closes, closes, closes, [n]), (late, *wide, [n, 1, n, n])):
        converted.clear()
        parse_ohlc_csv(_ohlc_text(opens, highs, lows, closes))
        assert converted == expected


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
        with pytest.raises(OhlcValidationError, match="^bar 1: duplicate dates: 2013-02-07$") as excinfo:
            PriceSeries("X", (day, day), prices, prices, prices, prices)
        assert excinfo.value.index == 1
        with pytest.raises(OhlcValidationError, match="^bar 1: rows are not sorted by date$") as excinfo:
            PriceSeries("X", (day, day - dt.timedelta(days=1)), prices, prices, prices, prices)
        assert excinfo.value.index == 1

    def test_column_lengths_must_match(self):
        with pytest.raises(ValueError, match="one value per date"):
            PriceSeries("X", (dt.date(2013, 2, 7),), (1.0,), (1.0,), (1.0,), (1.0,), volume=())


_DAY = dt.date(2013, 2, 7)


@pytest.mark.parametrize(
    "build,error,message",
    [
        (
            lambda: PriceSeries("X", (), (), (), (), ()),
            OhlcValidationError,
            "price series must contain at least one bar",
        ),
        (
            lambda: VolSeries(dates=(_DAY,), values=np.array([0.4, 0.3])),
            ValueError,
            "dates and values must have the same length",
        ),
        (
            lambda: VolSeries(dates=(_DAY, _DAY), values=np.array([0.4, math.nan])),
            OhlcValidationError,
            "bar 1: sigma must be finite and >= 0, got nan",
        ),
        (
            lambda: detect_ranges(band_series("B", 100.0, 102.0), band_tol=0),
            ValueError,
            "band_tol must be > 0, got 0",
        ),
    ],
)
def test_input_rules_reject(build, error, message):
    with pytest.raises(error) as excinfo:
        build()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


_TWO_DAYS = (_DAY, _DAY + dt.timedelta(days=1))


class TestSeriesArrays:
    """The columns are checked read-only float64 arrays, compared by value."""

    @staticmethod
    def series():
        return PriceSeries("X", _TWO_DAYS, (1.0, 1.0), (2.0, 2.0), (0.5, 0.5), (1.5, 1.5), (7.0, None))

    def test_price_series_differs_in_one_close(self):
        series = self.series()
        assert series == dataclasses.replace(series, close=np.array([1.5, 1.5]))
        assert series != dataclasses.replace(series, close=(1.5, 1.25))

    def test_vol_series_differs_in_one_sigma(self):
        vol = VolSeries(_TWO_DAYS, (0.4, 0.3))
        assert vol == VolSeries(_TWO_DAYS, np.array([0.4, 0.3]))
        assert vol != VolSeries(_TWO_DAYS, (0.4, 0.25))

    def test_series_equal_the_parse_of_their_text(self):
        series = self.series()
        assert parse_ohlc_csv(serialize_ohlc_csv(series), symbol="X") == series
        vol = VolSeries(_TWO_DAYS, (0.4, 0.3))
        assert parse_vol_csv(f"date,sigma\n{_TWO_DAYS[0]},0.4\n{_TWO_DAYS[1]},0.3\n") == vol

    def test_columns_are_read_only_float64_copies(self):
        close = np.array([1.5, 1.5])
        series = dataclasses.replace(self.series(), close=close)
        vol = VolSeries(_TWO_DAYS, close)
        for column in (series.open, series.high, series.low, series.close, vol.values):
            assert column.dtype == np.float64 and not column.flags.writeable
        close[0] = 1.25  # the caller's array stays theirs
        assert series.close.tolist() == vol.values.tolist() == [1.5, 1.5]
        with pytest.raises(ValueError, match="read-only"):
            series.close[0] = 1.25
        with pytest.raises(ValueError, match="read-only"):
            vol.values[0] = 0.0

    def test_series_are_not_hashable(self):
        for value in (self.series(), VolSeries(_TWO_DAYS, (0.4, 0.3))):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)


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
        with pytest.raises(OhlcValidationError, match="^row 3: volatility dates must be strictly increasing$"):
            parse_vol_csv(text)

    def test_vol_series_checks_date_order(self):
        dates = (dt.date(2013, 1, 3), dt.date(2013, 1, 2))
        with pytest.raises(OhlcValidationError, match="^bar 1: volatility dates must be strictly increasing$"):
            VolSeries(dates=dates, values=np.array([0.4, 0.3]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_vol_series_rejects_non_finite(self, bad):
        dates = (dt.date(2013, 1, 2), dt.date(2013, 1, 3))
        with pytest.raises(ValueError, match="finite"):
            VolSeries(dates=dates, values=np.array([0.4, bad]))


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
        vol = historical_volatility(series, window=21)
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


def window_qualifies(closes, i, j, band_tol, touch_count):
    """Oracle for the range test: the band of closes[i..j] if the window qualifies, else None."""
    segment = closes[i : j + 1]
    lo = float(segment.min())
    hi = float(segment.max())
    width = hi - lo
    if width <= 0:
        return None
    if width / lo > band_tol:
        return None
    margin = 0.25 * width  # a touch is a close within a quarter of the band width of an edge
    top_touches = int(np.count_nonzero(segment >= hi - margin))
    bottom_touches = int(np.count_nonzero(segment <= lo + margin))
    if top_touches < touch_count or bottom_touches < touch_count:
        return None
    return RangeBound(support=lo, resistance=hi)


def ranges_trying_every_end(series, last_ends, min_len, band_tol, touch_count):
    """Windows found by trying each end from ``last_ends[i]`` down, per start; and the calls."""
    closes = series.close
    n = len(closes)
    windows = []
    calls = 0
    i = 0
    while i + min_len - 1 < n:
        found = None
        for j in range(last_ends[i], i + min_len - 2, -1):
            calls += 1
            band = window_qualifies(closes, i, j, band_tol, touch_count)
            if band is not None:
                found = RangeWindow(start=i, end=j, band=band)
                break
        if found is not None:
            windows.append(found)
            i = found.end + 1
        else:
            i += 1
    return windows, calls


def brute_force_ranges(series, min_len=15, band_tol=0.05, touch_count=2):
    """Oracle for detect_ranges: try every end from the last bar down, per start."""
    last_ends = [len(series) - 1] * len(series)
    windows, _ = ranges_trying_every_end(series, last_ends, min_len, band_tol, touch_count)
    return windows


def horizon_bounded_ranges(series, min_len=15, band_tol=0.05, touch_count=2):
    """Oracle for detect_ranges and its call count: try every end below the band horizon."""
    last_ends = [r - 1 for r in market._band_horizons(series.close, band_tol, len(series)).tolist()]
    return ranges_trying_every_end(series, last_ends, min_len, band_tol, touch_count)


def start_by_start_ranges(series, min_len=15, band_tol=0.05, touch_count=2):
    """Reference for detect_ranges and its call count: a loop over every start, one bar at a time.

    A start whose horizon leaves no room for ``min_len`` bars makes no call; a
    failed end skips to ``i + keep - 1``, as in detect_ranges.
    """
    closes = series.close
    n = len(closes)
    if n < min_len:
        return [], 0
    horizons = market._band_horizons(closes, band_tol, n - min_len + 1).tolist()
    windows = []
    calls = 0
    i = 0
    while i + min_len - 1 < n:
        shortest = i + min_len - 1
        j = horizons[i] - 1
        while j >= shortest:
            calls += 1
            band, keep = market._window_qualifies(closes, i, j, touch_count)
            if band is not None:
                windows.append(RangeWindow(start=i, end=j, band=band))
                break
            j = i + keep - 1
        i = j + 1 if j >= shortest else i + 1
    return windows, calls


def counted_detect_ranges(series, **params):
    """detect_ranges(series, **params) and the number of its ``_window_qualifies`` calls."""
    with mock.patch.object(market, "_window_qualifies", wraps=market._window_qualifies) as qualifies:
        windows = detect_ranges(series, **params)
    return windows, qualifies.call_count


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


def two_pointer_horizons(closes, band_tol):
    """Oracle for band horizons in O(n H): a start's horizon is never left of the one before it."""
    n = len(closes)
    horizons = []
    end = 0
    for i in range(n):
        end = max(end, i + 1)  # closes[i:end] passes: it is one bar or part of a passing window
        lo, hi = float(closes[i:end].min()), float(closes[i:end].max())
        while end < n:
            next_lo, next_hi = min(lo, float(closes[end])), max(hi, float(closes[end]))
            if (next_hi - next_lo) / next_lo > band_tol:
                break
            lo, hi = next_lo, next_hi
            end += 1
        horizons.append(end)
    return horizons


def alternating_blocks(lengths):
    """Blocks of closes alternating 100/105 (exactly at a 0.05 band), each block at twice the last level.

    No window across two blocks passes a 0.05 band, so the longest passing
    window is the longest block.
    """
    closes = []
    for b, length in enumerate(lengths):
        closes += [(105.0 if k % 2 else 100.0) * 2**b for k in range(length)]
    return closes


@st.composite
def close_runs(draw):
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
    )
    def test_matches_brute_force(self, closes, min_len, band_tol, touch_count):
        series = flat_series("H", closes)
        params = dict(min_len=min_len, band_tol=band_tol, touch_count=touch_count)
        assert window_tuples(detect_ranges(series, **params)) == window_tuples(
            brute_force_ranges(series, **params)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_on_gbm(self, seed):
        series = gbm_series(sigma_true=0.30, n=300, seed=seed)
        assert window_tuples(detect_ranges(series)) == window_tuples(brute_force_ranges(series))

    @settings(max_examples=300, deadline=None)
    @given(
        close_paths() | close_runs(),
        st.integers(min_value=5, max_value=25),
        st.sampled_from([0.05, 0.025]) | st.floats(min_value=1e-4, max_value=0.2),
        st.integers(min_value=1, max_value=6),
    )
    def test_matches_horizon_bounded_loop(self, closes, min_len, band_tol, touch_count):
        series = flat_series("H", closes)
        params = dict(min_len=min_len, band_tol=band_tol, touch_count=touch_count)
        windows, calls = counted_detect_ranges(series, **params)
        oracle_windows, oracle_calls = horizon_bounded_ranges(series, **params)
        assert window_tuples(windows) == window_tuples(oracle_windows)
        assert calls <= oracle_calls

    @settings(max_examples=300, deadline=None)
    @given(
        close_paths() | close_runs(),
        st.integers(min_value=5, max_value=25),
        st.sampled_from([0.05, 0.025, math.inf]) | st.floats(min_value=1e-4, max_value=0.2),
        st.integers(min_value=1, max_value=6),
    )
    def test_matches_start_by_start_loop_call_for_call(self, closes, min_len, band_tol, touch_count):
        series = flat_series("H", closes)
        params = dict(min_len=min_len, band_tol=band_tol, touch_count=touch_count)
        windows, calls = counted_detect_ranges(series, **params)
        reference_windows, reference_calls = start_by_start_ranges(series, **params)
        assert window_tuples(windows) == window_tuples(reference_windows)
        assert calls == reference_calls

    def test_candidate_count_stays_below_bar_count(self):
        n = 2000
        windows, calls = counted_detect_ranges(gbm_series(n=n))
        assert windows
        assert 0 < calls < n  # trying every end makes about n**2 / 2 calls

    @pytest.mark.parametrize("n", [200, 400, 800])
    @pytest.mark.parametrize("spike", ["start", "middle", "end", None])
    def test_flat_closes_with_one_spike_cost_linear_calls(self, n, spike):
        closes = [100.0] * n
        if spike is not None:
            # inside the band but only one top touch: no window, and every start is tried
            closes[{"start": 0, "middle": n // 2, "end": n - 1}[spike]] = 101.0
        windows, calls = counted_detect_ranges(flat_series("F", closes))
        assert windows == []
        assert calls <= 2 * n  # trying every end below the horizon makes about n**2 / 2 calls

    @settings(max_examples=200, deadline=None)
    @given(
        close_runs(),
        # 0.05 puts 100 -> 105 exactly at the tolerance; inf and nan pass every window
        st.sampled_from([0.05, 0.025, math.inf, math.nan]) | st.floats(min_value=1e-4, max_value=0.2),
    )
    def test_band_horizons_match_first_failing_end(self, closes, band_tol):
        horizons = market._band_horizons(np.array(closes), band_tol, len(closes)).tolist()
        assert horizons == [first_failing_end(closes, band_tol, i) for i in range(len(closes))]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 63, 64, 65])
    def test_band_horizons_at_powers_of_two(self, n):
        closes = [100.0, 105.0] * (n // 2) + [100.0] * (n % 2)  # every window exactly at 0.05
        assert market._band_horizons(np.array(closes), 0.05, n).tolist() == [n] * n
        closes[-1] = 105.5  # the last bar breaks every window that reaches it
        expected = [first_failing_end(closes, 0.05, i) for i in range(n)]
        assert market._band_horizons(np.array(closes), 0.05, n).tolist() == expected

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_band_horizons_when_the_longest_band_is_near_a_power_of_two(self, k, offset):
        # the tables stop at the first level whose windows all fail: check either side of it
        longest = 2**k + offset
        closes = alternating_blocks([longest, max(1, longest - 1), max(1, longest // 2), longest, 1])
        n = len(closes)
        horizons = market._band_horizons(np.array(closes), 0.05, n).tolist()
        assert horizons == [first_failing_end(closes, 0.05, i) for i in range(n)]
        assert max(r - i for i, r in enumerate(horizons)) == longest
        for band_tol in (math.inf, math.nan):  # every window passes, so every level is built
            assert market._band_horizons(np.array(closes), band_tol, n).tolist() == [n] * n

    @pytest.mark.parametrize("band", [False, True])
    def test_band_horizons_match_two_pointers_on_20k_bars(self, band):
        closes = gbm_series(n=20_000, seed=7).close.copy()
        if band:  # 5 000 bars inside a 4% band: horizons thousands of bars out, 13 levels deep
            rng = np.random.default_rng(7)
            closes[8_000:13_000] = closes[8_000] * (1.0 + 0.04 * rng.random(5_000))
        horizons = market._band_horizons(closes, 0.05, len(closes)).tolist()
        assert horizons == two_pointer_horizons(closes, 0.05)
        assert (max(r - i for i, r in enumerate(horizons)) >= 5_000) == band

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
            closes = series.close[window.start : window.end + 1]
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
        vol = VolSeries(dates=dates, values=np.array(values))
        if len(values) <= lookback:
            with pytest.raises(ValueError, match="too short"):
                detect_vol_fall(vol, lookback, fall_ratio)
            return
        assert detect_vol_fall(vol, lookback, fall_ratio) == vol_fall_loop(vol, lookback, fall_ratio)

    def test_zero_sigmas_and_exact_ratio(self):
        values = [0.0, 1.0, 0.0, 0.7, 0.0, 0.49]
        dates = tuple(dt.date(2013, 1, 1) + dt.timedelta(days=i) for i in range(len(values)))
        vol = VolSeries(dates=dates, values=np.array(values))
        events = detect_vol_fall(vol, lookback=1, fall_ratio=0.7)
        assert [(e.sigma_before, e.sigma_after) for e in events] == [(1.0, 0.0), (0.7, 0.0)]
        events = detect_vol_fall(vol, lookback=2, fall_ratio=0.7)
        assert [(e.sigma_before, e.sigma_after) for e in events] == [(1.0, 0.7)]
        assert events == vol_fall_loop(vol, 2, 0.7)


    @staticmethod
    def step_vol(before, after, n_before=10, n_after=10):
        values = [before] * n_before + [after] * n_after
        dates = tuple(dt.date(2013, 1, 1) + dt.timedelta(days=i) for i in range(len(values)))
        return VolSeries(dates=dates, values=np.array(values))

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
