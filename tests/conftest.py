"""Shared fixtures: synthetic OHLC series and CSV builders."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from rangetunnel.market import PriceSeries


def flat_series(symbol, prices, start=dt.date(2013, 1, 1)):
    """Bars with open = high = low = close, one calendar day apart."""
    prices = tuple(prices)
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(prices)))
    return PriceSeries(symbol=symbol, dates=dates, open=prices, high=prices, low=prices, close=prices)


def band_series(symbol, support, resistance, n=20, start=dt.date(2013, 1, 1)):
    """Closes alternating between the band edges, flat bars."""
    prices = [support if i % 2 == 0 else resistance for i in range(n)]
    return flat_series(symbol, prices, start=start)


def band_series_csv(support, resistance, n=20, start=dt.date(2013, 1, 1)):
    lines = ["date,open,high,low,close"]
    for i in range(n):
        p = support if i % 2 == 0 else resistance
        d = start + dt.timedelta(days=i)
        lines.append(f"{d.isoformat()},{p},{p},{p},{p}")
    return "\n".join(lines) + "\n"


def trending_series(symbol="TREND", n=30, start_price=100.0):
    prices = [start_price * 1.01**i for i in range(n)]
    return flat_series(symbol, prices)


def gbm_series(sigma_true=0.30, n=5000, seed=42, periods_per_year=252):
    """Geometric random walk with the given annualized volatility."""
    rng = np.random.default_rng(seed)
    step = sigma_true / np.sqrt(periods_per_year)
    log_prices = np.cumsum(rng.normal(0.0, step, size=n))
    prices = 100.0 * np.exp(log_prices - log_prices[0])
    return flat_series("GBM", prices.tolist())


@pytest.fixture
def lnkd_series():
    return band_series("LNKD", support=123.3, resistance=127.2)


@pytest.fixture
def trend():
    return trending_series()
