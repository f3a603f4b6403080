"""Breakout (tunneling) probabilities for range-bound markets.

The library treats a support/resistance band as a potential wall, classifies
the barrier from the risk-free rate and volatility, and computes exact,
thin-wall and segmented transmission coefficients. A scanning layer ingests
OHLC history, finds range-bound windows and the volatility-collapse precursor,
and scores each window for breakout. Independent numerical oracles
(quadrature, finite-difference residuals) cross-check the closed forms.
"""

from .barrier import (
    barrier_geometry,
    barrier_integral_closed,
    decay_q,
    exit_price,
    lambda_of,
    potential_v,
    transmission_exact,
    transmission_segmented,
    transmission_thin_wall,
    wavenumber_k,
    wkb_prefactor,
)
from .market import (
    OhlcParseError,
    OhlcValidationError,
    PriceSeries,
    RangeWindow,
    VolFallEvent,
    VolSeries,
    detect_ranges,
    detect_vol_fall,
    historical_volatility,
    parse_ohlc_csv,
    parse_vol_csv,
    serialize_ohlc_csv,
)
from .numerics import (
    QuadratureConfig,
    QuadratureConvergenceError,
    adaptive_simpson,
    merton_ode_residual,
    quad_barrier_integral,
    schrodinger_form_residual,
)
from .scan import ScanConfig, ScanEvent, report_csv, report_json, scan
from .tables import reproduce_table
from .types import (
    BarrierGeometry,
    MarketParams,
    RangeBound,
    Regime,
    WaveAmplitudes,
)
from .validate import run_all
from .wavefunction import sample_wavefunction, thin_wall_amplitudes, w_from_psi, wavefunction_eval

__version__ = "0.1.0"

__all__ = [
    "BarrierGeometry",
    "MarketParams",
    "OhlcParseError",
    "OhlcValidationError",
    "PriceSeries",
    "QuadratureConfig",
    "QuadratureConvergenceError",
    "RangeBound",
    "RangeWindow",
    "Regime",
    "ScanConfig",
    "ScanEvent",
    "VolFallEvent",
    "VolSeries",
    "WaveAmplitudes",
    "adaptive_simpson",
    "barrier_geometry",
    "barrier_integral_closed",
    "decay_q",
    "detect_ranges",
    "detect_vol_fall",
    "exit_price",
    "historical_volatility",
    "lambda_of",
    "merton_ode_residual",
    "parse_ohlc_csv",
    "parse_vol_csv",
    "potential_v",
    "quad_barrier_integral",
    "report_csv",
    "report_json",
    "reproduce_table",
    "run_all",
    "sample_wavefunction",
    "scan",
    "schrodinger_form_residual",
    "serialize_ohlc_csv",
    "thin_wall_amplitudes",
    "transmission_exact",
    "transmission_segmented",
    "transmission_thin_wall",
    "w_from_psi",
    "wavefunction_eval",
    "wavenumber_k",
    "wkb_prefactor",
]
