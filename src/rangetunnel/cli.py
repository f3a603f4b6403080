"""Command-line interface: tc, tables, scan, wavefunction, validate.

Exit codes: 0 success, 1 runtime/data failure, 2 usage error. All numeric
output uses 6 significant digits so identical flags give identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections.abc import Iterator
from pathlib import Path

from .barrier import barrier_geometry, transmission_exact, transmission_thin_wall
from .market import OhlcParseError, OhlcValidationError, parse_ohlc_csv, parse_vol_csv
from .scan import ScanConfig, _fmt, report_csv, report_json, scan
from .tables import render_table, reproduce_table
from .types import MarketParams, RangeBound, Regime
from .validate import DEFAULT_SEED, run_all
from .wavefunction import sample_wavefunction


@contextlib.contextmanager
def _usage_errors(parser: argparse.ArgumentParser) -> Iterator[None]:
    """Report a model's ValueError from the flags as a usage error (exit 2)."""
    try:
        yield
    except ValueError as exc:
        parser.error(str(exc))


def _strike_band(parser: argparse.ArgumentParser, strike: float) -> RangeBound:
    if strike <= 0:
        parser.error("--strike must be > 0")
    return RangeBound.from_width(strike)


def _band_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RangeBound:
    has_band = args.support is not None or args.resistance is not None
    if args.strike is not None and has_band:
        parser.error("give either --strike or --support/--resistance, not both")
    if args.strike is not None:
        return _strike_band(parser, args.strike)
    if args.support is None or args.resistance is None:
        parser.error("give --strike, or both --support and --resistance")
    return RangeBound(support=args.support, resistance=args.resistance)


def _cmd_tc(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    with _usage_errors(parser):
        band = _band_from_args(parser, args)
        params = MarketParams(r=args.r, sigma=args.sigma)
    geo = barrier_geometry(params, band)
    result = transmission_exact(params, band)
    thin = transmission_thin_wall(params, band)
    report = {
        "K": band.width,
        "lambda": geo.lam,
        "S1": geo.s_exit,
        "d": geo.width_d,
        "regime": geo.regime.value,
        "T_exact": result.t_exact,
        "T_thin_wall": thin,
        "thin_wall_eval_point": "entry",
    }
    if args.support is not None:
        report["exit_price_absolute"] = args.support + geo.s_exit
    if args.json:
        payload = {
            k: (float(_fmt(v)) if isinstance(v, float) else v) for k, v in report.items()
        }
        print(json.dumps(payload, indent=2))
    else:
        for key, value in report.items():
            if key == "thin_wall_eval_point":
                continue
            suffix = "  (q frozen at wall entry K)" if key == "T_thin_wall" else ""
            text = _fmt(value) if isinstance(value, float) else str(value)
            print(f"{key:<21}{text}{suffix}")
        if geo.regime is Regime.NO_BARRIER:
            print("note: band edge at or beyond the exit coordinate; no wall to cross")
    return 0


def _cmd_tables(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    result = reproduce_table(args.which)
    print(render_table(result))
    return 0 if result.ok else 1


def _cmd_scan(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    path = Path(args.input)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    try:
        series = parse_ohlc_csv(text, symbol=path.stem)
    except (OhlcParseError, OhlcValidationError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    vol = None
    if args.vol is not None:
        try:
            vol = parse_vol_csv(Path(args.vol).read_text(encoding="utf-8"))
        except OSError as exc:
            print(f"error: cannot read {args.vol}: {exc}", file=sys.stderr)
            return 1
        except (OhlcParseError, OhlcValidationError) as exc:
            print(f"error: {args.vol}: {exc}", file=sys.stderr)
            return 1
    cfg = ScanConfig(
        min_len=args.min_len,
        band_tol=args.band_tol,
        touch_count=args.touch_count,
        vol_window=args.vol_window,
        fall_lookback=args.fall_lookback,
        fall_ratio=args.fall_ratio,
        sigma_override=args.sigma,
    )
    try:
        events = scan(series, r=args.r, cfg=cfg, vol=vol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for event in events:
        fall = "" if event.vol_fall_ratio is None else f"  vol_fall={_fmt(event.vol_fall_ratio)}"
        print(
            f"{event.symbol}  {event.window_start}..{event.window_end}  "
            f"band {_fmt(event.band.support)}-{_fmt(event.band.resistance)}  "
            f"K={_fmt(event.band.width)}  d={_fmt(event.geometry.width_d)}  "
            f"T={_fmt(event.transmission.t_exact)}  regime={event.geometry.regime.value}{fall}"
        )
    report = report_json(events) if args.json else report_csv(events)
    if args.out is not None:
        try:
            Path(args.out).write_text(report, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        if events:
            print()
        sys.stdout.write(report)
    return 0


def _cmd_wavefunction(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.samples < 10:
        parser.error("--samples must be >= 10")
    with _usage_errors(parser):
        params = MarketParams(r=args.r, sigma=args.sigma)
        band = _strike_band(parser, args.strike)
    try:
        rows = sample_wavefunction(params, band, args.samples)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = ["S\tV\tpsi_abs2\tregion"]
    lines += [f"{_fmt(s)}\t{_fmt(v)}\t{_fmt(p2)}\t{region}" for s, v, p2, region in rows]
    body = "\n".join(lines) + "\n"
    if args.out is not None:
        try:
            Path(args.out).write_text(body, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(body)
    return 0


def _cmd_validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    results = run_all(
        seed=args.seed,
        quad_points=args.quad_points,
        prefactor_variant=args.prefactor_variant,
    )
    for check in results:
        print(f"{'PASS' if check.passed else 'FAIL'}  {check.name}  ({check.detail})")
    return 0 if all(check.passed for check in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangetunnel",
        description="Breakout (tunneling) probabilities for range-bound markets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tc = sub.add_parser("tc", help="transmission coefficient for one parameter set")
    tc.add_argument("--r", type=float, required=True, help="annualized risk-free rate")
    tc.add_argument("--sigma", type=float, required=True, help="annualized volatility")
    tc.add_argument("--strike", type=float, help="band width K (support at the origin)")
    tc.add_argument("--support", type=float, help="absolute support price")
    tc.add_argument("--resistance", type=float, help="absolute resistance price")
    tc.add_argument("--json", action="store_true", help="emit JSON instead of text")

    tables = sub.add_parser("tables", help="regenerate a golden reference table")
    tables.add_argument("--which", type=int, choices=(1, 2, 3), required=True)

    scan_p = sub.add_parser("scan", help="scan an OHLC CSV for range-bound breakout setups")
    scan_p.add_argument("--input", required=True, help="OHLC CSV path")
    scan_p.add_argument("--r", type=float, required=True, help="annualized risk-free rate")
    scan_p.add_argument("--sigma", type=float, help="pin volatility instead of estimating")
    scan_p.add_argument("--vol", help="optional precomputed volatility CSV (date,sigma)")
    scan_p.add_argument("--out", help="write the report here instead of stdout")
    scan_p.add_argument("--json", action="store_true", help="JSON report instead of CSV")
    scan_p.add_argument("--min-len", type=int, default=15, help="minimum window length in bars")
    scan_p.add_argument("--band-tol", type=float, default=0.05, help="max band width / band bottom")
    scan_p.add_argument("--touch-count", type=int, default=2, help="required touches per band edge")
    scan_p.add_argument("--vol-window", type=int, default=21, help="volatility estimator window")
    scan_p.add_argument("--fall-lookback", type=int, default=5, help="volatility-fall lookback bars")
    scan_p.add_argument("--fall-ratio", type=float, default=0.7, help="volatility-fall flag ratio")

    wave = sub.add_parser("wavefunction", help="tabulate potential and |psi|^2 for plotting")
    wave.add_argument("--r", type=float, required=True)
    wave.add_argument("--sigma", type=float, required=True)
    wave.add_argument("--strike", type=float, required=True)
    wave.add_argument("--samples", type=int, default=200)
    wave.add_argument("--out", help="TSV output path (stdout when omitted)")

    validate = sub.add_parser("validate", help="run the numerical self-check suite")
    validate.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sweep RNG seed")
    validate.add_argument("--quad-points", type=int, default=1000, help="quadrature sweep size")
    validate.add_argument(
        "--prefactor-variant",
        choices=("numerator", "denominator"),
        default="numerator",
        help="negative control: the denominator variant fails the table checks",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "tc": _cmd_tc,
        "tables": _cmd_tables,
        "scan": _cmd_scan,
        "wavefunction": _cmd_wavefunction,
        "validate": _cmd_validate,
    }
    return handlers[args.command](parser, args)


if __name__ == "__main__":
    sys.exit(main())
