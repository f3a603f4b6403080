"""Command-line interface: tc, tables, scan, wavefunction, validate.

Exit codes: 0 success, 1 runtime/data failure, 2 usage error. Every data or
runtime fault, from any subcommand, leaves through ``main`` as one
``error: <message>`` line on stderr with exit 1. A stdout whose reader has
gone (``... | head``, a closed pipe) ends the run with exit 1 and nothing on
stderr. All numeric output uses 6 significant digits so identical flags give
identical bytes. A call builds only the parser of the subcommand that
``argv`` names; help, a missing or unknown name and leftover arguments go
through the full tree of ``build_parser``, so every argv prints and exits as
that tree would. A parser's help formatter reads the terminal width only when
help or a usage error prints.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from pathlib import Path
from typing import NamedTuple, TypeVar

from .barrier import (
    _geometry_and_transmission,
    barrier_geometry,
    transmission_thin_wall,
    wkb_prefactor,
)
from .market import parse_ohlc_csv, parse_vol_csv
from .scan import ScanConfig, _cell, _fmt, _json_value, report_csv, report_json, scan
from .tables import render_table, reproduce_table
from .types import MarketParams, RangeBound, Regime, _require_positive
from .validate import DEFAULT_QUAD_POINTS, DEFAULT_SEED, run_all
from .wavefunction import sample_wavefunction

T = TypeVar("T")


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
        # lambda or S1 may underflow or overflow, and so may sigma^4 in the prefactor
        geo, t_exact = _geometry_and_transmission(params, band)
        thin = transmission_thin_wall(params, band)
    report = {
        "K": band.width,
        "lambda": geo.lam,
        "S1": geo.s_exit,
        "d": geo.width_d,
        "regime": geo.regime.value,
        "T_exact": t_exact,
        "T_thin_wall": thin,
        "thin_wall_eval_point": "entry",
    }
    if args.support is not None:
        report["exit_price_absolute"] = args.support + geo.s_exit
    if args.json:
        print(json.dumps({k: _json_value(v) for k, v in report.items()}, indent=2))
    else:
        for key, value in report.items():
            if key == "thin_wall_eval_point":
                continue
            suffix = "  (q frozen at wall entry K)" if key == "T_thin_wall" else ""
            print(f"{key:<21}{_cell(value)}{suffix}")
        if geo.regime is Regime.NO_BARRIER:
            print("note: band edge at or beyond the exit coordinate; no wall to cross")
    return 0


def _cmd_tables(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    result = reproduce_table(args.which)
    print(render_table(result))
    return 0 if result.ok else 1


def _read(path: str | Path, parse: Callable[[str], T]) -> T:
    """Parse a file's text; a fault names the file and leaves as a ValueError."""
    try:  # utf-8-sig: a spreadsheet export may start with a BOM
        return parse(Path(path).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # a parse fault, or bytes that are not UTF-8
        raise ValueError(f"{path}: {exc}") from None


def _emit(body: str, out: str | None) -> None:
    """Write ``body`` to stdout, or to the file ``out``."""
    if out is None:
        sys.stdout.write(body)
        return
    try:
        # a symbol from a file name that is not UTF-8 keeps the name's own bytes
        Path(out).write_text(body, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from None


def _cmd_scan(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    with _usage_errors(parser):  # before any read, so whatever the files hold
        _require_positive("r", args.r)
        cfg = ScanConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(ScanConfig)})
    path = Path(args.input)
    series = _read(path, functools.partial(parse_ohlc_csv, symbol=path.stem))
    vol = None if args.vol is None else _read(args.vol, parse_vol_csv)
    events = scan(series, r=args.r, cfg=cfg, vol=vol)
    report = report_json(events) if args.json else report_csv(events)
    if args.out is not None:  # written first, so an unwritable --out leaves stdout empty
        _emit(report, args.out)
    try:
        for event in events:
            fall = "" if event.vol_fall_ratio is None else f"  vol_fall={_fmt(event.vol_fall_ratio)}"
            print(
                f"{event.symbol}  {event.window_start}..{event.window_end}  "
                f"band {_fmt(event.band.support)}-{_fmt(event.band.resistance)}  "
                f"K={_fmt(event.band.width)}  d={_fmt(event.geometry.width_d)}  "
                f"T={_fmt(event.transmission)}  regime={event.geometry.regime.value}{fall}"
            )
        if args.out is None:
            if events:
                print()
            _emit(report, None)
    except UnicodeEncodeError as exc:  # a symbol from a file name that is not UTF-8, on a strict stdout
        raise ValueError(f"{path}: cannot print the symbol {path.stem!r}: {exc}") from None
    return 0


def _cmd_wavefunction(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.samples < 10:
        parser.error("--samples must be >= 10")
    with _usage_errors(parser):
        params = MarketParams(r=args.r, sigma=args.sigma)
        band = _strike_band(parser, args.strike)
        # as in tc: lambda may overflow or underflow, S1 overflow, and sigma^4 leave the double range
        barrier_geometry(params, band)
        wkb_prefactor(params)
    rows = sample_wavefunction(params, band, args.samples)
    lines = ["S\tV\tpsi_abs2\tregion"]
    lines += [f"{_fmt(s)}\t{_fmt(v)}\t{_fmt(p2)}\t{region}" for s, v, p2, region in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.quad_points < 1:
        parser.error("--quad-points must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    results = run_all(
        seed=args.seed,
        quad_points=args.quad_points,
        prefactor_variant=args.prefactor_variant,
    )
    for check in results:
        print(f"{'PASS' if check.passed else 'FAIL'}  {check.name}  ({check.detail})")
    return 0 if all(check.passed for check in results) else 1


def _tc_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--r", type=float, required=True, help="annualized risk-free rate")
    parser.add_argument("--sigma", type=float, required=True, help="annualized volatility")
    parser.add_argument("--strike", type=float, help="band width K (support at the origin)")
    parser.add_argument("--support", type=float, help="absolute support price")
    parser.add_argument("--resistance", type=float, help="absolute resistance price")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _tables_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--which", type=int, choices=(1, 2, 3), required=True)


def _scan_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="OHLC CSV path")
    parser.add_argument("--r", type=float, required=True, help="annualized risk-free rate")
    parser.add_argument(
        "--sigma", type=float, dest="sigma_override", metavar="SIGMA",
        help="pin volatility instead of estimating",
    )
    parser.add_argument("--vol", help="optional precomputed volatility CSV (date,sigma)")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--json", action="store_true", help="JSON report instead of CSV")
    for flag, summary in (
        ("--min-len", "minimum window length in bars"),
        ("--band-tol", "max band width / band bottom"),
        ("--touch-count", "required touches per band edge"),
        ("--vol-window", "volatility estimator window"),
        ("--fall-lookback", "volatility-fall lookback bars"),
        ("--fall-ratio", "volatility-fall flag ratio"),
    ):  # each flag's dest is the ScanConfig field whose default and type it takes
        default = getattr(ScanConfig, flag[2:].replace("-", "_"))
        parser.add_argument(flag, type=type(default), default=default, help=summary)


def _wavefunction_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--r", type=float, required=True)
    parser.add_argument("--sigma", type=float, required=True)
    parser.add_argument("--strike", type=float, required=True)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--out", help="TSV output path (stdout when omitted)")


def _validate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sweep RNG seed")
    parser.add_argument(
        "--quad-points", type=int, default=DEFAULT_QUAD_POINTS, help="quadrature sweep size"
    )
    parser.add_argument(
        "--prefactor-variant",
        choices=("numerator", "denominator"),
        default="numerator",
        help="negative control: the denominator variant fails the table checks",
    )


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help formatter, sized to the terminal only when it formats text.

    argparse builds a formatter in every ``add_argument`` only to check the
    metavar, which reads nothing that the constructor sizes, and the stock
    constructor asks the terminal for its width. This one keeps its arguments
    and runs the stock constructor on them when an attribute that constructor
    sets is first read, so help and usage errors wrap to the width at the
    time they print.
    """

    def __init__(self, *args: object, **kwargs: object) -> None:
        self._deferred_init = (args, kwargs)

    def __getattr__(self, name: str) -> object:  # only for a name not set yet
        try:
            args, kwargs = vars(self).pop("_deferred_init")
        except KeyError:  # the stock constructor has run: no such attribute
            raise AttributeError(name) from None
        super().__init__(*args, **kwargs)
        return getattr(self, name)


class _Command(NamedTuple):
    handler: Callable[[argparse.ArgumentParser, argparse.Namespace], int]
    summary: str
    add_flags: Callable[[argparse.ArgumentParser], None]


_COMMANDS = {
    "tc": _Command(_cmd_tc, "transmission coefficient for one parameter set", _tc_flags),
    "tables": _Command(_cmd_tables, "regenerate a golden reference table", _tables_flags),
    "scan": _Command(_cmd_scan, "scan an OHLC CSV for range-bound breakout setups", _scan_flags),
    "wavefunction": _Command(
        _cmd_wavefunction, "tabulate potential and |psi|^2 for plotting", _wavefunction_flags
    ),
    "validate": _Command(_cmd_validate, "run the numerical self-check suite", _validate_flags),
}


def _fill(parser: argparse.ArgumentParser, command: _Command) -> None:
    # the handler gets its own parser, so its usage errors print that usage line
    parser.set_defaults(run=functools.partial(command.handler, parser))
    command.add_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangetunnel",
        description="Breakout (tunneling) probabilities for range-bound markets",
        formatter_class=_HelpFormatter,
    )
    # named, where argparse would size a formatter to derive it: the prog itself, for no positionals
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, command in _COMMANDS.items():
        _fill(sub.add_parser(name, help=command.summary, formatter_class=_HelpFormatter), command)
    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse ``argv`` as ``build_parser().parse_args(argv)`` does, building less.

    argparse hands every argument after a subcommand's name to that
    subcommand's parser, whose prog is ``rangetunnel <name>``. A lone parser
    of that prog and those flags therefore gives the same namespace, output
    and exit code, unless arguments are left over: those, help at the top
    level, and a missing or unknown name go through the full tree.
    """
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        parser = argparse.ArgumentParser(prog=f"rangetunnel {name}", formatter_class=_HelpFormatter)
        _fill(parser, _COMMANDS[name])
        args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=name))
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # here, so a closed pipe raises where it is caught
        return code
    except ValueError as exc:  # a data or runtime fault: one line, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader is gone: nobody is left to tell
        # the interpreter flushes stdout again at exit; send that to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
