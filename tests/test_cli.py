"""Command-line surface: flags, exit codes, output formats, determinism."""

import argparse
import contextlib
import dataclasses
import datetime as dt
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import rangetunnel
from rangetunnel import cli
from rangetunnel.scan import ScanConfig

from conftest import band_series_csv

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTc:
    def test_strike_mode_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "tc", "--r", "0.03", "--sigma", "0.47", "--strike", "2.40")
        assert code == 0
        fields = dict(
            line.split(None, 1) for line in out.strip().splitlines() if not line.startswith("note")
        )
        assert float(fields["lambda"].split()[0]) == pytest.approx(0.064, abs=5e-4)
        assert float(fields["S1"].split()[0]) == pytest.approx(3.95, abs=0.01)
        assert float(fields["d"].split()[0]) == pytest.approx(1.55, abs=0.01)
        assert fields["regime"].split()[0] == "tunneling"

    def test_band_mode_reports_absolute_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, "tc", "--r", "0.03", "--sigma", "0.47",
            "--support", "123.3", "--resistance", "127.2",
        )
        assert code == 0
        fields = dict(
            line.split(None, 1) for line in out.strip().splitlines() if not line.startswith("note")
        )
        assert float(fields["K"].split()[0]) == pytest.approx(3.9, abs=1e-6)
        assert float(fields["T_exact"].split()[0]) == pytest.approx(0.998675, abs=1e-6)
        assert float(fields["exit_price_absolute"].split()[0]) == pytest.approx(
            123.3 + 3.958114, abs=1e-3
        )

    def test_no_barrier_regime_normal_exit(self, capsys):
        code, out, _ = run_cli(capsys, "tc", "--r", "0.2", "--sigma", "0.2", "--strike", "2")
        assert code == 0
        assert "no_barrier" in out
        assert "T_exact              1" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "tc", "--r", "0.03", "--sigma", "0.47", "--strike", "3.9", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["T_exact"] == pytest.approx(0.998675, abs=1e-6)
        assert payload["thin_wall_eval_point"] == "entry"

    def test_both_band_and_strike_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["tc", "--r", "0.03", "--sigma", "0.47", "--strike", "2.4",
                      "--support", "1", "--resistance", "2"])
        assert excinfo.value.code == 2

    def test_missing_band_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["tc", "--r", "0.03", "--sigma", "0.47"])
        assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["tc", "--r", "0", "--sigma", "0.3", "--strike", "2"], "r must be > 0"),
        (["tc", "--r", "0.03", "--sigma", "-1", "--strike", "2"], "sigma must be > 0"),
        (["tc", "--r", "nan", "--sigma", "0.3", "--strike", "2"], "r must be finite"),
        (["tc", "--r", "0.03", "--sigma", "0.3", "--strike", "inf"], "resistance must be finite"),
        (["wavefunction", "--r", "0", "--sigma", "0.3", "--strike", "2"], "r must be > 0"),
        (["wavefunction", "--r", "0.03", "--sigma", "0.3", "--strike", "0"], "--strike must be > 0"),
        (["wavefunction", "--r", "0.03", "--sigma", "0.3", "--strike", "-1"], "--strike must be > 0"),
        # lambda = r / sigma overflows, and S1 = sqrt(sigma / r) underflows to 0; or lambda underflows to 0
        (
            ["tc", "--r", "1e300", "--sigma", "1e-300", "--strike", "1"],
            "r=1e+300, sigma=1e-300 are out of range: r / sigma overflows in lambda",
        ),
        (["tc", "--r", "1e-300", "--sigma", "1e300", "--strike", "1"], "lam must be > 0, got 0.0"),
        # sigma / r overflows: an infinite wall printed T_thin_wall nan
        (["tc", "--r", "1e-300", "--sigma", "1e10", "--strike", "1"], "s_exit must be finite, got inf"),
        (["validate", "--quad-points", "0"], "--quad-points must be >= 1"),
        (["validate", "--quad-points", "-5"], "--quad-points must be >= 1"),
        # sigma^4 underflows to 0 or overflows in the prefactor P
        (
            ["tc", "--r", "1e-300", "--sigma", "1e-300", "--strike", "1"],
            "sigma=1e-300 is out of range: sigma^4 underflows to 0 in the prefactor P",
        ),
        (
            ["tc", "--r", "0.3", "--sigma", "1e300", "--strike", "1"],
            "sigma=1e+300 is out of range: sigma^4 overflows in the prefactor P",
        ),
        # P underflows to 0 and V(K) overflows: q(K) printed T_thin_wall nan
        (
            ["tc", "--r", "1e-160", "--sigma", "1e77", "--strike", "1e-300"],
            "q(s) is undefined at s=1e-300: P underflows to 0 while V(s) overflows",
        ),
        (["validate", "--seed", "-1"], "--seed must be >= 0"),
        (["tc", "--r", "0.03", "--sigma", "0.3", "--strike", "-1"], "--strike must be > 0"),
        (
            ["wavefunction", "--r", "0.03", "--sigma", "0.3", "--strike", "2", "--samples", "2"],
            "--samples must be >= 10",
        ),
        # checked before the input is read, so a missing file is not reached
        (["scan", "--input", "missing.csv", "--r", "0"], "r must be > 0, got 0.0"),
        (["scan", "--input", "missing.csv", "--r", "nan"], "r must be finite, got nan"),
        (["scan", "--input", "missing.csv", "--r", "inf"], "r must be finite, got inf"),
        (["scan", "--input", "missing.csv", "--r", "0.03", "--sigma", "-1"], "sigma must be > 0, got -1.0"),
        # so are the detection knobs, whether or not the file would reach them
        *(
            (["scan", "--input", "missing.csv", "--r", "0.03", flag, value], message)
            for flag, value, message in [
                ("--min-len", "3", "min_len must be >= 5, got 3"),
                ("--band-tol", "0", "band_tol must be > 0, got 0.0"),
                ("--vol-window", "1", "window must be >= 2, got 1"),
                ("--fall-lookback", "0", "lookback must be >= 1, got 0"),
                ("--fall-ratio", "5", "fall_ratio must be in (0, 1), got 5.0"),
                ("--touch-count", "0", "touch_count must be >= 1, got 0"),
                ("--touch-count", "-3", "touch_count must be >= 1, got -3"),
            ]
        ),
        # lambda = r / sigma overflows: an infinite lambda printed regime no_barrier and
        # T_exact 1 for a band inside the wall (K = 1e-160 < S1, lambda*K^2 = 1e-30)
        *(
            ([command, "--r", "1e300", "--sigma", sigma, "--strike", strike],
             f"r=1e+300, sigma={sigma} are out of range: r / sigma overflows in lambda")
            for command, sigma, strike in [
                ("tc", "1e-10", "1e-160"),
                ("wavefunction", "1e-10", "1e-160"),
                ("wavefunction", "1e-300", "1"),
            ]
        ),
        # the band is checked before lambda is formed, so a bad --strike speaks first
        *(
            ([command, "--r", "1e300", "--sigma", "1e-300", "--strike", "0"], "--strike must be > 0")
            for command in ("tc", "wavefunction")
        ),
        # wavefunction forms the geometry and the prefactor as tc does: lambda underflows
        # to 0, or sigma^4 does
        (["wavefunction", "--r", "1e-300", "--sigma", "1e300", "--strike", "1"], "lam must be > 0, got 0.0"),
        (
            ["wavefunction", "--r", "1e-300", "--sigma", "1e-300", "--strike", "1e-300"],
            "sigma=1e-300 is out of range: sigma^4 underflows to 0 in the prefactor P",
        ),
        # both ends finite, the width not: K printed inf, and Infinity under --json
        (
            ["tc", "--r", "0.03", "--sigma", "0.47", "--support=-1.7e308", "--resistance", "1.7e308"],
            "resistance - support must be finite, got inf",
        ),
        # NaN fails every comparison: a band_tol of nan once passed every window
        (["scan", "--input", "missing.csv", "--r", "0.03", "--band-tol", "nan"], "band_tol must be > 0, got nan"),
        (["scan", "--input", "missing.csv", "--r", "0.03", "--fall-ratio", "nan"], "fall_ratio must be in (0, 1), got nan"),
    ],
)
def test_bad_model_flags_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: rangetunnel {argv[0]} [-h]")  # the subcommand's usage line
    assert f"\nrangetunnel {argv[0]}: error: {message}" in err


@pytest.mark.parametrize(
    "argv,code,expected",
    [
        # lambda*K^2 underflows to 0: the wall is about 700 e-folds thick
        (["tc", "--r", "0.03", "--sigma", "0.3", "--strike", "1e-300"], 0, "T_exact              0\n"),
        (["tc", "--r", "0.03", "--sigma", "0.3", "--strike", "1e-300", "--json"], 0, '"T_exact": 0.0,'),
        (
            ["wavefunction", "--r", "0.03", "--sigma", "0.3", "--strike", "1e-300"],
            1,
            "error: K=1e-300 is too close to the support: V(K) overflows",
        ),
        (
            ["wavefunction", "--r", "1e-10", "--sigma", "1e-10", "--strike", "0.03"],
            1,
            "error: q(K)*K = 9.9955e+09 is out of range: the in-wall amplitude overflows",
        ),
    ],
)
def test_underflowing_flags_end_without_traceback(capsys, argv, code, expected):
    got_code, out, err = run_cli(capsys, *argv)
    assert got_code == code
    assert expected in (out if code == 0 else err)


@pytest.mark.parametrize(
    "argv,target",
    [(["validate", "--quad-points", "5"], "run_all"), (["tables", "--which", "1"], "reproduce_table")],
)
def test_fault_in_any_handler_exits_one(capsys, monkeypatch, argv, target):
    def fault(*args, **kwargs):
        raise ValueError("injected fault")

    monkeypatch.setattr(cli, target, fault)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "error: injected fault\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["tc", "--r", "0.03", "--sigma", "0.47", "--strike", "3.9"],
        ["tables", "--which", "1"],
        ["validate", "--quad-points", "1"],
        ["scan", "--input", "LNKD.csv", "--r", "0.03", "--sigma", "0.47"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_exits_one_quietly(tmp_path, argv, unbuffered):
    # the reader of stdout is gone before the first write: unbuffered, the first
    # print fails; buffered, only the final flush does
    (tmp_path / "LNKD.csv").write_text(band_series_csv(123.3, 127.2), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(rangetunnel.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "rangetunnel.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            cwd=tmp_path,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


_EXTREMES = ("1e-300", "1e-160", "1e-77", "1e-10", "0.3", "1e10", "1e77", "1e300")


@pytest.mark.parametrize("command", ["tc", "wavefunction"])
def test_extreme_flags_never_raise(capsys, command):
    # every r, sigma and K from 1e-300 to 1e300: a result, exit 1 or a usage error, never
    # a traceback or a printed nan
    for r, sigma, strike in itertools.product(_EXTREMES, repeat=3):
        argv = [command, "--r", r, "--sigma", sigma, "--strike", strike]
        try:
            code, out, _ = run_cli(capsys, *argv)
        except SystemExit as exc:
            code, out = exc.code, capsys.readouterr().out
        assert code in (0, 1, 2), argv
        assert "nan" not in out, argv


def reference_main(argv):
    """``cli.main`` on the full parser tree, the way every call once parsed.

    The tree formats with argparse's stock help formatter, which reads the
    terminal width as it is built, so the parity test does not compare the
    lazily sized formatter with itself.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_HelpFormatter", argparse.HelpFormatter)
        args = cli.build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def outcome(capsys, main, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COMMANDS = ("tc", "tables", "scan", "wavefunction", "validate")
TC = ["tc", "--r", "0.03", "--sigma", "0.47", "--strike", "3.9"]
SCAN = ["scan", "--input", "LNKD.csv", "--r", "0.03", "--sigma", "0.47"]
PARSE_CASES = [
    # every subcommand, valid
    TC,
    ["tables", "--which", "2"],
    [*SCAN, "--json"],
    ["wavefunction", "--r", "0.03", "--sigma", "0.47", "--strike", "2.4", "--samples", "10"],
    ["validate", "--quad-points", "5"],
    # help at both levels
    ["-h"],
    ["--help"],
    *([name, flag] for name in COMMANDS for flag in ("-h", "--help")),
    [*TC, "--help", "extra"],
    ["tc", "--he"],
    # no command, an unknown one, a flag before the name
    [],
    ["price"],
    ["--r", "0.03", "tc"],
    # a missing required flag, a bad type or choice, a usage error from the handler
    ["tc", "--r", "0.03", "--strike", "2"],
    ["tables", "--which", "x"],
    ["tables", "--which", "9"],
    ["validate", "--seed", "1.5"],
    ["tc", "--r", "0.03", "--sigma", "0.47"],
    ["tc", "--r", "-1", "--sigma", "0.47", "--strike", "2"],
    # a runtime fault
    ["scan", "--input", "missing.csv", "--r", "0.03"],
    # abbreviated, ambiguous and --flag=value spellings
    ["scan", "--inp", "LNKD.csv", "--r", "0.03", "--sigma", "0.47"],
    [*SCAN, "--fall", "0.5"],
    ["tc", "--r=0.03", "--sigma=0.47", "--strike=3.9", "--json"],
    # a leading --, a trailing -- x, and unrecognized arguments
    ["--", *TC],
    [*TC, "--", "x"],
    [*TC, "extra"],
    [*TC, "--bogus", "1"],
    ["validate", "--quad-points", "5", "-x"],
    ["tables", "--which", "1", "2"],
    [*SCAN, "--input"],
]


@pytest.mark.parametrize("via_sys_argv", [False, True], ids=["argv", "sys.argv"])
def test_every_argv_parses_as_the_full_tree(capsys, tmp_path, monkeypatch, via_sys_argv):
    # same exit code, stdout and stderr as the full parser tree, whichever parser main builds
    monkeypatch.chdir(tmp_path)
    (tmp_path / "LNKD.csv").write_text(band_series_csv(123.3, 127.2), encoding="utf-8")
    for columns, argv in itertools.product(("40", "80", "200"), PARSE_CASES):
        monkeypatch.setenv("COLUMNS", columns)  # help and usage wrap to the terminal width
        if via_sys_argv:
            monkeypatch.setattr(sys, "argv", ["rangetunnel", *argv])
        passed = None if via_sys_argv else argv
        got = outcome(capsys, cli.main, passed)
        assert got == outcome(capsys, reference_main, passed), (columns, argv)
        assert got[0] in (0, 1, 2), argv


def test_full_tree_names_the_prog_argparse_derives():
    # build_parser names its subcommands' prog prefix; given none, argparse formats the
    # top-level usage line of no positionals, and the lone parsers' progs rest on that
    derived = argparse.ArgumentParser(prog="rangetunnel").add_subparsers().add_parser("tc").prog
    assert derived == "rangetunnel tc"


@pytest.fixture
def terminal_queries(monkeypatch):
    """The calls to ``shutil.get_terminal_size`` from here on."""
    queries = []
    size = shutil.get_terminal_size

    def spy(*args, **kwargs):
        queries.append(args)
        return size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", spy)
    return queries


@pytest.mark.parametrize("argv", PARSE_CASES[:5], ids=COMMANDS)
def test_a_call_asks_the_terminal_nothing(capsys, tmp_path, monkeypatch, terminal_queries, argv):
    # the lone parser of each subcommand, built and run; nothing prints help
    monkeypatch.chdir(tmp_path)
    (tmp_path / "LNKD.csv").write_text(band_series_csv(123.3, 127.2), encoding="utf-8")
    assert run_cli(capsys, *argv)[0] == 0
    assert terminal_queries == []


def test_building_the_full_tree_asks_the_terminal_nothing(terminal_queries):
    cli.build_parser()
    assert terminal_queries == []


@pytest.mark.parametrize("argv", [["scan", "--help"], ["scan"]], ids=["help", "usage-error"])
def test_text_wraps_to_the_width_when_it_prints(capsys, monkeypatch, terminal_queries, argv):
    def printed(parser):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        captured = capsys.readouterr()
        return captured.out + captured.err

    monkeypatch.setenv("COLUMNS", "200")
    tree = cli.build_parser()
    monkeypatch.setenv("COLUMNS", "40")  # set after the tree is built
    narrow = printed(tree)
    assert len(terminal_queries) == 1  # once, when the text prints
    monkeypatch.setattr(cli, "_HelpFormatter", argparse.HelpFormatter)
    assert narrow == printed(cli.build_parser())  # the stock formatter built at 40 columns
    monkeypatch.setenv("COLUMNS", "200")
    assert narrow != printed(cli.build_parser())


def test_metavar_tuple_of_the_wrong_length_is_refused():
    # add_argument checks the metavar through the formatter class before any sizing
    parser = argparse.ArgumentParser(formatter_class=cli._HelpFormatter)
    with pytest.raises(ValueError, match="^length of metavar tuple does not match nargs$"):
        parser.add_argument("--pair", nargs=2, metavar=("A",))


def test_formatter_raises_attribute_error_for_a_missing_name():
    with pytest.raises(AttributeError):
        cli._HelpFormatter(prog="rangetunnel").no_such_attribute


def _log_uniform(low, high):
    return st.floats(min_value=math.log(low), max_value=math.log(high)).map(math.exp)


# magnitudes log-uniform over the double range, and over market scales, where most
# flag sets run to the end; plus zeros, subnormals, infinities and nan
_EDGES = (0.0, -0.0, 5e-324, -5e-324, sys.float_info.min / 2, -1.0, math.inf, -math.inf, math.nan)
_DOUBLES = st.one_of(
    _log_uniform(5e-324, sys.float_info.max), _log_uniform(1e-3, 1e3), st.sampled_from(_EDGES)
)


def _flags(optional=None, **draws):
    return st.fixed_dictionaries(draws, optional=optional or {}).map(
        lambda values: [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items()]
    )


def _counts(valid, invalid):
    # half of the draws valid: hypothesis leans to the first entries of one sampled_from
    return st.sampled_from(valid) | st.sampled_from(invalid)


_NUMERIC_ARGVS = st.one_of(
    st.tuples(
        st.just(["tc"]),
        _flags(r=_DOUBLES, sigma=_DOUBLES, strike=_DOUBLES),
        st.sampled_from([[], ["--json"]]),
    ),
    # small counts only: --samples and --quad-points size what a call allocates
    st.tuples(
        st.just(["wavefunction"]),
        _flags(
            r=_DOUBLES, sigma=_DOUBLES, strike=_DOUBLES, samples=_counts(range(10, 61), range(-2, 10))
        ),
    ),
    st.tuples(st.just(["tables"]), _flags(which=_counts((1, 2, 3), (-1, 0, 4)))),
    st.tuples(st.just(["validate"]), _flags(quad_points=_counts(range(1, 9), range(-2, 1)))),
).map(lambda parts: [arg for part in parts for arg in part])

_NON_FINITE = re.compile(r"(?i)\b(?:nan|inf|infinity)\b")


def assert_allowed_outcome(argv):
    """Run ``cli.main(argv)`` in-process and check that it ends in an allowed outcome.

    The allowed outcomes: exit 2 with the subcommand's usage line; exit 1 with
    one ``error:`` line on stderr; exit 0 with every printed number finite. A
    NaN in any float flag never ends in exit 0.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == ""
        assert err.startswith(f"usage: rangetunnel {argv[0]} [-h]")
        assert err.splitlines()[-1].startswith(f"rangetunnel {argv[0]}: error: ")
    elif code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert code == 0 and err == ""
        assert _NON_FINITE.search(out) is None, out
        assert not any(arg.endswith("=nan") for arg in argv), argv


@settings(max_examples=500, deadline=None)
@given(argv=_NUMERIC_ARGVS)
# r / sigma overflows
@example(argv=["tc", "--r", "1e300", "--sigma", "1e-10", "--strike", "1e-160"])
def test_numeric_flags_end_in_an_allowed_outcome(argv):
    """Any numeric flags give a usage error, one error line, or finite numbers.

    The outcomes allowed are those of ``assert_allowed_outcome``. A check that
    a printed regime matches the regime of the same float inputs waits for an
    exact regime judge, and is left out.
    """
    assert_allowed_outcome(argv)


@pytest.fixture(scope="module")
def scan_fixture(tmp_path_factory):
    """A 40-bar file of closes alternating between two levels, and a matching vol file."""
    folder = tmp_path_factory.mktemp("scan")
    (folder / "LNKD.csv").write_text(band_series_csv(123.3, 127.2, n=40), encoding="utf-8")
    days = [dt.date(2013, 1, 1) + dt.timedelta(days=i) for i in range(40)]
    (folder / "vol.csv").write_text(
        "date,sigma\n" + "".join(f"{day},{0.4 if i < 20 else 0.2}\n" for i, day in enumerate(days)),
        encoding="utf-8",
    )
    return folder


_KNOB_COUNTS = st.integers(-2, 60)
_SCAN_ARGVS = st.tuples(
    _flags(
        r=_DOUBLES,
        optional=dict(
            sigma=_DOUBLES,
            band_tol=_DOUBLES,
            fall_ratio=_DOUBLES,
            min_len=_KNOB_COUNTS,
            touch_count=_KNOB_COUNTS,
            vol_window=_KNOB_COUNTS,
            fall_lookback=_KNOB_COUNTS,
        ),
    ),
    st.sampled_from([[], ["--json"]]),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=300, deadline=None)
@given(flags=_SCAN_ARGVS, vol=st.booleans())
# NaN once failed no band test, and the whole file came out as one range
@example(flags=["--r=0.03", "--band-tol=nan"], vol=False)
def test_scan_flags_end_in_an_allowed_outcome(scan_fixture, flags, vol):
    """``scan`` of a small file, with any numeric flags, ends as ``assert_allowed_outcome`` allows.

    ``--r``, ``--sigma``, ``--band-tol`` and ``--fall-ratio`` are drawn as
    the other float flags are; the four count knobs from -2 to 60. Every
    flag but ``--r`` may be left at its default, and the sigmas come from
    the rolling estimate, the vol file or ``--sigma``.
    """
    files = [f"--input={scan_fixture / 'LNKD.csv'}", *([f"--vol={scan_fixture / 'vol.csv'}"] if vol else [])]
    assert_allowed_outcome(["scan", *files, *flags])


FULL_TREE = ["rangetunnel", *(f"rangetunnel {name}" for name in COMMANDS)]


@pytest.mark.parametrize(
    "argv,progs",
    [
        (TC, ["rangetunnel tc"]),
        (["tables", "--which", "1"], ["rangetunnel tables"]),
        (["scan", "--input", "missing.csv", "--r", "0.03"], ["rangetunnel scan"]),
        (["wavefunction", "--r", "0.03", "--sigma", "0.47", "--strike", "2.4"], ["rangetunnel wavefunction"]),
        (["validate", "--quad-points", "1"], ["rangetunnel validate"]),
        (["tc", "--r", "0.03", "--sigma", "0.47"], ["rangetunnel tc"]),  # a usage error of tc
        # the full tree: the top-level parser and one per subcommand
        (["-h"], FULL_TREE),
        (["price"], FULL_TREE),
        ([*TC, "extra"], ["rangetunnel tc", *FULL_TREE]),
    ],
    ids=["tc", "tables", "scan", "wavefunction", "validate", "tc-usage-error", "help", "unknown", "leftover"],
)
def test_a_call_builds_only_the_parser_it_runs(capsys, monkeypatch, argv, progs):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    with contextlib.suppress(SystemExit):
        cli.main(argv)
    assert built == progs


class TestTables:
    @pytest.mark.parametrize("which", ["1", "2", "3"])
    def test_tables_pass(self, capsys, which):
        code, out, _ = run_cli(capsys, "tables", "--which", which)
        assert code == 0
        assert "all cells match" in out

    def test_bad_table_id_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["tables", "--which", "9"])
        assert excinfo.value.code == 2


class TestScan:
    def test_golden_fixture_summary_and_csv(self, capsys, tmp_path):
        src = tmp_path / "LNKD.csv"
        src.write_text(band_series_csv(123.3, 127.2), encoding="utf-8")
        out_path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "scan", "--input", str(src), "--r", "0.03",
            "--sigma", "0.47", "--out", str(out_path),
        )
        assert code == 0
        assert out.count("LNKD") == 1
        assert "T=0.998675" in out
        report = out_path.read_text(encoding="utf-8")
        assert report.splitlines()[0].startswith("symbol,window_start")
        assert ",0.998675," in report

    def test_out_keeps_the_bytes_of_a_file_name_that_is_not_utf8(self, tmp_path):
        # the symbol is the name decoded with surrogateescape; the report writes its bytes back
        name = os.fsencode(tmp_path) + b"/\xff\xfeBAD.csv"
        try:
            with open(name, "wb") as src:
                src.write(band_series_csv(123.3, 127.2).encode())
        except (OSError, UnicodeError):
            pytest.skip("the file system refuses a file name that is not UTF-8")
        env = dict(os.environ, PYTHONPATH=str(Path(rangetunnel.__file__).parents[1]))
        env["PYTHONIOENCODING"] = "utf-8:surrogateescape"  # stdout as under the POSIX locale
        argv = ["scan", "--input", os.fsdecode(name), "--r", "0.03", "--sigma", "0.47", "--out", "r.csv"]
        done = subprocess.run(
            [sys.executable, "-m", "rangetunnel.cli", *argv],
            capture_output=True, cwd=tmp_path, env=env, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.startswith(b"\xff\xfeBAD  2013-01-01..2013-01-20  band 123.3-127.2")
        report = (tmp_path / "r.csv").read_bytes().splitlines()
        assert report[0].startswith(b"symbol,window_start,")
        assert report[1].startswith(b"\xff\xfeBAD,2013-01-01,2013-01-20,123.3,127.2,")

    @pytest.mark.parametrize("out", [["--out", "r.csv"], []], ids=["out", "stdout"])
    def test_strict_stdout_names_a_file_name_that_is_not_utf8(self, tmp_path, out):
        # a strict UTF-8 stdout cannot print the symbol: one stderr line names the input, exit 1
        name = os.fsencode(tmp_path) + b"/\xff\xfeBAD.csv"
        try:
            with open(name, "wb") as src:
                src.write(band_series_csv(123.3, 127.2).encode())
        except (OSError, UnicodeError):
            pytest.skip("the file system refuses a file name that is not UTF-8")
        env = dict(os.environ, PYTHONPATH=str(Path(rangetunnel.__file__).parents[1]))
        env["PYTHONIOENCODING"] = "utf-8"
        argv = ["scan", "--input", os.fsdecode(name), "--r", "0.03", "--sigma", "0.47", *out]
        done = subprocess.run(
            [sys.executable, "-m", "rangetunnel.cli", *argv],
            capture_output=True, cwd=tmp_path, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout) == (1, b"")
        shown = os.fsdecode(name).encode("utf-8", "backslashreplace")  # as stderr escapes it
        assert done.stderr.splitlines() == [
            b"error: " + shown + b": cannot print the symbol '\\udcff\\udcfeBAD': 'utf-8' codec"
            b" can't encode characters in position 0-1: surrogates not allowed"
        ]

    def test_json_report(self, capsys, tmp_path):
        src = tmp_path / "NFLX.csv"
        src.write_text(band_series_csv(97.81, 101.17), encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "scan", "--input", str(src), "--r", "0.03", "--sigma", "0.55", "--json"
        )
        assert code == 0
        body = out.split("\n\n", 1)[1]
        rows = json.loads(body)
        assert rows[0]["symbol"] == "NFLX"
        assert rows[0]["T"] == pytest.approx(0.933, abs=1e-3)

    def test_empty_after_header_exits_one(self, capsys, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("date,open,high,low,close\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "scan", "--input", str(src), "--r", "0.03")
        assert code == 1
        assert "no bars" in err

    def test_parse_error_exits_one_with_context(self, capsys, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("date,open,high,low,close\n2013-01-01,1,xx,1,1\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "scan", "--input", str(src), "--r", "0.03")
        assert code == 1
        assert "line 2" in err

    def test_oversized_field_exits_one_with_line(self, capsys, tmp_path):
        # a stray opening quote on line 3 swallows the rest of a 5000-bar file
        lines = band_series_csv(123.3, 127.2, n=5000).splitlines()
        lines[2] = lines[2].replace(",", ',"', 1)
        src = tmp_path / "QUOTE.csv"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "scan", "--input", str(src), "--r", "0.03", "--sigma", "0.3")
        assert code == 1
        assert out == ""
        assert err == f"error: {src}: line 3: field larger than field limit (131072)\n"  # no traceback

    @pytest.mark.parametrize("sigma", ["nan", "-0.2"])
    def test_bad_vol_value_exits_one_with_line(self, capsys, tmp_path, sigma):
        src = tmp_path / "LNKD.csv"
        src.write_text(band_series_csv(123.3, 127.2), encoding="utf-8")
        vol = tmp_path / "vol.csv"
        vol.write_text(f"date,sigma\n2013-01-01,0.4\n2013-01-02,{sigma}\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "scan", "--input", str(src), "--vol", str(vol), "--r", "0.03"
        )
        assert code == 1
        assert f"{vol}: line 3: sigma" in err

    def test_negative_zero_sigma_is_no_fall(self, capsys, tmp_path):
        # -0 passes the sigma check; five bars on, 0.4 / -0.0 must not read as a fall
        src = tmp_path / "LNKD.csv"
        src.write_text(band_series_csv(123.3, 127.2), encoding="utf-8")
        sigmas = ["-0"] + ["0.4"] * 19
        vol = tmp_path / "vol.csv"
        vol.write_text(
            "date,sigma\n" + "".join(f"2013-01-{d:02d},{s}\n" for d, s in enumerate(sigmas, 1)),
            encoding="utf-8",
        )
        code, out, err = run_cli(
            capsys, "scan", "--input", str(src), "--vol", str(vol), "--r", "0.03"
        )
        assert (code, err) == (0, "")
        summary, _, _, row = out.splitlines()
        assert "vol_fall" not in summary and row.endswith(",")  # no vol_fall_ratio

    def test_unsorted_vol_dates_exit_one(self, capsys, tmp_path):
        src = tmp_path / "LNKD.csv"
        src.write_text(band_series_csv(123.3, 127.2), encoding="utf-8")
        vol = tmp_path / "vol.csv"
        vol.write_text("date,sigma\n2013-01-02,0.4\n2013-01-01,0.3\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "scan", "--input", str(src), "--vol", str(vol), "--r", "0.03"
        )
        assert code == 1
        assert f"{vol}: row 3: volatility dates must be strictly increasing" in err

    def test_volatility_falling_to_zero_is_reported(self, capsys, tmp_path):
        # the rolling volatility of the flat tail is exactly 0, a fall ratio of 0
        closes = [(102, 102, 100, 100)[i % 4] for i in range(30)] + [101] * 25
        start = dt.date(2013, 1, 1)
        lines = ["date,open,high,low,close"] + [
            f"{start + dt.timedelta(days=i)},{p},{p},{p},{p}" for i, p in enumerate(closes)
        ]
        src = tmp_path / "FALL.csv"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "scan", "--input", str(src), "--r", "0.03", "--sigma", "0.3",
            "--vol-window", "5",
        )
        assert code == 0
        assert out.splitlines()[0].endswith("  vol_fall=0")

    @pytest.mark.parametrize("band_tol", ["inf"])
    def test_unbounded_band_tol_scans_whole_history(self, capsys, tmp_path, band_tol):
        # every window passes the band test, so the widest one is the whole file
        src = tmp_path / "LNKD.csv"
        src.write_text(band_series_csv(123.3, 127.2), encoding="utf-8")
        args = ("scan", "--input", str(src), "--r", "0.03", "--sigma", "0.3")
        code, out, err = run_cli(capsys, *args, "--band-tol", band_tol)
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *args, "--band-tol", "1")[1]

    @pytest.mark.parametrize(
        "knob",
        [("--fall-ratio", "5"), ("--fall-lookback", "0"), ("--min-len", "3"), ("--vol-window", "1")],
    )
    @pytest.mark.parametrize("source", [("--sigma", "0.47"), ("--vol", "vol.csv")])
    def test_bad_knob_is_a_usage_error_on_a_file_that_never_uses_it(
        self, capsys, tmp_path, monkeypatch, knob, source
    ):
        # the 20-bar band has too few volatility estimates to look for a fall, and a
        # --vol file or a pinned sigma means no rolling window is formed
        monkeypatch.chdir(tmp_path)
        (tmp_path / "LNKD.csv").write_text(band_series_csv(123.3, 127.2), encoding="utf-8")
        (tmp_path / "vol.csv").write_text(
            "date,sigma\n" + "".join(f"2013-01-{d:02d},0.4\n" for d in range(1, 21)), encoding="utf-8"
        )
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["scan", "--input", "LNKD.csv", "--r", "0.03", *source, *knob])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    def test_byte_order_mark_is_accepted(self, capsys, tmp_path):
        # some spreadsheet exports start a UTF-8 file with the bytes EF BB BF
        ohlc = band_series_csv(123.3, 127.2).encode("utf-8")
        vol = ("date,sigma\n" + "".join(f"2013-01-{d:02d},0.4\n" for d in range(1, 21))).encode("utf-8")
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            folder = tmp_path / ("bom" if bom else "plain")
            folder.mkdir()
            (folder / "LNKD.csv").write_bytes(bom + ohlc)
            (folder / "vol.csv").write_bytes(bom + vol)
            args = ("scan", "--input", str(folder / "LNKD.csv"), "--r", "0.03")
            outputs.append(
                (run_cli(capsys, *args, "--sigma", "0.47"), run_cli(capsys, *args, "--vol", str(folder / "vol.csv")))
            )
        plain, bom = outputs
        assert bom == plain
        assert all(code == 0 and "LNKD" in out and err == "" for code, out, err in plain)

    @pytest.mark.parametrize("sigma", ["1e-100", "1e100"])
    def test_extreme_sigma_exits_one(self, capsys, tmp_path, sigma):
        src = tmp_path / "LNKD.csv"
        src.write_text(band_series_csv(123.3, 127.2), encoding="utf-8")
        code, out, err = run_cli(capsys, "scan", "--input", str(src), "--r", "0.03", "--sigma", sigma)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: sigma={float(sigma):.6g} is out of range: sigma^4 ")

    def test_overflowing_lambda_exits_one(self, capsys, tmp_path):
        # an infinite lambda wrote inf in the report's lambda column
        src = tmp_path / "LNKD.csv"
        src.write_text(band_series_csv(123.3, 127.2), encoding="utf-8")
        code, out, err = run_cli(capsys, "scan", "--input", str(src), "--r", "1e300", "--sigma", "1e-10")
        assert (code, out) == (1, "")
        assert err == "error: r=1e+300, sigma=1e-10 are out of range: r / sigma overflows in lambda\n"

    @pytest.mark.parametrize("flags", [["--r", "0"], ["--r", "nan"], ["--r", "inf"], ["--r", "0.03", "--sigma", "-1"]])
    @pytest.mark.parametrize(
        "csv_text", [band_series_csv(123.3, 127.2), band_series_csv(100.0, 200.0)], ids=["window", "no-window"]
    )
    def test_bad_model_flags_are_usage_errors_on_any_input(self, capsys, tmp_path, flags, csv_text):
        # one file has a range window and the other none; neither is scored
        src = tmp_path / "X.csv"
        src.write_text(csv_text, encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["scan", "--input", str(src), *flags])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage: rangetunnel scan [-h]")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["scan", "--input", "LNKD.csv", "--r", "0.03", "--vol", "missing.csv"],
                "error: cannot read missing.csv: ",
            ),
            (
                ["scan", "--input", "LNKD.csv", "--r", "0.03", "--sigma", "0.47", "--out", "no/report.csv"],
                "error: cannot write no/report.csv: ",
            ),
            (
                ["wavefunction", "--r", "0.03", "--sigma", "0.47", "--strike", "2.4", "--out", "no/w.tsv"],
                "error: cannot write no/w.tsv: ",
            ),
            (
                ["scan", "--input", "LNKD.csv", "--r", "0.03", "--vol", "./missing.csv"],
                "error: cannot read ./missing.csv: ",  # the --vol path as given
            ),
            (
                ["scan", "--input", "LNKD.csv", "--r", "0.03", "--vol", "bad_vol.csv"],
                "error: bad_vol.csv: line 2: Invalid isoformat string: 'someday'\n",
            ),
            (
                ["scan", "--input", "missing.csv", "--r", "0.03"],
                "error: cannot read missing.csv: ",
            ),
            (
                ["scan", "--input", "./missing.csv", "--r", "0.03"],
                "error: cannot read missing.csv: ",  # the --input path as pathlib prints it
            ),
            (
                ["scan", "--input", "./BAD.csv", "--r", "0.03"],
                "error: BAD.csv: line 2: bad date 'someday': Invalid isoformat string: 'someday'\n",
            ),
            (
                ["scan", "--input", "LATIN1.csv", "--r", "0.03"],
                "error: LATIN1.csv: 'utf-8' codec can't decode byte 0xe9 in position 25: ",
            ),
        ],
    )
    def test_unreadable_or_unwritable_path_exits_one(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "LNKD.csv").write_text(band_series_csv(123.3, 127.2), encoding="utf-8")
        (tmp_path / "bad_vol.csv").write_text("date,sigma\nsomeday,0.4\n", encoding="utf-8")
        (tmp_path / "BAD.csv").write_text("date,open,high,low,close\nsomeday,1,1,1,1\n", encoding="utf-8")
        (tmp_path / "LATIN1.csv").write_bytes(b"date,open,high,low,close\n\xe9\n")  # not UTF-8
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith(message)
        assert err.count("\n") == 1  # one line, no traceback

    def test_unwritable_out_leaves_stdout_empty(self, capsys, tmp_path):
        # the report is written before the summary lines are printed
        src = tmp_path / "LNKD.csv"
        src.write_text(band_series_csv(123.3, 127.2), encoding="utf-8")
        out_path = tmp_path / "missing_dir" / "r.csv"
        code, out, err = run_cli(
            capsys, "scan", "--input", str(src), "--r", "0.03",
            "--sigma", "0.47", "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {out_path}: ")

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "scan", "--input", str(tmp_path / "nope.csv"), "--r", "0.03")
        assert code == 1

    # flag, its ScanConfig field, a value other than the default, that value parsed
    KNOBS = [
        ("--min-len", "min_len", "16", 16),
        ("--band-tol", "band_tol", "0.06", 0.06),
        ("--touch-count", "touch_count", "3", 3),
        ("--vol-window", "vol_window", "10", 10),
        ("--fall-lookback", "fall_lookback", "4", 4),
        ("--fall-ratio", "fall_ratio", "0.8", 0.8),
        ("--sigma", "sigma_override", "0.47", 0.47),
    ]

    def test_each_flag_reaches_its_config_field(self, capsys, tmp_path, monkeypatch):
        src = tmp_path / "LNKD.csv"
        src.write_text(band_series_csv(123.3, 127.2), encoding="utf-8")
        seen = []

        def fake_scan(series, r, cfg, vol):
            seen.append(cfg)
            return []

        monkeypatch.setattr(cli, "scan", fake_scan)
        base = ("scan", "--input", str(src), "--r", "0.03")
        assert run_cli(capsys, *base)[0] == 0
        assert seen == [ScanConfig()]  # no knob flag: the config's own defaults
        assert {name for _, name, _, _ in self.KNOBS} == {f.name for f in dataclasses.fields(ScanConfig)}
        for flag, name, text, value in self.KNOBS:
            assert run_cli(capsys, *base, flag, text)[0] == 0
            assert seen[-1] == dataclasses.replace(ScanConfig(), **{name: value}), flag
            assert type(getattr(seen[-1], name)) is type(value), flag

    def test_tc_and_scan_report_the_same_band_numbers(self, capsys, tmp_path):
        src = tmp_path / "LNKD.csv"
        src.write_text(band_series_csv(123.3, 127.2), encoding="utf-8")
        model = ("--r", "0.03", "--sigma", "0.47")
        _, tc_out, _ = run_cli(
            capsys, "tc", *model, "--support", "123.3", "--resistance", "127.2", "--json"
        )
        _, scan_out, _ = run_cli(capsys, "scan", "--input", str(src), *model, "--json")
        tc = json.loads(tc_out)
        (row,) = json.loads(scan_out.split("\n\n", 1)[1])
        assert [tc[key] for key in ("K", "lambda", "S1", "d", "T_exact")] == [
            row[key] for key in ("K", "lambda", "S1", "d", "T")
        ]

    def test_help_keeps_the_sigma_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["scan", "--help"])
        assert excinfo.value.code == 0
        assert "  --sigma SIGMA " in capsys.readouterr().out

    def test_trending_fixture_zero_events(self, capsys, tmp_path):
        lines = ["date,open,high,low,close"]
        price = 100.0
        start = dt.date(2013, 1, 1)
        for i in range(30):
            d = (start + dt.timedelta(days=i)).isoformat()
            lines.append(f"{d},{price},{price},{price},{price}")
            price *= 1.01
        src = tmp_path / "TREND.csv"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "scan", "--input", str(src), "--r", "0.03", "--sigma", "0.5")
        assert code == 0
        assert out.strip().startswith("symbol,")
        assert len(out.strip().splitlines()) == 1


class TestWavefunction:
    def test_tsv_columns_and_regions(self, capsys):
        code, out, _ = run_cli(
            capsys, "wavefunction", "--r", "0.03", "--sigma", "0.47",
            "--strike", "2.40", "--samples", "100",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "S\tV\tpsi_abs2\tregion"
        regions = [line.split("\t")[3] for line in lines[1:]]
        assert set(regions) == {"I", "II", "III"}
        # V column is 1/S^2 on every row
        for line in lines[1:]:
            s, v, _, _ = line.split("\t")
            assert float(v) == pytest.approx(1.0 / float(s) ** 2, rel=1e-4)

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "wave.tsv"
        code, _, _ = run_cli(
            capsys, "wavefunction", "--r", "0.03", "--sigma", "0.47",
            "--strike", "2.40", "--samples", "50", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text(encoding="utf-8").startswith("S\tV\tpsi_abs2\tregion")

    def test_too_few_samples_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["wavefunction", "--r", "0.03", "--sigma", "0.47",
                      "--strike", "2.40", "--samples", "5"])
        assert excinfo.value.code == 2

    def test_no_barrier_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "wavefunction", "--r", "0.2", "--sigma", "0.2", "--strike", "2.0"
        )
        assert code == 1
        assert "tunneling regime" in err


class TestValidate:
    def test_default_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--quad-points", "25")
        assert code == 0
        assert "FAIL" not in out
        for name in (
            "table-1-reproduction",
            "table-2-reproduction",
            "table-3-reproduction",
            "quadrature-vs-closed-form",
            "segmented-convergence",
            "transform-residual",
            "band-equation-residuals",
        ):
            assert name in out

    def test_prefactor_negative_control_fails_tables(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--quad-points", "5", "--prefactor-variant", "denominator"
        )
        assert code == 1
        assert "FAIL  table-1-reproduction" in out

    def test_seed_reproducibility(self, capsys):
        args = ["validate", "--quad-points", "25", "--seed", "4"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestDeterminism:
    def test_tc_byte_identical(self, capsys):
        args = ["tc", "--r", "0.03", "--sigma", "0.47", "--strike", "3.9", "--json"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_scan_byte_identical(self, capsys, tmp_path):
        src = tmp_path / "HUM.csv"
        src.write_text(band_series_csv(66.95, 70.08), encoding="utf-8")
        args = ["scan", "--input", str(src), "--r", "0.03", "--sigma", "0.31"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


# argv, file under tests/golden holding the expected stdout, exit code
GOLDEN_CASES = [
    (["tables", "--which", "1"], "tables_1.txt", 0),
    (["tables", "--which", "2"], "tables_2.txt", 0),
    (["tables", "--which", "3"], "tables_3.txt", 0),
    (["tc", "--r", "0.03", "--sigma", "0.47", "--strike", "3.9"], "tc_strike.txt", 0),
    (
        ["tc", "--r", "0.03", "--sigma", "0.47", "--support", "123.3", "--resistance", "127.2",
         "--json"],
        "tc_band.json",
        0,
    ),
    (["tc", "--r", "0.05", "--sigma", "0.3", "--strike", "3"], "tc_no_barrier.txt", 0),
    (["wavefunction", "--r", "0.03", "--sigma", "0.47", "--strike", "3.9"], "wavefunction.tsv", 0),
    (
        ["validate", "--quad-points", "5", "--prefactor-variant", "denominator"],
        "validate_denominator_tables.txt",
        1,
    ),
    (["validate"], "validate_quadrature_segmented.txt", 0),
]

# Lines of validate stdout that are pinned, by golden file. The residual lines
# are left out: they go through numpy's vectorised ** and exp, whose last
# bits may differ across CPUs and builds.
VALIDATE_LINES = {
    "validate_denominator_tables.txt": slice(0, 3),
    "validate_quadrature_segmented.txt": slice(3, 5),
}


@pytest.mark.parametrize("argv,name,code", GOLDEN_CASES, ids=[case[1] for case in GOLDEN_CASES])
def test_golden_bytes(capsys, argv, name, code):
    got_code, out, _ = run_cli(capsys, *argv)
    if argv[0] == "validate":
        out = "".join(out.splitlines(keepends=True)[VALIDATE_LINES[name]])
    assert got_code == code
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
