"""Command-line surface: flags, exit codes, output formats, determinism."""

import datetime as dt
import json
from pathlib import Path

import pytest

from rangetunnel import cli

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
        # S1 = sqrt(sigma / r) and lambda = r / sigma underflow to 0
        (["tc", "--r", "1e300", "--sigma", "1e-300", "--strike", "1"], "s_exit must be > 0, got 0.0"),
        (["tc", "--r", "1e-300", "--sigma", "1e300", "--strike", "1"], "lam must be > 0, got 0.0"),
        # sigma / r overflows: an infinite wall printed T_thin_wall nan
        (["tc", "--r", "1e-300", "--sigma", "1e10", "--strike", "1"], "s_exit must be finite, got inf"),
        (["validate", "--quad-points", "0"], "--quad-points must be >= 1"),
        (["validate", "--quad-points", "-5"], "--quad-points must be >= 1"),
    ],
)
def test_bad_model_flags_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err


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
            ["wavefunction", "--r", "1e300", "--sigma", "1e-300", "--strike", "1"],
            1,
            "error: s_exit must be > 0, got 0.0",
        ),
    ],
)
def test_underflowing_flags_end_without_traceback(capsys, argv, code, expected):
    got_code, out, err = run_cli(capsys, *argv)
    assert got_code == code
    assert expected in (out if code == 0 else err)


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
        assert f"{vol}: volatility dates must be strictly increasing" in err

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

    @pytest.mark.parametrize("band_tol", ["inf", "nan"])
    def test_unbounded_band_tol_scans_whole_history(self, capsys, tmp_path, band_tol):
        # every window passes the band test, so the widest one is the whole file
        src = tmp_path / "LNKD.csv"
        src.write_text(band_series_csv(123.3, 127.2), encoding="utf-8")
        args = ("scan", "--input", str(src), "--r", "0.03", "--sigma", "0.3")
        code, out, err = run_cli(capsys, *args, "--band-tol", band_tol)
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *args, "--band-tol", "1")[1]

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "scan", "--input", str(tmp_path / "nope.csv"), "--r", "0.03")
        assert code == 1

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
