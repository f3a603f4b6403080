"""The benchmark's own checks: output checking, negative controls and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import oracle
import run
import tracing
import workloads
from worker import call

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def dense_plan(tmp_path_factory):
    return workloads.write_inputs("scan_dense", 7, tmp_path_factory.mktemp("dense"))


def expected(plan: dict, k: int) -> set[str]:
    want = oracle.expected_stdout(plan["history"][k], float(workloads.RATE), workloads.START_DATE)
    return {hashlib.sha256(want).hexdigest()}


def test_same_seed_same_inputs(tmp_path):
    first = workloads.write_inputs("scan_dense", 3, tmp_path / "a")
    again = workloads.write_inputs("scan_dense", 3, tmp_path / "b")
    other = workloads.write_inputs("scan_dense", 4, tmp_path / "c")
    assert first["history"] == again["history"]
    assert first["history"] != other["history"]


def test_scan_output_matches_oracle(dense_plan):
    for k in range(5):
        record = call(dense_plan["calls"][k])
        assert run.call_ok(record, expected(dense_plan, k)), record["stderr"]


def test_perturbed_scan_bytes_fail(dense_plan):
    """Negative control: one changed byte in a scan's stdout is a failed call."""
    record = call(dense_plan["calls"][0])
    stdout = oracle.expected_stdout(dense_plan["history"][0], float(workloads.RATE),
                                    workloads.START_DATE)
    perturbed = stdout.replace(b"0", b"1", 1)
    assert perturbed != stdout
    bad = dict(record, sha256=hashlib.sha256(perturbed).hexdigest())
    assert run.call_ok(record, expected(dense_plan, 0))
    assert not run.call_ok(bad, expected(dense_plan, 0))
    attempted, failed, _ = run.count_failures([{"calls": [record]}, {"calls": [bad]}],
                                           [expected(dense_plan, 0)])
    assert (attempted, failed) == (2, 1)


def test_stored_digests_pin_seed_commit_bytes():
    pinned = run.stored_digests("scan_dense", 0)
    assert pinned is not None and len(pinned) == workloads.DENSE_HISTORIES
    assert run.stored_digests("scan_dense", 10**6) is None


def test_validate_passes_and_denominator_variant_fails():
    """Negative control: the denominator prefactor fails the table checks."""
    good = call(["validate", "--quad-points", "20"])
    assert run.call_ok(good, None), good["stdout"]
    bad = call(["validate", "--quad-points", "20", "--prefactor-variant", "denominator"])
    assert bad["exit"] == 1
    assert not run.call_ok(bad, None)


def test_tracer_counts_repeat_and_bindings_restore(dense_plan):
    from rangetunnel import cli, market

    originals = (cli.main, cli.parse_ohlc_csv, market.detect_ranges)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        summaries = []
        for _ in range(2):
            tracer.reset()
            for argv in dense_plan["calls"][:3]:
                assert call(argv)["exit"] == 0
            summaries.append(tracer.summary())
        roots = [span for span in tracer.spans if span[3] == -1]
    finally:
        tracer.restore()
    assert (cli.main, cli.parse_ohlc_csv, market.detect_ranges) == originals
    first, second = summaries
    counts = [name for name in first if not name.endswith("_s")]
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}
    assert first["cli.main.calls"] == 3 and len(roots) == 3
    assert first["market.parse_vol_csv.calls"] == 3
    assert first["market.historical_volatility.calls"] == 0
    assert first["scan.events"] == first["market.detect_ranges.windows"] > 0
    self_total = sum(value for name, value in second.items() if name.endswith(".self_s"))
    assert self_total == pytest.approx(sum(end - start for _, start, end, _ in roots), rel=1e-6)


def test_adaptive_simpson_evals_counted():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from rangetunnel.numerics import QuadratureConfig, adaptive_simpson

        value = adaptive_simpson(lambda x: x * x, 0.0, 1.0, QuadratureConfig())
    finally:
        tracer.restore()
    assert value == pytest.approx(1.0 / 3.0)
    assert tracer.summary()["numerics.adaptive_simpson.evals"] >= 5


def test_benchmark_json_matches_reported_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
