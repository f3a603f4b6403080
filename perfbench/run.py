"""Seeded benchmark of ``rangetunnel scan`` and ``rangetunnel validate``.

    python3 perfbench/run.py --workload scan_dense --seed 3 --seconds 35 --trace 0

Run from the root of a source checkout. The launcher writes the workload's
inputs from ``--seed`` under ``.perfbench_out/``, measures set-up in several
fresh processes, runs the timed passes in one more fresh process, checks every
call's output, prints each metric by name with its unit, and ends with one
JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``). Gated
times are scaled to a reference host speed by a loop timed between the calls,
which divides out the host's speed drift; the measured times are printed too.
See ``perfbench/README.md`` for the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import workloads
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11
TIME_LIMIT_S = 170.0
VALIDATE_CHECKS = (
    "table-1-reproduction",
    "table-2-reproduction",
    "table-3-reproduction",
    "quadrature-vs-closed-form",
    "segmented-convergence",
    "transform-residual",
    "band-equation-residuals",
)

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "run_cpu_s": "s",
    "call_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# Times are reported at the host's reference speed: a measured time t, taken
# while worker.reference() took r, is reported as t * REFERENCE_S / r. This is
# the loop's typical time on the 2-CPU Xeon host the bounds were set on.
REFERENCE_S = 0.008

# printed and recorded with the result, not gated
INFORMATION = {
    "call_p95_ms": "ms",
    "call_p95_samples": "count",
    "call_p95_beyond": "count",
    "bars_per_s": "bars/s",
    "measured_setup_s": "s",
    "measured_run_s": "s",
    "measured_run_cpu_s": "s",
    "measured_call_p50_ms": "ms",
    "measured_call_p95_ms": "ms",
    "reference_ms": "ms",
}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if Path(".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30, check=False)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def worker(args: list[str], timeout: float) -> dict:
    """Run perfbench/worker.py in a fresh single-threaded process; return its JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], capture_output=True,
                          text=True, env=env, timeout=max(timeout, 1.0), check=False)
    if done.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def stored_digests(workload: str, seed: int) -> list[str] | None:
    """Per-call stdout digests recorded on the seed commit, if this seed has them."""
    stored = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return stored.get(workload, {}).get(str(seed))


def expected_digests(plan: dict, pinned: list[str] | None) -> list[set[str]]:
    """Per scan call, the digests its stdout must match: the oracle's and any stored one."""
    r = float(workloads.RATE)
    expected = []
    for k, history in enumerate(plan["history"]):
        digest = hashlib.sha256(oracle.expected_stdout(history, r, workloads.START_DATE))
        expected.append({digest.hexdigest()} | ({pinned[k]} if pinned else set()))
    return expected


def call_ok(record: dict, expected: set[str] | None) -> bool:
    """A call fails on a non-zero exit, a scan digest mismatch, or a missing validate PASS."""
    if record["exit"] != 0:
        return False
    if expected is not None:
        return expected == {record["sha256"]}
    passed = {line.split()[1] for line in record["stdout"].splitlines()
              if line.startswith("PASS  ")}
    return passed >= set(VALIDATE_CHECKS)


def count_failures(passes: list[dict], expected: list[set[str]] | None) -> tuple[int, int, list]:
    attempted, failed, examples = 0, 0, []
    for one in passes:
        for k, record in enumerate(one["calls"]):
            attempted += 1
            if not call_ok(record, expected[k] if expected else None):
                failed += 1
                examples.append({"call": k, "exit": record["exit"], "stderr": record["stderr"]})
    return attempted, failed, examples[:3]


def at_reference_speed(one: dict, clock: str) -> list[float]:
    """Each call's ``clock`` time, scaled by the mean of the reference samples around it."""
    refs = one["refs"]
    out = []
    for k, record in enumerate(one["calls"]):
        before = max((r for r in refs if r["after"] <= k), key=lambda r: r["after"])
        after = min((r for r in refs if r["after"] > k), key=lambda r: r["after"])
        out.append(record[clock] * REFERENCE_S / (0.5 * (before[clock] + after[clock])))
    return out


def end_to_end_metrics(probes: list[dict], passes: list[dict], peak_rss_mb: float) -> dict:
    """Gated metrics (at reference speed) followed by their measured counterparts."""
    wall = [at_reference_speed(one, "wall") for one in passes]
    calls_ms = [x * 1e3 for calls in wall for x in calls]
    measured_ms = [c["wall"] * 1e3 for one in passes for c in one["calls"]]
    p95 = percentile(calls_ms, 95)
    return {
        "setup_s": statistics.median(
            p["setup_s"] * REFERENCE_S / statistics.median(r["wall"] for r in p["refs"])
            for p in probes),
        "run_s": statistics.median(sum(calls) for calls in wall),
        "run_cpu_s": statistics.median(sum(at_reference_speed(one, "cpu")) for one in passes),
        "call_p50_ms": statistics.median(calls_ms),
        "peak_rss_mb": peak_rss_mb,
        "call_p95_ms": p95,
        "call_p95_samples": len(calls_ms),
        "call_p95_beyond": sum(1 for x in calls_ms if x > p95),
        "measured_setup_s": statistics.median(p["setup_s"] for p in probes),
        "measured_run_s": statistics.median(sum(c["wall"] for c in one["calls"]) for one in passes),
        "measured_run_cpu_s": statistics.median(sum(c["cpu"] for c in one["calls"])
                                                for one in passes),
        "measured_call_p50_ms": statistics.median(measured_ms),
        "measured_call_p95_ms": percentile(measured_ms, 95),
        "reference_ms": statistics.median(r["wall"] for one in passes for r in one["refs"]) * 1e3,
    }


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (exclusive method); needs at least two values."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not Path("src/rangetunnel/__init__.py").is_file():
        print("error: run from the root of a rangetunnel source checkout "
              "(src/rangetunnel not found)", file=sys.stderr)
        return 2

    out_dir = Path(".perfbench_out") / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    plan = workloads.write_inputs(args.workload, args.seed, out_dir)
    plan_path = out_dir / "plan.json"
    plan_path.write_text(json.dumps({"warmup": plan["warmup"], "calls": plan["calls"]}),
                         encoding="utf-8")
    pinned = stored_digests(args.workload, args.seed)
    expected = expected_digests(plan, pinned) if "history" in plan else None

    try:
        probes = [worker(["setup", str(plan_path)], 60.0) for _ in range(SETUP_PROBES)]
        bad = [p["warmup"] for p in probes if p["warmup"]["exit"] != 0]
        if bad:
            raise RuntimeError(f"warm-up call failed: {bad[0]['exit']} {bad[0]['stderr']}")
        timed = worker(["run", str(plan_path), str(args.seconds), str(args.trace),
                        str(out_dir / "spans.json")],
                       TIME_LIMIT_S - (time.perf_counter() - began))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = timed["passes"]
    attempted, failed, examples = count_failures(passes + timed.get("traced_passes", []), expected)
    metrics = end_to_end_metrics(probes, passes, timed["peak_rss_mb"])
    if plan["bars"]:
        metrics["bars_per_s"] = plan["bars"] / metrics["run_s"]
    info = {  # recorded with the result, not gated
        "passes": len(passes),
        "calls_per_pass": len(plan["calls"]),
        "bars_per_pass": plan["bars"],
        "fail_ratio": failed / attempted,
        "failed_examples": examples,
        "digests_pinned": pinned is not None,
        "environment": environment(),
    }

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(info["environment"]))
    for name, value in metrics.items():
        print(f"{name:<24}{value:.6g} {END_TO_END.get(name) or INFORMATION[name]}")
    print(f"{'fail_ratio':<24}{info['fail_ratio']:.6g} ratio ({failed} of {attempted} calls)")

    result_metrics = {name: {"value": metrics[name], "unit": unit}
                      for name, unit in END_TO_END.items()}
    if args.trace:
        layer_runs = timed["layers"]
        traced_s = statistics.median(sum(at_reference_speed(one, "wall"))
                                     for one in timed["traced_passes"])
        layers = {name: statistics.median(run[name] for run in layer_runs)
                  for name in layer_runs[0]}
        layers["trace.overhead_s"] = traced_s - metrics["run_s"]
        result_metrics = {name: {"value": layers[name], "unit": unit}
                          for name, unit in PER_LAYER.items()}
        for name, metric in result_metrics.items():
            print(f"{name:<48}{metric['value']:.6g} {metric['unit']}")

    (out_dir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "end_to_end": metrics, "info": info,
         "metrics": result_metrics}, indent=2), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
