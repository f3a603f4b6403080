"""One fresh benchmark process: set-up probe or timed run of a workload plan.

    python3 perfbench/worker.py setup PLAN
    python3 perfbench/worker.py run PLAN SECONDS TRACE SPANS_OUT

PLAN is a JSON file with ``warmup`` (one argv) and ``calls`` (the argvs of one
pass). Every call goes through ``rangetunnel.cli.main`` in this process with
stdout and stderr captured. ``setup`` times ``import rangetunnel`` plus the
warm-up call. ``run`` makes the warm-up call untimed, then repeats passes until
SECONDS would be exceeded (at least one pass), sampling the reference loop at
both ends of each pass and between its calls; with TRACE=1 the first half of
the budget runs untraced and the second half traced. The result is one JSON
object on stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

# seconds of calls between two samples of the reference loop within a pass
REFERENCE_EVERY_S = 0.25


def call(argv: list[str]) -> dict:
    """Run one CLI call; wall and CPU time cover only ``cli.main``."""
    from rangetunnel import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed call, not a crashed benchmark
            code = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    stdout = out.getvalue().encode("utf-8")
    return {"exit": code, "wall": wall, "cpu": cpu,
            "sha256": hashlib.sha256(stdout).hexdigest(),
            "stdout": stdout.decode("utf-8") if argv[0] == "validate" else None,
            "stderr": err.getvalue()[-500:]}


def _reference_integrand(x: float) -> float:
    gap = 1.0 / (x * x) - 0.1
    return math.sqrt(gap) if gap > 0.0 else 0.0


def _reference_simpson(a: float, b: float, depth: int) -> float:
    mid = 0.5 * (a + b)
    whole = (b - a) / 6.0 * (_reference_integrand(a) + 4.0 * _reference_integrand(mid)
                              + _reference_integrand(b))
    if depth == 0:
        return whole
    return _reference_simpson(a, mid, depth - 1) + _reference_simpson(mid, b, depth - 1)


def reference() -> dict:
    """Time a fixed mix of the kinds of work the workloads do (about 10 ms).

    A shared host's CPU speed can drift by tens of percent over minutes, and
    not by the same factor for every kind of code. So the loop mixes interpreter
    work, numpy reductions over segments of 20-1000 values (range detection),
    and a recursive pure-Python quadrature (validate). Sampled between calls,
    it measures the speed the calls ran at; the launcher reports times in
    units of it.
    """
    import numpy as np  # not at module level: set-up probes time the first numpy import

    wall, cpu = time.perf_counter(), time.process_time()
    values = np.linspace(1.0, 2.0, 1000)
    acc = 0.0
    table = {}
    for i in range(1500):
        acc += float(values[i % 32 : i % 32 + 16].min()) * math.sqrt(i + 1.0)
        table[i & 63] = acc
    for length in range(20, 1000, 8):
        segment = values[:length]
        acc += int(np.count_nonzero(segment >= float(segment.max()) - 0.1))
    acc += _reference_simpson(1.0, 3.0, 11)
    return {"wall": time.perf_counter() - wall, "cpu": time.process_time() - cpu}


def one_pass(calls: list[list[str]]) -> dict:
    """One pass's call records and reference samples.

    The loop is sampled before the first call, after the last, and after any
    call that ends REFERENCE_EVERY_S or more after the previous sample; each
    sample records how many calls preceded it.
    """
    records, refs = [], [dict(reference(), after=0)]
    last = time.perf_counter()
    for k, argv in enumerate(calls, start=1):
        records.append(call(argv))
        if k == len(calls) or time.perf_counter() - last >= REFERENCE_EVERY_S:
            refs.append(dict(reference(), after=k))
            last = time.perf_counter()
    return {"calls": records, "refs": refs}


def run_passes(calls: list[list[str]], budget: float, tracer=None) -> dict:
    """Repeat the pass while another one of average length fits the budget."""
    passes, layers, spans = [], [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        passes.append(one_pass(calls))
        if tracer is not None:
            layers.append(tracer.summary())
            spans = spans or list(tracer.spans)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > budget:
            return {"passes": passes, "layers": layers, "spans": spans}


def setup(plan: dict) -> dict:
    start = time.perf_counter()
    import rangetunnel  # noqa: F401

    warm = call(plan["warmup"])
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "warmup": warm, "refs": [reference() for _ in range(3)]}


def run(plan: dict, seconds: float, trace: bool, spans_out: Path) -> dict:
    import rangetunnel  # noqa: F401

    warm = call(plan["warmup"])
    budget = seconds / 2 if trace else seconds
    untraced = run_passes(plan["calls"], budget)
    result = {
        "warmup": warm,
        "passes": untraced["passes"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        from tracing import Tracer  # perfbench/ is on sys.path as the script's directory

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(plan["calls"], budget, tracer)
        finally:
            tracer.restore()
        spans_out.write_text(json.dumps(traced["spans"]), encoding="utf-8")
        result["traced_passes"] = traced["passes"]
        result["layers"] = traced["layers"]
    return result


def main(argv: list[str]) -> int:
    mode, plan = argv[0], json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    if mode == "setup":
        result = setup(plan)
    else:
        result = run(plan, float(argv[2]), argv[3] == "1", Path(argv[4]))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
