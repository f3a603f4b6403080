"""Outside-in tracing of the rangetunnel layers for the traced benchmark run.

``Tracer.install`` replaces each traced function with a wrapper in every
``rangetunnel`` module that binds it, because ``from .x import y`` copies the
binding into the calling module; ``Tracer.restore`` puts every original back.
Each wrapped call appends a span (name, start, end, parent) to an in-memory
list; counts of work products are taken from the return values at the same
boundary. Self time is a span's duration minus the durations of its direct
child spans, so time in untraced helpers stays with the nearest traced caller.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# layer module -> traced functions
TRACED = {
    "cli": ["main"],
    "market": ["parse_ohlc_csv", "parse_vol_csv", "historical_volatility",
               "detect_ranges", "detect_vol_fall"],
    "scan": ["scan", "report_csv", "report_json"],
    "barrier": ["barrier_geometry", "transmission_exact", "transmission_segmented",
                "transmission_thin_wall"],
    "numerics": ["adaptive_simpson", "quad_barrier_integral", "merton_ode_residual",
                 "schrodinger_form_residual"],
    "wavefunction": ["w_from_psi"],
    "tables": ["reproduce_table"],
    "validate": ["check_tables", "check_quadrature_sweep", "check_segmented_convergence",
                 "check_transform_residual", "check_band_equation_residuals"],
}

SPAN_NAMES = [f"{module}.{name}" for module, names in TRACED.items() for name in names]

# span name -> (count metric, measure of the return value)
RESULT_COUNTS = {
    "market.parse_ohlc_csv": ("market.parse_ohlc_csv.bars", len),
    "market.historical_volatility": ("market.historical_volatility.estimates", len),
    "market.detect_ranges": ("market.detect_ranges.windows", len),
    "market.detect_vol_fall": ("market.detect_vol_fall.events", len),
    "scan.scan": ("scan.events", len),
    "scan.report_csv": ("scan.report_bytes", lambda text: len(text.encode("utf-8"))),
    "scan.report_json": ("scan.report_bytes", lambda text: len(text.encode("utf-8"))),
    "barrier.barrier_geometry": ("barrier.no_barrier", lambda geo: geo.regime.value == "no_barrier"),
}

COUNT_NAMES = sorted({metric for metric, _ in RESULT_COUNTS.values()} - {"barrier.no_barrier"}) + [
    "numerics.adaptive_simpson.evals"
]


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, counts, stack = self.spans, self.counts, self._stack
        measure = RESULT_COUNTS.get(name)
        counts_evals = name == "numerics.adaptive_simpson"

        def traced(*args, **kwargs):
            if counts_evals:
                integrand = args[0]

                def counted(x):
                    counts["numerics.adaptive_simpson.evals"] += 1
                    return integrand(x)

                args = (counted,) + args[1:]
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[f"{name}.errors"] += 1
                raise
            finally:
                spans[index][1:3] = start, time.perf_counter()
                stack.pop()
            if measure is not None:
                counts[measure[0]] += measure[1](result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "rangetunnel"]
        for layer, names in TRACED.items():
            source = importlib.import_module(f"rangetunnel.{layer}")
            for name in names:
                original = getattr(source, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Per-layer metrics of the spans and counts recorded since the last reset."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.self_s"] = 0.0
            metrics[f"{name}.calls"] = 0
            metrics[f"{name}.errors"] = self.counts[f"{name}.errors"]
        for (name, start, end, _), children in zip(self.spans, child_time):
            metrics[f"{name}.self_s"] += end - start - children
            metrics[f"{name}.calls"] += 1
        for name in COUNT_NAMES:
            metrics[name] = self.counts[name]
        geometries = metrics["barrier.barrier_geometry.calls"]
        metrics["barrier.no_barrier_ratio"] = (
            self.counts["barrier.no_barrier"] / geometries if geometries else 0.0
        )
        return metrics


def _per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.self_s": "s", f"{name}.calls": "count", f"{name}.errors": "count"})
    units.update({name: "bytes" if name.endswith("_bytes") else "count" for name in COUNT_NAMES})
    units["barrier.no_barrier_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


# every per-layer metric a traced run reports, with its unit
PER_LAYER = _per_layer_units()
