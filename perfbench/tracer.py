"""Spans around the calls into each layer of the package, from outside it.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``maxentcast`` module that holds it, so calls between modules pass
through the wrapper too.  Each call records a span (name, start, end,
parent) in memory and adds the layer's work counts.  A layer's time is the
self time of its spans: their duration minus the part their child spans
cover.  ``Tracer.remove`` puts the original functions back.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from statistics import median

from maxentcast.detect import Regime


def _arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _filled(args, kwargs, result):
    series = _arg(args, kwargs, "series")
    return {"ingest.rows_filled": len(result) - len(series) + series.n_missing}


def _labels(args, kwargs, result):
    return {"detect.windows_labelled": len(result),
            "detect.windows_flagged": sum(lab.regime is Regime.PREDICTABLE
                                          for lab in result)}


def _written(args, kwargs, result):
    return {"report.bytes_written": os.path.getsize(_arg(args, kwargs, "path"))}


def _points(result):
    return len(getattr(result, "series", result))


# (module, function, metric that takes its self time, counts of its work)
POINTS = (
    ("ingest", "load_csv", "ingest.load_s",
     lambda a, k, r: {"ingest.rows_read": len(r)}),
    ("ingest", "clean", "ingest.clean_s", _filled),
    ("design", "embed", "design.embed_s", None),
    ("design", "feature_matrix", "design.features_s",
     lambda a, k, r: {"design.feature_mb": r.size * r.itemsize / 2**20}),
    ("model", "fit", "model.fit_s", lambda a, k, r: {"model.fits": 1}),
    ("model", "forecast_series", "model.forecast_s",
     lambda a, k, r: {"model.points_forecast": len(r)}),
    ("evaluate", "run_protocol", "evaluate.protocol_s", None),
    ("evaluate", "error_by_period", "evaluate.score_s",
     lambda a, k, r: {"evaluate.windows_scored": len(r)}),
    ("detect", "classify", "detect.classify_s", _labels),
    ("detect", "changepoints", "detect.classify_s", None),
    ("report", "build_payload", "report.payload_s", None),
    ("report", "build_report_doc", "report.payload_s", None),
    ("report", "dumps_canonical", "report.payload_s", None),
    ("report", "forecast_csv_text", "report.csv_format_s", None),
    ("report", "summary_csv_text", "report.csv_format_s", None),
    ("report", "write_text_atomic", "report.write_s", _written),
    ("synth", "generate", "synth.generate_s",
     lambda a, k, r: {"synth.points_generated": _points(r)}),
    ("synth", "gen_random_walk", "synth.generate_s",
     lambda a, k, r: {"synth.points_generated": _points(r)}),
    ("synth", "gen_spliced", "synth.generate_s",
     lambda a, k, r: {"synth.points_generated": _points(r)}),
)

# Every per-layer metric the traced run reports, in report order.
METRICS = {
    "ingest.load_s": "s", "ingest.rows_read": "count",
    "ingest.clean_s": "s", "ingest.rows_filled": "count",
    "design.embed_s": "s", "design.features_s": "s", "design.feature_mb": "MB",
    "model.fit_s": "s", "model.fits": "count",
    "model.forecast_s": "s", "model.points_forecast": "count",
    "evaluate.protocol_s": "s", "evaluate.score_s": "s",
    "evaluate.windows_scored": "count",
    "detect.classify_s": "s", "detect.windows_labelled": "count",
    "detect.windows_flagged": "count",
    "report.payload_s": "s", "report.csv_format_s": "s", "report.write_s": "s",
    "report.bytes_written": "count",
    "synth.generate_s": "s", "synth.points_generated": "count",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, str, float, float, int | None]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[tuple[int, str]] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "maxentcast"
                                         or name.startswith("maxentcast."))]
        for module, name, metric, counter in POINTS:
            original = getattr(sys.modules[f"maxentcast.{module}"], name)
            wrapper = self._wrap(original, f"{module}.{name}", metric, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def remove(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, fn, name: str, metric: str, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            # A call nested in a call of the same layer (generate calling
            # gen_spliced) is that call's work: count it once.
            outer = all(m != metric for _, m in stack)
            sid = len(spans)
            spans.append(None)
            stack.append((sid, metric))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, metric, start, end, parent)
            if counter is not None and outer:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def snapshot(self) -> dict:
        return {"spans": list(self.spans), "counts": dict(self.counts)}


def layer_values(snapshot: dict) -> dict[str, float]:
    """Self time per layer metric plus the work counts, from one snapshot."""
    spans = snapshot["spans"]
    covered = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out = {k: 0.0 for k in METRICS}
    for i, (_, metric, start, end, _) in enumerate(spans):
        out[metric] += (end - start) - covered[i]
    for key, value in snapshot["counts"].items():
        out[key] += value
    return out


def median_values(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {k: median(r[k] for r in per_round) for k in per_round[0]}
