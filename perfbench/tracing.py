"""Spans recorded from the benchmark's side around calls into matterslit.

``Tracer.install`` swaps each traced function for a wrapper in every module
namespace its callers look it up in, so the program itself is unchanged.  A
span keeps its name, the item it belongs to, its duration and the time its
traced children took, so a layer's self time is duration minus child time.
Per-layer metrics are medians over spans, or over items where one item
makes several calls whose sum is what an optimisation would move.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

from matterslit import cli, doubleslit, faddeeva

# where |z| leaves the series and the rational approximation in faddeeva_w
_SERIES_RADIUS, _RATIONAL_RADIUS = 3.0, 8.0


class Span:
    __slots__ = ("name", "item", "duration", "child_time", "attrs")

    def __init__(self, name, item):
        self.name, self.item = name, item
        self.duration = self.child_time = 0.0
        self.attrs = {}

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _window_attrs(args, result) -> dict:
    path, config = args[0], args[1]
    if config.domain == "t_domain":
        kind = "t"
    else:
        kind = "full_u" if config.window >= path.tau else "u"
    return {"kind": kind, "nodes": result[1].nodes}


def _pattern_attrs(args, result) -> dict:
    return {"method": getattr(args[3], "value", args[3])}


def _w_attrs(args, result) -> dict:
    radius = abs(complex(args[0]))
    if radius <= _SERIES_RADIUS:
        return {"region": "series"}
    return {"region": "rational" if radius <= _RATIONAL_RADIUS else "cf"}


# (module, attribute, span name, attrs); a function imported by name into
# another module is wrapped there too
_TRACED = [
    (cli, "main", "cli.main", None),
    (cli, "run_pattern", "cli.run_pattern", None),
    (cli, "run_converge", "cli.run_converge", None),
    (cli, "run_phasediff", "cli.run_phasediff", None),
    (cli, "pattern", "doubleslit.pattern", _pattern_attrs),
    (cli, "discrepancy_report", "doubleslit.discrepancy_report", None),
    (cli, "evaluate_window", "timesum.evaluate_window", _window_attrs),
    (doubleslit, "evaluate_window", "timesum.evaluate_window", _window_attrs),
    (faddeeva, "faddeeva_w", "faddeeva.faddeeva_w", _w_attrs),
    (faddeeva, "timesum_closed_form", "faddeeva.timesum_closed_form", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.values: dict[str, list[float]] = defaultdict(list)
        self.item = None
        self._stack: list[Span] = []

    def record(self, name: str, value: float) -> None:
        """A measurement made outside any span, such as an oracle's error."""
        self.values[name].append(value)

    def install(self) -> None:
        for module, attr, name, attrs in _TRACED:
            setattr(module, attr, self._wrap(getattr(module, attr), name, attrs))

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.item)
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1].child_time += span.duration
                self.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric, by the names BENCHMARK.json gives them."""
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
    windows = defaultdict(list)
    for span in by_name["timesum.evaluate_window"]:
        windows[span.attrs.get("kind")].append(span)
    t_windows = windows["t"]
    patterns = by_name["doubleslit.pattern"]
    w_calls = defaultdict(list)
    for span in by_name["faddeeva.faddeeva_w"]:
        w_calls[span.attrs["region"]].append(span.duration)
    main_self = defaultdict(float)  # per item: config load and serialization
    for span in by_name["cli.main"]:
        main_self[span.item] += span.self_time

    t_time = sum(s.duration for s in t_windows)
    metrics = {
        "timesum.window_t_ms": _median([s.duration for s in t_windows], 1e3),
        "timesum.window_t_nodes": _median([s.attrs["nodes"] for s in t_windows]),
        "timesum.window_t_mnodes_per_s": (
            sum(s.attrs["nodes"] for s in t_windows) / t_time / 1e6 if t_time else 0.0
        ),
        "timesum.window_u_ms": _median([s.duration for s in windows["u"]], 1e3),
        "timesum.window_u_nodes": _median([s.attrs["nodes"] for s in windows["u"]]),
        "timesum.full_u_ms": _median([s.duration for s in windows["full_u"]], 1e3),
        "timesum.full_u_nodes": _median([s.attrs["nodes"] for s in windows["full_u"]]),
        "timesum.full_rel_err": _median(tracer.values["timesum.full_rel_err"]),
        "doubleslit.pattern_time_summed_self_ms": _median(
            [s.self_time for s in patterns if s.attrs["method"] == "time_summed"], 1e3
        ),
        "doubleslit.pattern_closed_ms": _median(
            [s.duration for s in patterns if s.attrs["method"] != "time_summed"], 1e3
        ),
        "doubleslit.discrepancy_report_us": _median(
            [s.duration for s in by_name["doubleslit.discrepancy_report"]], 1e6
        ),
        "faddeeva.w_series_us": _median(w_calls["series"], 1e6),
        "faddeeva.w_rational_us": _median(w_calls["rational"], 1e6),
        "faddeeva.w_cf_us": _median(w_calls["cf"], 1e6),
        "faddeeva.closed_form_us": _median(
            [s.duration for s in by_name["faddeeva.timesum_closed_form"]], 1e6
        ),
        "cli.run_pattern_self_ms": _median(
            [s.self_time for s in by_name["cli.run_pattern"]], 1e3
        ),
        "cli.run_converge_self_ms": _median(
            [s.self_time for s in by_name["cli.run_converge"]], 1e3
        ),
        "cli.run_phasediff_self_ms": _median(
            [s.self_time for s in by_name["cli.run_phasediff"]], 1e3
        ),
        "cli.write_s": _median(list(main_self.values())),
        "cli.output_mb": _median(tracer.values["cli.output_mb"]),
    }
    for name, value in metrics.items():
        if value == 0.0:
            print(f"perfbench: no spans for {name}", file=sys.stderr)
    return metrics
