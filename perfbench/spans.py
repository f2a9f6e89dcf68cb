"""Spans around the calls into each cournotlab layer, recorded from outside.

``Tracer.install`` replaces public functions at the module attributes
their callers look up (``dynamics.simulate``, ``cli.simulate``,
``bifurcation.reduced_char_poly``, ...) with wrappers that record a span
(name, start, end, parent span, item, count) in memory; ``uninstall``
puts the originals back.  The benchmark opens one root span per CLI
item.  ``summary`` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import re
import time
from collections import defaultdict

from cournotlab import bifurcation, cli, dynamics, spectral
from cournotlab.errors import DivergenceError

ITEM = "cli.main"

UNITS = {
    "model.simulate.steps": "count",
    "model.simulate.us_per_step": "us",
    "dynamics.largest_lyapunov.iters": "count",
    "dynamics.largest_lyapunov.us_per_iter": "us",
    "dynamics.diagram_cell.ms_per_cell": "ms",
    "dynamics.diagram_cell.useful_step_ratio": "ratio",
    "dynamics.classify_attractor.us_per_call": "us",
    "bifurcation.critical_alpha.ms_per_call": "ms",
    "bifurcation.critical_alpha.polys_per_call": "count",
    "bifurcation.ns_boundary.ms_per_call": "ms",
    "spectral.poly_roots.ms_per_call": "ms",
    "spectral.poly_roots.mean_degree": "count",
    "cli.self_ms_per_item": "ms",
    "cli.us_per_row": "us",
    "cli.rows": "count",
}


def _steps(args, kwargs, result, exc):
    return len(result) - 1


def _lyapunov_iters(args, kwargs, result, exc):
    if result is not None:
        return result.iters
    # a divergent run stops at the step its message names
    match = re.search(r"at step (\d+)", str(exc)) if isinstance(exc, DivergenceError) else None
    return int(match.group(1)) if match else 0


def _degree(args, kwargs, result, exc):
    return args[0].degree


# (span name, modules whose attribute is replaced, attribute, count function)
LAYERS = (
    ("model.simulate", (dynamics, cli), "simulate", _steps),
    ("dynamics.largest_lyapunov", (dynamics,), "largest_lyapunov", _lyapunov_iters),
    ("dynamics.diagram_cell", (dynamics,), "diagram_cell", None),
    ("dynamics.classify_attractor", (dynamics,), "classify_attractor", None),
    ("dynamics.default_initial_history", (dynamics,), "default_initial_history", None),
    ("dynamics.bifurcation_diagram", (dynamics,), "bifurcation_diagram", None),
    ("dynamics.phase_portrait", (dynamics,), "phase_portrait", None),
    ("bifurcation.critical_alpha", (bifurcation,), "critical_alpha", None),
    ("bifurcation.ns_boundary", (bifurcation,), "ns_boundary", None),
    ("bifurcation.flip_boundary", (bifurcation,), "flip_boundary", None),
    ("spectral.reduced_char_poly", (bifurcation, spectral), "reduced_char_poly", None),
    ("spectral.full_char_poly", (spectral,), "full_char_poly", None),
    ("spectral.poly_roots", (spectral,), "poly_roots", _degree),
)


class Tracer:
    """In-memory span recorder.  Each span is a list
    [name, start, end, parent index, item index, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.item = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item, 0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call_item(self, fn, argv):
        """Run one CLI item inside a root span."""
        self.item += 1
        idx = self._open(ITEM)
        try:
            return fn(argv)
        finally:
            self._close(idx)

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            idx = self._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                self._close(idx)
                if count is not None:
                    self.spans[idx][5] = count(args, kwargs, result, exc)

        return traced

    def install(self) -> None:
        for name, modules, attr, count in LAYERS:
            for mod in modules:
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_us,end_us,parent,item,count\n")
            for name, start, end, parent, item, count in self.spans:
                fh.write(f"{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f},{parent},{item},{count}\n")

    def summary(self, rows_per_item: list[int]) -> dict[str, float]:
        """Per-layer metrics; ``rows_per_item`` gives the CSV data rows each
        item wrote.  A layer the workload never calls reads 0."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        children = defaultdict(list)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_time[s[3]] += dur[i]
                children[s[3]].append(i)
        by_name = defaultdict(list)
        for i, s in enumerate(spans):
            by_name[s[0]].append(i)

        def total(name, of=dur):
            return sum(of[i] for i in by_name[name])

        def counted(name):
            return sum(spans[i][5] for i in by_name[name])

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        self_time = [d - c for d, c in zip(dur, child_time)]
        items = by_name[ITEM]
        cells = by_name["dynamics.diagram_cell"]
        useful = integrated = 0
        for c in cells:
            sim = sum(spans[k][5] for k in children[c] if spans[k][0] == "model.simulate")
            lyap = sum(spans[k][5] for k in children[c] if spans[k][0] == "dynamics.largest_lyapunov")
            useful += max(sim, lyap)
            integrated += sim + lyap
        crit = by_name["bifurcation.critical_alpha"]
        polys_in_crit = sum(
            1 for k in crit for j in children[k] if spans[j][0] == "spectral.reduced_char_poly"
        )
        csv_items = [i for i, rows in zip(items, rows_per_item) if rows]
        rows = sum(rows_per_item)
        return {
            "model.simulate.steps": per(counted("model.simulate"), len(items)),
            "model.simulate.us_per_step": per(
                total("model.simulate", self_time), counted("model.simulate"), 1e6),
            "dynamics.largest_lyapunov.iters": per(counted("dynamics.largest_lyapunov"), len(items)),
            "dynamics.largest_lyapunov.us_per_iter": per(
                total("dynamics.largest_lyapunov", self_time),
                counted("dynamics.largest_lyapunov"), 1e6),
            "dynamics.diagram_cell.ms_per_cell": per(total("dynamics.diagram_cell"), len(cells), 1e3),
            "dynamics.diagram_cell.useful_step_ratio": per(useful, integrated),
            "dynamics.classify_attractor.us_per_call": per(
                total("dynamics.classify_attractor"), len(by_name["dynamics.classify_attractor"]), 1e6),
            "bifurcation.critical_alpha.ms_per_call": per(total("bifurcation.critical_alpha"), len(crit), 1e3),
            "bifurcation.critical_alpha.polys_per_call": per(polys_in_crit, len(crit)),
            "bifurcation.ns_boundary.ms_per_call": per(
                total("bifurcation.ns_boundary"), len(by_name["bifurcation.ns_boundary"]), 1e3),
            "spectral.poly_roots.ms_per_call": per(
                total("spectral.poly_roots"), len(by_name["spectral.poly_roots"]), 1e3),
            "spectral.poly_roots.mean_degree": per(
                counted("spectral.poly_roots"), len(by_name["spectral.poly_roots"])),
            "cli.self_ms_per_item": per(sum(self_time[i] for i in items), len(items), 1e3),
            "cli.us_per_row": per(sum(self_time[i] for i in csv_items), rows, 1e6),
            "cli.rows": per(rows, len(items)),
        }
