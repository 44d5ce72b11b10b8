"""Spans around calls into snspdkit's public functions, recorded from outside.

Nothing inside snspdkit is instrumented. :meth:`Tracer.install` replaces each
traced function, wherever a ``snspdkit`` module holds a reference to it, with
a wrapper that records a span (name, start, end, parent span, pass id) and
the counts its layer needs. The sparse LU that ARPACK's shift-invert path
builds is reached through SciPy's ``splu``; the wrapper returns a proxy that
times and counts every back-solve.

Counting work that the traced call itself does not do (L/U nonzeros, mode
residuals, file sizes) runs in a ``trace.measure`` span after the call
returns. Layer times subtract those spans, so measuring never shows up as
layer work; it shows up only in ``trace.overhead_s``.
"""

import functools
import os
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

MEASURE = "trace.measure"
PASS = "bench.pass"
SETUP = "bench.setup"


class Tracer:
    """In-memory span store. One trace id per benchmark pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.trace_id: int | None = None

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "trace": self.trace_id, "start": time.perf_counter(), "end": None,
               "attrs": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, measure=None):
        """``fn`` inside a span; ``measure(attrs, args, kwargs, result)``
        records counts afterwards, outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if measure is not None:
                with self.span(MEASURE):
                    measure(rec["attrs"], args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function of the imported snspdkit modules."""
        import scipy.sparse.linalg  # noqa: F401  (loads the ARPACK module)
        import snspdkit.cli  # noqa: F401  (imports every layer)
        from snspdkit import config, detector, geometry, io_utils, modes, pipeline, sweep

        targets = [
            (config, "load_project_config", "config.load_project_config", None),
            (geometry, "rasterize", "geometry.rasterize", _measure_grid),
            (modes, "assemble_operator", "modes.assemble_operator", _measure_operator),
            (modes, "solve_modes", "modes.solve_modes", _measure_modes),
            (modes, "solve_cross_section", "modes.solve_cross_section", None),
            (sweep, "run_sweep", "sweep.run_sweep", _measure_sweep),
            (detector, "simulate_counting", "detector.simulate_counting", _measure_record),
            (detector, "estimate_sqe_from_sweep", "detector.estimate_sqe_from_sweep", None),
            (io_utils, "write_csv", "io_utils.write_csv", _measure_file),
            (io_utils, "write_json", "io_utils.write_json", _measure_file),
            (io_utils, "write_matrix", "io_utils.write_matrix", _measure_file),
            (io_utils, "export_grid", "io_utils.export_grid", None),
            (io_utils, "export_mode_fields", "io_utils.export_mode_fields", None),
            (io_utils, "export_count_record", "io_utils.export_count_record", None),
            (pipeline, "run_reproduce", "pipeline.run_reproduce", _measure_manifest),
            (pipeline, "write_manifest", "pipeline.write_manifest", None),
            (pipeline, "verify_manifest", "pipeline.verify_manifest", None),
        ]
        holders = [m for n, m in sys.modules.items() if n == "snspdkit" or n.startswith("snspdkit.")]
        for module, attr, name, measure in targets:
            original = getattr(module, attr)
            traced = self.wrap(name, original, measure)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)

        arpack = sys.modules["scipy.sparse.linalg._eigen.arpack.arpack"]
        arpack.splu = self._traced_splu(arpack.splu)

    def _traced_splu(self, splu):
        tracer = self

        class CountingLU:
            """SuperLU stand-in: each solve is one operator application."""

            def __init__(self, lu):
                self._lu = lu

            def solve(self, *args, **kwargs):
                with tracer.span("modes.backsolve"):
                    return self._lu.solve(*args, **kwargs)

            def __getattr__(self, key):
                return getattr(self._lu, key)

        def lu_fill(attrs, args, kwargs, lu):
            attrs["lu_fill"] = int(lu.L.nnz + lu.U.nnz)

        return self.wrap("modes.lu_factor", lambda *a, **k: CountingLU(splu(*a, **k)), lu_fill)

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers: each summed over one pass, median over passes."""
        self._index()
        passes = sorted({s["trace"] for s in self.spans if s["name"] == PASS})
        per_pass = [self._pass_metrics(k) for k in passes]
        out = {}
        for key in per_pass[0]:
            values = [p[key] for p in per_pass]
            # a count stays a count: the lower median is one of the values
            exact = all(isinstance(v, int) for v in values)
            out[key] = statistics.median_low(values) if exact else statistics.median(values)
        # the first config load is the default config file, as in setup_s
        loads = [self._net(s) for s in self.spans if s["name"] == "config.load_project_config"]
        out["config.load_s"] = loads[0] if loads else 0.0
        return out

    def pass_counts(self) -> list[dict[str, int]]:
        """Exact counts of each pass, for the repeat check."""
        keys = ("modes.unknowns", "modes.nnz", "modes.lu_fill")
        self._index()
        passes = sorted({s["trace"] for s in self.spans if s["name"] == PASS})
        return [{k: int(self._pass_metrics(p)[k]) for k in keys} for p in passes]

    def _index(self) -> None:
        """Child lists and the measuring time beneath each span."""
        self._kids = {s["id"]: [] for s in self.spans}
        self._measured = {s["id"]: 0.0 for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                self._kids[s["parent"]].append(s)
            if s["name"] == MEASURE:
                p = s["parent"]
                while p is not None:
                    self._measured[p] += s["end"] - s["start"]
                    p = self.spans[p]["parent"]

    def _net(self, s) -> float:
        """Span duration minus the measuring done beneath it."""
        return s["end"] - s["start"] - self._measured[s["id"]]

    def _self(self, s) -> float:
        """Net duration minus the net duration of traced child spans."""
        kids = self._kids[s["id"]]
        return self._net(s) - sum(self._net(c) for c in kids if c["name"] != MEASURE)

    def _pass_metrics(self, trace_id) -> dict[str, float]:
        spans = [s for s in self.spans if s["trace"] == trace_id]

        def named(name):
            return [s for s in spans if s["name"] == name]

        def total(name):
            return sum(self._net(s) for s in named(name))

        def attr_sum(name, key):
            return sum(s["attrs"].get(key, 0) for s in named(name))

        solves = named("modes.solve_modes")
        residuals = [s["attrs"]["worst_residual"] for s in solves if "worst_residual" in s["attrs"]]
        headroom = [s["attrs"]["residual_headroom"] for s in solves if "residual_headroom" in s["attrs"]]
        sweeps = named("sweep.run_sweep")
        points = attr_sum("sweep.run_sweep", "points")
        writers = [s for s in spans if s["name"] in ("io_utils.write_csv", "io_utils.write_json",
                                                     "io_utils.write_matrix")]
        io_top = [s for s in spans if s["name"].startswith("io_utils.")
                  and not (s["parent"] is not None
                           and self.spans[s["parent"]]["name"].startswith("io_utils."))]
        pipe = named("pipeline.run_reproduce") + named("pipeline.write_manifest")
        arrivals = attr_sum("detector.simulate_counting", "expected_arrivals")
        events = attr_sum("detector.simulate_counting", "events")

        return {
            "geometry.rasterize_s": total("geometry.rasterize"),
            "geometry.cells": attr_sum("geometry.rasterize", "cells"),
            "modes.assemble_s": total("modes.assemble_operator"),
            "modes.unknowns": attr_sum("modes.assemble_operator", "unknowns"),
            "modes.nnz": attr_sum("modes.assemble_operator", "nnz"),
            "modes.lu_factor_s": total("modes.lu_factor"),
            "modes.lu_fill": attr_sum("modes.lu_factor", "lu_fill"),
            "modes.opinv_calls": len(named("modes.backsolve")),
            "modes.backsolve_s": total("modes.backsolve"),
            "modes.solve_modes_s": total("modes.solve_modes"),
            "modes.arnoldi_self_s": sum(self._self(s) for s in solves),
            "modes.guided_modes": attr_sum("modes.solve_modes", "guided_modes"),
            "modes.worst_residual": max(residuals, default=0.0),
            "modes.residual_headroom": min(headroom, default=0.0),
            "sweep.points": points,
            "sweep.points_ok": attr_sum("sweep.run_sweep", "points_ok"),
            "sweep.points_failed": attr_sum("sweep.run_sweep", "points_failed"),
            "sweep.feasible_ratio": attr_sum("sweep.run_sweep", "feasible") / points if points else 0.0,
            "sweep.point_s": sum(self._net(s) for s in sweeps) / points if points else 0.0,
            "sweep.self_s": sum(self._self(s) for s in sweeps),
            "detector.simulate_s": total("detector.simulate_counting"),
            "detector.events": events,
            "detector.kept_ratio": events / arrivals if arrivals else 0.0,
            "io_utils.write_s": sum(self._net(s) for s in io_top),
            "io_utils.bytes_written": sum(s["attrs"].get("bytes", 0) for s in writers),
            "io_utils.files_written": len(writers),
            "pipeline.run_s": sum(self._net(s) for s in pipe),
            "pipeline.self_s": sum(self._self(s) for s in pipe),
            "pipeline.stages_passed": attr_sum("pipeline.run_reproduce", "stages_passed"),
        }


def relative_residual(matrix, beta_sq, hx, hy) -> float:
    """||A v - beta^2 v|| / (|beta^2| ||v||) for v = [Hx; Hy]."""
    v = np.concatenate([hx.ravel(), hy.ravel()])
    r = matrix @ v - beta_sq * v
    return float(np.linalg.norm(r) / (abs(beta_sq) * np.linalg.norm(v)))


def _measure_grid(attrs, args, kwargs, grid):
    attrs["cells"] = int(grid.eps.size)


def _measure_operator(attrs, args, kwargs, op):
    attrs["unknowns"] = int(op.matrix.shape[0])
    attrs["nnz"] = int(op.matrix.nnz)


def _measure_modes(attrs, args, kwargs, modes):
    from snspdkit.modes import SolverConfig

    op = args[0]
    config = (args[1] if len(args) > 1 else kwargs.get("config")) or SolverConfig()
    attrs["guided_modes"] = len(modes)
    if modes:
        worst = max(relative_residual(op.matrix, m.beta ** 2, m.hx, m.hy) for m in modes)
        attrs["worst_residual"] = worst
        attrs["residual_headroom"] = config.tolerance / worst


def _measure_sweep(attrs, args, kwargs, result):
    attrs["points"] = len(result.points)
    attrs["points_ok"] = sum(p.status == "ok" for p in result.points)
    attrs["points_failed"] = sum(p.status != "ok" for p in result.points)
    attrs["feasible"] = sum(bool(p.feasible) for p in result.points)


def _measure_record(attrs, args, kwargs, record):
    meta = record.metadata
    attrs["events"] = len(record)
    attrs["expected_arrivals"] = (meta["photon_rate_hz"] + meta["dark_rate_hz"]) * meta["duration_s"]


def _measure_file(attrs, args, kwargs, result):
    attrs["bytes"] = os.path.getsize(args[0])


def _measure_manifest(attrs, args, kwargs, manifest):
    attrs["stages_passed"] = sum(s.status == "pass" for s in manifest.stages)
