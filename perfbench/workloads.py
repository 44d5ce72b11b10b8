"""One workload of the snspdkit benchmark, run in a fresh interpreter.

``run.py`` starts this file once per measurement, from the repository root
and with ``src`` on ``PYTHONPATH``::

    python3 perfbench/workloads.py --workload reference-solve --seed 1 --seconds 10 [--trace] [--smoke]

A single caller runs passes of the workload back to back (closed loop, no
extra threads) until ``--seconds`` have elapsed, checks every pass's outputs
outside the timed region, and prints one JSON line with the results of each
pass. ``--trace`` records per-layer spans (see ``tracer.py``); ``--smoke``
runs one pass on a coarse grid.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

# Calls go through module attributes (modes.solve_modes, ...), so that the
# tracer's wrappers are the functions called.
from snspdkit import config, detector, errors, geometry, io_utils, modes, pipeline, sweep
from tracer import PASS, SETUP, Tracer, relative_residual

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _close(a: complex, b: complex, rel_tol: float) -> bool:
    return abs(a - b) <= rel_tol * abs(b)


class Workload:
    """One pass is ``run(pass_dir)``, which is timed. ``check(output)`` runs
    untimed and returns ``(problems, extras)``: each problem is (index of the
    failed operation, or None for the whole pass, message); extras are
    figures for the report."""

    ops = 1            # operations per pass
    min_passes = 1
    min_seconds = 0.0


class ReferenceSolve(Workload):
    """The shipped detector geometry: rasterize -> assemble -> solve -> TE."""

    def __init__(self, ctx):
        cfg = ctx.config
        self.cs, self.policy, self.solver = cfg.cross_section, ctx.policy, cfg.solver
        self.band = pipeline.band(cfg.targets["alpha_per_cm"])
        self.n_eff = complex(*ctx.expected["reference_n_eff"])
        self.rel_tol = ctx.rel_tol

    def run(self, pass_dir):
        grid = geometry.rasterize(self.cs, self.policy)
        op = modes.assemble_operator(grid)
        found = modes.solve_modes(op, self.solver)
        return op, found, modes.select_mode(found, "TE")

    def check(self, out):
        op, found, te = out
        if te is None:
            return [(0, "no TE mode")], {}
        problems = []
        alpha = modes.modal_absorption(te)
        if not self.band[0] <= alpha <= self.band[1]:
            problems.append((0, f"alpha {alpha:.6g}/cm outside {self.band}"))
        if not _close(te.n_eff, self.n_eff, self.rel_tol):
            problems.append((0, f"n_eff {te.n_eff!r} differs from recorded {self.n_eff!r}"))
        worst = max(relative_residual(op.matrix, m.beta ** 2, m.hx, m.hy) for m in found)
        headroom = self.solver.tolerance / worst
        if headroom < 1.0:
            problems.append((0, f"eigen-residual {worst:.3e} above tolerance"))
        return problems, {"n_eff": repr(te.n_eff), "residual_headroom": headroom}


class OffsetSweep(Workload):
    """Config sweep 0 (array_offset_nm 0..400 step 100, TE), serial path."""

    def __init__(self, ctx):
        cfg = ctx.config
        self.cs, self.policy, self.solver = cfg.cross_section, ctx.policy, cfg.solver
        self.spec = cfg.sweeps[0]
        self.n_effs = [complex(*v) for v in ctx.expected["sweep_n_eff"]]
        self.feasible = ctx.expected["sweep_feasible"]
        self.ops = len(self.feasible)      # sweep points
        self.rel_tol = ctx.rel_tol

    def run(self, pass_dir):
        return sweep.run_sweep(self.cs, self.spec, self.policy, self.solver)

    def check(self, result):
        if len(result.points) != self.ops:
            return [(None, f"{len(result.points)} points, expected {self.ops}")], {}
        problems = []
        for i, (p, n_eff, feasible) in enumerate(zip(result.points, self.n_effs, self.feasible)):
            if p.status != "ok":
                problems.append((i, f"point {i}: status {p.status}"))
            elif p.feasible != feasible:
                problems.append((i, f"point {i}: feasible={p.feasible}, expected {feasible}"))
            elif not _close(p.n_eff, n_eff, self.rel_tol):
                problems.append((i, f"point {i}: n_eff {p.n_eff!r} differs from recorded {n_eff!r}"))
        return problems, {}


class ReproducePaper(Workload):
    """``reproduce-paper`` on the default config into a fresh directory."""

    min_passes = 2     # the data files are compared between passes

    def __init__(self, ctx):
        raw = json.loads(Path(config.default_config_path()).read_text(encoding="utf-8"))
        raw["seed"] = ctx.seed
        if ctx.smoke:
            policy = raw["solver"]["policy"]
            policy["base_nm"] *= 2.0    # ResolutionPolicy.bulk_refined(0.5)
            policy["far_nm"] *= 2.0
        self.config = config.load_project_config(raw)
        self.ops = len(pipeline.STAGES)   # pipeline stages
        self.reference = None

    def run(self, pass_dir):
        out = io_utils.OutputDir(pass_dir)
        manifest = pipeline.run_reproduce(self.config, out)
        pipeline.write_manifest(manifest, self.config, out)
        return out, manifest

    def check(self, result):
        out, manifest = result
        problems = [(i, f"stage {s.name}: {s.status}")
                    for i, s in enumerate(manifest.stages) if s.status != "pass"]
        if not manifest.all_pass:
            problems.append((None, "all_pass is false"))
        try:
            pipeline.verify_manifest(manifest, out, extra=["summary.csv", "summary.json"])
        except errors.SnspdKitError as exc:
            problems.append((None, f"verify_manifest: {exc}"))
        # summary.json carries timestamps; the CSV/TXT data files must not change
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.base.iterdir()) if p.suffix in (".csv", ".txt")}
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(set(digests.items()) ^ set(self.reference.items()))
            problems.append((None, f"data files differ from the first pass: {changed[:3]}"))
        return problems, {}


class CountingLadder(Workload):
    """The config's power ladder: simulate_counting + export_count_record per
    power, then SQE recovery with estimate_sqe_from_sweep."""

    # Python-level work swings most with the load on a shared machine; a
    # ~2 s pass needs a median over about ten passes to be steady
    min_seconds = 20.0

    def __init__(self, ctx):
        cfg = ctx.config
        self.cfg = cfg
        self.powers = list(cfg.counting.powers_w)
        self.ops = len(self.powers)         # counting records
        a_ref = cfg.targets["absorptance_51um"]["value"]
        self.budget = detector.EfficiencyBudget(
            cfg.targets["coupling"]["value"], a_ref,
            detector.invert_internal(cfg.targets["dqe"]["value"], a_ref))
        # the benchmark seed drives the counting RNG seeds
        self.seeds = [int(s) for s in np.random.SeedSequence(ctx.seed).generate_state(self.ops)]
        self.tol = cfg.targets["sqe_slope_rel_tol"]

    def run(self, pass_dir):
        cfg = self.cfg
        out = io_utils.OutputDir(pass_dir)
        wavelength = cfg.cross_section.wavelength_m
        records, files = [], []
        for k, (power, seed) in enumerate(zip(self.powers, self.seeds)):
            src = detector.SourceSpec(power, wavelength, cfg.counting.jitter_sigma_s)
            rec = detector.simulate_counting(cfg.detector, self.budget, src, cfg.counting.duration_s, seed)
            files.append(io_utils.export_count_record(rec, out, f"counts_{k}", cfg.digest)[0])
            records.append(rec)
        sqe, _slope, _intercept = detector.estimate_sqe_from_sweep(self.powers, records, wavelength)
        return out, records, files, sqe

    def check(self, result):
        out, records, files, sqe = result
        problems = []
        for k, (rec, name) in enumerate(zip(records, files)):
            rows = (out.base / name).read_bytes().count(b"\n") - 2   # header + column line
            if rows != len(rec):
                problems.append((k, f"{name}: {rows} rows for {len(rec)} events"))
        ratio = sqe / self.budget.sqe
        if abs(ratio - 1.0) > self.tol:
            problems.append((None, f"recovered SQE / input = {ratio:.5f}, tolerance {self.tol}"))
        return problems, {"events": sum(len(r) for r in records)}


WORKLOADS = {
    "reference-solve": ReferenceSolve,
    "offset-sweep": OffsetSweep,
    "reproduce-paper": ReproducePaper,
    "counting-ladder": CountingLadder,
}


class Context:
    def __init__(self, seed: int, smoke: bool):
        self.seed, self.smoke = seed, smoke
        self.config = config.load_project_config(config.default_config_path())
        self.policy = self.config.policy.bulk_refined(0.5) if smoke else self.config.policy
        recorded = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        self.rel_tol = recorded["n_eff_rel_tol"]
        self.expected = recorded["smoke" if smoke else "default"]


def measure(work, seconds: float, smoke: bool, scratch: Path, tracer: Tracer | None) -> list[dict]:
    """Closed loop: the next pass starts only after the previous one is
    checked. Runs for ``seconds`` (at least the workload's ``min_seconds``)
    and at least ``min_passes`` passes; a smoke run only the latter."""
    passes = []
    seconds = 0.0 if smoke else max(seconds, work.min_seconds)
    start = time.perf_counter()
    while len(passes) < work.min_passes or time.perf_counter() - start < seconds:
        k = len(passes)
        pass_dir = scratch / f"pass-{k}"
        pass_dir.mkdir()
        out, problems, extras = None, [], {}
        if tracer is not None:
            tracer.trace_id = k
        with tracer.span(PASS) if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            try:
                out = work.run(pass_dir)
            except Exception:  # a failed operation is counted, not fatal
                problems = [(None, traceback.format_exc(limit=3))]
            wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.trace_id = None
        if not problems:
            try:
                problems, extras = work.check(out)
            except Exception:
                problems = [(None, traceback.format_exc(limit=3))]
        shutil.rmtree(pass_dir)
        failed = work.ops if any(i is None for i, _ in problems) else len({i for i, _ in problems})
        for _i, msg in problems:
            print(f"[{k}] check failed: {msg}", file=sys.stderr)
        passes.append({"wall_s": wall, "ops": work.ops, "failed": failed, **extras})
    return passes


def environment() -> dict:
    """Interpreter, library and BLAS stamp of this process."""
    def blas_name(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        except (TypeError, KeyError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_name(np.show_config),
        "scipy_blas": blas_name(scipy.show_config),
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
        "blas_threads": _openblas_threads(),
    }


def _openblas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS this process has loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    # on SIGTERM, unwind so that the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if Path(config.__file__).resolve().parent != (root / "src" / "snspdkit").resolve():
        print(f"imported snspdkit from {config.__file__}, not from ./src", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    scratch_base = root / ".bench_out"
    scratch_base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_base))
    try:
        with tracer.span(SETUP) if tracer is not None else nullcontext():
            ctx = Context(args.seed, args.smoke)
            work = WORKLOADS[args.workload](ctx)
        passes = measure(work, args.seconds, args.smoke, scratch, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "workload": args.workload,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["pass_counts"] = tracer.pass_counts()
        trace_file = scratch_base / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
