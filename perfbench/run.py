"""snspdkit benchmark: one workload, end to end or layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload reference-solve --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
measures the per-layer metrics: a traced run, an untraced run (the
difference is the tracing overhead) and, on ``reference-solve``, a run with
BLAS limited to one thread. Every run of a workload is a fresh interpreter.
``--workload all`` measures the four workloads in turn. ``--smoke`` runs one
pass of each child on a coarse grid.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
print the same metrics as a table, the workload's own figures
(``solves_per_min``, ``points_per_min``, ``events_per_s``, ``failed_ratio``,
``residual_headroom``) and the environment stamp. Exit code 0 means a result
was printed; without ``src/snspdkit`` in the current directory, or when a
workload process dies, the exit code is 2 and nothing is printed.
See ``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("reference-solve", "offset-sweep", "reproduce-paper", "counting-ladder")
SETUP_SAMPLES = 6
RUN_TIMEOUT_S = 170   # per workload, all its child processes together
SERIAL_BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_CODE = ("import snspdkit.cli\n"
              "from snspdkit.config import default_config_path, load_project_config\n"
              "load_project_config(default_config_path())\n")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_min": "1/min",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}
PER_LAYER = {
    "geometry.rasterize_s": "s",
    "geometry.cells": "count",
    "modes.assemble_s": "s",
    "modes.unknowns": "count",
    "modes.nnz": "count",
    "modes.lu_factor_s": "s",
    "modes.lu_fill": "count",
    "modes.opinv_calls": "count",
    "modes.backsolve_s": "s",
    "modes.solve_modes_s": "s",
    "modes.arnoldi_self_s": "s",
    "modes.guided_modes": "count",
    "modes.worst_residual": "ratio",
    "modes.residual_headroom": "ratio",
    "sweep.points": "count",
    "sweep.points_ok": "count",
    "sweep.points_failed": "count",
    "sweep.feasible_ratio": "ratio",
    "sweep.point_s": "s",
    "sweep.self_s": "s",
    "detector.simulate_s": "s",
    "detector.events": "count",
    "detector.kept_ratio": "ratio",
    "io_utils.write_s": "s",
    "io_utils.bytes_written": "B",
    "io_utils.files_written": "count",
    "pipeline.run_s": "s",
    "pipeline.self_s": "s",
    "pipeline.stages_passed": "count",
    "config.load_s": "s",
    "trace.overhead_s": "s",
    "baseline.serial_solve_s": "s",
    "baseline.serial_neff_identical": "bool",
}
EXACT_COUNTS = ("modes.unknowns", "modes.nnz", "modes.lu_fill")


class BenchError(Exception):
    """The benchmark could not measure (not: the program gave a wrong result)."""


def child_env(root: Path, extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"the workload's processes took longer than {RUN_TIMEOUT_S} s")
    return left


def run_child(root: Path, workload: str, args, deadline: float, trace: bool = False,
              extra_env: dict | None = None) -> dict:
    """One workload in a fresh interpreter; its last stdout line is its result."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    cmd += ["--trace"] * trace + ["--smoke"] * args.smoke
    proc = subprocess.run(cmd, cwd=root, env=child_env(root, extra_env), stdout=subprocess.PIPE,
                          text=True, timeout=remaining(deadline))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def time_setup(root: Path, samples: int, deadline: float) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and load the
    default config, as a user's first command pays it."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=child_env(root),
                              stdout=subprocess.DEVNULL, timeout=remaining(deadline))
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up process exited with code {proc.returncode}")
    return times


def totals(*children: dict) -> tuple[int, int]:
    passes = [p for c in children for p in c["passes"]]
    return sum(p["ops"] for p in passes), sum(p["failed"] for p in passes)


def median_wall(child: dict) -> float:
    return statistics.median(p["wall_s"] for p in child["passes"])


def end_to_end(root: Path, workload: str, args, deadline: float):
    """End-to-end metrics: (values, child result, notes, attempted, failed, True)."""
    # set-up samples before and after the workload see more of the machine's
    # load swings than samples taken back to back
    samples = 1 if args.smoke else SETUP_SAMPLES // 2
    setup = time_setup(root, samples, deadline)
    child = run_child(root, workload, args, deadline)
    setup += time_setup(root, samples, deadline)
    passes = child["passes"]
    attempted, failed = totals(child)
    busy = sum(p["wall_s"] for p in passes)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": median_wall(child),
        "ops_per_min": 60.0 * (attempted - failed) / busy,
        "peak_rss_mb": child["peak_rss_mb"],
        "success_ratio": (attempted - failed) / attempted,
    }
    notes = [f"{len(passes)} passes, {attempted} operations, {failed} failed; "
             f"set-up samples {[round(t, 3) for t in setup]}"]
    figures = {"failed_ratio": (failed / attempted, "ratio")}
    if workload == "reference-solve":
        figures["solves_per_min"] = (values["ops_per_min"], "1/min")
        figures["residual_headroom"] = (min(p.get("residual_headroom", 0.0) for p in passes), "ratio")
    elif workload == "offset-sweep":
        figures["points_per_min"] = (values["ops_per_min"], "1/min")
    elif workload == "counting-ladder":
        figures["events_per_s"] = (sum(p.get("events", 0) for p in passes) / busy, "1/s")
    notes += [f"{name:<32} {value!r} {unit}" for name, (value, unit) in figures.items()]
    return values, child, notes, attempted, failed, True


def per_layer(root: Path, workload: str, args, deadline: float):
    """Per-layer metrics: (values, traced child result, notes, attempted,
    failed, whether the exact counts repeat between passes)."""
    plain = run_child(root, workload, args, deadline)
    traced = run_child(root, workload, args, deadline, trace=True)
    children = [plain, traced]
    values = dict(traced["layers"])
    values["trace.overhead_s"] = median_wall(traced) - median_wall(plain)
    values["baseline.serial_solve_s"] = 0.0
    values["baseline.serial_neff_identical"] = 0
    notes = [f"traced {len(traced['passes'])} passes, untraced {len(plain['passes'])} passes"]
    counts_repeat = True

    counts = traced["pass_counts"]
    if any(c != counts[0] for c in counts):
        counts_repeat = False
        notes.append(f"exact counts differ between passes: {counts}")
    if workload == "reference-solve":
        serial = run_child(root, workload, args, deadline, extra_env=SERIAL_BLAS_ENV)
        children.append(serial)
        values["baseline.serial_solve_s"] = median_wall(serial)
        n_effs = {p["n_eff"] for c in (plain, serial) for p in c["passes"] if "n_eff" in p}
        values["baseline.serial_neff_identical"] = int(len(n_effs) == 1)
        notes.append(f"n_eff with 1 BLAS thread vs default: {sorted(n_effs)}")
        if not args.smoke:
            anchor = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))["anchor_counts"]
            same = all(counts[0][k] == anchor[k] for k in EXACT_COUNTS)
            notes.append(f"exact counts {counts[0]}: {'match' if same else 'differ from'} "
                         f"the recorded anchor {anchor}")
    attempted, failed = totals(*children)
    return values, traced, notes, attempted, failed, counts_repeat


def git_commit(root: Path) -> str:
    """HEAD of a git checkout, read without running git; 'none' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest(root: Path) -> str:
    """sha256 of the package sources: names the code also outside git."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "snspdkit").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def report(root: Path, workload: str, args) -> None:
    """Measure one workload and print its table, stamp and result line."""
    measure, units = (per_layer, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    values, child, notes, attempted, failed, counts_repeat = measure(root, workload, args, deadline)
    print(f"workload {workload} seed {args.seed} trace {args.trace}: " + notes[0])
    for name, unit in units.items():
        print(f"  {name:<32} {values[name]!r} {unit}")
    for line in notes[1:]:
        print(f"  {line}")
    env = {"workload": workload, "seed": args.seed, "nproc": os.cpu_count(),
           "cpus_usable": len(os.sched_getaffinity(0)), "commit": git_commit(root),
           "source_digest": source_digest(root), **child["env"]}
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' measures every workload in turn, one result line each")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="one pass per child on a coarse grid")
    args = ap.parse_args(argv)

    # on SIGTERM, unwind: subprocess.run then kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "snspdkit" / "__init__.py").is_file():
        print("no src/snspdkit here: run from the repository root", file=sys.stderr)
        return 2
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            report(root, workload, args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
