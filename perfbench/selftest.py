"""Self-test of the benchmark, run from the repository root::

    python3 perfbench/selftest.py

With tracing off and on, it runs ``run.py --workload all --smoke`` (one
pass per child on a coarse grid, every workload, ``counting-ladder``
included) and checks that each result line reports ``correct`` and exactly
the metrics that ``BENCHMARK.json`` declares, each with its declared unit.
It then checks that ``run.py`` exits non-zero and prints no result in a
directory that holds only the benchmark's own files. Takes about three
minutes on 2 CPUs.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=900)


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for trace in (0, 1):
        proc = run(root, "all", trace)
        if proc.returncode != 0:
            problems.append(f"trace {trace}: exit {proc.returncode}")
        lines = proc.stdout.splitlines()
        names = [line.split()[1] for line in lines if line.startswith("workload ")]
        results = [json.loads(line) for line in lines if line.startswith("{")]
        if len(results) != len(names) or not set(w["name"] for w in spec["workloads"]) <= set(names):
            problems.append(f"trace {trace}: results for {names}")
        for workload, result in zip(names, results):
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            if emitted != declared[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(emitted.items()) ^ set(declared[trace].items()))}")
            print(f"{workload} trace {trace}: {len(emitted)} metrics, correct={result['correct']}")

    # a directory with only the benchmark's files: no program to measure
    (root / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=root / ".bench_out"))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(root / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:80]!r}")
        print(f"bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
