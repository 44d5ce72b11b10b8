"""Standing mutant table for the checks the solver rests on.

Each row names a source file under ``src/``, an exact piece of its text, the
replacement that breaks it, and the tests that must fail on the broken copy.
For each row the script copies ``src/`` to a temporary directory (never the
working tree), applies the replacement there, and runs only the row's tests
with ``PYTHONPATH`` pointing at the copy. A row is killed when every one of
its tests fails or errors (a parametrized test named without its case id
fails when one of its cases does). It survives when one of them passes, and it is
broken when its source text is not found exactly once or its tests cannot
run against the copy. The script exits non-zero unless every row is killed.

Run from the repository root::

    python tests/mutants.py                           # every row
    python tests/mutants.py continuation-cap-raised   # the named rows

pytest does not collect this file (its name does not match ``test_*.py``).
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str          # relative to src/
    source: str        # exact text, found exactly once
    replacement: str
    tests: tuple       # pytest node ids that must all fail


MODES, IO = "snspdkit/modes.py", "snspdkit/io_utils.py"
OPERATOR_TESTS = (
    "tests/test_operator.py::test_operator_matches_reference_on_shipped_grids",
    "tests/test_operator.py::test_operator_matches_reference_on_slab",
    "tests/test_operator.py::test_operator_matches_reference_on_random_sections",
)

MUTANTS = (
    # operator assembly: the stencil diagonals and their offsets
    Mutant("ns-wrap-mask-removed", MODES,
           "an, as_ = np.where(j < nny - 1, an, 0.0), np.where(j > 0, as_, 0.0)",
           "an, as_ = an, as_",
           OPERATOR_TESTS),
    Mutant("east-west-offsets-swapped", MODES,
           "[0, 1, -1, nny, -nny]",
           "[0, 1, -1, -nny, nny]",
           OPERATOR_TESTS),
    Mutant("south-diagonal-unshifted", MODES,
           "as_[1:], ae[:-nny]",
           "as_[:-1], ae[:-nny]",
           OPERATOR_TESTS),
    # the y side of the stencil is the x side with x and y exchanged
    Mutant("y-side-cells-unexchanged", MODES,
           "s, n, w, e, e3, e2, e1, e4, k0)",
           "s, n, w, e, e1, e2, e3, e4, k0)",
           OPERATOR_TESTS + ("tests/test_operator.py::test_operator_transposes_with_the_grid",)),
    # a query solves the parity class that holds its kind's fundamental mode
    Mutant("parity-classes-swapped", MODES,
           '_QUERY = {"TE": (-1, 1, 1), "TM": (1, 2, 4)}',
           '_QUERY = {"TE": (1, 1, 1), "TM": (-1, 2, 4)}',
           ("tests/test_modes.py::test_one_class_query_picks_the_two_class_mode[shipped-TE]",
            "tests/test_modes.py::test_one_class_query_picks_the_two_class_mode[shipped-TM]",
            "tests/test_modes.py::test_one_class_query_picks_the_two_class_mode[tm-design-TE]",
            "tests/test_modes.py::test_one_class_query_picks_the_two_class_mode[tm-design-TM]")),
    # the shift-invert LU's fill-reducing ordering
    Mutant("shift-invert-lu-default-ordering", MODES,
           '_SHIFT_INVERT_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,\n'
           '                        options=dict(SymmetricMode=True))',
           "_SHIFT_INVERT_LU = dict()",
           ("tests/test_modes.py::test_shift_invert_lu_fill_is_under_default[shipped-TE]",
            "tests/test_modes.py::test_shift_invert_lu_fill_is_under_default[shipped-TM]",
            "tests/test_modes.py::test_shift_invert_lu_fill_is_under_default[offset-TE]")),
    # matrix files: the per-element fallback and the round-half-even rule
    Mutant("matrix-percent-fallback-removed", IO,
           "for i in np.flatnonzero(~fast):",
           "for i in []:",
           ("tests/test_io.py::test_matrix_bytes_match_per_element_formatter",)),
    Mutant("matrix-ties-rounded-up", IO,
           "(y < 1e10) & (np.abs(y - np.floor(y) - 0.5) > _TIE_MARGIN)\n"
           "    m = np.where(zero, 0, np.rint(y))",
           "(y < 1e10)\n"
           "    m = np.where(zero, 0, np.floor(y + 0.5))",
           ("tests/test_io.py::test_matrix_bytes_match_per_element_formatter",)),
    # continuation: each acceptance condition of a continued sweep point
    Mutant("continuation-polarization-dropped", MODES,
           "found = _first_of_kind(op, np.array([val]), full[:, None], kind)",
           "found = next(((n_eff, val, full) for _i, n_eff in _guided(op, np.array([val]))), None)",
           ("tests/test_modes.py::test_wrong_start_gives_the_cold_pick[offset-tm-mode]",)),
    Mutant("continuation-overlap-dropped", MODES,
           "found if found is not None and overlap >= _CONTINUE_MIN_OVERLAP else None",
           "found",
           ("tests/test_modes.py::test_start_at_another_same_kind_mode_falls_back",)),
    Mutant("continuation-cap-raised", MODES,
           "for _ in range(_CONTINUE_MAX_BACKSOLVES):",
           "for _ in range(1000):",
           ("tests/test_modes.py::test_tm_thickness_step_falls_back_to_tm0",)),
)


def _outcomes(output: str) -> dict:
    """node id -> outcome word from pytest's ``-rA`` short summary."""
    found = {}
    for line in output.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            found.setdefault(rest.split(" - ")[0].strip(), word)
    return found


def run(mutant: Mutant) -> tuple[str, str]:
    """(verdict, detail) of one row: killed, survived or broken."""
    with tempfile.TemporaryDirectory(prefix="snspdkit-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = src / mutant.path
        text = target.read_text()
        if text.count(mutant.source) != 1:
            return "broken", f"source text found {text.count(mutant.source)} times in {mutant.path}"
        target.write_text(text.replace(mutant.source, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import snspdkit; print(snspdkit.__file__)"],
                               env=env, cwd=ROOT, capture_output=True, text=True)
        if not where.stdout.strip().startswith(str(src)):
            return "broken", f"snspdkit imported from {where.stdout.strip() or where.stderr.strip()}"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *mutant.tests],
            env=env, cwd=ROOT, capture_output=True, text=True)
    outcomes = _outcomes(proc.stdout)
    # a test's outcomes: its own, or those of its parametrized cases
    ran = {t: [w for n, w in outcomes.items() if n == t or n.startswith(t + "[")] for t in mutant.tests}
    missing = [t for t, words in ran.items() if not words]
    if missing:
        return "broken", f"not run: {', '.join(missing)} (pytest exit {proc.returncode})"
    passed = [t for t, words in ran.items() if not {"FAILED", "ERROR"} & set(words)]
    if passed:
        return "survived", f"not failed: {', '.join(passed)}"
    return "killed", f"{len(mutant.tests)} tests failed"


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown rows: {', '.join(unknown)}; known: {', '.join(known)}", file=sys.stderr)
        return 2
    rows = [known[n] for n in names] if names else MUTANTS
    bad = 0
    for mutant in rows:
        verdict, detail = run(mutant)
        bad += verdict != "killed"
        print(f"{verdict:8} {mutant.name}: {detail}", flush=True)
    print(f"{len(rows) - bad} of {len(rows)} rows killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
