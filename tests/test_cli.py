import functools
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import snspdkit
from snspdkit.cli import main
from snspdkit.config import default_config_path, load_project_config
from snspdkit.io_utils import header_line
from snspdkit.modes import solve_cross_section


@pytest.fixture()
def runner():
    return CliRunner()


def _coarse_raw(**overrides):
    """Default config with a coarser grid for fast CLI solves."""
    with open(default_config_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["solver"]["policy"] = {"base_nm": 50, "fine_nm": 2, "band_nm": 30,
                               "edge_band_nm": 12, "far_nm": 125, "far_margin_nm": 400}
    raw["solver"]["num_modes"] = 6
    raw.update(overrides)
    return raw


def _write(tmp_path, raw, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return p


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def test_module_entry_point():
    """``python -m snspdkit.cli`` runs the command group in a new interpreter."""
    assert snspdkit.__version__ in _fresh_python("-m", "snspdkit.cli", "--version").stdout


def _fresh_python(*args) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter that imports the snspdkit
    under test; fails the test on a non-zero exit."""
    src = Path(snspdkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, check=True)


def _loaded(*modules) -> str:
    """Python code printing ``loaded`` and which of ``modules`` the
    interpreter has loaded."""
    return f"print('loaded', sorted(m for m in {modules!r} if m in sys.modules))\n"


def test_cli_import_skips_sparse():
    """Importing the CLI (and with it the matrix writer in io_utils) and
    loading the shipped config loads neither scipy.sparse nor numpy:
    scipy.sparse loads at the first operator assembly and numpy at the first
    array computation, so commands that never solve do not pay for them at
    start-up."""
    done = _fresh_python("-c", (
        "import sys\n"
        "from snspdkit.cli import main\n"
        "from snspdkit.config import default_config_path, load_project_config\n"
        "load_project_config(default_config_path())\n"
    ) + _loaded("numpy", "scipy.sparse", "scipy.sparse.linalg"))
    assert done.stdout.strip() == "loaded []"


def test_non_solver_commands_skip_sparse(tmp_path):
    """The six subcommands that never solve run to completion without
    loading SciPy (the pulse-rise fit included), and the four of them that
    do scalar arithmetic only run without loading numpy."""
    scalar = [
        ["jitter", "--total-ps", "73", "--source-ps", "40", "--json"],
        ["absorptance", "--alpha-per-cm", "451", "--length-um", "51"],
        ["efficiency", "--coupling", "0.174", "--absorptance", "0.90", "--dqe", "0.197"],
        ["fp-extract", "--tmax", "0.061", "--tmin", "0.018"],
    ]
    arrays = [
        ["pulse"],
        ["pulse", "--fwhm-target-ns", "3.2", "--json"],
        ["counts", "--power-pw", "0.5", "--duration-s", "0.005", "--seed", "3",
         "--out", str(tmp_path / "counts")],
    ]
    run = "for args in {!r}:\n    main(args, standalone_mode=False)\n"
    done = _fresh_python("-c", "import sys\nfrom snspdkit.cli import main\n"
                         + run.format(scalar) + _loaded("numpy")
                         + run.format(arrays) + _loaded("scipy", "scipy.sparse", "scipy.sparse.linalg"))
    lines = done.stdout.splitlines()
    assert any(line.startswith("coupling") for line in lines)   # fp-extract ran
    assert (tmp_path / "counts" / "counts.csv").exists()
    assert [line for line in lines if line.startswith("loaded")] == ["loaded []", "loaded []"]


def test_solve_mode_fresh_interpreter_matches_in_process(tmp_path):
    """``solve-mode`` in a new interpreter, which loads scipy.sparse only at
    its first assembly, gives the in-process n_eff exactly."""
    raw = json.loads(default_config_path().read_text(encoding="utf-8"))
    raw["solver"]["policy"]["base_nm"] *= 2     # the perfbench --smoke grid
    raw["solver"]["policy"]["far_nm"] *= 2
    cfg = _write(tmp_path, raw)
    done = _fresh_python("-c", "from snspdkit.cli import main; main()",
                         "solve-mode", "--config", str(cfg), "--json")
    payload = json.loads(done.stdout)
    config = load_project_config(cfg)
    _grid, modes = solve_cross_section(config.cross_section, config.policy, config.solver)
    assert complex(payload["n_eff_re"], payload["n_eff_im"]) == modes[0].n_eff


def test_jitter_command(runner):
    result = runner.invoke(main, ["jitter", "--total-ps", "73", "--source-ps", "40"])
    assert result.exit_code == 0
    assert "61.06" in result.output


def test_fp_extract_command(runner):
    result = runner.invoke(main, ["fp-extract", "--tmax", "0.061", "--tmin", "0.018", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["coupling"] == pytest.approx(0.174, abs=0.001)


def test_fp_extract_json_round_trip(runner):
    result = runner.invoke(main, ["fp-extract", "--tmax", "0.061", "--tmin", "0.018", "--json"])
    text = result.output.rstrip("\n")
    payload = json.loads(text)
    again = json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=2)
    assert again == text


def test_pulse_command(runner):
    result = runner.invoke(main, ["pulse", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["tau_ns"] == pytest.approx(3.6, rel=1e-9)
    assert payload["max_count_rate_MHz"] == pytest.approx(92.6, abs=0.01)
    assert payload["kinetic_inductance_nH"] == pytest.approx(180.0, rel=1e-9)


def test_pulse_reads_the_detector_from_config(runner, tmp_path):
    """``pulse`` takes its meander from ``--config``, as ``counts`` and the
    pipeline's pulse stage do: two wires halve the shipped 180 nH and 3.6 ns."""
    raw = json.loads(default_config_path().read_text(encoding="utf-8"))
    raw["wires"]["count"] = 2
    result = runner.invoke(main, ["pulse", "--config", str(_write(tmp_path, raw)), "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["kinetic_inductance_nH"] == pytest.approx(90.0, rel=1e-12)
    assert payload["tau_ns"] == pytest.approx(1.8, rel=1e-12)


def test_pulse_dump_trace_and_rise_fit(runner, tmp_path):
    """``--dump-trace`` writes the trace under ``--out`` and
    ``--fwhm-target-ns`` adds the fitted rise constant, which reproduces the
    target FWHM."""
    out = tmp_path / "pulse"
    result = runner.invoke(main, ["pulse", "--fwhm-target-ns", "3.2", "--dump-trace",
                                  "--out", str(out), "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["files"] == ["pulse_trace.csv"]
    assert payload["output_dir"] == str(out)
    lines = (out / "pulse_trace.csv").read_text().splitlines()
    assert lines[0] == header_line(load_project_config(default_config_path()).digest)
    assert lines[1] == "t_ns,v_norm"
    refit = runner.invoke(main, ["pulse", "--rise-ps", str(payload["rise_fit_for_fwhm_ns"] * 1e3),
                                 "--json"])
    assert json.loads(refit.output)["pulse_fwhm_ns"] == pytest.approx(3.2, rel=1e-3)


def test_pulse_dump_trace_defaults_to_runs(runner, tmp_path, monkeypatch):
    """Without ``--out`` or SNSPDKIT_OUT, ``--dump-trace`` writes under
    ``runs/`` in the working directory."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SNSPDKIT_OUT", raising=False)
    result = runner.invoke(main, ["pulse", "--dump-trace", "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["output_dir"] == "runs"
    assert os.listdir(tmp_path) == ["runs"]
    assert (tmp_path / "runs" / "pulse_trace.csv").read_text().startswith("# snspdkit 0.1.0")


@pytest.mark.parametrize("wires", [4, 2])
def test_pulse_and_counts_match_reproduce_paper(runner, tmp_path, wires):
    """``pulse`` and ``counts`` report the figures, trace and counting run
    that the ``reproduce-paper`` pulse and counting stages check, on the
    shipped config and on a 2-wire copy whose pulse checks fail (exit 1)."""
    raw = json.loads(default_config_path().read_text(encoding="utf-8"))
    raw["wires"]["count"] = wires
    cfg = _write(tmp_path, raw)
    repro = runner.invoke(main, ["reproduce-paper", "--config", str(cfg), "--out", str(tmp_path / "repro"),
                                 "--skip", "mode-solver", "--skip", "tm-design", "--json"])
    assert repro.exit_code == (0 if wires == 4 else 1), repro.output
    manifest = json.loads((tmp_path / "repro" / "run_manifest.json").read_text(encoding="utf-8"))
    stage = next(s for s in manifest["stages"] if s["name"] == "pulse")

    pulse = runner.invoke(main, ["pulse", "--config", str(cfg), "--fwhm-target-ns", "3.2",
                                 "--dump-trace", "--out", str(tmp_path / "pulse"), "--json"])
    assert pulse.exit_code == 0, pulse.output
    figures = json.loads(pulse.output)
    assert [(c["name"], c["value"]) for c in stage["checks"]] == [
        ("kinetic_inductance_nH", figures["kinetic_inductance_nH"]),
        ("tau_ns", figures["tau_ns"]),
        ("recovery_3tau", figures["recovery_at_3tau"]),
        ("max_rate_MHz", figures["max_count_rate_MHz"]),
    ]
    assert stage["notes"] == {"fwhm_ns": figures["pulse_fwhm_ns"],
                              "decay_time_1e_ns": figures["decay_time_1e_ns"],
                              "rise_fit_for_fwhm_ns": figures["rise_fit_for_fwhm_ns"]}
    assert ((tmp_path / "pulse" / "pulse_trace.csv").read_bytes()
            == (tmp_path / "repro" / "pulse_trace.csv").read_bytes())

    seed = load_project_config(cfg).stage_seed("counting")
    counts = runner.invoke(main, ["counts", "--config", str(cfg), "--power-pw", repr(raw["counting"]["powers_pW"][0]),
                                  "--seed", str(seed), "--out", str(tmp_path / "counts"), "--json"])
    assert counts.exit_code == 0, counts.output
    rows = (tmp_path / "repro" / "count_rate_vs_power.csv").read_text(encoding="utf-8").splitlines()
    assert json.loads(counts.output)["measured_rate_hz"] == float(rows[2].split(",")[1])


def test_absorptance_command(runner):
    result = runner.invoke(main, ["absorptance", "--alpha-per-cm", "451",
                                  "--length-um", "51", "--json"])
    payload = json.loads(result.output)
    assert payload["absorptance"] == pytest.approx(0.90, abs=0.005)


def test_efficiency_command_modes(runner):
    result = runner.invoke(main, ["efficiency", "--coupling", "0.174",
                                  "--absorptance", "0.90", "--dqe", "0.197", "--json"])
    payload = json.loads(result.output)
    assert payload["sqe"] == pytest.approx(0.0343, abs=2e-4)
    assert payload["internal"] == pytest.approx(0.219, abs=5e-4)


def test_counts_command_writes_under_out_dir(runner, tmp_path):
    out = tmp_path / "out"
    cfg_path = default_config_path()
    before = hashlib.sha256(cfg_path.read_bytes()).hexdigest()
    result = runner.invoke(main, ["counts", "--power-pw", "0.5", "--duration-s", "0.01",
                                  "--seed", "3", "--out", str(out), "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert set(payload["files"]) == {"counts.csv", "counts_meta.json"}
    assert (out / "counts.csv").exists()
    first = (out / "counts.csv").read_text().splitlines()[0]
    assert first.startswith("# snspdkit 0.1.0 config_digest=")
    assert hashlib.sha256(cfg_path.read_bytes()).hexdigest() == before  # config untouched
    # nothing written outside the output directory
    assert {p.name for p in tmp_path.iterdir()} == {"out"}


def test_counts_deterministic(runner, tmp_path):
    args = ["counts", "--power-pw", "0.5", "--duration-s", "0.01", "--seed", "3", "--json"]
    r1 = runner.invoke(main, args + ["--out", str(tmp_path / "a")])
    r2 = runner.invoke(main, args + ["--out", str(tmp_path / "b")])
    assert r1.exit_code == r2.exit_code == 0
    assert (tmp_path / "a" / "counts.csv").read_bytes() == (tmp_path / "b" / "counts.csv").read_bytes()


def test_counts_duration_defaults_to_the_config(runner, tmp_path):
    """Without --duration-s, ``counts`` simulates the config's
    counting.duration_s (0.2 s shipped), the duration the pipeline's
    counting stage simulates."""
    args = ["counts", "--power-pw", "0.5", "--seed", "3", "--json"]
    default = runner.invoke(main, args + ["--out", str(tmp_path / "a")])
    explicit = runner.invoke(main, args + ["--duration-s", "0.2", "--out", str(tmp_path / "b")])
    assert default.exit_code == explicit.exit_code == 0
    payloads = [json.loads(r.output) for r in (default, explicit)]
    for payload in payloads:
        del payload["output_dir"]
    assert payloads[0] == payloads[1]
    assert (tmp_path / "a" / "counts.csv").read_bytes() == (tmp_path / "b" / "counts.csv").read_bytes()


def test_env_var_output_dir(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("SNSPDKIT_OUT", str(tmp_path / "envout"))
    result = runner.invoke(main, ["counts", "--power-pw", "0.5", "--duration-s", "0.005",
                                  "--seed", "3", "--json"])
    assert result.exit_code == 0
    assert (tmp_path / "envout" / "counts.csv").exists()


def test_solve_mode_coarse_config(runner, tmp_path):
    cfg = _write(tmp_path, _coarse_raw())
    out = tmp_path / "fields"
    result = runner.invoke(main, ["solve-mode", "--config", str(cfg), "--json",
                                  "--dump-fields", "--dump-grid", "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert 383.0 < payload["alpha_per_cm"] < 519.0
    assert payload["polarization"] == "TE"
    assert (out / "mode0_hx.txt").exists()
    assert (out / "grid_coords.json").exists()
    header = json.loads((out / "mode0_header.json").read_text())
    assert header["_header"]["tool"] == "snspdkit"


def test_solve_mode_without_wires_is_lossless(runner, tmp_path):
    raw = _coarse_raw()
    raw.pop("wires")
    cfg = _write(tmp_path, raw)
    result = runner.invoke(main, ["solve-mode", "--config", str(cfg), "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert abs(payload["alpha_per_cm"]) < 1e-3


def test_sweep_command_single_point(runner, tmp_path):
    raw = _coarse_raw()
    raw["sweeps"] = [{
        "parameters": [{"name": "array_offset_nm", "start": 0, "stop": 0, "step": 100}],
        "mode": "TE", "min_margin_um": 0.5,
    }]
    cfg = _write(tmp_path, raw)
    out = tmp_path / "sweepout"
    result = runner.invoke(main, ["sweep", "--config", str(cfg), "--out", str(out), "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["points"] == 1 and payload["feasible_ok"] == 1
    lines = (out / "sweep_0.csv").read_text().splitlines()
    assert lines[0].startswith("# snspdkit")
    assert lines[1].split(",")[0] == "array_offset_nm"
    assert len(lines) == 3


def test_optimize_command_coarse(runner, tmp_path):
    raw = _coarse_raw()
    raw["sweeps"] = [{
        "parameters": [{"name": "array_offset_nm", "start": 0, "stop": 100, "step": 100}],
        "mode": "TE", "min_margin_um": 0.3,
    }]
    cfg = _write(tmp_path, raw)
    out = tmp_path / "optout"
    result = runner.invoke(main, ["optimize", "--config", str(cfg), "--out", str(out),
                                  "--tolerance-nm", "60", "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["status"] == "ok"
    assert payload["best_alpha_per_cm"] > 0
    assert payload["best_margin_um"] >= 0.3
    assert (out / "optimize_0_trace.csv").exists()


@pytest.mark.parametrize("as_json", [True, False])
def test_sweep_and_optimize_report_infeasible(runner, tmp_path, as_json):
    """With a margin floor above every point's margin, ``sweep`` and
    ``optimize`` exit 0, write every point and report no best point."""
    raw = _coarse_raw()
    raw["sweeps"] = [{
        "parameters": [{"name": "array_offset_nm", "start": 0, "stop": 100, "step": 100}],
        "mode": "TE", "min_margin_um": 1.0,
    }]
    cfg = _write(tmp_path, raw)
    for command, csv_name, head in (("sweep", "sweep_0.csv", {"feasible_ok": 0}),
                                    ("optimize", "optimize_0_trace.csv", {"status": "infeasible"})):
        out = tmp_path / command
        result = runner.invoke(main, [command, "--config", str(cfg), "--out", str(out)]
                               + (["--json"] if as_json else []))
        assert result.exit_code == 0, result.output
        if as_json:
            payload = json.loads(result.output)
        else:
            payload = dict(line.split(None, 1) for line in result.output.splitlines())
            head = {key: str(value) for key, value in head.items()}
        best = {key: value for key, value in payload.items() if key.startswith("best_")}
        assert {key: payload[key] for key in head} == head
        assert best and set(best.values()) == {None if as_json else "None"}
        assert len((out / csv_name).read_text(encoding="utf-8").splitlines()) == 2 + 2


def test_reproduce_stage_error_blocks_dependents(runner, tmp_path, monkeypatch):
    """A stage that raises is recorded as ``error: <message>`` and its
    dependents are blocked; the run goes on and exits 1."""
    from snspdkit import pipeline
    from snspdkit.fabry_perot import FringeData

    # a single-pass transmission of 0.1 contradicts the paper's fringe contrast
    monkeypatch.setattr(pipeline, "FringeData", functools.partial(FringeData, single_pass=0.1))
    cfg = _write(tmp_path, _coarse_raw())
    out = tmp_path / "repro"
    result = runner.invoke(main, ["reproduce-paper", "--config", str(cfg), "--out", str(out),
                                  "--skip", "tm-design", "--skip", "counting", "--json"])
    assert result.exit_code == 1, result.output
    stages = json.loads(result.output)["stages"]
    assert stages["fp-extract"].startswith("error: extracted facet reflectivity")
    assert stages["mode-solver"] == stages["absorptance"] == "pass"
    assert stages["efficiency"] == "blocked"
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["all_pass"] is False
    assert {s["name"]: s["status"] for s in manifest["stages"]} == stages


def test_reproduce_human_readable_checks(runner, tmp_path, monkeypatch):
    """Without ``--json`` each check prints a PASS or FAIL line; a total
    jitter of 80 ps puts the intrinsic jitter outside its fixed band."""
    from snspdkit import pipeline

    monkeypatch.setattr(pipeline, "JITTER_TOTAL_PS", 80.0)
    cfg = _write(tmp_path, _coarse_raw())
    result = runner.invoke(main, [
        "reproduce-paper", "--config", str(cfg), "--out", str(tmp_path / "repro"),
        "--skip", "mode-solver", "--skip", "tm-design", "--skip", "counting",
    ])
    assert result.exit_code == 1, result.output
    lines = result.output.splitlines()
    assert lines[0] == "all_pass    False"
    assert "  [PASS] pulse/tau_ns: 3.6 in [3.6, 3.6]" in lines
    assert "  [FAIL] jitter/jitter_intrinsic_ps: 69.282 in [61, 61.2]" in lines


def test_pulse_rise_above_fall_fails_only_the_pulse_stage(runner, tmp_path):
    """A detector whose recovery constant is below the paper's 200 ps pulse
    rise (1 MOhm load: tau = 0.18 ps) loads, and commands that draw no pulse
    run; ``reproduce-paper`` records the pulse stage's error and exits 1."""
    raw = _coarse_raw()
    raw["detector"]["load_resistance_ohm"] = 1e6
    cfg = _write(tmp_path, raw)
    load_project_config(cfg)
    counts = runner.invoke(main, ["counts", "--config", str(cfg), "--power-pw", "1",
                                  "--duration-s", "0.005", "--out", str(tmp_path / "counts")])
    assert counts.exit_code == 0, counts.output
    result = runner.invoke(main, [
        "reproduce-paper", "--config", str(cfg), "--out", str(tmp_path / "repro"),
        "--skip", "mode-solver", "--skip", "tm-design", "--skip", "counting", "--json",
    ])
    assert result.exit_code == 1, result.output
    stages = json.loads(result.output)["stages"]
    assert stages["pulse"].startswith("error: rise constant must satisfy 0 < tau_rise < tau_fall ")
    assert stages["fp-extract"] == stages["jitter"] == "pass"


def test_reproduce_skip_marks_not_run(runner, tmp_path):
    cfg = _write(tmp_path, _coarse_raw())
    out = tmp_path / "repro"
    result = runner.invoke(main, [
        "reproduce-paper", "--config", str(cfg), "--out", str(out),
        "--skip", "mode-solver", "--skip", "tm-design", "--skip", "counting", "--json",
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    stages = payload["stages"]
    assert stages["mode-solver"] == "skipped"
    assert stages["absorptance"] == "not-run"       # depends on the skipped solve
    assert stages["efficiency"] == "pass"           # reads the fringe coupling only
    assert stages["fp-extract"] == "pass"
    assert stages["jitter"] == "pass"
    assert stages["pulse"] == "pass"
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["all_pass"] is True


def test_reproduce_data_files_repeat_byte_identical(runner, tmp_path):
    """Two reproduce-paper runs of one config write byte-identical CSV/TXT
    data files; only the JSON manifests carry timestamps. Each run writes
    exactly the stage outputs its manifest lists, the two summaries and the
    manifest. Every CSV data cell is a number, true/false or a word (a
    stage, check or status name), never a repr such as ``np.float64(0.5)``.
    Coarse grid: base and far cells doubled."""
    with open(default_config_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    policy = raw["solver"]["policy"]
    policy["base_nm"] *= 2.0
    policy["far_nm"] *= 2.0
    cfg = _write(tmp_path, raw)
    digests = []
    for run in ("first", "second"):
        out = tmp_path / run
        result = runner.invoke(main, ["reproduce-paper", "--config", str(cfg),
                                      "--out", str(out), "--json"])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
        listed = {name for stage in manifest["stages"] for name in stage["outputs"]}
        assert {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} == (
            listed | {"summary.csv", "summary.json", "run_manifest.json"})
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.iterdir()) if p.suffix in (".csv", ".txt")})
    assert {"grid_eps.txt", "mode_te0_hx.txt", "count_rate_vs_power.csv"} <= set(digests[0])
    assert digests[0] == digests[1]
    for path in sorted(out.glob("*.csv")):
        for row in path.read_text(encoding="utf-8").splitlines()[2:]:
            for cell in row.split(","):
                assert _is_data_cell(cell), f"{path.name}: {cell!r}"


def _is_data_cell(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return re.fullmatch(r"[a-z][A-Za-z0-9_-]*", cell) is not None


def test_reproduce_without_wires_fails_dependents(runner, tmp_path):
    raw = _coarse_raw()
    raw.pop("wires")
    cfg = _write(tmp_path, raw)
    out = tmp_path / "repro2"
    result = runner.invoke(main, ["reproduce-paper", "--config", str(cfg),
                                  "--out", str(out), "--skip", "counting", "--json"])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    stages = payload["stages"]
    assert stages["mode-solver"] == "fail"          # lossless: alpha misses the band
    assert stages["tm-design"] == "fail"
    assert stages["absorptance"] == "blocked"       # dependency failed
    assert stages["efficiency"] == "pass"           # does not depend on the solve
    assert stages["fp-extract"] == "pass"
    assert stages["jitter"] == "pass"
    assert stages["pulse"] == "pass"


def test_help_lists_subcommands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for cmd in ("solve-mode", "absorptance", "pulse", "fp-extract", "efficiency",
                "jitter", "counts", "sweep", "optimize", "reproduce-paper"):
        assert cmd in result.output


# -- every error exit: its code, its stderr line, and nothing written ------------

def _error(id, args, code, message, env=None):
    """One row of the error table: the command's arguments split at spaces,
    its exit code and the start of stderr's last line. ``{tmp}`` in the
    arguments, the message and the environment stands for the test
    directory."""
    return pytest.param(args, code, message, env or {}, id=id)


_INVALID = "error (ConfigError): layer 'AlGaAs': thickness must be > 0"
_TAKEN = "error (ConfigError): output directory {tmp}/taken cannot be created: "
_NOT_FINITE = "Error: Invalid value for '{}': '{}' is not a finite number."

_ERRORS = [
    _error("jitter-source-above-total", "jitter --total-ps 40 --source-ps 73",
           3, "error (DomainError): source jitter 7.3e-11 s exceeds total 4e-11 s"),
    _error("jitter-nan", "jitter --source-ps 40 --total-ps nan", 2, _NOT_FINITE.format("--total-ps", "nan")),
    _error("absorptance-negative-alpha", "absorptance --alpha-per-cm -1 --length-um 51",
           3, "error (DomainError): absorptance requires alpha >= 0"),
    _error("absorptance-nan", "absorptance --length-um 51 --alpha-per-cm nan",
           2, _NOT_FINITE.format("--alpha-per-cm", "nan")),
    _error("absorptance-inf", "absorptance --length-um 51 --alpha-per-cm inf",
           2, _NOT_FINITE.format("--alpha-per-cm", "inf")),
    _error("efficiency-neither-internal-nor-dqe", "efficiency --absorptance 0.9",
           3, "error (DomainError): give exactly one of --internal or --dqe"),
    _error("efficiency-dqe-above-absorptance", "efficiency --absorptance 0.9 --dqe 0.95",
           5, "error (InconsistencyError): measured DQE 0.95 exceeds the absorptance 0.9"),
    _error("efficiency-absorptance-1.5", "efficiency --absorptance 1.5 --internal 0.5",
           3, "error (DomainError): absorptance must be in [0, 1], got 1.5"),
    _error("efficiency-internal-negative", "efficiency --absorptance 0.9 --internal -0.2",
           3, "error (DomainError): internal must be in [0, 1], got -0.2"),
    _error("efficiency-minus-inf", "efficiency --absorptance 0.9 --internal 0.2 --coupling -inf",
           2, _NOT_FINITE.format("--coupling", "-inf")),
    _error("fp-extract-without-inputs", "fp-extract --tmax 0.061",
           3, "error (DomainError): give either --tmax and --tmin, or --scan-csv"),
    _error("fp-extract-scan-and-extrema", "fp-extract --scan-csv {tmp}/garbled.csv --tmax 0.5 --tmin 0.1",
           3, "error (DomainError): give either --tmax and --tmin, or --scan-csv"),
    _error("fp-extract-missing-scan", "fp-extract --scan-csv {tmp}/missing.csv",
           3, "error (DomainError): fringe scan {tmp}/missing.csv cannot be read: "),
    _error("fp-extract-garbled-row", "fp-extract --scan-csv {tmp}/garbled.csv",
           3, "error (DomainError): fringe scan {tmp}/garbled.csv line 7: "),
    _error("pulse-rise-above-fall", "pulse --rise-ps 5000 --dump-trace",
           3, "error (DomainError): rise constant must satisfy 0 < tau_rise < tau_fall"),
    _error("pulse-fwhm-unreachable", "pulse --fwhm-target-ns 0.1 --dump-trace",
           3, "error (DomainError): FWHM target 1e-10 s not reachable"),
    _error("pulse-env-out-is-a-file", "pulse --dump-trace", 2, _TAKEN, env={"SNSPDKIT_OUT": "{tmp}/taken"}),
    _error("pulse-invalid-config", "pulse --config {tmp}/invalid.json", 2, _INVALID),
    _error("pulse-retired-flag", "pulse --wires 4", 2, "Error: No such option"),
    _error("counts-nan", "counts --duration-s 0.01 --power-pw nan", 2, _NOT_FINITE.format("--power-pw", "nan")),
    _error("counts-negative-seed", "counts --power-pw 0.5 --duration-s 0.01 --seed -1",
           3, "error (DomainError): seed must be >= 0, got -1"),
    _error("counts-above-arrival-cap", "counts --power-pw 1e5",
           3, "error (DomainError): counting run would draw 4.49e+09 arrivals, above the cap 10000000"),
    _error("counts-out-is-a-file", "counts --power-pw 1 --duration-s 0.005 --out {tmp}/taken", 2, _TAKEN),
    _error("counts-output-file-is-a-directory", "counts --power-pw 1 --duration-s 0.005 --out {tmp}",
           2, "error (ConfigError): output file {tmp}/counts.csv cannot be written: "),
    _error("counts-invalid-config", "counts --config {tmp}/invalid.json --power-pw 1", 2, _INVALID),
    _error("solve-mode-invalid-config", "solve-mode --config {tmp}/invalid.json --dump-fields", 2, _INVALID),
    _error("solve-mode-config-is-a-directory", "solve-mode --config {tmp} --dump-fields",
           2, "error (ConfigError): config file {tmp} cannot be read: "),
    _error("solve-mode-index-out-of-range", "solve-mode --config {tmp}/coarse.json --mode-index 99 --dump-fields",
           3, "error (DomainError): mode index 99 out of range: "),
    _error("solve-mode-no-guided-mode", "solve-mode --config {tmp}/unguided.json --dump-fields",
           4, "error (ConvergenceError): no guided modes found in the search window"),
    _error("sweep-invalid-config", "sweep --config {tmp}/invalid.json", 2, _INVALID),
    _error("sweep-index-out-of-range", "sweep --index 5",
           2, "error (ConfigError): sweep index 5 out of range: config has 1 sweeps"),
    _error("optimize-invalid-config", "optimize --config {tmp}/invalid.json", 2, _INVALID),
    _error("optimize-zero-tolerance", "optimize --tolerance-nm 0",
           2, "error (ConfigError): optimizer tolerance must be a finite number > 0, got 0.0"),
    _error("reproduce-invalid-config", "reproduce-paper --config {tmp}/invalid.json", 2, _INVALID),
    _error("reproduce-unknown-skip", "reproduce-paper --skip bogus",
           2, "Error: Invalid value for '--skip': 'bogus' is not one of 'mode-solver', "),
]


def _write_error_inputs(tmp_path):
    """The files the error rows name: a file and a directory in the way of
    an output, a fringe scan with a garbled row, and coarse configs that are
    invalid, valid, and without a guided mode."""
    (tmp_path / "taken").write_text("not a directory\n")
    (tmp_path / "counts.csv").mkdir(exist_ok=True)
    rows = [f"{1300 + k},{0.02 + 0.004 * k}" for k in range(12)]
    (tmp_path / "garbled.csv").write_text("wavelength_nm,transmission\n" + "\n".join(rows[:5])
                                          + "\n1320,0.0x5\n" + "\n".join(rows[5:]) + "\n")
    _write(tmp_path, _coarse_raw(), "coarse.json")
    invalid = _coarse_raw()
    invalid["layers"][0]["thickness_um"] = -1.0
    _write(tmp_path, invalid, "invalid.json")
    unguided = _coarse_raw()
    unguided["solver"].update(target_n_eff=2.0, num_modes=1)
    _write(tmp_path, unguided, "unguided.json")


def _tree(root):
    """Every path under ``root`` with its bytes (None for a directory)."""
    return {p.relative_to(root): None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


def _assert_error_exit(runner, tmp_path, monkeypatch, args, code, message, env=None):
    """Run one error row: the command exits with ``code``, stderr's last line
    starts with ``message`` and nothing under the working directory changes,
    which holds the default ``runs/`` output, every ``--out`` target and
    every input."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SNSPDKIT_OUT", raising=False)
    _write_error_inputs(tmp_path)
    before = _tree(tmp_path)
    tmp = str(tmp_path)
    result = runner.invoke(main, [arg.format(tmp=tmp) for arg in args.split()],
                           env={key: value.format(tmp=tmp) for key, value in (env or {}).items()})
    assert result.exit_code == code, result.output
    assert result.stderr.splitlines()[-1].startswith(message.format(tmp=tmp)), result.stderr
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("args, code, message, env", _ERRORS)
def test_errors_exit_with_their_code_and_write_nothing(runner, tmp_path, monkeypatch,
                                                       args, code, message, env):
    """Each error exits with its code, and stderr's last line names it:
    ``error (<Class>): <message>`` for a toolkit error, click's ``Error: ...``
    for a usage error."""
    _assert_error_exit(runner, tmp_path, monkeypatch, args, code, message, env)


def test_fp_extract_one_column_scan_exit_code(runner, tmp_path, monkeypatch):
    (tmp_path / "scan.csv").write_text("wavelength_nm,transmission\n1320\n")
    _assert_error_exit(runner, tmp_path, monkeypatch, "fp-extract --scan-csv {tmp}/scan.csv",
                       3, "error (DomainError): fringe scan {tmp}/scan.csv line 2: ")


def test_fp_extract_out_of_range_scan_sample_exit_code(runner, tmp_path, monkeypatch):
    """One infinite transmission in a long scan lies above the 95th
    percentile, so it used to be dropped without a word; it is now a domain
    error naming its line."""
    rows = [f"{1300 + 0.01 * k:.2f},{0.04 + 0.02 * math.sin(0.3 * k):.6f}" for k in range(200)]
    (tmp_path / "scan.csv").write_text("wavelength_nm,transmission\n" + "\n".join(rows[:100])
                                       + "\n1301.005,inf\n" + "\n".join(rows[100:]) + "\n")
    _assert_error_exit(runner, tmp_path, monkeypatch, "fp-extract --scan-csv {tmp}/scan.csv",
                       3, "error (DomainError): fringe scan {tmp}/scan.csv line 102: ")


def test_solve_mode_invalid_solver_setting_exit_code(runner, tmp_path, monkeypatch):
    """num_modes below 1 is a config error (exit 2), not an ARPACK
    ValueError escaping as an unexpected failure; so is an iteration cap,
    which is a fixed constant of the solver, not a setting."""
    for key, value, message in (("num_modes", 0, "error (ConfigError): num_modes must be >= 1"),
                                ("max_iterations", 400, "error (ConfigError): solver: unknown keys ['max_iterations']")):
        raw = _coarse_raw()
        raw["solver"][key] = value
        _write(tmp_path, raw, f"{key}.json")
        _assert_error_exit(runner, tmp_path, monkeypatch, f"solve-mode --config {{tmp}}/{key}.json --json",
                           2, message)


def test_sweep_malformed_point_cap_exit_code(runner, tmp_path, monkeypatch):
    """A point cap is a config error (exit 2): the cap is a fixed constant
    of the sweep, not a setting."""
    raw = _coarse_raw()
    raw["sweeps"][0]["point_cap"] = "many"
    _write(tmp_path, raw)
    _assert_error_exit(runner, tmp_path, monkeypatch,
                       "sweep --config {tmp}/config.json --out {tmp}/sweepout --json",
                       2, "error (ConfigError): sweeps[0]: unknown keys ['point_cap']")


def test_sweeps_not_a_list_exit_code(runner, tmp_path, monkeypatch):
    """``sweeps: 5`` is a config error (exit 2), not a TypeError escaping as
    an unexpected failure."""
    _write(tmp_path, _coarse_raw(sweeps=5))
    _assert_error_exit(runner, tmp_path, monkeypatch, "sweep --config {tmp}/config.json --json",
                       2, "error (ConfigError): sweeps: must be a list")
