import ast
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner

from snspdkit import pipeline
from snspdkit.cli import main
from snspdkit.config import (
    TARGETS,
    ProjectConfig,
    config_digest,
    default_config_path,
    load_project_config,
    stable_seed,
)
from snspdkit.errors import ConfigError
from snspdkit.geometry import rasterize
from snspdkit.io_utils import OutputDir
from snspdkit.modes import SolverConfig
from snspdkit.pipeline import band


def _raw_default():
    with open(default_config_path(), encoding="utf-8") as fh:
        return json.load(fh)


def test_shipped_config_loads(default_config):
    cfg = default_config
    assert cfg.cross_section.wavelength_m == pytest.approx(1300e-9)
    assert cfg.cross_section.wires.count == 4
    assert cfg.detector.wire_count == cfg.cross_section.wires.count
    assert cfg.detector.wire_width_m == cfg.cross_section.wires.width_m
    assert cfg.detector.critical_current_A == pytest.approx(16.9e-6)
    assert cfg.policy.base_m == pytest.approx(25e-9)
    assert TARGETS["alpha_per_cm"]["value"] == 451.0
    assert len(cfg.counting.powers_w) == 10
    assert cfg.sweeps and cfg.sweeps[0].parameters[0].name == "array_offset_nm"


def test_readme_schema_rows_are_the_top_level_keys():
    """README's schema table has a row of its own for each top-level key of
    the shipped config, and every row names a key the loader reads."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n| key | content |\n")[1].split("\n\n")[0]
    rows = [re.match(r"\| `(\w+)(\[\]|\{\})?` \|", line) for line in table.splitlines()[1:]]
    assert all(rows), "a row names no single key"
    keys = [m[1] for m in rows]
    raw = _raw_default()
    raw["zz_unread"] = 1
    with pytest.raises(ConfigError) as info:
        load_project_config(raw)
    read = ast.literal_eval(str(info.value).split("allowed: ")[1])
    assert len(keys) == len(set(keys))
    assert set(_raw_default()) <= set(keys) <= set(read)


def test_old_schema_fails_on_the_substrate():
    """A config of the old schema, whose substrate is a flagged bottom
    layer, fails first on the top-level substrate key it lacks."""
    raw = _raw_default()
    raw["layers"].insert(0, {"material": raw.pop("substrate"), "substrate": True})
    with pytest.raises(ConfigError, match="^config: missing substrate$"):
        load_project_config(raw)


@pytest.mark.parametrize("section, key, misspelt, message", [
    ("ridge", "width_um", "widht_um", "ridge: missing width_<nm|um|mm|m>; did you mean 'widht_um'?"),
    ("wires", "count", "coutn", "wires: missing count; did you mean 'coutn'?"),
    ("ridge", "width_um", "width", "ridge: missing width_<nm|um|mm|m>; did you mean 'width'?"),
], ids=["ridge-widht_um", "wires-coutn", "ridge-width-no-unit"])
def test_misspelled_required_key_named(section, key, misspelt, message):
    """A required key given under a misspelt name is reported as missing,
    with the misspelt key the document does give as the likely meaning."""
    raw = _raw_default()
    raw[section][misspelt] = raw[section].pop(key)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_project_config(raw)


_MISSING = object()


@pytest.mark.parametrize("path, value, message", [
    (("sweeps", 0, "mode"), 5, "mode kind must be 'TE' or 'TM'"),
    (("layers",), _MISSING, "layers: must be a non-empty list"),
    (("layers", 1, "material"), _MISSING, r"layers\[1\]: missing material"),
    (("counting", "powers_pW"), ["a"], "powers_pW must be a non-empty list of numbers"),
    (("layers", 1), 5, r"layers\[1\]: must be a JSON object"),
    (("sweeps",), 5, "sweeps: must be a list"),
    (("sweeps", 0, "parameters"), 5, r"sweeps\[0\].parameters: must be a list"),
    (("materials", 0, "builtin"), 5, r"materials\[0\]: builtin must be a string"),
    (("materials", 0, "builtin"), "xyz", r"materials\[0\]: unknown builtin material kind 'xyz'"),
    (("materials", 1, "aluminum_fraction"), "x", r"materials\[1\]: aluminum_fraction must be a number"),
    (("materials", 1, "aluminum_fraction"), 1.5,
     r"materials\[1\]: aluminum fraction must be in \[0, 1\], got 1.5"),
    (("materials", 0, "name"), [1], r"materials\[0\]: name must be a non-empty string"),
    (("layers", 1, "material"), [1], r"layers\[1\]: material must be a non-empty string"),
    (("ambient",), [1], "config: ambient must be a non-empty string"),
    (("wires", "cap_material"), {"a": 1}, "wires: cap_material must be a non-empty string"),
    (("substrate",), 5, "config: substrate must be a non-empty string"),
    (("materials", 4), {"name": "air", "table_nm": []},
     r"materials\[4\]: material 'air': empty index table"),
    (("materials", 4), {"name": "air", "table_nm": [[1260, 1.0, -0.1], [1360, 1.0, 0.0]]},
     r"materials\[4\]: material 'air': index must be given as n - 1j\*k with k >= 0"),
    (("materials", 4), {"name": "air", "table_nm": [[1360, 1.0, 0.0], [1260, 1.0, 0.0]]},
     r"materials\[4\]: material 'air': wavelengths not strictly increasing"),
    (("materials", 4), {"name": "air", "builtin": "air", "table_nm": [[1260, 1.0, 0.0], [1360, 1.0, 0.0]]},
     r"materials\[4\]: exactly one of 'builtin' or 'table_nm' required"),
    (("materials", 4), {"name": "air", "table_nm": [[1260, 1.0, 0.0], [1360, 1.0]]},
     r"materials\[4\]: table_nm rows must be \[wavelength_nm, n, k\]"),
    (("materials", 3), {"name": "SiOx", "table_nm": [[1260, float("nan"), 0.0], [1360, 1.45, 0.0]]},
     r"materials\[3\]: material 'SiOx': non-finite table entry"),
    (("materials", 3), {"name": "SiOx", "table_nm": [[1260, 1.45, float("inf")], [1360, 1.45, 0.0]]},
     r"materials\[3\]: material 'SiOx': non-finite table entry"),
    (("materials", 3), {"name": "SiOx", "table_nm": [[float("nan"), 1.45, 0.0], [1360, 1.45, 0.0]]},
     r"materials\[3\]: material 'SiOx': wavelengths not strictly increasing"),
    (("output_dir",), None, "config: output_dir must be a non-empty string"),
    (("output_dir",), 5, "config: output_dir must be a non-empty string"),
    (("output_dir",), "", "config: output_dir must be a non-empty string"),
    (("solver", "target_n_eff"), float("nan"), "solver: target_n_eff must be a number"),
    (("counting", "powers_pW"), [0.05, float("nan")], "powers_pW must be a non-empty list of numbers"),
    (("solver", "policy", "far_nm"), 0, "cell sizes must be > 0"),
    (("solver", "policy", "x_base_nm"), -10, "cell sizes must be > 0"),
    (("solver", "policy", "edge_band_nm"), -1, "edge band and far margin must be >= 0"),
    (("layers",), [{"material": "GaAs", "substrate": True}], r"layers\[0\]: missing thickness"),
    (("wires", "thickness_nm"), _MISSING, r"wires: missing thickness_<nm\|um\|mm\|m>$"),
    (("wires", "count"), 10**400, "wires: count must be an integer"),
    (("sweeps", 0, "parameters", 0, "step"), 1e-307, "sweep range holds too many steps to count"),
    (("sweeps", 0, "parameters", 0, "stop"), -100, "sweep stop must be >= start"),
    (("sweeps", 0, "parameters"), [], "sweep needs at least one parameter"),
    (("sweeps", 0, "min_margin_um"), -0.1, "margin constraint must be >= 0"),
    (("sweeps", 0, "parameters", 0), {"name": "wire_count", "start": 1, "stop": 3, "step": 0.5},
     "sweep parameter wire_count: start and step must be whole numbers"),
    (("sweeps", 0, "parameters", 0), {"name": "wire_count", "start": 1.5, "stop": 3, "step": 1},
     "sweep parameter wire_count: start and step must be whole numbers"),
    (("counting", "powers_pW"), [0, 0, 0], "powers_pW must be >= 0 with at least two distinct values"),
    (("counting", "powers_pW"), [1.0], "powers_pW must be >= 0 with at least two distinct values"),
    (("counting", "powers_pW"), [1.0, 1.0], "powers_pW must be >= 0 with at least two distinct values"),
    (("counting", "powers_pW"), [-0.1, 1.0], "powers_pW must be >= 0 with at least two distinct values"),
    (("counting", "duration_s"), -1, "counting: duration_s must be > 0"),
    (("counting", "duration_s"), 0, "counting: duration_s must be > 0"),
    (("counting", "jitter_ps"), -1, "counting: jitter_ps must be >= 0"),
    (("wires", "material"), "Nb", "material 'Nb' referenced but not defined"),
    (("wires", "cap_material"), "Al2O3", "material 'Al2O3' referenced but not defined"),
    (("wires",), {}, "wires: missing count"),
    (("wires",), False, "wires: must be a JSON object"),
    (("wires",), 0, "wires: must be a JSON object"),
    (("wires",), [], "wires: must be a JSON object"),
    (("wires",), "", "wires: must be a JSON object"),
    (("detector", "bias_current_uA"), 20, "detector: operating point requires 0 < I_b < I_c"),
    (("detector", "internal_efficiency", "width"), 0,
     "detector: internal-efficiency logistic width must be > 0"),
    (("layers", 0, "thickness_um"), -1.5, "layer 'AlGaAs': thickness must be > 0"),
    (("solver", "target_n_eff"), -3.3, "target_n_eff must be > 0"),
    (("solver", "num_modes"), 0, "num_modes must be >= 1"),
    (("ridge", "width_nm"), 1850, r"ridge: width given in multiple units: \['width_um', 'width_nm'\]"),
], ids=["mode-5",
        "no-layers", "layer-without-material", "powers_pW-string", "layer-not-object",
        "sweeps-5", "parameters-5", "builtin-5", "builtin-xyz", "aluminum_fraction-x",
        "aluminum_fraction-1.5", "material-name-list", "layer-material-list", "ambient-list",
        "cap_material-object", "substrate-string",
        "table-empty", "table-negative-k", "table-decreasing", "builtin-and-table", "table-short-row",
        "table-NaN-n", "table-inf-k", "table-NaN-wavelength",
        "output_dir-null", "output_dir-5", "output_dir-empty",
        "target_n_eff-NaN", "powers_pW-NaN",
        "far-0", "x_base-negative", "edge_band-negative", "substrate-only", "wire-thickness-no-hint",
        "count-huge-int", "step-tiny", "stop-below-start",
        "no-sweep-parameters", "min_margin-negative", "wire_count-half-step", "wire_count-half-start",
        "powers_pW-all-zero", "powers_pW-one",
        "powers_pW-repeated", "powers_pW-negative", "duration_s-negative", "duration_s-0",
        "jitter_ps-negative", "wire-material-undefined", "cap-material-undefined",
        "wires-empty-object", "wires-false", "wires-0", "wires-empty-list", "wires-empty-string",
        "bias_current-above-critical", "logistic-width-0", "thickness-negative",
        "target_n_eff-negative", "num_modes-0", "width-in-two-units"])
def test_malformed_inputs_rejected(path, value, message):
    """Malformed values fail at load time as a ConfigError naming the key,
    not as a raw Python error that the CLI would report as an unexpected
    failure, a DomainError, or a failure later inside a pipeline stage."""
    raw = _raw_default()
    *parents, key = path
    node = _walk(raw, parents)
    if value is _MISSING:
        del node[key]
    else:
        node[key] = value
    with pytest.raises(ConfigError, match=message):
        load_project_config(raw)


@pytest.mark.parametrize("path, value, message", [
    (("version",), 1, "config: unknown keys ['version']"),
    (("aluminum_fraction",), 0.75, "config: unknown keys ['aluminum_fraction']"),
    (("layers", 0, "substrate"), True, "layers[0]: unknown keys ['substrate']"),
    (("materials", 0, "aluminum_fraction"), 0.7, "materials[0]: unknown keys ['aluminum_fraction']"),
    (("materials", 4), {"name": "air", "table_nm": [[1260, 1.0, 0.0], [1360, 1.0, 0.0]],
                        "aluminum_fraction": 0.7}, "materials[4]: unknown keys ['aluminum_fraction']"),
    (("ridge", "center_nm"), 100, "ridge: unknown keys ['center_nm']"),
    (("solver", "tolerance"), 1e-10, "solver: unknown keys ['tolerance']"),
    (("solver", "max_iterations"), 1000, "solver: unknown keys ['max_iterations']"),
    (("sweeps", 0, "point_cap"), 100, "sweeps[0]: unknown keys ['point_cap']"),
    (("detector", "wire_count"), 4, "detector: unknown keys ['wire_count']"),
    (("detector", "width_nm"), 100, "detector: unknown keys ['width_nm']"),
    (("detector", "tc_K"), 10, "detector: unknown keys ['tc_K']"),
    (("detector", "delta_tc_mK"), 500, "detector: unknown keys ['delta_tc_mK']"),
    (("targets",), {}, "config: unknown keys ['targets']"),
    (("fringes",), {}, "config: unknown keys ['fringes']"),
    (("pulse",), {}, "config: unknown keys ['pulse']"),
    (("jitter",), {}, "config: unknown keys ['jitter']"),
    (("detector", "internal_efficiency", "eta_max"), 0.22,
     "detector.internal_efficiency: unknown keys ['eta_max']"),
], ids=["version", "top-level-aluminum_fraction", "layer-substrate-flag", "gaas-aluminum_fraction",
        "table-aluminum_fraction", "ridge-center_nm", "solver-tolerance", "solver-max_iterations",
        "sweep-point_cap", "detector-wire_count", "detector-width_nm", "detector-tc_K",
        "detector-delta_tc_mK", "targets-empty", "fringes-empty", "pulse-empty", "jitter-empty",
        "internal_efficiency-eta_max"])
def test_retired_keys_are_refused(path, value, message):
    """A key the loader once read is refused by its name alone, like a key it
    never read: one row per retired key. The sections whose values are now
    constants of the code (the reference bands, the paper's measurements)
    are refused even empty."""
    raw = _raw_default()
    *parents, key = path
    _walk(raw, parents)[key] = value
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}; allowed: "):
        load_project_config(raw)


# -- every settable value the solver does not read takes effect ---------------

_EFFECT_REL = 1e-12   # a relative move below this is round-off, not an effect
_SOLVER_FREE_STAGES = ("fp-extract", "efficiency", "pulse", "jitter", "counting")


def _numeric_leaves(node, path):
    """(path, value) of every number under ``node``, list entries included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _numeric_leaves(value, path + (k,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


_SOLVER_FREE_VALUES = [("seed",)] + [
    path for section in ("detector", "counting")
    for path, _value in _numeric_leaves(_raw_default()[section], (section,))]


def _dotted(path) -> str:
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)[1:]


def _cells(text: str) -> list:
    """The data cells of a CSV file's text after its column line: a float
    where the cell reads as one, else the text."""
    return [_number_or_text(cell) for row in text.splitlines()[1:] for cell in row.split(",")]


def _number_or_text(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _outputs(raw: dict, tmp: Path) -> dict[str, list]:
    """Everything the solver-free stages of ``reproduce-paper`` and one
    ``counts`` run produce from the config ``raw``, by name: each stage's
    check values and notes, the text of every CSV data file after its header
    line (which carries the config digest), and the values of the count
    record's metadata."""
    config = load_project_config(raw)
    runners = {name: run for name, run, _deps in pipeline._STAGE_GRAPH}
    out = OutputDir(tmp / "repro")
    found, results = {}, {}
    for name in _SOLVER_FREE_STAGES:
        rec = pipeline.StageRecord(name)
        runners[name](config, out, rec, results)
        found[name] = [c.value for c in rec.checks] + list(rec.notes.values())
    path = tmp / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    result = CliRunner().invoke(main, ["counts", "--config", str(path), "--power-pw", "0.05",
                                       "--out", str(tmp / "counts")])
    assert result.exit_code == 0, result.output
    for file in sorted((tmp / "repro").iterdir()) + sorted((tmp / "counts").iterdir()):
        text = file.read_text(encoding="utf-8")
        found[file.name] = (text.split("\n", 1)[1] if file.suffix == ".csv" else
                            [v for k, v in sorted(json.loads(text).items()) if k != "_header"])
    return found


def _moved(before, after) -> bool:
    """Some value or data cell moved by more than ``_EFFECT_REL`` relative,
    changed its text, or the values differ in number."""
    if isinstance(before, str):
        if before == after:
            return False
        before, after = _cells(before), _cells(after)
    return len(before) != len(after) or any(
        x != y if isinstance(x, str) or isinstance(y, str)
        else abs(x - y) > _EFFECT_REL * max(abs(x), abs(y))
        for x, y in zip(before, after))


@pytest.fixture(scope="module")
def shipped_outputs(tmp_path_factory):
    return _outputs(_raw_default(), tmp_path_factory.mktemp("shipped"))


@pytest.mark.parametrize("path", _SOLVER_FREE_VALUES, ids=map(_dotted, _SOLVER_FREE_VALUES))
def test_every_solver_free_value_takes_effect(path, shipped_outputs, tmp_path):
    """Raising one settable value that no eigensolve reads by 5% (an integer
    by 1) moves some output by more than 1e-12 relative: a check value, note
    or data cell of the solver-free ``reproduce-paper`` stages, or a cell or
    metadata value of one ``counts`` run (the one command that reads
    ``counting.jitter_ps``). The values are the seed and every number of
    ``detector`` and ``counting``, each power of the ladder included; one
    that moves nothing is a dead knob."""
    raw = _raw_default()
    *parents, key = path
    node = _walk(raw, parents)
    node[key] = node[key] + 1 if isinstance(node[key], int) else node[key] * 1.05
    changed = _outputs(raw, tmp_path)
    assert changed.keys() == shipped_outputs.keys()
    assert any(_moved(shipped_outputs[name], changed[name]) for name in changed), (
        f"{_dotted(path)} moved no output")


# -- every settable value the solver reads takes effect -------------------------

_SOLVER_SECTIONS = ("wavelength_nm", "materials", "layers", "ridge", "wires", "window", "solver", "sweeps")
_SOLVER_VALUES = [path for section in _SOLVER_SECTIONS
                  for path, _value in _numeric_leaves(_raw_default()[section], (section,))]


def _solver_inputs(raw: dict) -> dict:
    """What the config ``raw`` hands the solver, by name: the painted grid
    (edges, permittivity and k0) at the config's policy, the SolverConfig,
    and each sweep's parameter values and constraint."""
    config = load_project_config(raw)
    grid = rasterize(config.cross_section, config.policy)
    return {
        "edges": (grid.x_edges_m.tolist(), grid.y_edges_m.tolist()),
        "eps": grid.eps.tolist(),
        "k0": grid.k0,
        "solver": config.solver,
        "sweeps": [(spec.mode_kind, spec.min_margin_m, [(p.name, p.values()) for p in spec.parameters])
                   for spec in config.sweeps],
    }


@pytest.fixture(scope="module")
def shipped_solver_inputs():
    return _solver_inputs(_raw_default())


@pytest.mark.parametrize("path", _SOLVER_VALUES, ids=map(_dotted, _SOLVER_VALUES))
def test_every_solver_value_takes_effect(path, shipped_solver_inputs):
    """Moving one settable value that the solver reads changes what it is
    handed: the painted grid, the SolverConfig, or a sweep's values or
    constraint. A value is raised by 5% (an integer by 1, so the 0 nm wire
    offset moves to 1 nm), except two: ``wavelength_nm`` is lowered by 1%, as
    5% either way leaves the tabulated 1260-1360 nm band, and a sweep's
    ``stop`` moves by one step, as 5% of it adds no point. No solve runs; one
    that changes nothing is a dead knob."""
    raw = _raw_default()
    *parents, key = path
    node = _walk(raw, parents)
    if path == ("wavelength_nm",):
        node[key] *= 0.99
    elif key == "stop":
        node[key] += node["step"]
    else:
        node[key] = node[key] + 1 if isinstance(node[key], int) else node[key] * 1.05
    changed = _solver_inputs(raw)
    assert any(changed[name] != shipped_solver_inputs[name] for name in changed), (
        f"{_dotted(path)} changed nothing the solver is handed")


def test_effect_tests_cover_every_numeric_leaf():
    """The solver-side and solver-free effect tests together move every
    number of the shipped config once, so a new numeric key fails here until
    it joins one of them."""
    every = [path for path, _value in _numeric_leaves(_raw_default(), ())]
    assert len(every) == 47
    assert sorted(map(_dotted, _SOLVER_VALUES + _SOLVER_FREE_VALUES)) == sorted(map(_dotted, every))


@pytest.mark.parametrize("with_detector", [True, False], ids=["detector", "no-detector"])
def test_meander_follows_wires(with_detector):
    """The wires the mode solver paints are the meander whose kinetic
    inductance the pulse, recovery and counting models use: two wires
    halve the shipped 180 nH and 3.6 ns, with or without a detector section."""
    from snspdkit.detector import kinetic_inductance, recovery_time_constant

    raw = _raw_default()
    raw["wires"]["count"] = 2
    if not with_detector:
        del raw["detector"]
    cfg = load_project_config(raw)
    assert cfg.cross_section.wires.count == cfg.detector.wire_count == 2
    assert kinetic_inductance(cfg.detector) == pytest.approx(90e-9, rel=1e-12)
    assert recovery_time_constant(cfg.detector) == pytest.approx(1.8e-9, rel=1e-12)


def test_no_wires_keeps_detector_defaults():
    from snspdkit.detector import DetectorModel

    raw = _raw_default()
    raw["wires"] = None
    cfg = load_project_config(raw)
    assert cfg.cross_section.wires is None
    assert (cfg.detector.wire_count, cfg.detector.wire_width_m) == (
        DetectorModel.wire_count, DetectorModel.wire_width_m)


def _walk(raw, path):
    """The node of ``raw`` at ``path``."""
    for step in path:
        raw = raw[step]
    return raw


_SECTIONS = {
    (): "config", ("ridge",): "ridge", ("wires",): "wires", ("window",): "window",
    ("solver",): "solver", ("solver", "policy"): "solver.policy", ("detector",): "detector",
    ("detector", "internal_efficiency"): "detector.internal_efficiency",
    ("detector", "dark_counts"): "detector.dark_counts", ("counting",): "counting",
    ("materials", 0): "materials[0]", ("layers", 0): "layers[0]", ("sweeps", 0): "sweeps[0]",
    ("sweeps", 0, "parameters", 0): "sweeps[0].parameters[0]",
}


@pytest.mark.parametrize("path", list(_SECTIONS), ids=list(_SECTIONS.values()))
def test_extra_key_rejected_in_every_section(path):
    """A key nothing reads is rejected in each of the 14 JSON objects of the
    schema, with a message naming the object and the key."""
    raw = _raw_default()
    _walk(raw, path)["zz_surprise"] = 1
    with pytest.raises(ConfigError, match=re.escape(f"{_SECTIONS[path]}: unknown keys ['zz_surprise']")):
        load_project_config(raw)


def test_omitted_solver_settings_take_the_defaults():
    raw = _raw_default()
    del raw["solver"]["num_modes"]
    assert load_project_config(raw).solver == SolverConfig()


def test_residual_gate_is_a_constant_not_a_setting(default_config):
    """The eigen-residual gate is a class constant, not a dataclass field
    (so no constructor argument), read the same through a loaded config."""
    assert [f.name for f in fields(SolverConfig)] == ["num_modes", "target_n_eff"]
    assert SolverConfig.tolerance == default_config.solver.tolerance == 1e-10


def test_default_counting_ladder_is_the_shipped_ladder(default_config):
    """A config without ``counting.powers_pW`` counts at the shipped powers,
    bit for bit: the default ladder is rounded to 1e-6 pW as shipped."""
    raw = _raw_default()
    del raw["counting"]["powers_pW"]
    assert load_project_config(raw).counting.powers_w == default_config.counting.powers_w


def test_unit_suffixes_equivalent():
    raw = _raw_default()
    raw["ridge"]["width_nm"] = 1850
    del raw["ridge"]["width_um"]
    cfg = load_project_config(raw)
    assert cfg.cross_section.ridge.width_m == pytest.approx(1.85e-6)


def test_digest_stable_and_sensitive():
    raw = _raw_default()
    assert config_digest(raw) == config_digest(_raw_default())
    raw["seed"] += 1
    assert config_digest(raw) != config_digest(_raw_default())


def test_stage_seeds_derived_and_distinct(default_config):
    s1 = default_config.stage_seed("counting")
    s2 = default_config.stage_seed("counting")
    s3 = default_config.stage_seed("counts")
    assert s1 == s2
    assert s1 != s3
    assert stable_seed(1, "a") != stable_seed(2, "a")


def test_paper_measurements_are_constants():
    """The paper's fringe extrema, pulse rise and FWHM and jitter figures
    that ``reproduce-paper`` starts from are constants in the paper's units,
    not config fields (a config that sets them fails: see
    test_retired_keys_are_refused)."""
    from snspdkit import config, detector

    assert (config.FRINGE_T_MAX, config.FRINGE_T_MIN) == (0.061, 0.018)
    assert (config.PULSE_RISE_PS, config.PULSE_FWHM_NS) == (200.0, 3.2)
    assert (config.JITTER_TOTAL_PS, config.JITTER_SOURCE_PS) == (73.0, 40.0)
    assert not {"fringes", "pulse_rise_s", "pulse_fwhm_target_s", "jitter_total_s",
                "jitter_source_s"} & {f.name for f in fields(ProjectConfig)}
    assert not hasattr(detector, "pulse_fall_time")


def _rel(value, tol):
    return value - value * tol, value + value * tol


def _abs(value, tol):
    return value - tol, value + tol


# The acceptance criteria's numbers for each checked band, written out here
# rather than read from TARGETS, so that moving a tolerance fails a test.
_PAPER_BANDS = {
    "alpha_per_cm": _rel(451.0, 0.15),
    "absorptance_51um": _abs(0.90, 0.005),
    "absorptance_102um": _abs(0.99, 0.002),
    "kinetic_inductance_nH": _rel(180.0, 1e-12),
    "tau_ns": _rel(3.6, 1e-12),
    "recovery_3tau": _abs(0.950, 0.001),
    "max_rate_MHz": _rel(1e3 / (3.0 * 3.6), 1e-9),
    "coupling": _abs(0.174, 0.001),
    "sqe": _abs(0.034, 0.001),
    "jitter_intrinsic_ps": _abs(61.1, 0.1),
}


def test_reference_bands_are_the_acceptance_tolerances():
    """Every band a ``reproduce-paper`` check scores against is the paper's
    value with the acceptance tolerance, as are the TM design floor and the
    counting round-trip tolerance. ``dqe`` is an input only: the efficiency
    and counting chain inverts the internal efficiency from it, and no stage
    checks it."""
    for name, expected in _PAPER_BANDS.items():
        assert band(TARGETS[name]) == expected, name
    assert TARGETS["tm_alpha_min_per_cm"] == 500.0
    assert TARGETS["sqe_slope_rel_tol"] == 0.03
    assert TARGETS["dqe"] == {"value": 0.197}
    assert set(TARGETS) == {*_PAPER_BANDS, "tm_alpha_min_per_cm", "sqe_slope_rel_tol", "dqe"}
    assert "targets" not in {f.name for f in fields(ProjectConfig)}


def test_null_cap_material_is_no_cap():
    """``wires.cap_material: null`` names no cap, while every other material
    name must be a string (see test_cli)."""
    raw = _raw_default()
    raw["wires"].update(cap_material=None, cap_thickness_nm=0)
    assert load_project_config(raw).cross_section.wires.cap_material is None
    raw["wires"]["material"] = None
    with pytest.raises(ConfigError, match="wires: material must be a non-empty string"):
        load_project_config(raw)


def test_custom_material_table():
    raw = _raw_default()
    raw["materials"].append({"name": "probe", "table_nm": [[1260, 2.0, 0.1], [1360, 2.1, 0.2]]})
    cfg = load_project_config(raw)
    assert "probe" in cfg.cross_section.materials
    from snspdkit.materials import lookup_index

    got = lookup_index(cfg.cross_section.materials["probe"], 1310e-9)
    assert got.real == pytest.approx(2.05)
    assert got.imag == pytest.approx(-0.15)


def test_band_edge_wavelengths_in_range():
    """Wavelengths in nm convert as nm / 1e9, so the band edges given in a
    config land exactly on the edges of the shipped and custom tables."""
    raw = _raw_default()
    raw["materials"].append({"name": "probe", "table_nm": [[1260, 2.0, 0.1], [1360, 2.1, 0.2]]})
    for nm, probe in ((1260, complex(2.0, -0.1)), (1360, complex(2.1, -0.2))):
        raw["wavelength_nm"] = nm
        cs = load_project_config(raw).cross_section
        assert cs.wavelength_m == nm / 1e9
        assert cs.index_of("probe") == probe
        for name in cs.materials:
            cs.index_of(name)   # no WavelengthRangeError


# a coarse grid for the two real solves below
_COARSE_POLICY = {"base_nm": 50, "fine_nm": 2, "band_nm": 30, "edge_band_nm": 12, "far_nm": 125,
                  "far_margin_nm": 400}


def test_alternate_stack_options_solve():
    """The 0.70 aluminum fraction and 4.0 nm wire thickness options stay
    usable end to end (coarse grid; loose absorption sanity band)."""
    from snspdkit.modes import modal_absorption, solve_cross_section

    raw = _raw_default()
    raw["materials"][1]["aluminum_fraction"] = 0.70
    raw["wires"]["thickness_nm"] = 4.0
    raw["solver"]["policy"] = _COARSE_POLICY
    cfg = load_project_config(raw)
    assert cfg.cross_section.index_of("AlGaAs").real == pytest.approx(3.0519, abs=2e-4)
    _grid, te = solve_cross_section(cfg.cross_section, cfg.policy, cfg.solver, kind="TE")
    assert te is not None
    assert 200.0 < modal_absorption(te) < 800.0


def test_solve_at_other_wavelength_in_band(tmp_path):
    """A mode carries the wavelength its grid was painted at, bit for bit:
    1340 nm does not survive a round trip through k0 = 2*pi/lambda, so the
    mode's field header and the grid's sidecar would otherwise disagree."""
    from snspdkit.io_utils import export_grid, export_mode_fields
    from snspdkit.modes import modal_absorption, solve_cross_section
    from snspdkit.sweep import apply_parameters

    raw = _raw_default()
    raw["solver"]["policy"] = _COARSE_POLICY
    cfg = load_project_config(raw)
    shifted = apply_parameters(cfg.cross_section, {"wavelength_nm": 1340.0})
    grid, te = solve_cross_section(shifted, cfg.policy, cfg.solver, kind="TE")
    assert te is not None
    out = OutputDir(tmp_path)
    export_mode_fields(te, out, "mode", cfg.digest)
    export_grid(grid, out, "grid", cfg.digest)
    header = json.loads((tmp_path / "mode_header.json").read_text())
    sidecar = json.loads((tmp_path / "grid_coords.json").read_text())
    assert header["wavelength_m"] == sidecar["wavelength_m"] == 1340 / 1e9
    assert te.grid.wavelength_m == 1340 / 1e9
    assert modal_absorption(te) > 100.0


def test_config_file_errors(tmp_path):
    """Every source that cannot be read as a config is a ConfigError naming
    the path or the source type. An int or a bool is not taken as a file
    descriptor (``load_project_config(True)`` once read, then closed, stdout)."""
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([_raw_default()]))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"version": "caf\u00e9"}'.encode("latin-1"))
    cases = [
        (tmp_path / "missing.json", "not found"),
        (bad, "not valid JSON"),
        (listed, "config root must be a JSON object"),
        (tmp_path, f"config file {re.escape(str(tmp_path))} cannot be read"),
        (str(latin1), f"config file {re.escape(str(latin1))} cannot be read"),
        (True, "config source must be a dict or a file path, got bool"),
        (1, "config source must be a dict or a file path, got int"),
        ([], "config source must be a dict or a file path, got list"),
    ]
    for source, message in cases:
        with pytest.raises(ConfigError, match=message):
            load_project_config(source)
