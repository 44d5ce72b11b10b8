import json
import re

import pytest

from snspdkit.config import (
    DEFAULT_TARGETS,
    config_digest,
    default_config_path,
    load_project_config,
    stable_seed,
)
from snspdkit.errors import ConfigError


def _raw_default():
    with open(default_config_path(), encoding="utf-8") as fh:
        return json.load(fh)


def test_shipped_config_loads(default_config):
    cfg = default_config
    assert cfg.cross_section.wavelength_m == pytest.approx(1300e-9)
    assert cfg.cross_section.wires.count == 4
    assert cfg.detector.critical_current_A == pytest.approx(16.9e-6)
    assert cfg.fringes.t_max == pytest.approx(0.061)
    assert cfg.policy.base_m == pytest.approx(25e-9)
    assert cfg.targets["alpha_per_cm"]["value"] == 451.0
    assert len(cfg.counting.powers_w) == 10
    assert cfg.sweeps and cfg.sweeps[0].parameters[0].name == "array_offset_nm"


def test_unknown_keys_rejected():
    raw = _raw_default()
    raw["surprise"] = 1
    with pytest.raises(ConfigError, match="surprise"):
        load_project_config(raw)
    raw = _raw_default()
    raw["ridge"]["colour"] = "blue"
    with pytest.raises(ConfigError, match="colour"):
        load_project_config(raw)
    raw = _raw_default()
    raw["ridge"]["center_nm"] = 100
    with pytest.raises(ConfigError, match="center_nm"):
        load_project_config(raw)
    raw = _raw_default()
    raw["solver"]["policy"]["growth"] = 1.6
    with pytest.raises(ConfigError, match=re.escape("solver.policy: unknown keys ['growth']")):
        load_project_config(raw)
    raw = _raw_default()
    raw["materials"][4] = {"name": "air", "table_nm": [[1260, 1.0, 0.0], [1360, 1.0, 0.0]],
                           "aluminum_fraction": 0.7}
    with pytest.raises(ConfigError, match=re.escape("materials[4]: unknown keys ['aluminum_fraction']")):
        load_project_config(raw)


@pytest.mark.parametrize("section, key, misspelt, message", [
    ("ridge", "width_um", "widht_um", "ridge: missing width_<nm|um|mm|m>; did you mean 'widht_um'?"),
    ("wires", "count", "coutn", "wires: missing count; did you mean 'coutn'?"),
], ids=["ridge-widht_um", "wires-coutn"])
def test_misspelled_required_key_named(section, key, misspelt, message):
    """A required key given under a misspelt name is reported as missing,
    with the misspelt key the document does give as the likely meaning."""
    raw = _raw_default()
    raw[section][misspelt] = raw[section].pop(key)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_project_config(raw)


_MISSING = object()


@pytest.mark.parametrize("path, value, message", [
    (("sweeps", 0, "point_cap"), 2.9, "point_cap must be an integer"),
    (("sweeps", 0, "point_cap"), True, "point_cap must be an integer"),
    (("sweeps", 0, "point_cap"), "many", "point_cap must be an integer"),
    (("sweeps", 0, "point_cap"), 0, "point_cap must be >= 1"),
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
    (("materials", 0, "name"), [1], r"materials\[0\]: name must be a non-empty string"),
    (("layers", 0, "substrate"), "no", r"layers\[0\]: substrate must be true or false"),
    (("targets", "coupling", "value"), "x", "targets.coupling: value must be a number"),
    (("targets", "coupling", "abs_tol"), "x", "targets.coupling: abs_tol must be a number"),
    (("targets", "coupling", "abs_tol"), None, "targets.coupling: needs abs_tol or rel_tol"),
    (("targets", "tm_alpha_min_per_cm"), "x", "targets: tm_alpha_min_per_cm must be a number"),
    (("materials", 4), {"name": "air", "table_nm": []},
     r"materials\[4\]: material 'air': empty index table"),
    (("materials", 4), {"name": "air", "table_nm": [[1260, 1.0, -0.1], [1360, 1.0, 0.0]]},
     r"materials\[4\]: material 'air': index must be given as n - 1j\*k with k >= 0"),
    (("materials", 4), {"name": "air", "table_nm": [[1360, 1.0, 0.0], [1260, 1.0, 0.0]]},
     r"materials\[4\]: material 'air': wavelengths not strictly increasing"),
    (("output_dir",), None, "config: output_dir must be a non-empty string"),
    (("output_dir",), 5, "config: output_dir must be a non-empty string"),
    (("output_dir",), "", "config: output_dir must be a non-empty string"),
    (("solver", "tolerance"), float("inf"), "solver: tolerance must be a number"),
    (("solver", "target_n_eff"), float("nan"), "solver: target_n_eff must be a number"),
    (("solver", "tolerance"), 10**400, "solver: tolerance must be a number"),
    (("counting", "powers_pW"), [0.05, float("nan")], "powers_pW must be a non-empty list of numbers"),
    (("solver", "policy", "far_nm"), 0, "cell sizes must be > 0"),
    (("solver", "policy", "x_base_nm"), -10, "cell sizes must be > 0"),
    (("solver", "policy", "edge_band_nm"), -1, "edge band and far margin must be >= 0"),
    (("layers",), [{"material": "GaAs", "substrate": True}], "needs a layer above the substrate"),
    (("wires", "thickness_nm"), _MISSING, r"wires: missing thickness_<nm\|um\|mm\|m>$"),
    (("wires", "count"), 10**400, "wires: count must be an integer"),
    (("detector", "wire_count"), 10**400, "detector: wire_count must be an integer"),
    (("solver", "max_iterations"), 10**400, "solver: max_iterations must be an integer"),
    (("solver", "max_iterations"), 2**63, r"max_iterations must be <= 2\*\*31 - 1"),
    (("solver", "max_iterations"), 2**31, r"max_iterations must be <= 2\*\*31 - 1"),
    (("sweeps", 0, "parameters", 0, "step"), 1e-307, "sweep range holds too many steps to count"),
], ids=["point_cap-2.9", "point_cap-true", "point_cap-many", "point_cap-0", "mode-5",
        "no-layers", "layer-without-material", "powers_pW-string", "layer-not-object",
        "sweeps-5", "parameters-5", "builtin-5", "builtin-xyz", "aluminum_fraction-x",
        "material-name-list", "substrate-string",
        "target-value-x", "target-abs_tol-x", "target-no-tolerance", "target-scalar-x",
        "table-empty", "table-negative-k", "table-decreasing",
        "output_dir-null", "output_dir-5", "output_dir-empty",
        "tolerance-Infinity", "target_n_eff-NaN", "tolerance-huge-int", "powers_pW-NaN",
        "far-0", "x_base-negative", "edge_band-negative", "substrate-only", "wire-thickness-no-hint",
        "count-huge-int", "wire_count-huge-int", "max_iterations-huge-int", "max_iterations-2**63",
        "max_iterations-2**31", "step-tiny"])
def test_malformed_inputs_rejected(path, value, message):
    """Malformed values fail at load time as a ConfigError naming the key,
    not as a raw Python error that the CLI would report as an unexpected
    failure, a DomainError, or a failure later inside a pipeline stage.
    Sections the shipped config omits (``targets``) are created on the way."""
    raw = _raw_default()
    *parents, key = path
    node = _walk(raw, parents)
    if value is _MISSING:
        del node[key]
    else:
        node[key] = value
    with pytest.raises(ConfigError, match=message):
        load_project_config(raw)


def _walk(raw, path):
    """The node at ``path``, creating missing JSON-object sections on the way."""
    node = raw
    for step in path:
        node = node[step] if isinstance(node, list) else node.setdefault(step, {})
    return node


_SECTIONS = {
    (): "config", ("ridge",): "ridge", ("wires",): "wires", ("window",): "window",
    ("solver",): "solver", ("solver", "policy"): "solver.policy", ("detector",): "detector",
    ("detector", "internal_efficiency"): "detector.internal_efficiency",
    ("detector", "dark_counts"): "detector.dark_counts", ("fringes",): "fringes",
    ("pulse",): "pulse", ("counting",): "counting", ("jitter",): "jitter",
    ("materials", 0): "materials[0]", ("layers", 0): "layers[0]", ("sweeps", 0): "sweeps[0]",
    ("sweeps", 0, "parameters", 0): "sweeps[0].parameters[0]", ("targets",): "targets",
    ("targets", "coupling"): "targets.coupling",
}


@pytest.mark.parametrize("path", list(_SECTIONS), ids=list(_SECTIONS.values()))
def test_extra_key_rejected_in_every_section(path):
    """A key nothing reads is rejected in each of the 19 JSON objects of the
    schema, with a message naming the object and the key."""
    raw = _raw_default()
    _walk(raw, path)["zz_surprise"] = 1
    with pytest.raises(ConfigError, match=re.escape(f"{_SECTIONS[path]}: unknown keys ['zz_surprise']")):
        load_project_config(raw)


def test_negative_thickness_rejected():
    raw = _raw_default()
    raw["layers"][1]["thickness_um"] = -1.5
    with pytest.raises(ConfigError, match="thickness"):
        load_project_config(raw)


@pytest.mark.parametrize("key, value, message", [
    ("max_iterations", 0, "max_iterations must be >= 1"),
    ("max_iterations", 2.5, "max_iterations must be an integer"),
    ("target_n_eff", -3.3, "target_n_eff must be > 0"),
], ids=["max_iterations-0", "max_iterations-2.5", "target_n_eff--3.3"])
def test_invalid_solver_settings_rejected(key, value, message):
    """Settings ARPACK cannot run with, or that the shift would silently
    square into another value, fail at load time, not inside the solve."""
    raw = _raw_default()
    raw["solver"][key] = value
    with pytest.raises(ConfigError, match=message):
        load_project_config(raw)


def test_duplicate_units_rejected():
    raw = _raw_default()
    raw["ridge"]["width_nm"] = 1850
    with pytest.raises(ConfigError, match="multiple units"):
        load_project_config(raw)


def test_missing_unit_rejected():
    raw = _raw_default()
    del raw["ridge"]["width_um"]
    raw["ridge"]["width"] = 1.85e-6
    with pytest.raises(ConfigError):
        load_project_config(raw)


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


def test_target_overrides_merge():
    raw = _raw_default()
    raw["targets"] = {"alpha_per_cm": {"rel_tol": 0.10}}
    cfg = load_project_config(raw)
    assert cfg.targets["alpha_per_cm"]["value"] == 451.0
    assert cfg.targets["alpha_per_cm"]["rel_tol"] == 0.10
    assert cfg.targets["sqe"] == DEFAULT_TARGETS["sqe"]
    raw["targets"] = {"alpha_per_cm": {"abs_tol": None}}   # null abs_tol: the rel_tol band
    assert load_project_config(raw).targets["alpha_per_cm"] == {
        "value": 451.0, "rel_tol": 0.15, "abs_tol": None}
    raw["targets"] = {"nonsense": 1}
    with pytest.raises(ConfigError, match="nonsense"):
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


def test_alternate_stack_options_solve():
    """The 0.70 aluminum fraction and 4.0 nm wire thickness options stay
    usable end to end (coarse grid; loose absorption sanity band)."""
    from snspdkit import ResolutionPolicy, SolverConfig
    from snspdkit.modes import modal_absorption, solve_cross_section

    raw = _raw_default()
    raw["aluminum_fraction"] = 0.70
    raw["wires"]["thickness_nm"] = 4.0
    raw["solver"]["policy"] = {"base_nm": 50, "fine_nm": 2, "band_nm": 30,
                               "edge_band_nm": 12, "far_nm": 125, "far_margin_nm": 400}
    cfg = load_project_config(raw)
    assert cfg.cross_section.index_of("AlGaAs").real == pytest.approx(3.0519, abs=2e-4)
    _grid, te = solve_cross_section(cfg.cross_section, cfg.policy, cfg.solver, kind="TE")
    assert te is not None
    assert 200.0 < modal_absorption(te) < 800.0


def test_solve_at_other_wavelength_in_band():
    from snspdkit import ResolutionPolicy, SolverConfig
    from snspdkit.modes import modal_absorption, solve_cross_section
    from snspdkit.sweep import apply_parameters

    raw = _raw_default()
    raw["solver"]["policy"] = {"base_nm": 50, "fine_nm": 2, "band_nm": 30,
                               "edge_band_nm": 12, "far_nm": 125, "far_margin_nm": 400}
    cfg = load_project_config(raw)
    shifted = apply_parameters(cfg.cross_section, {"wavelength_nm": 1340.0})
    _grid, te = solve_cross_section(shifted, cfg.policy, cfg.solver, kind="TE")
    assert te is not None
    assert te.wavelength_m == pytest.approx(1340e-9)
    assert modal_absorption(te) > 100.0


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_project_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_project_config(bad)
