"""Project configuration: JSON schema ingestion and validation.

Schema rules: unknown keys are rejected everywhere; every physical quantity
carries its unit in the key name (``_nm``, ``_um``, ``_pH_per_sq``, ...).
Lengths accept any of the ``_nm/_um/_mm/_m`` suffixes, exactly one per
field. Internal computation is SI throughout; conversion happens only here.

The config digest (sha256 of the canonical JSON) is stamped into every
output file header. Per-stage random seeds derive from the single global
seed by stable hashing, so stages are reproducible without cross-coupling.
"""

import hashlib
import importlib.resources
import json
from dataclasses import dataclass, field
from pathlib import Path

from .detector import DetectorModel
from .errors import ConfigError, DomainError
from .fabry_perot import FringeData
from .geometry import CrossSection, Layer, LayerStack, NanowireArray, ResolutionPolicy, RidgeSpec
from .materials import Material, default_materials, make_builtin_material
from .modes import SolverConfig
from .sweep import SweepParameter, SweepSpec

_LENGTH_UNITS = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0}

DEFAULT_TARGETS = {
    "alpha_per_cm": {"value": 451.0, "rel_tol": 0.15},
    "absorptance_51um": {"value": 0.90, "abs_tol": 0.005},
    "absorptance_102um": {"value": 0.99, "abs_tol": 0.002},
    "kinetic_inductance_nH": {"value": 180.0, "rel_tol": 1e-12},
    "tau_ns": {"value": 3.6, "rel_tol": 1e-12},
    "recovery_3tau": {"value": 0.950, "abs_tol": 0.001},
    "max_rate_MHz": {"value": 1e3 / (3.0 * 3.6), "rel_tol": 1e-9},
    "coupling": {"value": 0.174, "abs_tol": 0.001},
    "dqe": {"value": 0.197, "abs_tol": 0.002},
    "sqe": {"value": 0.034, "abs_tol": 0.001},
    "jitter_intrinsic_ps": {"value": 61.1, "abs_tol": 0.1},
    "sqe_slope_rel_tol": 0.03,
    "tm_alpha_min_per_cm": 500.0,
}


def _check_keys(obj: dict, allowed: set[str], ctx: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def _length(obj: dict, base: str, ctx: str, required: bool = True,
            default: float | None = None) -> float | None:
    """The length ``base_<unit>`` in metres; exactly one unit suffix allowed."""
    hits = [(k, _LENGTH_UNITS[k.rsplit("_", 1)[-1]]) for k in obj
            if k.startswith(base + "_") and k.rsplit("_", 1)[-1] in _LENGTH_UNITS
            and k[: -len(k.rsplit("_", 1)[-1]) - 1] == base]
    if len(hits) > 1:
        raise ConfigError(f"{ctx}: {base} given in multiple units: {[h[0] for h in hits]}")
    if not hits:
        if required:
            raise ConfigError(f"{ctx}: missing {base}_<{'|'.join(_LENGTH_UNITS)}>")
        return default
    key, scale = hits[0]
    value = obj[key]
    if not _is_number(value):
        raise ConfigError(f"{ctx}: {key} must be a number")
    return float(value) * scale


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _length_keys(base: str) -> set[str]:
    return {f"{base}_{u}" for u in _LENGTH_UNITS}


def _number(obj: dict, key: str, ctx: str, required: bool = True, default=None):
    if key not in obj:
        if required:
            raise ConfigError(f"{ctx}: missing {key}")
        return default
    v = obj[key]
    if not _is_number(v):
        raise ConfigError(f"{ctx}: {key} must be a number")
    return float(v)


def _list(value, ctx: str, empty_ok: bool = False) -> list:
    if not isinstance(value, list) or not (value or empty_ok):
        raise ConfigError(f"{ctx}: must be a {'' if empty_ok else 'non-empty '}list")
    return value


def _integer(obj: dict, key: str, ctx: str, default=None) -> int:
    v = obj.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{ctx}: {key} must be an integer")
    return v


@dataclass(frozen=True)
class CountingSpec:
    powers_w: tuple[float, ...]
    duration_s: float
    jitter_sigma_s: float


@dataclass(frozen=True, eq=False)
class ProjectConfig:
    raw: dict = field(repr=False)
    digest: str = ""
    seed: int = 0
    output_dir: str = "runs"
    cross_section: CrossSection = None
    policy: ResolutionPolicy = None
    solver: SolverConfig = None
    detector: DetectorModel = None
    fringes: FringeData = None
    pulse_rise_s: float = 200e-12
    pulse_fwhm_target_s: float | None = None
    counting: CountingSpec = None
    jitter_total_s: float = 73e-12
    jitter_source_s: float = 40e-12
    sweeps: tuple[SweepSpec, ...] = ()
    targets: dict = field(default_factory=dict)

    def stage_seed(self, stage: str) -> int:
        return stable_seed(self.seed, stage)


def stable_seed(global_seed: int, stage: str) -> int:
    payload = f"{global_seed}::{stage}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little") % (2**63)


def config_digest(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()[:16]


# ---------------------------------------------------------------------------
# section parsers
# ---------------------------------------------------------------------------

def _parse_materials(entries, aluminum_fraction: float) -> dict[str, Material]:
    mats: dict[str, Material] = {}
    for k, entry in enumerate(_list(entries, "materials")):
        ctx = f"materials[{k}]"
        _check_keys(entry, {"name", "builtin", "table_nm", "aluminum_fraction"}, ctx)
        name = entry.get("name")
        if not name or not isinstance(name, str):
            raise ConfigError(f"{ctx}: name must be a non-empty string")
        if ("builtin" in entry) == ("table_nm" in entry):
            raise ConfigError(f"{ctx}: exactly one of 'builtin' or 'table_nm' required")
        if "builtin" in entry:
            if not isinstance(entry["builtin"], str):
                raise ConfigError(f"{ctx}: builtin must be a string")
            frac = _number(entry, "aluminum_fraction", ctx, required=False, default=aluminum_fraction)
            try:
                mats[name] = make_builtin_material(name, entry["builtin"], frac)
            except DomainError as exc:
                raise ConfigError(f"{ctx}: {exc}") from exc
        else:
            rows = entry["table_nm"]
            try:
                wl = tuple(float(r[0]) / 1e9 for r in rows)
                idx = tuple(complex(float(r[1]), -float(r[2])) for r in rows)
            except (TypeError, IndexError, ValueError) as exc:
                raise ConfigError(f"{ctx}: table_nm rows must be [wavelength_nm, n, k]") from exc
            mats[name] = Material(name, wl, idx)
    return mats


def _parse_layers(entries) -> tuple[Layer, ...]:
    layers = []
    for k, entry in enumerate(_list(entries, "layers")):
        ctx = f"layers[{k}]"
        _check_keys(entry, {"material", "substrate"} | _length_keys("thickness"), ctx)
        if "material" not in entry:
            raise ConfigError(f"{ctx}: missing material")
        substrate = entry.get("substrate", False)
        if not isinstance(substrate, bool):
            raise ConfigError(f"{ctx}: substrate must be true or false")
        thickness = _length(entry, "thickness", ctx, required=not substrate)
        layers.append(Layer(entry["material"], thickness, substrate))
    return tuple(layers)


def _parse_ridge(obj) -> RidgeSpec:
    ctx = "ridge"
    _check_keys(obj, _length_keys("width") | _length_keys("etch_depth"), ctx)
    return RidgeSpec(
        width_m=_length(obj, "width", ctx),
        etch_depth_m=_length(obj, "etch_depth", ctx),
    )


def _parse_wires(obj) -> NanowireArray:
    ctx = "wires"
    allowed = ({"count", "material", "cap_material"} | _length_keys("width")
               | _length_keys("pitch") | _length_keys("thickness")
               | _length_keys("cap_thickness") | _length_keys("offset"))
    _check_keys(obj, allowed, ctx)
    count = _integer(obj, "count", ctx)
    return NanowireArray(
        count=count,
        width_m=_length(obj, "width", ctx),
        pitch_m=_length(obj, "pitch", ctx, required=count > 1, default=_length(obj, "width", ctx)),
        thickness_m=_length(obj, "thickness", ctx),
        material=obj.get("material", "NbN"),
        cap_material=obj.get("cap_material"),
        cap_thickness_m=_length(obj, "cap_thickness", ctx, required=False, default=0.0),
        offset_m=_length(obj, "offset", ctx, required=False, default=0.0),
    )


def _parse_policy(obj) -> ResolutionPolicy:
    ctx = "solver.policy"
    allowed = (_length_keys("base") | _length_keys("fine") | _length_keys("band")
               | _length_keys("edge_band") | _length_keys("far") | _length_keys("far_margin")
               | _length_keys("x_base") | {"growth"})
    _check_keys(obj, allowed, ctx)
    kwargs = {}
    for name, attr in (("base", "base_m"), ("fine", "fine_m"), ("band", "band_m"),
                       ("edge_band", "edge_band_m"), ("far", "far_m"),
                       ("far_margin", "far_margin_m"), ("x_base", "x_base_m")):
        v = _length(obj, name, ctx, required=False)
        if v is not None:
            kwargs[attr] = v
    if "growth" in obj:
        kwargs["growth"] = _number(obj, "growth", ctx)
    return ResolutionPolicy(**kwargs)


def _parse_solver(obj) -> tuple[SolverConfig, ResolutionPolicy]:
    ctx = "solver"
    _check_keys(obj, {"num_modes", "target_n_eff", "tolerance", "max_iterations", "policy"}, ctx)
    policy = _parse_policy(obj.get("policy", {}))
    cfg = SolverConfig(
        num_modes=_integer(obj, "num_modes", ctx, default=8),
        target_n_eff=_number(obj, "target_n_eff", ctx, required=False),
        tolerance=_number(obj, "tolerance", ctx, required=False, default=1e-10),
        max_iterations=_integer(obj, "max_iterations", ctx, default=400),
    )
    return cfg, policy


def _parse_detector(obj) -> DetectorModel:
    ctx = "detector"
    allowed = ({"wire_count", "sheet_inductance_pH_per_sq", "load_resistance_ohm",
                "critical_current_uA", "bias_current_uA", "internal_efficiency",
                "dark_counts", "tc_K", "delta_tc_mK"}
               | _length_keys("length") | _length_keys("width"))
    _check_keys(obj, allowed, ctx)
    ie = obj.get("internal_efficiency", {})
    _check_keys(ie, {"eta_max", "midpoint", "width"}, f"{ctx}.internal_efficiency")
    dc = obj.get("dark_counts", {})
    _check_keys(dc, {"prefactor_hz", "slope"}, f"{ctx}.dark_counts")
    return DetectorModel(
        wire_count=_integer(obj, "wire_count", ctx, default=4),
        wire_length_m=_length(obj, "length", ctx),
        wire_width_m=_length(obj, "width", ctx),
        sheet_inductance_H=_number(obj, "sheet_inductance_pH_per_sq", ctx) * 1e-12,
        load_resistance_ohm=_number(obj, "load_resistance_ohm", ctx),
        critical_current_A=_number(obj, "critical_current_uA", ctx) * 1e-6,
        bias_current_A=_number(obj, "bias_current_uA", ctx) * 1e-6,
        eta_max=_number(ie, "eta_max", ctx, required=False, default=0.22),
        bias_midpoint=_number(ie, "midpoint", ctx, required=False, default=0.65),
        bias_width=_number(ie, "width", ctx, required=False, default=0.07),
        dark_rate_prefactor_hz=_number(dc, "prefactor_hz", ctx, required=False, default=1e-2),
        dark_rate_slope=_number(dc, "slope", ctx, required=False, default=15.0),
        tc_K=_number(obj, "tc_K", ctx, required=False, default=10.0),
        delta_tc_K=_number(obj, "delta_tc_mK", ctx, required=False, default=650.0) * 1e-3,
    )


def _parse_sweeps(entries) -> tuple[SweepSpec, ...]:
    specs = []
    for k, entry in enumerate(_list(entries, "sweeps", empty_ok=True)):
        ctx = f"sweeps[{k}]"
        _check_keys(entry, {"parameters", "mode", "point_cap"} | _length_keys("min_margin"), ctx)
        params = []
        for j, p in enumerate(_list(entry.get("parameters", []), f"{ctx}.parameters", empty_ok=True)):
            _check_keys(p, {"name", "start", "stop", "step"}, f"{ctx}.parameters[{j}]")
            params.append(SweepParameter(
                p.get("name"), _number(p, "start", ctx), _number(p, "stop", ctx),
                _number(p, "step", ctx),
            ))
        specs.append(SweepSpec(
            parameters=tuple(params),
            mode_kind=entry.get("mode", "TE"),
            min_margin_m=_length(entry, "min_margin", ctx, required=False, default=0.5e-6),
            point_cap=_integer(entry, "point_cap", ctx, default=10_000),
        ))
    return tuple(specs)


def _parse_targets(obj) -> dict:
    _check_keys(obj, set(DEFAULT_TARGETS), "targets")
    merged = {}
    for key, default in DEFAULT_TARGETS.items():
        if not isinstance(default, dict):
            merged[key] = _number(obj, key, "targets", required=False, default=default)
            continue
        ctx = f"targets.{key}"
        given = obj.get(key, {})
        _check_keys(given, {"value", "rel_tol", "abs_tol"}, ctx)
        band = dict(default)
        for k, v in given.items():
            # an explicit null abs_tol selects the rel_tol band (see pipeline.band)
            band[k] = None if k == "abs_tol" and v is None else _number(given, k, ctx)
        if band.get("abs_tol") is None and "rel_tol" not in band:
            raise ConfigError(f"{ctx}: needs abs_tol or rel_tol")
        merged[key] = band
    return merged


_TOP_KEYS = {
    "version", "seed", "output_dir", "aluminum_fraction", "wavelength_nm",
    "materials", "layers", "ambient", "ridge", "wires", "window", "solver",
    "detector", "fringes", "pulse", "counting", "jitter", "sweeps", "targets",
}


def load_project_config(source: str | Path | dict) -> ProjectConfig:
    """Parse and validate a configuration document (path or dict)."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            with open(source, encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {source}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {source} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "config")

    aluminum_fraction = _number(raw, "aluminum_fraction", "config", required=False, default=0.75)
    wavelength = _number(raw, "wavelength_nm", "config") / 1e9

    materials = (_parse_materials(raw["materials"], aluminum_fraction)
                 if "materials" in raw else default_materials(aluminum_fraction))
    stack = LayerStack(_parse_layers(raw.get("layers")), ambient=raw.get("ambient", "air"))
    ridge = _parse_ridge(raw.get("ridge", {}))
    wires = _parse_wires(raw["wires"]) if raw.get("wires") else None

    window = raw.get("window", {})
    _check_keys(window, _length_keys("width") | _length_keys("height"), "window")
    cs = CrossSection(
        stack=stack, ridge=ridge, wires=wires,
        window_width_m=_length(window, "width", "window"),
        window_height_m=_length(window, "height", "window"),
        wavelength_m=wavelength,
        materials=materials,
    )

    solver_cfg, policy = _parse_solver(raw.get("solver", {}))
    detector = _parse_detector(raw["detector"]) if "detector" in raw else DetectorModel()

    fr = raw.get("fringes", {"t_max": 0.061, "t_min": 0.018})
    _check_keys(fr, {"t_max", "t_min", "single_pass"}, "fringes")
    fringes = FringeData(
        t_max=_number(fr, "t_max", "fringes"),
        t_min=_number(fr, "t_min", "fringes"),
        single_pass=_number(fr, "single_pass", "fringes", required=False, default=1.0),
    )

    pu = raw.get("pulse", {})
    _check_keys(pu, {"rise_ps", "fwhm_target_ns"}, "pulse")
    pulse_rise = _number(pu, "rise_ps", "pulse", required=False, default=200.0) * 1e-12
    fwhm_target = _number(pu, "fwhm_target_ns", "pulse", required=False)
    pulse_fwhm = None if fwhm_target is None else fwhm_target * 1e-9

    co = raw.get("counting", {})
    _check_keys(co, {"powers_pW", "duration_s", "jitter_ps"}, "counting")
    powers = co.get("powers_pW", [0.05 * 100 ** (k / 9.0) for k in range(10)])
    if not isinstance(powers, list) or not powers or not all(map(_is_number, powers)):
        raise ConfigError("counting: powers_pW must be a non-empty list of numbers")
    counting = CountingSpec(
        powers_w=tuple(float(p) * 1e-12 for p in powers),
        duration_s=_number(co, "duration_s", "counting", required=False, default=0.2),
        jitter_sigma_s=_number(co, "jitter_ps", "counting", required=False, default=73.0) * 1e-12,
    )

    ji = raw.get("jitter", {})
    _check_keys(ji, {"total_ps", "source_ps"}, "jitter")

    return ProjectConfig(
        raw=raw,
        digest=config_digest(raw),
        seed=_integer(raw, "seed", "config", default=20120515),
        output_dir=str(raw.get("output_dir", "runs")),
        cross_section=cs,
        policy=policy,
        solver=solver_cfg,
        detector=detector,
        fringes=fringes,
        pulse_rise_s=pulse_rise,
        pulse_fwhm_target_s=pulse_fwhm,
        counting=counting,
        jitter_total_s=_number(ji, "total_ps", "jitter", required=False, default=73.0) * 1e-12,
        jitter_source_s=_number(ji, "source_ps", "jitter", required=False, default=40.0) * 1e-12,
        sweeps=_parse_sweeps(raw.get("sweeps", [])),
        targets=_parse_targets(raw.get("targets", {})),
    )


def default_config_path() -> Path:
    """Location of the shipped default configuration."""
    return Path(str(importlib.resources.files("snspdkit") / "data" / "default_config.json"))
