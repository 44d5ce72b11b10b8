"""Project configuration: JSON schema ingestion and validation.

Schema rules: unknown keys are rejected everywhere; every physical quantity
carries its unit in the key name (``_nm``, ``_um``, ``_pH_per_sq``, ...).
Lengths accept any of the ``_nm/_um/_mm/_m`` suffixes, exactly one per
field. Internal computation is SI throughout; conversion happens only here.

The code that reads a key is the only place that names it: every key asked
for is recorded, and any other key is rejected once loading is done. An
optional key the document omits is not passed on, so the class being built
applies its own default; an explicit ``null`` is a value, not an omission.

The config digest (sha256 of the canonical JSON) is stamped into every
output file header. Per-stage random seeds derive from the single global
seed by stable hashing, so stages are reproducible without cross-coupling.
"""

import difflib
import hashlib
import importlib.resources
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .detector import DetectorModel
from .errors import ConfigError, DomainError
from .fabry_perot import FringeData
from .geometry import CrossSection, Layer, LayerStack, NanowireArray, ResolutionPolicy, RidgeSpec
from .materials import Material, default_materials, make_builtin_material
from .modes import SolverConfig
from .sweep import SweepParameter, SweepSpec

_LENGTH_UNITS = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0}
_ABSENT = object()   # a key the document omits; an explicit null is a value

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


class _Reader:
    """One JSON object of the document. Each getter records the key it is
    asked for, so the keys read are the schema: ``reject_unknown`` rejects,
    in every object read, each key that no getter asked for. A getter
    returns ``_ABSENT`` for an optional key the document omits."""

    def __init__(self, obj, ctx: str, readers: list["_Reader"]):
        if not isinstance(obj, dict):
            raise ConfigError(f"{ctx}: must be a JSON object")
        self.obj, self.ctx, self.readers = obj, ctx, readers
        self.asked: set[str] = set()
        readers.append(self)

    def _path(self, key: str) -> str:
        # the root (the first reader) names its keys bare: "ridge", not "config.ridge"
        return key if self is self.readers[0] else f"{self.ctx}.{key}"

    def value(self, key: str, default=_ABSENT, required: bool = False):
        self.asked.add(key)
        v = self.obj.get(key, default)
        if v is _ABSENT and required:
            raise self.missing(key)
        return v

    def missing(self, key: str, spellings: tuple[str, ...] = ()) -> ConfigError:
        """The error for a required ``key`` the object lacks. A key no getter
        has asked for that is close to ``key`` (or to one of its
        ``spellings``) and within two characters of its length is named as
        the likely misspelling."""
        unread = [k for k in self.obj if k not in self.asked]
        near = [m for name in spellings or (key,) for m in difflib.get_close_matches(
            name, [k for k in unread if abs(len(k) - len(name)) <= 2], 1)]
        hint = f"; did you mean {near[0]!r}?" if near else ""
        return ConfigError(f"{self.ctx}: missing {key}{hint}")

    def number(self, key: str, scale: float = 1.0, default=_ABSENT, required: bool = False):
        v = self.value(key, default, required)
        if v is _ABSENT:
            return v
        if not _is_number(v):
            raise ConfigError(f"{self.ctx}: {key} must be a number")
        return float(v) * scale

    def integer(self, key: str, default=_ABSENT, required: bool = False):
        v = self.value(key, default, required)
        if v is _ABSENT:
            return v
        if not (isinstance(v, int) and _is_number(v)):
            raise ConfigError(f"{self.ctx}: {key} must be an integer")
        return v

    def length(self, base: str, required: bool = False):
        """The length ``base_<unit>`` in metres; exactly one unit suffix allowed."""
        scales = {f"{base}_{unit}": scale for unit, scale in _LENGTH_UNITS.items()}
        self.asked.update(scales)
        hits = [k for k in self.obj if k in scales]
        if len(hits) > 1:
            raise ConfigError(f"{self.ctx}: {base} given in multiple units: {hits}")
        if not hits:
            if required:
                raise self.missing(f"{base}_<{'|'.join(_LENGTH_UNITS)}>", tuple(scales))
            return _ABSENT
        return self.number(hits[0], scales[hits[0]])

    def section(self, key: str, default: dict | None = None) -> "_Reader":
        """The sub-object ``key``; an omitted one reads as ``default`` (or empty)."""
        return _Reader(self.value(key, default or {}), self._path(key), self.readers)

    def objects(self, key: str, nonempty: bool = True) -> list["_Reader"]:
        """The list ``key`` of sub-objects, one reader each; an omitted list is empty."""
        name, entries = self._path(key), self.value(key, [])
        if not isinstance(entries, list) or not (entries or not nonempty):
            raise ConfigError(f"{name}: must be a {'non-empty ' if nonempty else ''}list")
        return [_Reader(e, f"{name}[{k}]", self.readers) for k, e in enumerate(entries)]

    def reject_unknown(self) -> None:
        for r in self.readers:
            unknown = set(r.obj) - r.asked
            if unknown:
                raise ConfigError(
                    f"{r.ctx}: unknown keys {sorted(unknown)}; allowed: {sorted(r.asked)}")


def _is_number(value) -> bool:
    """A finite number, not a bool. ``json`` reads NaN and Infinity; an
    integer too large for a float fails the same bound."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _given(**kwargs) -> dict:
    """The arguments the document gave; the class built keeps its own defaults for the rest."""
    return {k: v for k, v in kwargs.items() if v is not _ABSENT}


@dataclass(frozen=True)
class CountingSpec:
    powers_w: tuple[float, ...]
    duration_s: float
    jitter_sigma_s: float


@dataclass(frozen=True, eq=False)
class ProjectConfig:
    digest: str
    seed: int
    output_dir: str
    cross_section: CrossSection
    policy: ResolutionPolicy
    solver: SolverConfig
    detector: DetectorModel
    fringes: FringeData
    pulse_rise_s: float
    pulse_fwhm_target_s: float | None
    counting: CountingSpec
    jitter_total_s: float
    jitter_source_s: float
    sweeps: tuple[SweepSpec, ...]
    targets: dict

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

def _parse_materials(entries: list[_Reader], aluminum_fraction) -> dict[str, Material]:
    mats: dict[str, Material] = {}
    for entry in entries:
        name, builtin, table = entry.value("name"), entry.value("builtin"), entry.value("table_nm")
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{entry.ctx}: name must be a non-empty string")
        if (builtin is _ABSENT) == (table is _ABSENT):
            raise ConfigError(f"{entry.ctx}: exactly one of 'builtin' or 'table_nm' required")
        try:
            if table is _ABSENT:
                if not isinstance(builtin, str):
                    raise ConfigError(f"{entry.ctx}: builtin must be a string")
                frac = entry.number("aluminum_fraction", default=aluminum_fraction)
                mats[name] = make_builtin_material(name, builtin, **_given(aluminum_fraction=frac))
            else:
                try:
                    wl = tuple(float(r[0]) / 1e9 for r in table)
                    idx = tuple(complex(float(r[1]), -float(r[2])) for r in table)
                except (TypeError, IndexError, ValueError) as exc:
                    raise ConfigError(f"{entry.ctx}: table_nm rows must be [wavelength_nm, n, k]") from exc
                mats[name] = Material(name, wl, idx)
        except DomainError as exc:
            raise ConfigError(f"{entry.ctx}: {exc}") from exc
    return mats


def _parse_layers(entries: list[_Reader]) -> tuple[Layer, ...]:
    layers = []
    for entry in entries:
        material = entry.value("material", required=True)
        substrate = entry.value("substrate")
        if substrate is not _ABSENT and not isinstance(substrate, bool):
            raise ConfigError(f"{entry.ctx}: substrate must be true or false")
        thickness = entry.length("thickness", required=substrate is not True)
        layers.append(Layer(material, **_given(thickness_m=thickness, substrate=substrate)))
    return tuple(layers)


def _parse_wires(w: _Reader) -> NanowireArray:
    count = w.integer("count", required=True)
    width = w.length("width", required=True)
    pitch = w.length("pitch", required=count > 1)
    return NanowireArray(
        count=count,
        width_m=width,
        pitch_m=width if pitch is _ABSENT else pitch,
        thickness_m=w.length("thickness", required=True),
        cap_material=w.value("cap_material", None),   # no cap unless one is named
        **_given(material=w.value("material"), cap_thickness_m=w.length("cap_thickness"),
                 offset_m=w.length("offset")),
    )


def _parse_solver(s: _Reader) -> tuple[SolverConfig, ResolutionPolicy]:
    p = s.section("policy")
    policy = ResolutionPolicy(**_given(
        base_m=p.length("base"), fine_m=p.length("fine"), band_m=p.length("band"),
        edge_band_m=p.length("edge_band"), far_m=p.length("far"),
        far_margin_m=p.length("far_margin"), x_base_m=p.length("x_base"),
    ))
    cfg = SolverConfig(**_given(
        num_modes=s.integer("num_modes"), target_n_eff=s.number("target_n_eff"),
        tolerance=s.number("tolerance"), max_iterations=s.integer("max_iterations"),
    ))
    return cfg, policy


def _parse_detector(d: _Reader) -> DetectorModel:
    ie, dc = d.section("internal_efficiency"), d.section("dark_counts")
    return DetectorModel(
        wire_length_m=d.length("length", required=True),
        wire_width_m=d.length("width", required=True),
        sheet_inductance_H=d.number("sheet_inductance_pH_per_sq", 1e-12, required=True),
        load_resistance_ohm=d.number("load_resistance_ohm", required=True),
        critical_current_A=d.number("critical_current_uA", 1e-6, required=True),
        bias_current_A=d.number("bias_current_uA", 1e-6, required=True),
        **_given(
            wire_count=d.integer("wire_count"),
            eta_max=ie.number("eta_max"), bias_midpoint=ie.number("midpoint"),
            bias_width=ie.number("width"),
            dark_rate_prefactor_hz=dc.number("prefactor_hz"), dark_rate_slope=dc.number("slope"),
            tc_K=d.number("tc_K"), delta_tc_K=d.number("delta_tc_mK", 1e-3),
        ),
    )


def _parse_sweeps(entries: list[_Reader]) -> tuple[SweepSpec, ...]:
    specs = []
    for entry in entries:
        params = tuple(
            SweepParameter(p.value("name", None), p.number("start", required=True),
                           p.number("stop", required=True), p.number("step", required=True))
            for p in entry.objects("parameters", nonempty=False)
        )
        specs.append(SweepSpec(params, **_given(
            mode_kind=entry.value("mode"), min_margin_m=entry.length("min_margin"),
            point_cap=entry.integer("point_cap"),
        )))
    return tuple(specs)


def _parse_targets(t: _Reader) -> dict:
    merged = {}
    for key, default in DEFAULT_TARGETS.items():
        if not isinstance(default, dict):
            merged[key] = t.number(key, default=default)
            continue
        given = t.section(key)
        band = dict(default)
        for k in ("value", "rel_tol", "abs_tol"):
            v = given.value(k)
            if v is not _ABSENT:
                # an explicit null abs_tol selects the rel_tol band (see pipeline.band)
                band[k] = None if k == "abs_tol" and v is None else given.number(k)
        if band.get("abs_tol") is None and "rel_tol" not in band:
            raise ConfigError(f"{given.ctx}: needs abs_tol or rel_tol")
        merged[key] = band
    return merged


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
    root = _Reader(raw, "config", [])
    root.value("version")   # accepted, not interpreted

    aluminum_fraction = root.number("aluminum_fraction")
    wavelength = root.number("wavelength_nm", required=True) / 1e9
    materials = (default_materials(**_given(aluminum_fraction=aluminum_fraction))
                 if root.value("materials") is _ABSENT
                 else _parse_materials(root.objects("materials"), aluminum_fraction))
    stack = LayerStack(_parse_layers(root.objects("layers")), **_given(ambient=root.value("ambient")))
    ri = root.section("ridge")
    ridge = RidgeSpec(width_m=ri.length("width", required=True),
                      etch_depth_m=ri.length("etch_depth", required=True))
    wires = _parse_wires(root.section("wires")) if root.value("wires", None) else None
    window = root.section("window")
    cs = CrossSection(
        stack=stack, ridge=ridge, wires=wires,
        window_width_m=window.length("width", required=True),
        window_height_m=window.length("height", required=True),
        wavelength_m=wavelength,
        materials=materials,
    )

    solver_cfg, policy = _parse_solver(root.section("solver"))
    detector = (DetectorModel() if root.value("detector") is _ABSENT
                else _parse_detector(root.section("detector")))

    fr = root.section("fringes", {"t_max": 0.061, "t_min": 0.018})
    fringes = FringeData(t_max=fr.number("t_max", required=True),
                         t_min=fr.number("t_min", required=True),
                         **_given(single_pass=fr.number("single_pass")))

    pu = root.section("pulse")
    fwhm_target = pu.number("fwhm_target_ns", 1e-9)

    co = root.section("counting")
    powers = co.value("powers_pW", [0.05 * 100 ** (k / 9.0) for k in range(10)])
    if not isinstance(powers, list) or not powers or not all(map(_is_number, powers)):
        raise ConfigError("counting: powers_pW must be a non-empty list of numbers")
    counting = CountingSpec(
        powers_w=tuple(float(p) * 1e-12 for p in powers),
        duration_s=co.number("duration_s", default=0.2),
        jitter_sigma_s=co.number("jitter_ps", 1e-12, default=73.0),
    )

    output_dir = root.value("output_dir", "runs")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("config: output_dir must be a non-empty string")
    ji = root.section("jitter")
    config = ProjectConfig(
        digest=config_digest(raw),
        seed=root.integer("seed", default=20120515),
        output_dir=output_dir,
        cross_section=cs,
        policy=policy,
        solver=solver_cfg,
        detector=detector,
        fringes=fringes,
        pulse_rise_s=pu.number("rise_ps", 1e-12, default=200.0),
        pulse_fwhm_target_s=None if fwhm_target is _ABSENT else fwhm_target,
        counting=counting,
        jitter_total_s=ji.number("total_ps", 1e-12, default=73.0),
        jitter_source_s=ji.number("source_ps", 1e-12, default=40.0),
        sweeps=_parse_sweeps(root.objects("sweeps", nonempty=False)),
        targets=_parse_targets(root.section("targets")),
    )
    root.reject_unknown()
    return config


def default_config_path() -> Path:
    """Location of the shipped default configuration."""
    return Path(str(importlib.resources.files("snspdkit") / "data" / "default_config.json"))
