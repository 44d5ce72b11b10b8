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
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from .detector import DetectorModel
from .errors import ConfigError, DomainError
from .geometry import CrossSection, Layer, LayerStack, NanowireArray, ResolutionPolicy, RidgeSpec
from .materials import Material, default_materials, make_builtin_material
from .modes import SolverConfig
from .sweep import SweepParameter, SweepSpec

_LENGTH_UNITS = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0}
_ABSENT = object()   # a key the document omits; an explicit null is a value

# The paper's reference values and the acceptance bands around them that the
# `reproduce-paper` checks score against; `dqe` is an input only, so it has no
# band. Constants of the code, not settings: no tolerance moves.
TARGETS = {
    "alpha_per_cm": {"value": 451.0, "rel_tol": 0.15},
    "absorptance_51um": {"value": 0.90, "abs_tol": 0.005},
    "absorptance_102um": {"value": 0.99, "abs_tol": 0.002},
    "kinetic_inductance_nH": {"value": 180.0, "rel_tol": 1e-12},
    "tau_ns": {"value": 3.6, "rel_tol": 1e-12},
    "recovery_3tau": {"value": 0.950, "abs_tol": 0.001},
    "max_rate_MHz": {"value": 1e3 / (3.0 * 3.6), "rel_tol": 1e-9},
    "coupling": {"value": 0.174, "abs_tol": 0.001},
    "dqe": {"value": 0.197},
    "sqe": {"value": 0.034, "abs_tol": 0.001},
    "jitter_intrinsic_ps": {"value": 61.1, "abs_tol": 0.1},
    "sqe_slope_rel_tol": 0.03,
    "tm_alpha_min_per_cm": 500.0,
}

# The paper's measurements that `reproduce-paper` turns into the checked
# figures, in the paper's units: the Fabry-Perot fringe extrema, the pulse
# rise constant and measured FWHM, and the total and source timing jitter.
# Constants like TARGETS; a measurement of one's own goes through the
# `fp-extract`, `pulse` and `jitter` commands.
FRINGE_T_MAX, FRINGE_T_MIN = 0.061, 0.018
PULSE_RISE_PS, PULSE_FWHM_NS = 200.0, 3.2
JITTER_TOTAL_PS, JITTER_SOURCE_PS = 73.0, 40.0


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

    def string(self, key: str, default=_ABSENT, required: bool = False, nullable: bool = False):
        """A non-empty string, such as a material name; with ``nullable``, an
        explicit null, which stands for none."""
        v = self.value(key, default, required)
        if v is _ABSENT or (v is None and nullable):
            return v
        if not (isinstance(v, str) and v):
            raise ConfigError(f"{self.ctx}: {key} must be a non-empty string")
        return v

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
    """The simulated power sweep; SQE is the slope of a line fit to rate
    against power, which takes two distinct powers."""

    powers_w: tuple[float, ...]
    duration_s: float
    jitter_sigma_s: float

    def __post_init__(self):
        if len(set(self.powers_w)) < 2 or min(self.powers_w) < 0:
            raise ConfigError("counting: powers_pW must be >= 0 with at least two distinct values")
        if self.duration_s <= 0:
            raise ConfigError("counting: duration_s must be > 0")
        if self.jitter_sigma_s < 0:
            raise ConfigError("counting: jitter_ps must be >= 0")


@dataclass(frozen=True, eq=False)
class ProjectConfig:
    digest: str
    seed: int
    output_dir: str
    cross_section: CrossSection
    policy: ResolutionPolicy
    solver: SolverConfig
    detector: DetectorModel
    counting: CountingSpec
    sweeps: tuple[SweepSpec, ...]
    targets: ClassVar[dict] = TARGETS   # the fixed reference bands, not a setting

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

@contextmanager
def _section_errors(ctx: str):
    """Report a model's DomainError as a ConfigError naming the config section."""
    try:
        yield
    except DomainError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _parse_materials(entries: list[_Reader]) -> dict[str, Material]:
    mats: dict[str, Material] = {}
    for entry in entries:
        name = entry.string("name", required=True)
        builtin, table = entry.value("builtin"), entry.value("table_nm")
        if (builtin is _ABSENT) == (table is _ABSENT):
            raise ConfigError(f"{entry.ctx}: exactly one of 'builtin' or 'table_nm' required")
        with _section_errors(entry.ctx):
            if table is _ABSENT:
                if not isinstance(builtin, str):
                    raise ConfigError(f"{entry.ctx}: builtin must be a string")
                frac = entry.number("aluminum_fraction") if builtin.lower() == "algaas" else _ABSENT
                mats[name] = make_builtin_material(name, builtin, **_given(aluminum_fraction=frac))
            else:
                try:
                    wl = tuple(float(r[0]) / 1e9 for r in table)
                    idx = tuple(complex(float(r[1]), -float(r[2])) for r in table)
                except (TypeError, IndexError, ValueError) as exc:
                    raise ConfigError(f"{entry.ctx}: table_nm rows must be [wavelength_nm, n, k]") from exc
                mats[name] = Material(name, wl, idx)
    return mats


def _parse_layers(entries: list[_Reader]) -> tuple[Layer, ...]:
    return tuple(Layer(e.string("material", required=True), e.length("thickness", required=True))
                 for e in entries)


def _parse_wires(w: _Reader) -> NanowireArray:
    count = w.integer("count", required=True)
    width = w.length("width", required=True)
    pitch = w.length("pitch", required=count > 1)
    return NanowireArray(
        count=count,
        width_m=width,
        pitch_m=width if pitch is _ABSENT else pitch,
        thickness_m=w.length("thickness", required=True),
        **_given(material=w.string("material"), cap_material=w.string("cap_material", nullable=True),
                 cap_thickness_m=w.length("cap_thickness"), offset_m=w.length("offset")),
    )


def _parse_solver(s: _Reader) -> tuple[SolverConfig, ResolutionPolicy]:
    p = s.section("policy")
    policy = ResolutionPolicy(**_given(
        base_m=p.length("base"), fine_m=p.length("fine"), band_m=p.length("band"),
        edge_band_m=p.length("edge_band"), far_m=p.length("far"),
        far_margin_m=p.length("far_margin"), x_base_m=p.length("x_base"),
    ))
    return SolverConfig(**_given(num_modes=s.integer("num_modes"),
                                 target_n_eff=s.number("target_n_eff"))), policy


def _parse_detector(d: _Reader, meander: dict) -> DetectorModel:
    ie, dc = d.section("internal_efficiency"), d.section("dark_counts")
    return DetectorModel(
        wire_length_m=d.length("length", required=True),
        sheet_inductance_H=d.number("sheet_inductance_pH_per_sq", 1e-12, required=True),
        load_resistance_ohm=d.number("load_resistance_ohm", required=True),
        critical_current_A=d.number("critical_current_uA", 1e-6, required=True),
        bias_current_A=d.number("bias_current_uA", 1e-6, required=True),
        **meander,
        **_given(
            bias_midpoint=ie.number("midpoint"), bias_width=ie.number("width"),
            dark_rate_prefactor_hz=dc.number("prefactor_hz"), dark_rate_slope=dc.number("slope"),
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
            mode_kind=entry.value("mode"), min_margin_m=entry.length("min_margin"))))
    return tuple(specs)


def load_project_config(source: str | os.PathLike | dict) -> ProjectConfig:
    """Parse and validate a configuration document (path or dict)."""
    if isinstance(source, dict):
        raw = source
    elif isinstance(source, (str, os.PathLike)):   # open() would take an int as a descriptor
        try:
            with open(source, encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {source}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {source} is not valid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {source} cannot be read: {exc}") from exc
    else:
        raise ConfigError(f"config source must be a dict or a file path, got {type(source).__name__}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    root = _Reader(raw, "config", [])
    wavelength = root.number("wavelength_nm", required=True) / 1e9
    materials = (default_materials() if root.value("materials") is _ABSENT
                 else _parse_materials(root.objects("materials")))
    substrate = root.string("substrate", required=True)
    stack = LayerStack(_parse_layers(root.objects("layers")), substrate,
                       **_given(ambient=root.string("ambient")))
    ri = root.section("ridge")
    ridge = RidgeSpec(width_m=ri.length("width", required=True),
                      etch_depth_m=ri.length("etch_depth", required=True))
    wires = None if root.value("wires", None) is None else _parse_wires(root.section("wires"))
    window = root.section("window")
    cs = CrossSection(
        stack=stack, ridge=ridge, wires=wires,
        window_width_m=window.length("width", required=True),
        window_height_m=window.length("height", required=True),
        wavelength_m=wavelength,
        materials=materials,
    )

    solver_cfg, policy = _parse_solver(root.section("solver"))
    meander = {} if wires is None else dict(wire_count=wires.count, wire_width_m=wires.width_m)
    with _section_errors("detector"):
        detector = (DetectorModel(**meander) if root.value("detector") is _ABSENT
                    else _parse_detector(root.section("detector"), meander))

    co = root.section("counting")
    powers = co.value("powers_pW", [round(0.05 * 100 ** (k / 9), 6) for k in range(10)])
    if not isinstance(powers, list) or not powers or not all(map(_is_number, powers)):
        raise ConfigError("counting: powers_pW must be a non-empty list of numbers")
    counting = CountingSpec(
        powers_w=tuple(float(p) * 1e-12 for p in powers),
        duration_s=co.number("duration_s", default=0.2),
        jitter_sigma_s=co.number("jitter_ps", 1e-12, default=73.0),
    )

    output_dir = root.string("output_dir", "runs")
    config = ProjectConfig(
        digest=config_digest(raw),
        seed=root.integer("seed", default=20120515),
        output_dir=output_dir,
        cross_section=cs,
        policy=policy,
        solver=solver_cfg,
        detector=detector,
        counting=counting,
        sweeps=_parse_sweeps(root.objects("sweeps", nonempty=False)),
    )
    root.reject_unknown()
    return config


def default_config_path() -> Path:
    """Location of the shipped default configuration."""
    return Path(str(importlib.resources.files("snspdkit") / "data" / "default_config.json"))
