"""End-to-end benchmark pipeline: runs every reference computation from one
configuration and scores each result against its target band.

Stages run in the order of ``_STAGE_GRAPH``, which also names the stages
each one depends on. A failed stage fails its dependents ("blocked"); a
skipped stage marks them "not-run". The pipeline always runs to the end
and the manifest records every stage, its checks, outputs and seed.
"""

import json
import math
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

from . import __version__, detector as det
from ._numpy import np
from .config import (FRINGE_T_MAX, FRINGE_T_MIN, JITTER_SOURCE_PS, JITTER_TOTAL_PS,
                     PULSE_FWHM_NS, PULSE_RISE_PS, TARGETS, ProjectConfig)
from .detector import EfficiencyBudget, SourceSpec, dark_count_rate, internal_efficiency
from .errors import ConfigError, SnspdKitError
from .fabry_perot import FringeData, extract_coupling, fp_transmission, fresnel_reflectivity
from .io_utils import OutputDir, export_grid, export_mode_fields, header_line, write_csv, write_json
from .modes import modal_absorption, solve_cross_section
from .sweep import apply_parameters


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    lo: float
    hi: float
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", self.lo <= self.value <= self.hi)


@dataclass
class StageRecord:
    name: str
    status: str = "pending"     # pass | fail | blocked | skipped | not-run | error: ...
    checks: list[CheckResult] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    seed: int | None = None
    notes: dict = field(default_factory=dict)


@dataclass
class RunManifest:
    tool_version: str
    config_digest: str
    started_utc: str
    finished_utc: str = ""
    stages: list[StageRecord] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(s.status in ("pass", "skipped", "not-run") for s in self.stages)

    def to_payload(self) -> dict:
        return {**asdict(self), "all_pass": self.all_pass}


def band(target: dict) -> tuple[float, float]:
    value = target["value"]
    tol = target["abs_tol"] if "abs_tol" in target else abs(value) * target["rel_tol"]
    return value - tol, value + tol


def _check(rec: StageRecord, config: ProjectConfig, name: str, value: float) -> None:
    """Record ``value`` as check ``name`` against the band of the target of that name."""
    rec.checks.append(CheckResult(name, value, *band(config.targets[name])))


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def run_reproduce(config: ProjectConfig, out: OutputDir, skip: tuple[str, ...] = ()) -> RunManifest:
    """Run all stages, write per-stage data files and the summary table."""
    for name in skip:
        if name not in STAGES:
            raise ConfigError(f"unknown stage {name!r}; stages: {STAGES}")
    manifest = RunManifest(__version__, config.digest, _utc_now())
    records: dict[str, StageRecord] = {}
    results: dict[str, float] = {}   # the solved alpha and the extracted coupling

    for name, run, deps in _STAGE_GRAPH:
        rec = StageRecord(name=name)
        records[name] = rec
        manifest.stages.append(rec)
        if name in skip:
            rec.status = "skipped"
            continue
        if any(records[d].status in ("skipped", "not-run") for d in deps):
            rec.status = "not-run"
            continue
        if any(records[d].status != "pass" for d in deps):
            rec.status = "blocked"
            continue
        try:
            run(config, out, rec, results)
            rec.status = "pass" if all(c.passed for c in rec.checks) else "fail"
        except SnspdKitError as exc:
            rec.status = f"error: {exc}"

    manifest.finished_utc = _utc_now()
    summary_files = _write_summary(manifest, config, out)
    verify_manifest(manifest, out, extra=summary_files)
    return manifest


def _reference_budget(coupling: float) -> EfficiencyBudget:
    """Efficiency chain at the reference absorptance, with the internal
    efficiency inverted from the reference DQE."""
    a_ref = TARGETS["absorptance_51um"]["value"]
    return EfficiencyBudget(coupling, a_ref, det.invert_internal(TARGETS["dqe"]["value"], a_ref))


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _stage_mode_solver(config: ProjectConfig, out, rec, results):
    grid, te = solve_cross_section(config.cross_section, config.policy, config.solver, "TE")
    alpha = 0.0 if te is None else modal_absorption(te)
    _check(rec, config, "alpha_per_cm", alpha)
    if te is not None:
        rec.notes["n_eff"] = {"re": te.n_eff.real, "im": te.n_eff.imag}
        rec.notes["te_fraction"] = te.te_fraction
        rec.notes["fresnel_reflectivity_estimate"] = fresnel_reflectivity(te.n_eff.real)
        rec.outputs += export_mode_fields(te, out, "mode_te0", config.digest)
    rec.outputs += export_grid(grid, out, "grid", config.digest)
    results["alpha_per_cm"] = alpha


def _stage_tm_design(config: ProjectConfig, out, rec, results):
    base = config.cross_section
    t_nm = base.stack.top_layer.thickness_m * 1e9 + 50.0
    thick = apply_parameters(base, {"core_thickness_nm": t_nm})
    _grid, tm = solve_cross_section(thick, config.policy, config.solver, "TM")
    alpha = 0.0 if tm is None else modal_absorption(tm)
    rec.checks.append(CheckResult(
        "tm_alpha_per_cm", alpha, config.targets["tm_alpha_min_per_cm"], math.inf))
    if tm is not None:
        rec.notes["n_eff"] = {"re": tm.n_eff.real, "im": tm.n_eff.imag}
        rec.notes["te_fraction"] = tm.te_fraction
    rec.notes["core_thickness_nm"] = t_nm


def _stage_absorptance(config: ProjectConfig, out, rec, results):
    alpha_ref = config.targets["alpha_per_cm"]["value"]
    a51 = det.absorptance(alpha_ref, 51e-4)
    a102 = det.absorptance(alpha_ref, 102e-4)
    _check(rec, config, "absorptance_51um", a51)
    _check(rec, config, "absorptance_102um", a102)
    alpha_solved = results["alpha_per_cm"]
    rec.notes["alpha_reference_per_cm"] = alpha_ref
    rec.notes["absorptance_51um_at_solved_alpha"] = det.absorptance(alpha_solved, 51e-4)
    lengths = np.linspace(0.0, 150e-4, 151)
    rows = [(length * 1e4, det.absorptance(alpha_ref, length), det.absorptance(alpha_solved, length))
            for length in lengths]
    p = out.path("absorptance_vs_length.csv")
    write_csv(p, ["length_um", "absorptance_at_reference_alpha", "absorptance_at_solved_alpha"],
              rows, config.digest)
    rec.outputs.append(p.name)


def _stage_fp_extract(config: ProjectConfig, out, rec, results):
    fringes = FringeData(FRINGE_T_MAX, FRINGE_T_MIN)
    res = extract_coupling(fringes)
    _check(rec, config, "coupling", res.coupling)
    rec.notes.update({
        "facet_reflectivity": res.facet_reflectivity,
        "mode_match": res.mode_match,
        "contrast": res.contrast,
    })
    phases = np.linspace(0.0, 4.0 * np.pi, 401)
    rows = [(p, fp_transmission(res.facet_reflectivity, res.mode_match,
                                fringes.single_pass, p)) for p in phases]
    f = out.path("fp_fringe_model.csv")
    write_csv(f, ["phase_rad", "transmission"], rows, config.digest)
    rec.outputs.append(f.name)
    results["coupling"] = res.coupling


def _stage_efficiency(config: ProjectConfig, out, rec, results):
    coupling = results["coupling"]
    budget = _reference_budget(coupling)
    a_ref, eta_int = budget.absorptance, budget.internal
    _check(rec, config, "sqe", budget.sqe)
    rec.notes.update({"coupling": coupling, "absorptance": a_ref,
                      "internal_efficiency": eta_int, "dqe": budget.dqe})
    model = config.detector
    scale = eta_int / internal_efficiency(model, 0.95)
    biases = np.linspace(0.4, 0.99, 60)
    rows = [(i,
             internal_efficiency(model, i) * scale * a_ref,
             internal_efficiency(model, i) * scale * a_ref * coupling,
             dark_count_rate(model, i)) for i in biases]
    f = out.path("efficiency_vs_bias.csv")
    write_csv(f, ["bias_fraction", "dqe_model", "sqe_model", "dark_rate_hz"], rows, config.digest)
    rec.outputs.append(f.name)


def _stage_pulse(config: ProjectConfig, out, rec, results):
    model = config.detector
    lkin = det.kinetic_inductance(model)
    tau = det.recovery_time_constant(model)
    _check(rec, config, "kinetic_inductance_nH", lkin * 1e9)
    _check(rec, config, "tau_ns", tau * 1e9)
    _check(rec, config, "recovery_3tau", det.recovery_fraction(det.dead_time(model), tau))
    _check(rec, config, "max_rate_MHz", det.max_count_rate(model) / 1e6)
    trace = det.pulse_shape(model, PULSE_RISE_PS * 1e-12)
    rec.notes["fwhm_ns"] = trace.fwhm_s * 1e9
    rec.notes["decay_time_1e_ns"] = trace.decay_time_1e_s * 1e9
    rec.notes["rise_fit_for_fwhm_ns"] = det.fit_rise_for_fwhm(model, PULSE_FWHM_NS * 1e-9) * 1e9
    f = out.path("pulse_trace.csv")
    write_csv(f, ["t_ns", "v_norm"],
              zip(trace.time_s * 1e9, trace.voltage), config.digest)
    rec.outputs.append(f.name)


def _stage_jitter(config: ProjectConfig, out, rec, results):
    total_s, source_s = JITTER_TOTAL_PS * 1e-12, JITTER_SOURCE_PS * 1e-12
    intrinsic = det.jitter_deconvolve(total_s, source_s)
    _check(rec, config, "jitter_intrinsic_ps", intrinsic * 1e12)
    rec.notes["total_ps"] = total_s * 1e12
    rec.notes["source_ps"] = source_s * 1e12


def _stage_counting(config: ProjectConfig, out, rec, results):
    model = config.detector
    budget = _reference_budget(config.targets["coupling"]["value"])
    seed0 = config.stage_seed("counting")
    rec.seed = seed0
    wavelength = config.cross_section.wavelength_m
    records = []
    for k, power in enumerate(config.counting.powers_w):
        src = SourceSpec(power, wavelength, config.counting.jitter_sigma_s)
        records.append(det.simulate_counting(model, budget, src,
                                             config.counting.duration_s, seed0 + k))
    sqe_est, slope, intercept = det.estimate_sqe_from_sweep(
        list(config.counting.powers_w), records, wavelength)
    tol = config.targets["sqe_slope_rel_tol"]
    rec.checks.append(CheckResult("sqe_recovered_over_input", sqe_est / budget.sqe,
                                  1.0 - tol, 1.0 + tol))
    rec.notes.update({"sqe_input": budget.sqe, "sqe_recovered": sqe_est,
                      "dark_intercept_hz": intercept})
    rows = [(p * 1e12, len(r) / config.counting.duration_s)
            for p, r in zip(config.counting.powers_w, records)]
    f = out.path("count_rate_vs_power.csv")
    write_csv(f, ["power_pW", "rate_hz"], rows, config.digest)
    rec.outputs.append(f.name)


# The stage graph in run order: (name, runner, stages that must pass first).
_STAGE_GRAPH = (
    ("mode-solver", _stage_mode_solver, ()),
    ("tm-design", _stage_tm_design, ()),
    ("absorptance", _stage_absorptance, ("mode-solver",)),
    ("fp-extract", _stage_fp_extract, ()),
    ("efficiency", _stage_efficiency, ("fp-extract",)),
    ("pulse", _stage_pulse, ()),
    ("jitter", _stage_jitter, ()),
    ("counting", _stage_counting, ()),
)
STAGES = tuple(name for name, _run, _deps in _STAGE_GRAPH)


# ---------------------------------------------------------------------------
# summary and verification
# ---------------------------------------------------------------------------

def _write_summary(manifest: RunManifest, config: ProjectConfig, out: OutputDir) -> list[str]:
    rows = []
    for s in manifest.stages:
        if not s.checks:
            rows.append([s.name, "", "", "", "", s.status])
        for c in s.checks:
            rows.append([s.name, c.name, c.value, c.lo, c.hi, "pass" if c.passed else s.status])
    p = out.path("summary.csv")
    write_csv(p, ["stage", "check", "value", "target_lo", "target_hi", "status"],
              rows, config.digest)
    j = out.path("summary.json")
    write_json(j, manifest.to_payload(), config.digest)
    return [p.name, j.name]


def verify_manifest(manifest: RunManifest, out: OutputDir, extra: list[str] = ()) -> None:
    """Every listed output exists and carries the config digest in its header."""
    names = [name for s in manifest.stages for name in s.outputs] + list(extra)
    for name in names:
        path = out.base / name
        if not path.exists():
            raise SnspdKitError(f"manifest lists missing output {name}")
        if name.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                head = json.load(fh).get("_header", {})
            if head.get("config_digest") != manifest.config_digest:
                raise SnspdKitError(f"output {name} lacks the config digest header")
        else:
            with open(path, encoding="utf-8") as fh:
                first = fh.readline().rstrip("\n")
            if first != header_line(manifest.config_digest):
                raise SnspdKitError(f"output {name} lacks the config digest header")


def write_manifest(manifest: RunManifest, config: ProjectConfig, out: OutputDir) -> str:
    p = out.base / "run_manifest.json"
    write_json(p, manifest.to_payload(), config.digest)
    return str(p)
