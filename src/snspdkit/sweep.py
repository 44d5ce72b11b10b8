"""Parameter sweeps and constrained maximization of modal absorption.

Each sweep point rebuilds the cross-section with the requested parameter
values, solves for the selected mode, and records absorption, polarization
and the wire-to-ridge alignment margin. Points that violate the margin
constraint are still evaluated but flagged infeasible; points whose
geometry cannot be built or whose solve fails are kept in the output with a
failure status. The optimizer runs a coarse grid pass followed by interval
halving around the best feasible point; unimodality is only a refinement
heuristic, and the returned dominance guarantee is over evaluated points.
"""

import functools
import itertools
import math
from dataclasses import dataclass, replace

from .errors import ConfigError, ConvergenceError, DomainError, InconsistencyError
from .geometry import CrossSection, Layer, ResolutionPolicy, alignment_margin
from .modes import SolverConfig, modal_absorption, solve_cross_section

PARAMETERS = (
    "core_thickness_nm",
    "ridge_width_nm",
    "etch_depth_nm",
    "wire_count",
    "array_offset_nm",
    "wavelength_nm",
)


@dataclass(frozen=True)
class SweepParameter:
    name: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if self.name not in PARAMETERS:
            raise ConfigError(f"unknown sweep parameter {self.name!r}; known: {PARAMETERS}")
        if self.step <= 0:
            raise ConfigError("sweep step must be > 0")
        if self.stop < self.start:
            raise ConfigError("sweep stop must be >= start")
        if not math.isfinite((self.stop - self.start) / self.step):
            raise ConfigError("sweep range holds too many steps to count")

    def _count(self) -> int:
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def values(self) -> list[float]:
        return [self.start + k * self.step for k in range(self._count())]


@dataclass(frozen=True)
class SweepSpec:
    parameters: tuple[SweepParameter, ...]
    mode_kind: str = "TE"                 # fundamental TE-like | first TM-like
    min_margin_m: float = 0.5e-6          # alignment-margin constraint
    point_cap: int = 10_000

    def __post_init__(self):
        if not self.parameters:
            raise ConfigError("sweep needs at least one parameter")
        if not isinstance(self.mode_kind, str) or self.mode_kind.upper() not in ("TE", "TM"):
            raise ConfigError(f"mode kind must be 'TE' or 'TM', got {self.mode_kind!r}")
        if self.point_cap < 1:
            raise ConfigError("point_cap must be >= 1")
        if self.min_margin_m < 0:
            raise ConfigError("margin constraint must be >= 0")


@dataclass(frozen=True)
class SweepPoint:
    params: dict[str, float]
    n_eff: complex | None
    alpha_per_cm: float | None
    te_fraction: float | None
    margin_m: float | None
    feasible: bool
    status: str                           # "ok" | "no-mode" | "failed: ..."


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    best: SweepPoint | None

    def __post_init__(self):
        if self.best is None:
            return
        if not (self.best.feasible and self.best.status == "ok"):
            raise InconsistencyError("sweep best point is not a feasible, solved point")
        for p in self.points:
            if p.feasible and p.status == "ok" and p.alpha_per_cm > self.best.alpha_per_cm:
                raise InconsistencyError(
                    f"sweep best alpha {self.best.alpha_per_cm} is below the feasible "
                    f"point {p.params} with alpha {p.alpha_per_cm}"
                )


def apply_parameters(base: CrossSection, values: dict[str, float]) -> CrossSection:
    """Cross-section with the given sweep parameters applied."""
    cs = base
    for name, val in values.items():
        if name == "core_thickness_nm":
            layers = list(cs.stack.layers)
            layers[-1] = Layer(layers[-1].material, val * 1e-9, False)
            cs = replace(cs, stack=replace(cs.stack, layers=tuple(layers)))
        elif name == "ridge_width_nm":
            cs = replace(cs, ridge=replace(cs.ridge, width_m=val * 1e-9))
        elif name == "etch_depth_nm":
            cs = replace(cs, ridge=replace(cs.ridge, etch_depth_m=val * 1e-9))
        elif name == "wire_count":
            if cs.wires is None:
                raise ConfigError("wire_count sweep on a cross-section without wires")
            cs = replace(cs, wires=replace(cs.wires, count=int(round(val))))
        elif name == "array_offset_nm":
            if cs.wires is None:
                raise ConfigError("array_offset sweep on a cross-section without wires")
            cs = replace(cs, wires=replace(cs.wires, offset_m=val * 1e-9))
        elif name == "wavelength_nm":
            cs = replace(cs, wavelength_m=val / 1e9)   # correctly rounded: 1360 nm stays in band
        else:
            raise ConfigError(f"unknown sweep parameter {name!r}")
    return cs


def _default_evaluate(base, spec, policy, solver_config):
    """Real evaluation path: build, solve, select, measure."""

    def evaluate(values: dict[str, float]):
        cs = apply_parameters(base, values)
        margin = alignment_margin(cs.ridge, cs.wires) if cs.wires is not None else None
        _grid, mode = solve_cross_section(cs, policy, solver_config, spec.mode_kind)
        if mode is None:
            return None, None, None, margin
        return mode.n_eff, modal_absorption(mode), mode.te_fraction, margin

    return evaluate


def _evaluate_point(values, spec, evaluate):
    try:
        n_eff, alpha, te, margin = evaluate(values)
    except (ConfigError, DomainError, ConvergenceError) as exc:
        return SweepPoint(values, None, None, None, None, False, f"failed: {exc}")
    feasible = margin is None or margin >= spec.min_margin_m
    if alpha is None:
        return SweepPoint(values, None, None, None, margin, feasible, "no-mode")
    return SweepPoint(values, n_eff, alpha, te, margin, feasible, "ok")


def _better(best: SweepPoint | None, p: SweepPoint) -> SweepPoint | None:
    """``p`` if it is solved, feasible and absorbs more than ``best``; a tie keeps ``best``."""
    if p.status == "ok" and p.feasible and (best is None or p.alpha_per_cm > best.alpha_per_cm):
        return p
    return best


def run_sweep(
    base: CrossSection,
    spec: SweepSpec,
    policy: ResolutionPolicy | None = None,
    solver_config: SolverConfig | None = None,
    evaluate=None,
) -> SweepResult:
    """Evaluate the Cartesian product of the parameter ranges, serially.

    Output rows follow the deterministic product order. ``evaluate`` may be
    injected for testing; it receives the parameter dict and returns
    (n_eff, alpha_per_cm, te_fraction, margin_m).
    """
    names = [p.name for p in spec.parameters]
    n_points = math.prod(p._count() for p in spec.parameters)
    if n_points > spec.point_cap:
        raise ConfigError(
            f"sweep would evaluate {n_points} points, above the cap {spec.point_cap}"
        )
    if evaluate is None:
        evaluate = _default_evaluate(base, spec, policy, solver_config)

    points = [_evaluate_point(dict(zip(names, vals)), spec, evaluate)
              for vals in itertools.product(*(p.values() for p in spec.parameters))]
    return SweepResult(tuple(points), functools.reduce(_better, points, None))


@dataclass(frozen=True)
class OptimizeResult:
    best: SweepPoint | None
    trace: tuple[SweepPoint, ...]        # every evaluation, in order
    status: str                          # "ok" | "infeasible"
    iterations: int


def maximize_alpha(
    base: CrossSection,
    spec: SweepSpec,
    policy: ResolutionPolicy | None = None,
    solver_config: SolverConfig | None = None,
    evaluate=None,
    tolerance: float = 5.0,              # parameter resolution, in the sweep unit (nm)
) -> OptimizeResult:
    """Constrained maximization of modal absorption over 1 or 2 parameters.

    The coarse pass is ``run_sweep`` over the declared ranges (so it honours
    ``point_cap``); then interval halving around the best feasible point
    until the step is below ``tolerance``, never evaluating outside the
    declared ranges or a point already in the trace. Returns an
    infeasibility result (not an exception) if no coarse point satisfies the
    margin constraint.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ConfigError(f"optimizer tolerance must be a finite number > 0, got {tolerance}")
    free = [p for p in spec.parameters if p.stop > p.start]
    if not 1 <= len(free) <= 2:
        raise ConfigError("refinement supports exactly 1 or 2 free parameters")
    if any(p.name == "wire_count" for p in free):
        raise ConfigError("wire_count is discrete; interval halving does not apply")
    if evaluate is None:
        evaluate = _default_evaluate(base, spec, policy, solver_config)

    coarse = run_sweep(base, spec, evaluate=evaluate)
    trace, best = list(coarse.points), coarse.best
    if best is None:
        return OptimizeResult(None, tuple(trace), "infeasible", 0)

    def key(values: dict[str, float]) -> tuple:
        return tuple(round(values[p.name], 6) for p in free)

    seen = {key(pt.params) for pt in trace}
    steps = {p.name: p.step / 2.0 for p in free}
    iterations = 0
    while max(steps.values()) >= tolerance:
        iterations += 1
        center = best.params
        for combo in itertools.product((-1, 0, 1), repeat=len(free)):
            values = dict(center)
            for p, o in zip(free, combo):
                values[p.name] = min(max(center[p.name] + o * steps[p.name], p.start), p.stop)
            if key(values) in seen:   # an evaluated point cannot beat best; a tie keeps best
                continue
            seen.add(key(values))
            trace.append(_evaluate_point(values, spec, evaluate))
            best = _better(best, trace[-1])
        steps = {k: v / 2.0 for k, v in steps.items()}

    return OptimizeResult(best, tuple(trace), "ok", iterations)
