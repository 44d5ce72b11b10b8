"""Detector figures of merit: absorptance, efficiency chain, kinetic-inductance
pulse dynamics, dark counts, jitter arithmetic, and a Monte Carlo counting
experiment.

All functions are pure except :func:`simulate_counting`, which owns one seeded
generator per call; independent calls may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._numpy import np
from .constants import photon_flux
from .errors import DomainError, InconsistencyError

ARRIVAL_CAP = 10_000_000   # most expected arrivals one counting run draws, checked before any draw


@dataclass(frozen=True)
class DetectorModel:
    """Electrical and counting parameters of a nanowire detector. Its meander
    is the wire array the mode solver paints: a loaded config takes
    ``wire_count`` and ``wire_width_m`` from its ``wires`` section (without
    one, the defaults below) and only the wire length from ``detector``."""

    wire_count: int = 4
    wire_length_m: float = 50e-6
    wire_width_m: float = 100e-9
    sheet_inductance_H: float = 90e-12       # kinetic inductance per square
    load_resistance_ohm: float = 50.0
    critical_current_A: float = 16.9e-6
    bias_current_A: float = 9.9e-6
    bias_midpoint: float = 0.65              # logistic midpoint in i = I_b/I_c
    bias_width: float = 0.07                 # logistic width in i
    dark_rate_prefactor_hz: float = 1e-2     # R_dc = R0 * exp(s * i)
    dark_rate_slope: float = 15.0

    def __post_init__(self):
        if self.wire_count < 1:
            raise DomainError("wire count must be >= 1")
        if self.wire_width_m <= 0:
            raise DomainError("wire width must be > 0")
        if self.wire_length_m <= 0:
            raise DomainError("wire length must be > 0")
        if self.sheet_inductance_H <= 0:
            raise DomainError("sheet kinetic inductance must be > 0")
        if self.load_resistance_ohm <= 0:
            raise DomainError("load resistance must be > 0")
        if self.bias_width <= 0:
            raise DomainError("internal-efficiency logistic width must be > 0")
        if self.dark_rate_prefactor_hz < 0:
            raise DomainError("dark-count prefactor must be >= 0")
        if not 0 < self.bias_current_A < self.critical_current_A:
            raise DomainError("operating point requires 0 < I_b < I_c")

    @property
    def bias_fraction(self) -> float:
        return self.bias_current_A / self.critical_current_A


@dataclass(frozen=True)
class EfficiencyBudget:
    """coupling x absorptance x internal efficiency, with the derived
    device (DQE) and system (SQE) quantum efficiencies."""

    coupling: float
    absorptance: float
    internal: float

    def __post_init__(self):
        for name in ("coupling", "absorptance", "internal"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"{name} must be in [0, 1], got {v}")

    @property
    def dqe(self) -> float:
        return self.absorptance * self.internal

    @property
    def sqe(self) -> float:
        return self.coupling * self.dqe


# ---------------------------------------------------------------------------
# optical absorption and efficiencies
# ---------------------------------------------------------------------------

def absorptance(alpha_per_cm: float, length_cm: float) -> float:
    """Beer-Lambert absorbed fraction 1 - exp(-alpha * L)."""
    if alpha_per_cm < 0 or length_cm < 0:
        raise DomainError("absorptance requires alpha >= 0 and L >= 0")
    return -math.expm1(-alpha_per_cm * length_cm)


def invert_internal(dqe: float, absorptance_: float) -> float:
    """Internal efficiency from a measured DQE and a computed absorptance."""
    if not 0.0 <= dqe <= 1.0:
        raise DomainError(f"DQE must be in [0, 1], got {dqe}")
    if absorptance_ <= 0.0:
        raise DomainError("absorptance must be > 0 for inversion")
    eta = dqe / absorptance_
    if eta > 1.0:
        raise InconsistencyError(
            f"measured DQE {dqe} exceeds the absorptance {absorptance_}: "
            f"implied internal efficiency {eta:.3f} > 1"
        )
    return eta


def internal_efficiency(model: DetectorModel, bias_fraction: float) -> float:
    """Logistic shape 1 / (1 + exp(-(i - midpoint) / width)) of the internal
    efficiency at normalized bias i = I_b/I_c (``bias_fraction``), with ceiling 1. A modeling
    choice, not a measured curve; the efficiency stage scales it to the
    internal efficiency inverted from the measured DQE at i = 0.95.
    """
    return 1.0 / (1.0 + math.exp(-(bias_fraction - model.bias_midpoint) / model.bias_width))


# ---------------------------------------------------------------------------
# electrical pulse dynamics
# ---------------------------------------------------------------------------

def kinetic_inductance(model: DetectorModel) -> float:
    """Series kinetic inductance [H] of the meander: L_sq * squares."""
    squares = model.wire_count * model.wire_length_m / model.wire_width_m
    return model.sheet_inductance_H * squares


def recovery_time_constant(model: DetectorModel) -> float:
    """Current-recovery time constant tau = L_kin / R_load [s]."""
    return kinetic_inductance(model) / model.load_resistance_ohm


def recovery_fraction(t_s: float, tau_s: float) -> float:
    """Fraction of the bias current restored a time t after a detection."""
    if t_s < 0:
        raise DomainError("time must be >= 0")
    return -math.expm1(-t_s / tau_s)


def max_count_rate(model: DetectorModel) -> float:
    """Counting-rate ceiling: one event per dead time (~95% bias recovery between events)."""
    return 1.0 / dead_time(model)


def dead_time(model: DetectorModel) -> float:
    """Default dead time, 3 tau (95% bias recovery)."""
    return 3.0 * recovery_time_constant(model)


@dataclass(frozen=True, eq=False)
class PulseTrace:
    """Sampled two-exponential output pulse with derived timing metrics."""

    time_s: np.ndarray
    voltage: np.ndarray = field(repr=False)
    peak_time_s: float
    fwhm_s: float
    decay_time_1e_s: float

    def __post_init__(self):
        self.time_s.setflags(write=False)
        self.voltage.setflags(write=False)


def _crossing(t: np.ndarray, v: np.ndarray, level: float, rising: bool) -> float:
    if rising:
        idx = np.nonzero(v >= level)[0][0]
    else:
        above = np.nonzero(v >= level)[0]
        idx = above[-1] + 1
    t0, t1, v0, v1 = t[idx - 1], t[idx], v[idx - 1], v[idx]
    return t0 + (level - v0) * (t1 - t0) / (v1 - v0)


def _sampled_pulse(tau_fall: float, tau_rise_s: float):
    """Sample times, peak-normalized voltage, peak time and FWHM of the
    two-exponential pulse."""
    if not 0 < tau_rise_s < tau_fall:
        raise DomainError(
            f"rise constant must satisfy 0 < tau_rise < tau_fall "
            f"({tau_rise_s:.3g} s vs {tau_fall:.3g} s)"
        )
    t = np.linspace(0.0, 10.0 * tau_fall, 6000)
    v = np.exp(-t / tau_fall) - np.exp(-t / tau_rise_s)
    t_peak = math.log(tau_fall / tau_rise_s) * tau_fall * tau_rise_s / (tau_fall - tau_rise_s)
    v_peak = math.exp(-t_peak / tau_fall) - math.exp(-t_peak / tau_rise_s)
    v = v / v_peak
    fwhm = _crossing(t, v, 0.5, rising=False) - _crossing(t, v, 0.5, rising=True)
    return t, v, t_peak, float(fwhm)


def pulse_shape(model: DetectorModel, tau_rise_s: float) -> PulseTrace:
    """Peak-normalized V(t) = exp(-t/tau_fall) - exp(-t/tau_rise).

    ``tau_fall`` is the kinetic-inductance recovery constant of the model;
    the rise constant bundles hot-spot and amplifier dynamics. The tail 1/e
    decay time is measured by a log-linear fit beyond the peak.
    """
    t, v, t_peak, fwhm = _sampled_pulse(recovery_time_constant(model), tau_rise_s)
    tail = (t > t_peak + 5.0 * tau_rise_s) & (v > 1e-12)
    # Least-squares slope exactly as scipy.stats.linregress evaluates it,
    # without importing scipy.stats (~0.6 s) on every ``import snspdkit``.
    ssxm, ssxym, _, _ = np.cov(t[tail], np.log(v[tail]), bias=True).flat
    slope = ssxym / ssxm
    decay_1e = -1.0 / slope
    return PulseTrace(time_s=t, voltage=v, peak_time_s=t_peak, fwhm_s=fwhm,
                      decay_time_1e_s=float(decay_1e))


def fit_rise_for_fwhm(model: DetectorModel, fwhm_target_s: float) -> float:
    """Rise constant that reproduces a measured pulse FWHM (1-D root find).

    The FWHM of the two-exponential pulse grows monotonically with the rise
    constant from tau_fall*ln(2); a target below that is unattainable. The
    checked bracket is bisected until it is tau_fall*1e-9 wide (30 halvings),
    and its midpoint returned.
    """
    tau_fall = recovery_time_constant(model)
    lo, hi = tau_fall * 1e-5, tau_fall * 0.999

    def gap(tau_rise):
        return _sampled_pulse(tau_fall, tau_rise)[3] - fwhm_target_s

    if gap(lo) > 0 or gap(hi) < 0:
        raise DomainError(
            f"FWHM target {fwhm_target_s:.3g} s not reachable for tau_fall {tau_fall:.3g} s"
        )
    while hi - lo > tau_fall * 1e-9:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# dark counts
# ---------------------------------------------------------------------------

def dark_count_rate(model: DetectorModel, bias_fraction: float | None = None) -> float:
    """Exponential dark-count law R0 * exp(s * I_b/I_c)."""
    i = model.bias_fraction if bias_fraction is None else bias_fraction
    return model.dark_rate_prefactor_hz * math.exp(model.dark_rate_slope * i)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def expected_count_rate(
    power_w: float,
    wavelength_m: float,
    sqe: float,
    dead_time_s: float = 0.0,
    dark_rate_hz: float = 0.0,
) -> float:
    """Non-paralyzable measured rate for a cw source: R_t / (1 + R_t * t_dead)
    with R_t = SQE * photon flux + dark rate."""
    if power_w < 0:
        raise DomainError("power must be >= 0")
    total = sqe * photon_flux(power_w, wavelength_m) + dark_rate_hz
    return total / (1.0 + total * dead_time_s)


@dataclass(frozen=True)
class SourceSpec:
    """cw source illuminating the detector plus recorded-timestamp jitter."""

    power_w: float
    wavelength_m: float
    jitter_sigma_s: float = 0.0

    def __post_init__(self):
        if self.power_w < 0:
            raise DomainError("power must be >= 0")
        if self.wavelength_m <= 0:
            raise DomainError("wavelength must be > 0")
        if self.jitter_sigma_s < 0:
            raise DomainError("jitter sigma must be >= 0")


@dataclass(frozen=True, eq=False)
class CountRecord:
    """Simulated detection record.

    ``detection_times_s`` are the dead-time-filtered event times (sorted,
    gaps >= dead time); ``timestamps_s`` are the same events with recording
    jitter applied and re-sorted, aligned with the bool mask ``photon`` (false: dark count).
    """

    timestamps_s: np.ndarray
    photon: np.ndarray
    detection_times_s: np.ndarray = field(repr=False)
    dead_time_s: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.timestamps_s.setflags(write=False)
        self.photon.setflags(write=False)
        self.detection_times_s.setflags(write=False)
        if len(self.timestamps_s) != len(self.photon):
            raise DomainError("timestamps and photon mask length mismatch")
        if len(self.timestamps_s) > 1 and not np.all(np.diff(self.timestamps_s) > 0):
            raise DomainError("timestamps must be strictly increasing")
        gaps = np.diff(self.detection_times_s)
        if gaps.size and gaps.min() < self.dead_time_s * (1.0 - 1e-12):
            raise DomainError("detection gaps below the dead time")

    def __len__(self) -> int:
        return len(self.timestamps_s)


def simulate_counting(
    model: DetectorModel,
    budget: EfficiencyBudget,
    source: SourceSpec,
    duration_s: float,
    seed: int,
) -> CountRecord:
    """Monte Carlo counting experiment, deterministic for a given seed.

    Photon detections are a Poisson process at SQE * photon flux; dark events
    an independent Poisson process at the model's dark rate. The merged
    stream passes a non-paralyzable dead time (3 tau), then Gaussian
    timing jitter is added to the recorded timestamps and order restored.
    A run expecting more than :data:`ARRIVAL_CAP` arrivals is refused before
    any is drawn, since every arrival is held in memory until the dead time
    thins them.
    """
    if duration_s <= 0:
        raise DomainError("duration must be > 0")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    t_dead = dead_time(model)

    photon_rate = budget.sqe * photon_flux(source.power_w, source.wavelength_m)
    dark_rate = dark_count_rate(model)
    arrivals = (photon_rate + dark_rate) * duration_s
    if arrivals > ARRIVAL_CAP:
        raise DomainError(
            f"counting run would draw {arrivals:.3g} arrivals, above the cap {ARRIVAL_CAP}")

    def poisson_times(rate):
        n = rng.poisson(rate * duration_s) if rate > 0 else 0
        return np.sort(rng.uniform(0.0, duration_s, n))

    t_ph = poisson_times(photon_rate)
    t_dk = poisson_times(dark_rate)
    t_all = np.concatenate([t_ph, t_dk])
    photon = np.repeat([True, False], [t_ph.size, t_dk.size])
    order = np.argsort(t_all, kind="stable")
    t_all, photon = t_all[order], photon[order]

    keep = _dead_time_filter(t_all, t_dead)
    detected = t_all[keep]
    photon = photon[keep]

    recorded = detected + (
        rng.normal(0.0, source.jitter_sigma_s, len(detected))
        if source.jitter_sigma_s > 0 else 0.0
    )
    order = np.argsort(recorded, kind="stable")

    return CountRecord(
        timestamps_s=recorded[order],
        photon=photon[order],
        detection_times_s=detected,
        dead_time_s=t_dead,
        metadata={
            "power_w": source.power_w,
            "wavelength_m": source.wavelength_m,
            "duration_s": duration_s,
            "seed": seed,
            "sqe": budget.sqe,
            "photon_rate_hz": photon_rate,
            "dark_rate_hz": dark_rate,
            "jitter_sigma_s": source.jitter_sigma_s,
        },
    )


def _dead_time_filter(times_s: np.ndarray, dead_time_s: float) -> np.ndarray:
    """Indices of the sorted event times a non-paralyzable dead time lets
    through: an event counts if it comes at least ``dead_time_s`` after the
    last counted event.

    An event at least the dead time after its predecessor is at least that
    far after the last counted event, so it always counts; only events
    closer than that to their predecessor are decided one by one.
    """
    keep = np.ones(times_s.size, dtype=bool)
    last = 0                          # index of the last counted event so far
    for k in (np.flatnonzero(np.diff(times_s) < dead_time_s) + 1).tolist():
        if keep[k - 1]:
            last = k - 1
        if times_s[k] - times_s[last] < dead_time_s:
            keep[k] = False
    return np.flatnonzero(keep)


def estimate_sqe_from_sweep(
    powers_w: list[float],
    records: list[CountRecord],
    wavelength_m: float,
) -> tuple[float, float, float]:
    """Recover (SQE, slope, dark intercept) from a simulated power sweep.

    Measured rates are corrected for the known non-paralyzable dead time,
    then fit linearly vs power; the slope maps to SQE via the photon flux
    per watt. A constant dark rate only moves the intercept.
    """
    if np.unique(powers_w).size < 2:
        raise DomainError("the power sweep needs at least two distinct powers to fit a slope")
    rates = []
    for rec in records:
        m = len(rec) / rec.metadata["duration_s"]
        rates.append(m / (1.0 - m * rec.dead_time_s))
    slope, intercept = np.polyfit(np.asarray(powers_w), np.asarray(rates), 1)
    sqe = float(slope / photon_flux(1.0, wavelength_m))
    return sqe, float(slope), float(intercept)


# ---------------------------------------------------------------------------
# jitter
# ---------------------------------------------------------------------------

def jitter_deconvolve(total_s: float, source_s: float) -> float:
    """Intrinsic jitter from measured total and source jitter (Gaussian
    quadrature model): sqrt(total^2 - source^2)."""
    if source_s < 0 or total_s < 0:
        raise DomainError("jitter values must be >= 0")
    if source_s > total_s:
        raise DomainError(
            f"source jitter {source_s:.3g} s exceeds total {total_s:.3g} s "
            "(inconsistent measurement)"
        )
    return math.sqrt(total_s * total_s - source_s * source_s)
