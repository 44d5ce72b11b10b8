import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snspdkit.detector as det
from snspdkit.constants import HC
from snspdkit.errors import DomainError, InconsistencyError

REFERENCE = det.DetectorModel()  # 4 x 50 um x 100 nm, 90 pH/sq, 50 ohm


# -- absorptance -------------------------------------------------------------

def test_absorptance_reference_lengths():
    assert det.absorptance(451.0, 51e-4) == pytest.approx(0.90, abs=0.005)
    assert det.absorptance(451.0, 102e-4) == pytest.approx(0.99, abs=0.002)


def test_absorptance_zero_length():
    assert det.absorptance(451.0, 0.0) == 0.0
    assert det.absorptance(0.0, 1.0) == 0.0


def test_absorptance_rejects_negative():
    with pytest.raises(DomainError):
        det.absorptance(-1.0, 1.0)
    with pytest.raises(DomainError):
        det.absorptance(451.0, -1e-4)


# box keeps alpha*L <= ~24 so saturation stays resolvable in doubles
@given(st.floats(0.1, 1000.0), st.floats(1e-6, 0.012), st.floats(1e-6, 0.012))
@settings(max_examples=200, deadline=None)
def test_absorptance_composition(alpha, l1, l2):
    a12 = det.absorptance(alpha, l1 + l2)
    a1, a2 = det.absorptance(alpha, l1), det.absorptance(alpha, l2)
    assert a12 == pytest.approx(1.0 - (1.0 - a1) * (1.0 - a2), rel=1e-9, abs=1e-12)
    assert 0.0 <= a12 < 1.0
    assert a12 > a1 and a12 > a2  # strictly increasing in length


# -- kinetic inductance and recovery ----------------------------------------

def test_kinetic_inductance_reference():
    # 4 wires x 50 um / 100 nm = 2000 squares x 90 pH
    assert det.kinetic_inductance(REFERENCE) == pytest.approx(180e-9, rel=1e-12)


def test_kinetic_inductance_single_square():
    one = replace(REFERENCE, wire_count=1, wire_length_m=100e-9)
    assert det.kinetic_inductance(one) == pytest.approx(90e-12, rel=1e-12)


def test_kinetic_inductance_short_device():
    short = replace(REFERENCE, wire_length_m=30e-6)
    assert det.kinetic_inductance(short) == pytest.approx(108e-9, rel=1e-12)


def test_zero_width_rejected():
    with pytest.raises(DomainError):
        det.DetectorModel(wire_width_m=0.0)


def test_recovery_time_constant():
    assert det.recovery_time_constant(REFERENCE) == pytest.approx(3.6e-9, rel=1e-12)
    short = replace(REFERENCE, wire_length_m=30e-6)
    assert det.recovery_time_constant(short) == pytest.approx(2.16e-9, rel=1e-12)


def test_recovery_scale_invariance():
    doubled = replace(REFERENCE, sheet_inductance_H=180e-12, load_resistance_ohm=100.0)
    assert det.recovery_time_constant(doubled) == pytest.approx(
        det.recovery_time_constant(REFERENCE), rel=1e-12)


def test_recovery_fraction():
    tau = 3.6e-9
    assert det.recovery_fraction(3 * tau, tau) == pytest.approx(0.950, abs=0.001)
    assert det.recovery_fraction(0.0, tau) == 0.0
    assert det.recovery_fraction(math.log(20.0) * tau, tau) == pytest.approx(0.95, rel=1e-12)


def test_max_count_rate():
    assert det.max_count_rate(REFERENCE) == pytest.approx(92.59e6, rel=1e-3)
    doubled = replace(REFERENCE, sheet_inductance_H=180e-12)
    assert det.max_count_rate(doubled) == pytest.approx(det.max_count_rate(REFERENCE) / 2, rel=1e-12)
    short = replace(REFERENCE, wire_length_m=30e-6)
    assert det.max_count_rate(short) == pytest.approx(154.3e6, rel=1e-3)


# -- pulse shape --------------------------------------------------------------

def test_pulse_tail_decay_time():
    trace = det.pulse_shape(REFERENCE, tau_rise_s=200e-12)
    assert trace.decay_time_1e_s == pytest.approx(3.6e-9, rel=0.01)
    assert trace.voltage[0] == 0.0
    assert trace.voltage.max() == pytest.approx(1.0, rel=1e-6)
    dt = np.diff(trace.time_s)
    assert np.allclose(dt, dt[0])


def test_pulse_pure_exponential_limit():
    trace = det.pulse_shape(REFERENCE, tau_rise_s=3.6e-9 / 1000.0)
    assert trace.fwhm_s == pytest.approx(3.6e-9 * math.log(2.0), rel=0.02)


def test_pulse_single_maximum():
    trace = det.pulse_shape(REFERENCE, tau_rise_s=500e-12)
    dv = np.diff(trace.voltage)
    sign_changes = int(np.count_nonzero(np.diff(np.sign(dv[np.abs(dv) > 1e-15]))))
    assert sign_changes == 1


def test_pulse_rise_must_be_below_fall():
    with pytest.raises(DomainError, match="0 < tau_rise < tau_fall"):
        det.pulse_shape(REFERENCE, tau_rise_s=det.recovery_time_constant(REFERENCE))


def test_fit_rise_for_measured_fwhm():
    fitted = det.fit_rise_for_fwhm(REFERENCE, 3.2e-9)
    trace = det.pulse_shape(REFERENCE, fitted)
    assert trace.fwhm_s == pytest.approx(3.2e-9, rel=1e-4)
    with pytest.raises(DomainError):
        det.fit_rise_for_fwhm(REFERENCE, 1e-9)  # below tau_fall * ln 2


def test_fit_rise_matches_brentq():
    """The bisected rise constant is within the fit's xtol of the root
    scipy's brentq finds on the same bracket and gap function."""
    from scipy.optimize import brentq

    from snspdkit.config import PULSE_FWHM_NS, default_config_path, load_project_config

    model = load_project_config(default_config_path()).detector
    tau_fall = det.recovery_time_constant(model)
    xtol = tau_fall * 1e-9
    target = PULSE_FWHM_NS * 1e-9
    root = brentq(lambda tau: det.pulse_shape(model, tau).fwhm_s - target,
                  tau_fall * 1e-5, tau_fall * 0.999, xtol=xtol)
    assert abs(det.fit_rise_for_fwhm(model, target) - root) <= xtol


@pytest.mark.parametrize("ratio", [5.5, 10.0, 100.0])
def test_pulse_tail_fit_robust_to_rise(ratio):
    tau_fall = det.recovery_time_constant(REFERENCE)
    trace = det.pulse_shape(REFERENCE, tau_rise_s=tau_fall / ratio)
    assert trace.decay_time_1e_s == pytest.approx(tau_fall, rel=0.01)


@pytest.mark.parametrize("tau_rise_s", [50e-12, 200e-12, 500e-12, 1e-9])
def test_pulse_tail_fit_is_linregress_slope(tau_rise_s):
    """The tail fit is bit-identical to scipy.stats.linregress on the same
    samples (t beyond the peak by five rise constants, V above 1e-12)."""
    from scipy.stats import linregress

    trace = det.pulse_shape(REFERENCE, tau_rise_s)
    t, v = trace.time_s, trace.voltage
    tail = (t > trace.peak_time_s + 5.0 * tau_rise_s) & (v > 1e-12)
    assert trace.decay_time_1e_s == -1.0 / linregress(t[tail], np.log(v[tail])).slope


# -- efficiency chain ---------------------------------------------------------

def test_efficiency_chain_reference():
    budget = det.EfficiencyBudget(0.174, 0.90, 0.219)
    assert budget.sqe == pytest.approx(0.0343, abs=0.0002)
    assert budget.dqe == pytest.approx(0.197, abs=0.001)


def test_invert_internal_reference():
    assert det.invert_internal(0.197, 0.90) == pytest.approx(0.219, abs=0.0005)


def test_perfect_coupling_and_internal():
    budget = det.EfficiencyBudget(1.0, 0.777, 1.0)
    assert budget.sqe == budget.dqe == 0.777


def test_invert_internal_inconsistency():
    with pytest.raises(InconsistencyError):
        det.invert_internal(0.95, 0.90)


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=300, deadline=None)
def test_efficiency_ordering(coupling, absorptance_, internal):
    budget = det.EfficiencyBudget(coupling, absorptance_, internal)
    assert budget.sqe <= budget.dqe + 1e-15
    assert budget.dqe <= budget.absorptance + 1e-15
    assert budget.sqe == pytest.approx(budget.coupling * budget.dqe, rel=1e-12, abs=1e-300)


def test_internal_efficiency_logistic():
    """The logistic shape rises towards a ceiling of 1 and is 1/2 at its midpoint."""
    model = REFERENCE
    low = det.internal_efficiency(model, 0.3)
    high = det.internal_efficiency(model, 0.99)
    assert 0 < low < high < 1
    assert det.internal_efficiency(model, model.bias_midpoint) == 0.5


# -- dark counts ---------------------------------------------------------------

def test_dark_law_flat_when_slope_zero():
    model = replace(REFERENCE, dark_rate_slope=0.0, dark_rate_prefactor_hz=7.0)
    assert det.dark_count_rate(model, 0.5) == det.dark_count_rate(model, 0.9) == 7.0


# -- expected rate and simulation ----------------------------------------------

def test_expected_count_rate_reference():
    flux = 1e-12 * 1300e-9 / HC
    assert flux == pytest.approx(6.544e6, rel=1e-3)
    rate = det.expected_count_rate(1e-12, 1300e-9, 0.034)
    assert rate == pytest.approx(2.225e5, rel=1e-3)


def test_expected_count_rate_limits():
    assert det.expected_count_rate(0.0, 1300e-9, 0.5) == 0.0
    # saturation: R_t * dead >> 1 -> rate -> 1/dead
    rate = det.expected_count_rate(1e-3, 1300e-9, 0.5, dead_time_s=10e-9)
    assert rate == pytest.approx(1e8, rel=1e-3)


@given(st.floats(0, 1e-9), st.floats(0, 1e5))
@settings(max_examples=200, deadline=None)
def test_dead_time_correction_bounds(dead, dark):
    total = det.expected_count_rate(1e-12, 1300e-9, 0.034, 0.0, dark)
    measured = det.expected_count_rate(1e-12, 1300e-9, 0.034, dead, dark)
    assert measured <= total + 1e-9
    if dead > 0:
        assert measured <= 1.0 / dead


def _budget():
    return det.EfficiencyBudget(0.174, 0.90, det.invert_internal(0.197, 0.90))


def test_simulate_empty_without_light_or_darks():
    model = replace(REFERENCE, dark_rate_prefactor_hz=0.0 + 1e-300)
    src = det.SourceSpec(0.0, 1300e-9)
    rec = det.simulate_counting(model, _budget(), src, 1e-3, seed=7)
    assert len(rec) == 0


def test_simulate_deterministic_per_seed():
    src = det.SourceSpec(1e-12, 1300e-9, jitter_sigma_s=73e-12)
    r1 = det.simulate_counting(REFERENCE, _budget(), src, 0.01, seed=42)
    r2 = det.simulate_counting(REFERENCE, _budget(), src, 0.01, seed=42)
    r3 = det.simulate_counting(REFERENCE, _budget(), src, 0.01, seed=43)
    assert np.array_equal(r1.timestamps_s, r2.timestamps_s)
    assert np.array_equal(r1.photon, r2.photon)
    assert not np.array_equal(r1.timestamps_s, r3.timestamps_s)


def test_simulate_rejects_negative_seed():
    src = det.SourceSpec(1e-12, 1300e-9)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        det.simulate_counting(REFERENCE, _budget(), src, 0.01, seed=-1)


def test_simulate_low_flux_poisson_counts():
    """Low-load counts stay within 4 sigma of the expected mean across seeds."""
    budget = _budget()
    src = det.SourceSpec(0.002e-12, 1300e-9)  # ~450 cps: rate*dead ~ 5e-6
    duration = 2.0
    failures = 0
    for seed in range(30):
        rec = det.simulate_counting(REFERENCE, budget, src, duration, seed=seed)
        rate = det.expected_count_rate(src.power_w, src.wavelength_m, budget.sqe,
                                       rec.dead_time_s, det.dark_count_rate(REFERENCE))
        mu = rate * duration
        if abs(len(rec) - mu) > 4.0 * math.sqrt(mu):
            failures += 1
    assert failures <= 1


def test_simulate_dead_time_enforced():
    src = det.SourceSpec(5e-12, 1300e-9, jitter_sigma_s=73e-12)
    rec = det.simulate_counting(REFERENCE, _budget(), src, 0.005, seed=11)
    gaps = np.diff(rec.detection_times_s)
    assert gaps.min() >= rec.dead_time_s * (1 - 1e-12)
    assert np.all(np.diff(rec.timestamps_s) > 0)
    assert rec.photon.dtype == bool and not rec.photon.flags.writeable


def reference_dead_time_filter(times, dead_time):
    keep, last = [], -math.inf
    for k, t in enumerate(times):
        if t - last >= dead_time:
            keep.append(k)
            last = t
    return keep


# whole-number gaps and dead times hit the t - last == dead time boundary exactly
@given(st.lists(st.one_of(st.integers(0, 6), st.floats(0.0, 6.0)), max_size=60),
       st.one_of(st.integers(0, 5), st.floats(0.0, 5.0)))
@settings(max_examples=300, deadline=None)
def test_dead_time_filter_matches_reference_loop(gaps, dead_time):
    """Non-paralyzable dead time: an event counts if it is at least the dead
    time after the last counted event, as in a plain event-by-event loop."""
    times = np.cumsum(np.asarray(gaps, dtype=float))
    got = det._dead_time_filter(times, float(dead_time))
    assert got.tolist() == reference_dead_time_filter(times, float(dead_time))


def test_power_sweep_recovers_sqe_slope():
    budget = _budget()
    powers = [0.05e-12 * 100 ** (k / 9.0) for k in range(10)]
    records = [
        det.simulate_counting(REFERENCE, budget, det.SourceSpec(p, 1300e-9, 73e-12),
                              0.2, seed=1000 + k)
        for k, p in enumerate(powers)
    ]
    sqe_est, slope, intercept = det.estimate_sqe_from_sweep(powers, records, 1300e-9)
    assert sqe_est == pytest.approx(budget.sqe, rel=0.03)


@pytest.mark.parametrize("powers", [[1e-12], [1e-12, 1e-12], [0.0, 0.0, 0.0]],
                         ids=["one", "repeated", "all-zero"])
def test_power_sweep_needs_two_distinct_powers(powers):
    """A line through fewer than two distinct powers has no slope: a
    DomainError, not a LinAlgError or a RankWarning and a meaningless SQE."""
    records = [det.simulate_counting(REFERENCE, _budget(), det.SourceSpec(p, 1300e-9, 73e-12),
                                     0.01, seed=k) for k, p in enumerate(powers)]
    with pytest.raises(DomainError, match="at least two distinct powers"):
        det.estimate_sqe_from_sweep(powers, records, 1300e-9)


# -- jitter ---------------------------------------------------------------------

def test_jitter_deconvolve_reference():
    got = det.jitter_deconvolve(73e-12, 40e-12)
    assert got == pytest.approx(61.1e-12, abs=0.1e-12)


def test_jitter_zero_source():
    assert det.jitter_deconvolve(55e-12, 0.0) == 55e-12


def test_jitter_inconsistent_measurement():
    with pytest.raises(DomainError):
        det.jitter_deconvolve(40e-12, 73e-12)


@given(st.floats(1e-12, 1e-9), st.floats(0, 1e-9))
@settings(max_examples=200, deadline=None)
def test_jitter_round_trip(a, b):
    total = math.hypot(a, b)
    assert det.jitter_deconvolve(total, b) == pytest.approx(a, rel=1e-12)


# -- model validation -------------------------------------------------------------

def test_model_bias_window():
    with pytest.raises(DomainError):
        det.DetectorModel(bias_current_A=20e-6)  # above I_c
    with pytest.raises(DomainError):
        det.DetectorModel(bias_current_A=0.0)


@pytest.mark.parametrize("width", [0.0, -0.07])
def test_model_logistic_width_positive(width):
    """A zero width divides by zero; a negative one inverts the logistic."""
    with pytest.raises(DomainError, match="logistic width must be > 0"):
        det.DetectorModel(bias_width=width)


_TIMES = np.array([0.0, 1e-6])


@pytest.mark.parametrize("call, message", [
    (lambda: det.DetectorModel(wire_count=0), "wire count must be >= 1"),
    (lambda: det.DetectorModel(wire_length_m=0.0), "wire length must be > 0"),
    (lambda: det.DetectorModel(sheet_inductance_H=0.0), "sheet kinetic inductance must be > 0"),
    (lambda: det.DetectorModel(load_resistance_ohm=0.0), "load resistance must be > 0"),
    (lambda: det.invert_internal(1.2, 0.9), r"DQE must be in \[0, 1\]"),
    (lambda: det.invert_internal(0.197, 0.0), "absorptance must be > 0 for inversion"),
    (lambda: det.recovery_fraction(-1e-9, 3.6e-9), "time must be >= 0"),
    (lambda: det.expected_count_rate(-1e-12, 1300e-9, 0.034), "power must be >= 0"),
    (lambda: det.SourceSpec(-1e-12, 1300e-9), "power must be >= 0"),
    (lambda: det.SourceSpec(1e-12, 0.0), "wavelength must be > 0"),
    (lambda: det.SourceSpec(1e-12, 1300e-9, jitter_sigma_s=-1e-12), "jitter sigma must be >= 0"),
    (lambda: det.CountRecord(_TIMES, np.array([True]), _TIMES), "timestamps and photon mask length mismatch"),
    (lambda: det.CountRecord(_TIMES[::-1].copy(), np.array([True, False]), _TIMES),
     "timestamps must be strictly increasing"),
    (lambda: det.CountRecord(_TIMES, np.array([True, False]), _TIMES, dead_time_s=1e-5),
     "detection gaps below the dead time"),
    (lambda: det.simulate_counting(REFERENCE, _budget(), det.SourceSpec(1e-12, 1300e-9), 0.0, seed=1),
     "duration must be > 0"),
    (lambda: det.simulate_counting(REFERENCE, _budget(), det.SourceSpec(1e-7, 1300e-9), 0.2, seed=1),
     r"^counting run would draw 4\.49e\+09 arrivals, above the cap 10000000$"),
    (lambda: det.jitter_deconvolve(-1e-12, 0.0), "jitter values must be >= 0"),
    (lambda: det.jitter_deconvolve(73e-12, -1e-12), "jitter values must be >= 0"),
], ids=["wire_count-0", "length-0", "sheet_inductance-0", "load-0", "dqe-1.2", "absorptance-0", "recovery-negative-time", "rate-negative-power",
        "source-negative-power", "source-wavelength-0", "source-negative-jitter",
        "record-length-mismatch", "record-decreasing", "record-dead-time", "duration-0",
        "arrivals-above-cap", "jitter-negative-total", "jitter-negative-source"])
def test_out_of_domain_arguments_rejected(call, message):
    """Each argument outside its model's domain is a DomainError naming it."""
    with pytest.raises(DomainError, match=message):
        call()


def test_model_dark_prefactor_nonnegative():
    with pytest.raises(DomainError, match="dark-count prefactor must be >= 0"):
        det.DetectorModel(dark_rate_prefactor_hz=-1000.0)
    assert det.dark_count_rate(det.DetectorModel(dark_rate_prefactor_hz=0.0)) == 0.0
