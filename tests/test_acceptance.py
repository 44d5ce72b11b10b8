"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one [acceptance] PASS/FAIL line (visible with -s or in the
captured output). Expensive eigensolves are shared through session fixtures;
their wall time is asserted where a runtime bound is part of the criterion.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import snspdkit.detector as det
from snspdkit.cli import main as cli_main
from snspdkit.fabry_perot import FringeData, extract_coupling, fp_transmission
from snspdkit.modes import modal_absorption, select_mode, solve_cross_section
from snspdkit.sweep import SweepParameter, SweepSpec, maximize_alpha, run_sweep

from slab_oracle import slab_neff

ALPHA_BAND = (383.0, 519.0)   # 451/cm +/- 15%


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_modal_absorption(reference_solve):
    modes, seconds = reference_solve
    te = select_mode(modes, "TE")
    alpha = modal_absorption(te)
    ok = ALPHA_BAND[0] <= alpha <= ALPHA_BAND[1] and seconds < 60.0
    report(1, ok, f"alpha = {alpha:.1f}/cm in {ALPHA_BAND}, solve {seconds:.1f}s < 60s "
                  f"(n_eff = {te.n_eff.real:.4f} + {te.n_eff.imag:.2e}j)")


def test_criterion_02_convergence_and_window(reference_solve, default_config):
    modes, _ = reference_solve
    alpha0 = modal_absorption(select_mode(modes, "TE"))
    cfg = default_config
    _grid, refined = solve_cross_section(cfg.cross_section, cfg.policy.refined(2.0), cfg.solver,
                                         kind="TE")
    alpha2 = modal_absorption(refined)
    grid_shift = abs(alpha2 - alpha0) / alpha0
    cs = cfg.cross_section
    wide = replace(cs, window_width_m=cs.window_width_m * 1.25,
                   window_height_m=cs.window_height_m * 1.25)
    _grid, widened = solve_cross_section(wide, cfg.policy, cfg.solver, kind="TE")
    alpha_w = modal_absorption(widened)
    window_shift = abs(alpha_w - alpha0) / alpha0
    ok = grid_shift < 0.02 and window_shift < 0.01
    report(2, ok, f"2x refinement moves alpha by {grid_shift:.2%} (< 2%), "
                  f"window +25% by {window_shift:.2%} (< 1%)")


def test_criterion_03_slab_oracle_and_lossless(slab_solve, lossless_solve):
    cs, modes, _seconds = slab_solve
    oracle = slab_neff(cs.index_of("GaAs").real, cs.index_of("AlGaAs").real,
                       300e-9, 1300e-9, "TE", 0)
    te = select_mode(modes, "TE")
    diff = abs(te.n_eff.real - oracle)
    _cs2, lossless = lossless_solve
    worst_im = max(abs(m.n_eff.imag) for m in lossless)
    ok = diff <= 1e-4 and worst_im < 1e-9
    report(3, ok, f"|n_eff - slab oracle| = {diff:.2e} <= 1e-4; "
                  f"lossless max |Im n_eff| = {worst_im:.1e} < 1e-9")


def test_criterion_04_absorptance():
    a51 = det.absorptance(451.0, 51e-4)
    a102 = det.absorptance(451.0, 102e-4)
    ok = abs(a51 - 0.90) <= 0.005 and abs(a102 - 0.99) <= 0.002
    report(4, ok, f"A(451/cm, 51um) = {a51:.4f} (0.90 +/- 0.005), "
                  f"A(451/cm, 102um) = {a102:.4f} (0.99 +/- 0.002)")


def test_criterion_05_electrical_chain():
    model = det.DetectorModel()
    lkin = det.kinetic_inductance(model)
    tau = det.recovery_time_constant(model)
    rec = det.recovery_fraction(3 * tau, tau)
    rate = det.max_count_rate(model)
    ok = (math.isclose(lkin, 180e-9, rel_tol=1e-12)
          and math.isclose(tau, 3.6e-9, rel_tol=1e-12)
          and abs(rec - 0.950) <= 0.001
          and math.isclose(rate, 1.0 / (3 * 3.6e-9), rel_tol=1e-9))
    report(5, ok, f"L_kin = {lkin * 1e9:.1f} nH, tau = {tau * 1e9:.2f} ns, "
                  f"recovery(3 tau) = {rec:.4f}, max rate = {rate / 1e6:.1f} MHz")


def test_criterion_06_fabry_perot():
    res = extract_coupling(FringeData(0.061, 0.018))
    coupling_ok = abs(res.coupling - 0.174) <= 0.001
    rng = np.random.default_rng(616)
    worst = 0.0
    for r, eta in zip(rng.uniform(0.05, 0.8, 1200), rng.uniform(0.05, 1.0, 1200)):
        t_max = fp_transmission(r, eta, 1.0, 0.0)
        t_min = fp_transmission(r, eta, 1.0, math.pi)
        got = extract_coupling(FringeData(t_max, t_min))
        worst = max(worst, abs(got.facet_reflectivity - r) / r,
                    abs(got.mode_match - eta) / eta)
    ok = coupling_ok and worst < 1e-12
    report(6, ok, f"eta_c = {res.coupling:.4f} (0.174 +/- 0.001); "
                  f"extract(render) identity worst rel err = {worst:.1e} over 1200 cases")


def test_criterion_07_efficiency_chain():
    eta_int = det.invert_internal(0.197, 0.90)
    budget = det.EfficiencyBudget(0.174, 0.90, eta_int)
    sqe_ok = abs(budget.sqe - 0.034) <= 0.001
    rng = np.random.default_rng(77)
    ordering_ok = True
    for c, a, i in rng.uniform(0.0, 1.0, (2000, 3)):
        b = det.EfficiencyBudget(c, a, i)
        ordering_ok &= b.sqe <= b.dqe + 1e-15 and b.dqe <= b.absorptance + 1e-15
    ok = sqe_ok and ordering_ok and abs(eta_int - 0.219) <= 0.001
    report(7, ok, f"eta_int = DQE/A = {eta_int:.4f}, SQE = {budget.sqe:.4f} "
                  f"(0.034 +/- 0.001); ordering SQE<=DQE<=A on 2000 draws")


def test_criterion_08_jitter():
    intrinsic = det.jitter_deconvolve(73e-12, 40e-12)
    ok = abs(intrinsic - 61.1e-12) <= 0.1e-12
    report(8, ok, f"deconvolve(73 ps, 40 ps) = {intrinsic * 1e12:.2f} ps (61.1 +/- 0.1)")


def test_criterion_09_counting_round_trip():
    budget = det.EfficiencyBudget(0.174, 0.90, det.invert_internal(0.197, 0.90))
    model = det.DetectorModel()
    powers = [0.05e-12 * 100 ** (k / 9.0) for k in range(10)]
    records = []
    counts_ok = True
    for k, p in enumerate(powers):
        src = det.SourceSpec(p, 1300e-9, 73e-12)
        rec = det.simulate_counting(model, budget, src, 0.2, seed=9000 + k)
        records.append(rec)
        expected = det.expected_count_rate(p, 1300e-9, budget.sqe, rec.dead_time_s,
                                           det.dark_count_rate(model)) * 0.2
        counts_ok &= abs(len(rec) - expected) <= 4.0 * math.sqrt(expected)
    sqe_est, _slope, _dark = det.estimate_sqe_from_sweep(powers, records, 1300e-9)
    slope_ok = abs(sqe_est / budget.sqe - 1.0) <= 0.03
    rec_a = det.simulate_counting(model, budget, det.SourceSpec(powers[3], 1300e-9, 73e-12),
                                  0.2, seed=9003)
    deterministic = np.array_equal(rec_a.timestamps_s, records[3].timestamps_s)
    ok = counts_ok and slope_ok and deterministic
    report(9, ok, f"recovered SQE/input = {sqe_est / budget.sqe:.4f} (within 3%); "
                  f"all 10 counts within 4 sigma; deterministic per seed: {deterministic}")


def test_criterion_10_tm_design_claim(default_config):
    cfg = default_config
    spec = SweepSpec((SweepParameter("core_thickness_nm", 300.0, 350.0, 50.0),),
                     mode_kind="TM")
    t0 = time.monotonic()
    result = run_sweep(cfg.cross_section, spec, cfg.policy, cfg.solver)
    seconds = time.monotonic() - t0
    by_t = {p.params["core_thickness_nm"]: p for p in result.points}
    alpha_350 = by_t[350.0].alpha_per_cm
    per_solve = seconds / 2.0
    ok = alpha_350 is not None and alpha_350 > 500.0 and per_solve < 60.0
    report(10, ok, f"first TM-like at +50 nm: alpha = {alpha_350:.1f}/cm > 500, "
                   f"{per_solve:.1f}s/solve < 60s (300 nm row: "
                   f"{by_t[300.0].alpha_per_cm:.1f}/cm)")


def test_criterion_11_optimizer_contracts(default_config):
    base = default_config.cross_section
    peak = 317.0

    def synthetic(cs):
        alpha = 480.0 - 0.015 * (round(cs.stack.top_layer.thickness_m * 1e9, 6) - peak) ** 2
        return complex(3.15, 1e-3), alpha, 0.95

    spec = SweepSpec((SweepParameter("core_thickness_nm", 260.0, 380.0, 40.0),
                      SweepParameter("array_offset_nm", 0.0, 200.0, 100.0)),
                     min_margin_m=0.5e-6)
    result = maximize_alpha(base, spec, evaluate=synthetic, tolerance=5.0)
    argmax_ok = (result.status == "ok"
                 and abs(result.best.params["core_thickness_nm"] - peak) <= 5.0)
    margin_ok = result.best.margin_m >= spec.min_margin_m - 1e-15
    dominance_ok = all(
        result.best.alpha_per_cm >= p.alpha_per_cm
        for p in result.points if p.feasible and p.status == "ok"
    )
    ok = argmax_ok and margin_ok and dominance_ok
    report(11, ok, f"argmax {result.best.params['core_thickness_nm']:.1f} nm within 5 nm of "
                   f"{peak}; margin {result.best.margin_m * 1e6:.2f} um respected; "
                   f"dominates all {len(result.points)} trace points")


def test_criterion_12_reproduce_pipeline(tmp_path):
    runner = CliRunner()
    out = tmp_path / "repro"
    t0 = time.monotonic()
    result = runner.invoke(cli_main, ["reproduce-paper", "--out", str(out), "--json"])
    seconds = time.monotonic() - t0
    ok = result.exit_code == 0 and seconds < 300.0
    payload = json.loads(result.output) if result.exit_code == 0 else {}
    statuses = payload.get("stages", {})
    ok = ok and payload.get("all_pass") is True
    summary = json.loads((out / "summary.json").read_text()) if ok else {}
    n_checks = sum(len(s["checks"]) for s in summary.get("stages", [])) if ok else 0
    report(12, ok, f"reproduce-paper all-pass in {seconds:.0f}s < 300s; "
                   f"stages: {statuses}; {n_checks} checks scored")


def test_single_point_sweep_matches_reference(default_config):
    """One-point sweep at the shipped geometry: in-band absorption, the
    0.5 um margin, and feasibility, through the real sweep path."""
    cfg = default_config
    spec = SweepSpec((SweepParameter("array_offset_nm", 0.0, 0.0, 100.0),))
    result = run_sweep(cfg.cross_section, spec, cfg.policy, cfg.solver)
    p = result.points[0]
    assert p.status == "ok" and p.feasible
    assert p.margin_m == pytest.approx(0.5e-6, rel=1e-9)
    assert ALPHA_BAND[0] <= p.alpha_per_cm <= ALPHA_BAND[1]
    assert result.best is p
