from dataclasses import replace

import pytest

import snspdkit.sweep as sweep_module
from snspdkit import ResolutionPolicy, SolverConfig
from snspdkit.errors import ConfigError
from snspdkit.geometry import alignment_margin
from snspdkit.io_utils import sweep_to_rows
from snspdkit.modes import modal_absorption, solve_cross_section
from snspdkit.sweep import (
    SweepParameter,
    SweepPoint,
    SweepResult,
    SweepSpec,
    apply_parameters,
    maximize_alpha,
    run_sweep,
)


@pytest.fixture()
def base_cs(default_config):
    return default_config.cross_section


def synthetic(peak_nm=317.0, margin_floor=0.3e-6):
    """Analytic stand-in for the solver: unimodal alpha over core thickness,
    margin decreasing with array offset."""

    def evaluate(values):
        t = values.get("core_thickness_nm", 300.0)
        off = abs(values.get("array_offset_nm", 0.0))
        alpha = 500.0 - 0.02 * (t - peak_nm) ** 2
        margin = 0.5e-6 - off * 1e-9
        return complex(3.15, alpha * 1.3e-6 / (4e2 * 3.1415)), alpha, 0.95, margin

    return evaluate


def test_sweep_parameter_values():
    p = SweepParameter("core_thickness_nm", 300.0, 360.0, 20.0)
    assert p.values() == [300.0, 320.0, 340.0, 360.0]
    with pytest.raises(ConfigError):
        SweepParameter("bogus_nm", 0, 1, 1)
    with pytest.raises(ConfigError):
        SweepParameter("core_thickness_nm", 0, 1, -1)


def test_apply_parameters(base_cs):
    cs = apply_parameters(base_cs, {
        "core_thickness_nm": 350, "ridge_width_nm": 2000, "etch_depth_nm": 200,
        "wire_count": 3, "array_offset_nm": 50, "wavelength_nm": 1310,
    })
    assert cs.stack.top_layer.thickness_m == pytest.approx(350e-9)
    assert cs.ridge.width_m == pytest.approx(2e-6)
    assert cs.ridge.etch_depth_m == pytest.approx(200e-9)
    assert cs.wires.count == 3
    assert cs.wires.offset_m == pytest.approx(50e-9)
    assert cs.wavelength_m == pytest.approx(1310e-9)
    with pytest.raises(ConfigError, match="unknown sweep parameter 'bogus_nm'"):
        apply_parameters(base_cs, {"bogus_nm": 1.0})


@pytest.mark.parametrize("values, message", [
    ({"wire_count": 2}, "wire_count sweep on a cross-section without wires"),
    ({"array_offset_nm": 50}, "array_offset sweep on a cross-section without wires"),
], ids=["wire_count", "array_offset_nm"])
def test_apply_wire_parameters_needs_wires(base_cs, values, message):
    with pytest.raises(ConfigError, match=message):
        apply_parameters(replace(base_cs, wires=None), values)


def test_sweep_margin_tracks_offset(base_cs):
    spec = SweepSpec((SweepParameter("array_offset_nm", 0.0, 400.0, 100.0),))
    result = run_sweep(base_cs, spec, evaluate=synthetic())
    margins = [p.margin_m for p in result.points]
    assert margins == pytest.approx([0.5e-6 - k * 100e-9 for k in range(5)])
    feasible = [p.feasible for p in result.points]
    assert feasible == [True, False, False, False, False]  # constraint is 0.5 um
    alphas = {p.alpha_per_cm for p in result.points}
    assert len(alphas) == 1  # synthetic alpha does not move with offset


def test_sweep_point_cap(base_cs, monkeypatch):
    """The cap is checked from the axis lengths before any axis is built, so
    a tiny step is a config error, not an out-of-memory failure. The
    optimizer's coarse pass is the same sweep, so it honours the cap too."""
    spec = SweepSpec(
        (SweepParameter("core_thickness_nm", 0.0, 100.0, 1.0),
         SweepParameter("ridge_width_nm", 0.0, 1000.0, 1.0)),
    )
    built, values = [], SweepParameter.values
    monkeypatch.setattr(SweepParameter, "values", lambda p: built.append(p.name) or values(p))
    with pytest.raises(ConfigError, match="101101 points, above the cap 10000"):
        run_sweep(base_cs, spec, evaluate=synthetic())
    assert built == []
    with pytest.raises(ConfigError, match="101101 points"):
        maximize_alpha(base_cs, spec, evaluate=synthetic())
    assert built == []


def test_sweep_best_dominates(base_cs):
    spec = SweepSpec(
        (SweepParameter("core_thickness_nm", 280.0, 360.0, 10.0),),
        min_margin_m=0.0,
    )
    result = run_sweep(base_cs, spec, evaluate=synthetic())
    assert result.best is not None
    assert result.best.params["core_thickness_nm"] == 320.0  # closest grid point to 317
    for p in result.points:
        if p.feasible and p.status == "ok":
            assert result.best.alpha_per_cm >= p.alpha_per_cm


def test_sweep_failed_points_survive(base_cs):
    def flaky(values):
        if values["core_thickness_nm"] == 300.0:
            raise ConfigError("synthetic failure")
        return synthetic()(values)

    spec = SweepSpec((SweepParameter("core_thickness_nm", 290.0, 310.0, 10.0),), min_margin_m=0.0)
    result = run_sweep(base_cs, spec, evaluate=flaky)
    statuses = [p.status for p in result.points]
    assert statuses[0] == "ok" and statuses[2] == "ok"
    assert statuses[1].startswith("failed:")
    assert result.best is not None


def test_sweep_result_derives_best():
    """The best point is the earliest feasible, solved point of highest alpha;
    an infeasible point of higher alpha and a later tie do not displace it."""
    low = SweepPoint({"core_thickness_nm": 300.0}, complex(3.15, 1e-3), 400.0, 0.9,
                     0.5e-6, True, "ok")
    high = SweepPoint({"core_thickness_nm": 320.0}, complex(3.15, 2e-3), 450.0, 0.9,
                      0.5e-6, True, "ok")
    infeasible = SweepPoint({"core_thickness_nm": 340.0}, complex(3.15, 3e-3), 500.0, 0.9,
                            0.1e-6, False, "ok")
    tie = replace(high, params={"core_thickness_nm": 330.0})
    result = SweepResult((low, high, infeasible, tie))
    assert result.best is high
    assert (result.status, result.iterations) == ("ok", 0)
    assert SweepResult((tie, high)).best is tie
    only_infeasible = SweepResult((infeasible,), 3)
    assert (only_infeasible.best, only_infeasible.status) == (None, "infeasible")


def test_sweep_deterministic_and_export(tmp_path, base_cs):
    spec = SweepSpec((SweepParameter("core_thickness_nm", 280.0, 360.0, 20.0),), min_margin_m=0.0)
    r1 = run_sweep(base_cs, spec, evaluate=synthetic())
    r2 = run_sweep(base_cs, spec, evaluate=synthetic())
    assert [p.params for p in r1.points] == [p.params for p in r2.points]
    assert [p.alpha_per_cm for p in r1.points] == [p.alpha_per_cm for p in r2.points]
    from snspdkit.io_utils import write_csv

    cols, rows = sweep_to_rows(r1.points)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(f1, cols, rows, "d")
    cols, rows = sweep_to_rows(r2.points)
    write_csv(f2, cols, rows, "d")
    assert f1.read_bytes() == f2.read_bytes()


# the coarse grid of every real-path test below
COARSE = ResolutionPolicy(base_m=50e-9, band_m=30e-9, edge_band_m=12e-9,
                          far_m=125e-9, far_margin_m=400e-9)


def test_sweep_real_path_offset_moves_alpha(default_config):
    """Through the real solver at coarse resolution: the margin falls
    linearly with |offset| while the absorption actually moves."""
    cfg = default_config
    spec = SweepSpec((SweepParameter("array_offset_nm", 0.0, 200.0, 200.0),),
                     min_margin_m=0.5e-6)
    result = run_sweep(cfg.cross_section, spec, COARSE, SolverConfig(num_modes=6))
    p0, p200 = result.points
    assert p0.status == p200.status == "ok"
    assert p0.margin_m == pytest.approx(0.5e-6, rel=1e-9)
    assert p200.margin_m == pytest.approx(0.3e-6, rel=1e-9)
    assert p0.feasible and not p200.feasible
    assert p0.alpha_per_cm != p200.alpha_per_cm


def test_sweep_real_path_no_mode_points_kept(default_config):
    """Real path at coarse resolution: with one eigenpair per operator the
    nearest mode is TE-like, so a TM sweep finds no mode at any point. Each
    point stays a ``no-mode`` row with its margin and feasibility, and none is
    chosen as best although one is feasible."""
    spec = SweepSpec((SweepParameter("array_offset_nm", 0.0, 200.0, 200.0),),
                     min_margin_m=0.5e-6, mode_kind="TM")
    result = run_sweep(default_config.cross_section, spec, COARSE, SolverConfig(num_modes=1))
    p0, p200 = result.points
    assert p0.status == p200.status == "no-mode"
    assert p0.n_eff is p0.alpha_per_cm is p0.te_fraction is None
    assert p0.margin_m == pytest.approx(0.5e-6, rel=1e-9)
    assert p200.margin_m == pytest.approx(0.3e-6, rel=1e-9)
    assert p0.feasible and not p200.feasible
    assert result.best is None
    cols, rows = sweep_to_rows(result.points)
    assert [row[cols.index("status")] for row in rows] == ["no-mode", "no-mode"]
    assert [row[cols.index("feasible")] for row in rows] == [True, False]
    assert rows[0][cols.index("alpha_per_cm")] == ""


def test_sweep_wavelength_across_band_edge(default_config):
    """Real path at coarse resolution: 1360 nm, the upper edge of the shipped
    tables, solves; 1380 nm fails with the material named, and the sweep
    keeps going and picks its best among the solved points."""
    from snspdkit import WavelengthRangeError, rasterize

    cfg = default_config
    spec = SweepSpec((SweepParameter("wavelength_nm", 1340.0, 1380.0, 20.0),))
    result = run_sweep(cfg.cross_section, spec, COARSE, SolverConfig())
    assert [p.params["wavelength_nm"] for p in result.points] == [1340.0, 1360.0, 1380.0]
    ok_1340, ok_1360, out = result.points
    assert ok_1340.status == ok_1360.status == "ok"
    with pytest.raises(WavelengthRangeError) as info:
        rasterize(apply_parameters(cfg.cross_section, {"wavelength_nm": 1380.0}), COARSE)
    assert out.status == f"failed: {info.value}"
    assert f"material {info.value.material!r}" in out.status
    assert out.n_eff is None and not out.feasible
    assert result.best in (ok_1340, ok_1360)


# -- continuation: each solve starts from the last solved mode ------------------

@pytest.fixture()
def starts(monkeypatch):
    """The n_eff of the mode each real-path solve started from (None: cold)."""
    record = []
    inner = sweep_module.solve_cross_section

    def spy(cs, policy, config, kind, start=None):
        record.append(None if start is None else start.n_eff)
        return inner(cs, policy, config, kind, start)

    monkeypatch.setattr(sweep_module, "solve_cross_section", spy)
    return record


def cold_point(base, spec, values):
    """The point of ``values`` as a one-point sweep, which solves cold."""
    one = replace(spec, parameters=tuple(SweepParameter(n, v, v, 1.0) for n, v in values.items()))
    return run_sweep(base, one, COARSE).points[0]


def assert_same_point(p, ref):
    """The row of a started solve is the cold row up to the last digits."""
    assert (p.params, p.status, p.feasible, p.margin_m) == (ref.params, ref.status, ref.feasible,
                                                            ref.margin_m)
    if ref.status == "ok":
        assert abs(p.n_eff - ref.n_eff) <= 1e-9 * abs(ref.n_eff)
        assert (p.te_fraction >= 0.5) == (ref.te_fraction >= 0.5)   # same polarization


@pytest.mark.parametrize("axis, kind", [
    (("array_offset_nm", 0.0, 200.0, 100.0), "TE"),
    (("core_thickness_nm", 330.0, 350.0, 20.0), "TM"),
    (("wavelength_nm", 1300.0, 1320.0, 20.0), "TE"),   # mirror-symmetric at every point
], ids=["te-offset", "tm-core", "te-wavelength"])
def test_continued_sweep_matches_cold_solves(base_cs, starts, axis, kind):
    """Every point after the first starts from the previous point's mode,
    and equals the cold solve of that point alone."""
    spec = SweepSpec((SweepParameter(*axis),), mode_kind=kind, min_margin_m=0.3e-6)
    result = run_sweep(base_cs, spec, COARSE)
    assert all(p.status == "ok" for p in result.points)
    assert starts == [None] + [p.n_eff for p in result.points[:-1]]
    for p in result.points:
        assert_same_point(p, cold_point(base_cs, spec, p.params))


def test_continued_sweep_repeats_bit_identically(base_cs):
    spec = SweepSpec((SweepParameter("array_offset_nm", 0.0, 100.0, 100.0),))
    first, second = (run_sweep(base_cs, spec, COARSE) for _ in range(2))
    assert first.points == second.points


def test_failed_point_keeps_the_start(base_cs, starts):
    """A point that fails (1380 nm is above the material tables, so building
    its section raises before any solve) does not replace the start: the next
    point starts from the last solved mode and equals its cold solve."""
    spec = SweepSpec((SweepParameter("array_offset_nm", 0.0, 100.0, 100.0),
                      SweepParameter("wavelength_nm", 1360.0, 1380.0, 20.0)))
    result = run_sweep(base_cs, spec, COARSE)
    assert [p.status.split(":")[0] for p in result.points] == ["ok", "failed", "ok", "failed"]
    assert starts == [None, result.points[0].n_eff]
    assert_same_point(result.points[2], cold_point(base_cs, spec, result.points[2].params))


def test_continued_optimize_matches_cold_optimize(base_cs):
    """``maximize_alpha`` with the real evaluator (continued over the coarse
    pass and the refinement) probes the same points, with the same statuses,
    and returns the same best point as with every point solved cold."""
    spec = SweepSpec((SweepParameter("core_thickness_nm", 280.0, 360.0, 40.0),), min_margin_m=0.0)

    def cold(values):
        cs = apply_parameters(base_cs, values)
        _grid, mode = solve_cross_section(cs, COARSE, SolverConfig(), spec.mode_kind)
        return (mode.n_eff, modal_absorption(mode), mode.te_fraction,
                alignment_margin(cs.ridge, cs.wires))

    warm = maximize_alpha(base_cs, spec, COARSE, tolerance=20.0)
    ref = maximize_alpha(base_cs, spec, evaluate=cold, tolerance=20.0)
    assert len(warm.points) == len(ref.points) > 3   # the refinement probed
    for p, q in zip(warm.points, ref.points):
        assert_same_point(p, q)
    assert (warm.status, warm.iterations, warm.best.params) == (ref.status, ref.iterations,
                                                                ref.best.params)


def test_optimize_recovers_synthetic_argmax(base_cs):
    spec = SweepSpec(
        (SweepParameter("core_thickness_nm", 260.0, 380.0, 40.0),),
        min_margin_m=0.0,
    )
    result = maximize_alpha(base_cs, spec, evaluate=synthetic(peak_nm=317.0), tolerance=5.0)
    assert result.status == "ok"
    assert result.best.params["core_thickness_nm"] == pytest.approx(317.0, abs=5.0)
    # dominance over every feasible evaluated point, straight from the trace
    for p in result.points:
        if p.feasible and p.status == "ok":
            assert result.best.alpha_per_cm >= p.alpha_per_cm
    # refinement never leaves the declared range
    for p in result.points:
        assert 260.0 <= p.params["core_thickness_nm"] <= 380.0


def test_optimize_respects_margin_constraint(base_cs):
    spec = SweepSpec(
        (SweepParameter("array_offset_nm", 0.0, 400.0, 100.0),),
        min_margin_m=0.35e-6,
    )

    def offset_loving(values):
        off = abs(values.get("array_offset_nm", 0.0))
        margin = 0.5e-6 - off * 1e-9
        return complex(3.15, 1e-3), 400.0 + off, 0.9, margin  # alpha grows with offset

    result = maximize_alpha(base_cs, spec, evaluate=offset_loving, tolerance=5.0)
    assert result.status == "ok"
    assert result.best.margin_m >= 0.35e-6 - 1e-15
    # unconstrained optimum (offset 400) is infeasible; best feasible is at the boundary
    assert result.best.params["array_offset_nm"] <= 150.0 + 1e-9


def test_optimize_infeasible_is_a_result(base_cs):
    spec = SweepSpec(
        (SweepParameter("array_offset_nm", 300.0, 400.0, 50.0),),
        min_margin_m=0.45e-6,
    )
    result = maximize_alpha(base_cs, spec, evaluate=synthetic(), tolerance=5.0)
    assert isinstance(result, SweepResult)
    assert result.status == "infeasible"
    assert result.best is None
    assert result.iterations == 0 and len(result.points) == 3   # the coarse pass only


@pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan"), float("inf")])
def test_optimize_rejects_bad_tolerance(base_cs, tolerance):
    """Interval halving stops once the step is below the tolerance: at 0 or
    below it would never stop, and nan or inf would skip it without a word.
    The tolerance is checked before any point is evaluated."""
    def never(values):
        raise AssertionError("evaluated a point")

    spec = SweepSpec((SweepParameter("core_thickness_nm", 260.0, 380.0, 40.0),), min_margin_m=0.0)
    with pytest.raises(ConfigError, match="tolerance must be a finite number > 0"):
        maximize_alpha(base_cs, spec, evaluate=never, tolerance=tolerance)


def test_optimize_rejects_bad_freedom(base_cs):
    with pytest.raises(ConfigError, match="1 or 2 free"):
        maximize_alpha(base_cs, SweepSpec((
            SweepParameter("core_thickness_nm", 280.0, 360.0, 20.0),
            SweepParameter("ridge_width_nm", 1500.0, 2500.0, 100.0),
            SweepParameter("etch_depth_nm", 150.0, 300.0, 50.0),
        ), min_margin_m=0.0), evaluate=synthetic())
    with pytest.raises(ConfigError, match="wire_count"):
        maximize_alpha(base_cs, SweepSpec((
            SweepParameter("wire_count", 2.0, 8.0, 1.0),
        ), min_margin_m=0.0), evaluate=synthetic())
