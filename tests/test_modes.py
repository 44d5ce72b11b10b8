import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import snspdkit as sk
from snspdkit.errors import ConfigError, ConvergenceError, DomainError
from snspdkit.geometry import PermittivityGrid, rasterize
from snspdkit.modes import (
    _ARNOLDI_SEED,
    _CONTINUE_MAX_BACKSOLVES,
    _QUERY,
    _cell_area,
    _centered,
    _finalize_mode,
    _first_of_kind,
    _gated_mode,
    _mirror_classes,
    _nearest,
    _power,
    _relative_residual,
    assemble_operator,
    modal_absorption,
    select_mode,
    solve_cross_section,
    solve_fundamental,
    solve_modes,
)
from snspdkit.sweep import _default_evaluate, _evaluate_point, apply_parameters, run_sweep

from slab_oracle import slab_neff


def uniform_grid(n_index, nx, ny, size):
    edges_x = np.linspace(-size / 2, size / 2, nx + 1)
    edges_y = np.linspace(-size / 2, size / 2, ny + 1)
    eps = np.full((nx, ny), complex(n_index, 0) ** 2)
    return PermittivityGrid(edges_x, edges_y, eps, 1300e-9)


def step_index_grid(n_core, n_clad, cells, size, mirrored=False, core_fraction=(0.5, 0.5)):
    """Centered rectangular core whose width and height are
    ``core_fraction`` of the window's (a square of half its width by
    default). ``mirrored`` builds the edges by reflection, so the grid is
    exactly mirror-symmetric."""
    if mirrored:
        half = np.linspace(0.0, size / 2, cells // 2 + 1)
        edges = np.concatenate([-half[:0:-1], half])
    else:
        edges = np.linspace(-size / 2, size / 2, cells + 1)
    centers = 0.5 * (edges[1:] + edges[:-1])
    width, height = (size * f / 2 for f in core_fraction)
    core = (np.abs(centers)[:, None] < width) & (np.abs(centers)[None, :] < height)
    eps = np.where(core, complex(n_core) ** 2, complex(n_clad) ** 2)
    return PermittivityGrid(edges, edges, eps, 1300e-9)


# -- operator assembly -------------------------------------------------------

def test_operator_rejects_tiny_grids():
    with pytest.raises(ConfigError, match="too small"):
        assemble_operator(uniform_grid(3.4, 2, 8, 20e-6))
    with pytest.raises(ConfigError, match="too small"):
        assemble_operator(uniform_grid(3.4, 8, 2, 20e-6))


@pytest.mark.parametrize("wavelength_m", [0.0, -1300e-9, float("nan")], ids=["zero", "negative", "nan"])
def test_operator_rejects_nonpositive_wavelength(wavelength_m):
    edges = np.linspace(0.0, 1e-6, 9)
    with pytest.raises(DomainError, match="wavelength must be > 0"):
        PermittivityGrid(edges, edges, np.ones((8, 8), complex), wavelength_m)


def test_plane_wave_limit_in_homogeneous_medium():
    """Largest beta^2 approaches (k0 n)^2; the residual gap is the zero-wall
    box quantization, and the error against the analytic box eigenvalue
    (zero field one ghost spacing outside the window) shrinks 2nd order."""
    from scipy.sparse.linalg import eigs

    n = 3.4
    size = 20e-6
    k0 = 2 * np.pi / 1300e-9
    target = (k0 * n) ** 2
    raw_errs, box_errs = [], []
    for cells in (40, 80):
        op = assemble_operator(uniform_grid(n, cells, cells, size))
        vals = eigs(op.matrix, k=1, sigma=target * 1.0001, return_eigenvectors=False,
                    v0=np.ones(op.matrix.shape[0], dtype=complex))
        l_eff = size + 2 * size / cells
        box = target - 2 * (np.pi / l_eff) ** 2
        raw_errs.append(abs(vals[0].real - target) / target)
        box_errs.append(abs(vals[0].real - box) / target)
    assert all(e < 5e-4 for e in raw_errs)
    assert box_errs[1] < box_errs[0] / 2


def test_lossless_spectrum_effectively_real(lossless_solve):
    _cs, modes = lossless_solve
    assert modes
    for mode in modes:
        assert abs(mode.n_eff.imag) < 1e-9


def test_no_guided_modes_is_empty_result():
    """A homogeneous window guides nothing; that is a signal, not an error."""
    modes = solve_modes(assemble_operator(uniform_grid(1.0, 24, 24, 10e-6)),
                        sk.SolverConfig(num_modes=3))
    assert modes == []


@pytest.fixture()
def solves(monkeypatch):
    """Records the shift-invert work of the solves that follow through
    SciPy's public ``splu`` and ``eigs``: ``factored`` holds the unknown
    count of each factorization (one full-size operator, or one half-size
    operator per mirror parity class), ``runs`` the (unknowns, k) of each
    Arnoldi run given an ``OPinv`` (the ``full_domain_eigs`` oracle passes
    none and is not recorded), ``backsolves`` the number of LU back-solves
    and ``per_lu`` that number for each factorization, and ``lus`` a weak
    reference to each LU. Each new factorization asserts that the earlier
    ones are dead: one LU is alive at a time."""
    record = SimpleNamespace(factored=[], runs=[], lus=[], backsolves=0, per_lu=[])
    splu, eigs = spla.splu, spla.eigs

    class CountedLU:
        def __init__(self, lu):
            self.lu, self.index = lu, len(record.per_lu)
            record.per_lu.append(0)

        def solve(self, rhs):
            record.backsolves += 1
            record.per_lu[self.index] += 1
            return self.lu.solve(rhs)

    def factor(mat, *args, **kwargs):
        assert all(lu() is None for lu in record.lus), "an earlier factorization is still alive"
        record.factored.append(mat.shape[0])
        lu = CountedLU(splu(mat, *args, **kwargs))
        record.lus.append(weakref.ref(lu))
        return lu

    def arnoldi(mat, k=6, *args, **kwargs):
        if kwargs.get("OPinv") is not None:
            record.runs.append((mat.shape[0], k))
        return eigs(mat, k, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", factor)
    monkeypatch.setattr(spla, "eigs", arnoldi)
    return record


def full_domain_eigs(op, k, return_eigenvectors=True):
    """Oracle: SciPy's default shift-invert eigs (internal COLAMD LU) on the
    full-domain operator, with the solver's start vector and default shift."""
    nn = op.matrix.shape[0]
    rng = np.random.default_rng(_ARNOLDI_SEED)
    v0 = rng.standard_normal(nn) + 1j * rng.standard_normal(nn)
    sigma = (op.grid.k0 * 0.98 * op.index_bracket()[1]) ** 2
    return spla.eigs(op.matrix, k, sigma=sigma, v0=v0, tol=0,
                     return_eigenvectors=return_eigenvectors)


def mode_residual(op, mode):
    """Eigen-residual of a returned mode against the full-domain operator."""
    vec = np.concatenate([mode.hx.ravel(), mode.hy.ravel()])
    return _relative_residual(op.matrix, mode.beta ** 2, vec)


def unit_power(mode):
    """Guided power of the stored fields (1 after normalization)."""
    return _power(_centered(mode.hx), _centered(mode.hy), mode.ex, mode.ey, _cell_area(mode.grid))


@pytest.mark.parametrize("core_nm", [None, 350.0], ids=["shipped", "tm-design"])
def test_factorization_matches_default_shift_invert(default_config, core_nm, solves):
    """The mirror split (two half-domain solves with the solver's own
    shift-invert LU) gives the guided eigenpairs of SciPy's default path
    (internal COLAMD LU) on the full domain, on a coarse grid of the
    shipped geometry and of the thick-core TM design."""
    cfg = default_config
    cs = cfg.cross_section
    if core_nm is not None:
        cs = apply_parameters(cs, {"core_thickness_nm": core_nm})
    op = assemble_operator(rasterize(cs, cfg.policy.bulk_refined(0.35)))
    modes = solve_modes(op, cfg.solver)
    assert solves.runs == [(op.matrix.shape[0] // 2, cfg.solver.num_modes)] * 2

    vals, vecs = full_domain_eigs(op, cfg.solver.num_modes)
    n_effs = np.sqrt(vals.astype(complex)) / op.grid.k0
    n_clad, _n_core, n_high = op.index_bracket()
    nxn, nyn = op.shape
    oracle, oracle_residuals = [], []
    for i in np.argsort(-n_effs.real, kind="stable"):
        n_eff = complex(n_effs[i])
        if n_clad < n_eff.real < n_high:
            hx = vecs[: nxn * nyn, i].reshape(nxn, nyn)
            hy = vecs[nxn * nyn:, i].reshape(nxn, nyn)
            oracle.append(_finalize_mode(op, n_eff, hx, hy))
            oracle_residuals.append(_relative_residual(op.matrix, vals[i], vecs[:, i]))

    assert len(modes) == len(oracle) > 0
    for mode, ref in zip(modes, oracle):
        assert abs(mode.n_eff - ref.n_eff) <= 1e-10 * abs(ref.n_eff)
        assert mode.polarization == ref.polarization
    # 100x headroom under the gate, except where the full operator's round-off
    # floor (about 1e-12 on these grids, for the oracle too) rules that out:
    # there the split must be no less accurate than the full-domain solve.
    worst = max(mode_residual(op, mode) for mode in modes)
    assert worst <= max(cfg.solver.tolerance / 100, max(oracle_residuals))
    if core_nm is not None:
        assert select_mode(modes, "TM") is not None


@pytest.mark.parametrize("num_modes", [1, 3])
def test_mirror_split_keeps_modes_nearest_target(num_modes, solves):
    """Merging the parity classes keeps the num_modes eigenvalues nearest the
    shift, as one full-domain solve does."""
    op = assemble_operator(step_index_grid(3.4, 3.2, 40, 4e-6, mirrored=True))
    config = sk.SolverConfig(num_modes=num_modes)
    modes = solve_modes(op, config)
    assert solves.runs == [(op.matrix.shape[0] // 2, num_modes)] * 2

    vals = full_domain_eigs(op, num_modes, return_eigenvectors=False)
    oracle = sorted(np.sqrt(vals.astype(complex)) / op.grid.k0, key=lambda n: -n.real)
    assert len(modes) == len(oracle) == num_modes
    for mode, n_eff in zip(modes, oracle):
        assert abs(mode.n_eff - n_eff) <= 1e-10 * abs(n_eff)


@pytest.mark.parametrize("mirrored", [False, True], ids=["full", "split"])
def test_arpack_no_convergence_is_convergence_error(mirrored, solves, monkeypatch):
    monkeypatch.setattr("snspdkit.modes._ARPACK_MAX_ITERATIONS", 1)
    op = assemble_operator(step_index_grid(3.4, 3.2, 24, 4e-6, mirrored))
    with pytest.raises(ConvergenceError, match="did not converge within 1 iterations") as info:
        solve_modes(op)
    assert isinstance(info.value.__cause__, spla.ArpackNoConvergence)
    # linspace edges are not exactly symmetric: one full-domain solve; the
    # reflected grid is split and its first parity class already fails
    unknowns = op.matrix.shape[0] // 2 if mirrored else op.matrix.shape[0]
    assert solves.factored == [unknowns]
    # the message names the failing operator, its rung and the back-solves spent
    assert "(k = 8 of cap 8, " in str(info.value)
    assert str(info.value).endswith(f"; {unknowns} unknowns, {solves.backsolves} back-solves)")


def test_residual_gate_raises_with_residual(monkeypatch):
    op = assemble_operator(step_index_grid(3.4, 3.2, 24, 4e-6))
    assert solve_modes(op)   # guided modes exist, so the gate is reached
    monkeypatch.setattr(sk.SolverConfig, "tolerance", 1e-30)
    with pytest.raises(ConvergenceError, match="exceeds tolerance 1.0e-30") as info:
        solve_modes(op)
    assert info.value.residual is not None and info.value.residual > 1e-30


def test_non_finite_fields_are_convergence_error():
    """A zero-eps cladding cell leaves the operator finite and the eigensolve
    converged, but E divides by eps there: the mode is refused."""
    g = step_index_grid(3.4, 1.45, 40, 4e-6)
    eps = g.eps.copy()
    eps[5, 5] = 0
    op = assemble_operator(PermittivityGrid(g.x_edges_m, g.y_edges_m, eps, g.wavelength_m))
    assert np.isfinite(op.matrix.data).all()
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(ConvergenceError, match="non-finite field values in computed mode"):
        solve_fundamental(op, "TE")


def test_zero_eps_wall_cell_is_domain_error():
    """A zero-eps cell on the window wall makes couplings non-finite: assembly
    refuses the operator, so no factorization sees it."""
    g = step_index_grid(3.4, 3.2, 40, 4e-6)
    eps = g.eps.copy()
    eps[0, 5] = 0
    with pytest.raises(DomainError, match="operator has 10 non-finite couplings of 16820"):
        assemble_operator(PermittivityGrid(g.x_edges_m, g.y_edges_m, eps, g.wavelength_m))


@pytest.mark.parametrize("fine_nm", [2.0, 1.5, 1.0])
def test_residual_gate_headroom_as_wire_cells_shrink(default_config, fine_nm):
    """TE0 passes the residual gate with at least 10x headroom as the
    wire-layer cells shrink from 2 to 1 nm on a coarse bulk grid (measured:
    about 102, 84 and 40). The residual's round-off floor grows as
    1/h_min^2, so a shrinking margin shows here before the gate fails."""
    cfg = default_config
    policy = cfg.policy.bulk_refined(0.35, fine_m=fine_nm * 1e-9)
    grid, mode = solve_cross_section(cfg.cross_section, policy, cfg.solver, "TE")
    assert cfg.solver.tolerance / mode_residual(assemble_operator(grid), mode) >= 10


# -- query-sized solve ---------------------------------------------------------

COARSE_GEOMETRIES = {
    "shipped": {},                          # mirror-symmetric: two parity classes
    "offset": {"array_offset_nm": 100},     # asymmetric: one full-domain operator
    "tm-design": {"core_thickness_nm": 350.0},
}


def coarse_case(cfg, geometry):
    """Cross-section and coarse grid policy of one of COARSE_GEOMETRIES."""
    cs = apply_parameters(cfg.cross_section, COARSE_GEOMETRIES[geometry])
    return cs, cfg.policy.bulk_refined(0.35)


@pytest.fixture(scope="module")
def coarse_solved(default_config):
    """Operator and ``solve_cross_section`` mode list of each geometry on a
    coarse grid."""
    cfg = default_config
    out = {}
    for name in COARSE_GEOMETRIES:
        grid, modes = solve_cross_section(*coarse_case(cfg, name), cfg.solver)
        out[name] = assemble_operator(grid), modes
    return out


def same_grid(a, b) -> bool:
    return (np.array_equal(a.x_edges_m, b.x_edges_m) and np.array_equal(a.y_edges_m, b.y_edges_m)
            and np.array_equal(a.eps, b.eps) and a.wavelength_m == b.wavelength_m)


@pytest.mark.parametrize("kind", ["TE", "TM"])
@pytest.mark.parametrize("geometry", list(COARSE_GEOMETRIES))
def test_solve_fundamental_matches_select_mode(default_config, coarse_solved, geometry, kind,
                                               solves):
    """The query-sized mode, from the operator and through the one solve path
    with ``kind`` set, is the one select_mode picks from the ``kind=None``
    list; the solve path rasterizes exactly as ``rasterize`` does."""
    op, modes = coarse_solved[geometry]
    ref = select_mode(modes, kind)
    cs, policy = coarse_case(default_config, geometry)

    def from_cross_section():
        grid, mode = solve_cross_section(cs, policy, default_config.solver, kind)
        assert same_grid(grid, rasterize(cs, policy))
        return mode

    for solve in (lambda: solve_fundamental(op, kind, default_config.solver), from_cross_section):
        solves.factored.clear()
        mode = solve()
        assert ref is not None and mode is not None
        assert abs(mode.n_eff - ref.n_eff) <= 1e-10 * abs(ref.n_eff)
        assert mode.polarization == ref.polarization == kind
        assert unit_power(mode) == pytest.approx(1.0, rel=1e-9)
        assert mode_residual(op, mode) <= default_config.solver.tolerance
        # one factorization, whatever k grows to: the kind's parity class, or
        # the full domain of the asymmetric section
        split = geometry != "offset"
        assert solves.factored == [op.matrix.shape[0] // 2 if split else op.matrix.shape[0]]


def test_solve_fundamental_grows_k_only_as_needed(default_config, coarse_solved, solves):
    """TE0 of the shipped section is nearest the shift in its class: k = 1 in
    the one class the TE query solves. TM0 is not, so the TM query starts at
    k = 2 and grows k = 2, 4, ... in its class."""
    op, _modes = coarse_solved["shipped"]
    half = op.matrix.shape[0] // 2
    solve_fundamental(op, "TE", default_config.solver)
    assert solves.runs == [(half, 1)]

    solves.runs.clear()
    solve_fundamental(op, "TM", default_config.solver)
    ks = [k for _n, k in solves.runs]
    assert ks[0] == 2 and all(b in (2, 2 * a) for a, b in zip(ks, ks[1:]))


def test_full_domain_tm_query_starts_at_k4(default_config, coarse_solved, solves, monkeypatch):
    """On the full domain, TE0 and the TE mode odd in Ex both lie nearer the
    default shift than TM0, so the TM query of the asymmetric section starts
    at k = 4 and stops there, with the pick of a ladder started at k = 2."""
    op, _modes = coarse_solved["offset"]
    mode = solve_fundamental(op, "TM", default_config.solver)
    assert solves.runs == [(op.matrix.shape[0], 4)]
    monkeypatch.setitem(_QUERY, "TM", (1, 2, 2))
    assert_same_pick(mode, solve_fundamental(op, "TM", default_config.solver))


def test_solve_fundamental_sees_modes_above_a_low_shift(default_config, coarse_solved, solves):
    """With the shift between TE0 and a lower TE mode, nearer the lower one,
    the first TE mode found is not TE0; k grows until every dielectric-guided
    eigenvalue above the shift has been computed."""
    op, modes = coarse_solved["offset"]
    te0, te1 = [m for m in modes if m.polarization == "TE"][:2]
    target = te1.n_eff.real + 0.2 * (te0.n_eff.real - te1.n_eff.real)
    config = replace(default_config.solver, target_n_eff=target)
    ref = select_mode(solve_modes(op, config), "TE")
    solves.runs.clear()
    mode = solve_fundamental(op, "TE", config)
    assert abs(mode.n_eff - ref.n_eff) <= 1e-10 * abs(ref.n_eff)
    assert abs(mode.n_eff - te0.n_eff) <= 1e-10 * abs(te0.n_eff)
    assert max(k for _n, k in solves.runs) > 1


def test_solve_fundamental_none_without_kind_within_cap(default_config, coarse_solved, solves):
    op, _modes = coarse_solved["shipped"]
    config = replace(default_config.solver, num_modes=1)
    # each class's one nearest mode is TE-like, so no TM mode within the cap
    assert select_mode(solve_modes(op, config), "TM") is None
    solves.runs.clear()
    assert solve_fundamental(op, "TM", config) is None
    assert solves.runs == [(op.matrix.shape[0] // 2, 1)]
    # a homogeneous window guides nothing: the ladder runs up to the cap
    empty = assemble_operator(uniform_grid(1.0, 24, 24, 10e-6))
    solves.runs.clear()
    assert solve_fundamental(empty, "TE", sk.SolverConfig(num_modes=3)) is None
    assert [k for _n, k in solves.runs][-1] == 3
    with pytest.raises(DomainError):
        solve_fundamental(empty, "TEM")


@pytest.mark.parametrize("kind", [None, "TE", "TM"])
def test_one_factorization_alive_at_a_time(default_config, coarse_solved, kind, solves):
    """Each parity class's LU dies before the next class is factored, for the
    mode list (both classes) and for both queries (one class each): the
    ``solves`` spy checks it at every factorization, and the last one is
    dead once the solve returns."""
    op, _modes = coarse_solved["shipped"]
    if kind is None:
        solve_modes(op, default_config.solver)
    else:
        solve_fundamental(op, kind, default_config.solver)
    assert solves.factored == [op.matrix.shape[0] // 2] * (2 if kind is None else 1)
    assert all(lu() is None for lu in solves.lus)


@pytest.mark.parametrize("geometry, kind", [("shipped", "TE"), ("shipped", "TM"), ("offset", "TE")])
def test_shift_invert_lu_fill_is_under_default(default_config, coarse_solved, geometry, kind,
                                               monkeypatch):
    """Every LU a query builds has at most 0.7 times the fill (L.nnz +
    U.nnz) of SciPy's default ``splu`` (COLAMD) on the same matrix: the
    solver's ordering, minimum degree on A^T + A with diagonal pivots, gives
    about half the default's fill."""
    op, _modes = coarse_solved[geometry]
    splu, factored = spla.splu, []

    def factor(mat, *args, **kwargs):
        lu = splu(mat, *args, **kwargs)
        factored.append((mat, lu.L.nnz + lu.U.nnz))
        return lu

    monkeypatch.setattr(spla, "splu", factor)
    assert solve_fundamental(op, kind, default_config.solver) is not None
    assert factored
    for mat, fill in factored:
        default = splu(mat)
        assert fill <= 0.7 * (default.L.nnz + default.U.nnz)


def two_class_pick(op, kind, config):
    """Oracle: the pick of a query that searches both parity classes, every
    class of ``_mirror_classes(op)`` through ``_nearest``, ``_first_of_kind``
    over the joined pairs and then the residual gate, with the shift and the
    ladder's reach computed as ``solve_fundamental`` computes them."""
    n_core = op.index_bracket()[1]
    sigma = (op.grid.k0 * (config.target_n_eff or 0.98 * n_core)) ** 2
    reach = max(0.0, (op.grid.k0 * n_core) ** 2 - sigma)
    classes = _mirror_classes(op)
    assert classes is not None
    found = [_nearest(op, mat, lift, sigma, reach, kind, config) for mat, lift in classes]
    pick = _first_of_kind(op, np.concatenate([v for v, _ in found]),
                          np.hstack([u for _, u in found]), kind)
    return None if pick is None else _gated_mode(op, *pick)


def assert_same_pick(mode, ref):
    assert (mode is None) == (ref is None)
    if ref is not None:
        assert np.array_equal(mode.n_eff, ref.n_eff)
        assert np.array_equal(mode.hx, ref.hx) and np.array_equal(mode.hy, ref.hy)


@pytest.mark.parametrize("kind", ["TE", "TM"])
@pytest.mark.parametrize("geometry", ["shipped", "tm-design"])
def test_one_class_query_picks_the_two_class_mode(default_config, coarse_solved, geometry, kind):
    """A query on a mirror-symmetric section solves only the parity class in
    which the kind's dominant E component is even, and picks bit for bit
    the mode a search over both classes picks."""
    op, _modes = coarse_solved[geometry]
    ref = two_class_pick(op, kind, default_config.solver)
    assert ref is not None and ref.polarization == kind
    assert_same_pick(solve_fundamental(op, kind, default_config.solver), ref)


@settings(max_examples=15, deadline=None)
@given(n_core=st.floats(3.3, 3.6), n_clad=st.floats(1.0, 3.25), k_core=st.floats(0.0, 0.02),
       half_cells=st.integers(10, 20), core_fraction=st.tuples(st.floats(0.1, 0.5), st.floats(0.1, 0.5)),
       kind=st.sampled_from(["TE", "TM"]))
def test_one_class_query_on_drawn_mirrored_sections(n_core, n_clad, k_core, half_cells,
                                                     core_fraction, kind):
    """The same on mirrored rectangular-core step-index sections, lossless
    or absorbing, where the two searches may also both find no mode. The
    core is at most half the window, which keeps every class's ladder
    within the cap: a larger, strongly guiding core can hold more than
    ``num_modes`` eigenvalues nearer the shift than the fundamental, so
    either search misses it and the two picks can differ."""
    op = assemble_operator(step_index_grid(complex(n_core, -k_core), n_clad, 2 * half_cells,
                                           4e-6, mirrored=True, core_fraction=core_fraction))
    config = sk.SolverConfig()
    assert_same_pick(solve_fundamental(op, kind, config), two_class_pick(op, kind, config))


def test_solve_fundamental_failures_are_convergence_errors(solves, monkeypatch):
    # the clustered spectrum of an empty window does not converge in one
    # iteration even at k = 1
    empty = assemble_operator(uniform_grid(1.0, 24, 24, 10e-6))
    with monkeypatch.context() as m:
        m.setattr("snspdkit.modes._ARPACK_MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError, match="did not converge within 1 iterations") as info:
            solve_fundamental(empty, "TE")
    assert isinstance(info.value.__cause__, spla.ArpackNoConvergence)
    assert "(k = 1 of cap 8, " in str(info.value)
    assert str(info.value).endswith(
        f"; {empty.matrix.shape[0]} unknowns, {solves.backsolves} back-solves)")
    del info   # its traceback holds the failed operator's LU
    op = assemble_operator(step_index_grid(3.4, 3.2, 24, 4e-6))
    assert solve_fundamental(op, "TE") is not None   # the gate is reached
    monkeypatch.setattr(sk.SolverConfig, "tolerance", 1e-30)
    with pytest.raises(ConvergenceError, match="exceeds tolerance 1.0e-30") as info:
        solve_fundamental(op, "TE")
    assert info.value.residual is not None and info.value.residual > 1e-30


# -- start from a solved mode ---------------------------------------------------

def test_start_from_neighbour_saves_backsolves(default_config, coarse_solved, solves):
    """An asymmetric step (array offset 100 -> 200 nm, which moves grid
    lines) started from the neighbour's TE mode takes fewer OPinv
    applications than the seeded start, for the same eigenpair, and no more
    than the continuation's cap."""
    cfg = default_config
    start = select_mode(coarse_solved["offset"][1], "TE")
    cs = apply_parameters(cfg.cross_section, {"array_offset_nm": 200})
    op = assemble_operator(rasterize(cs, coarse_case(cfg, "offset")[1]))
    assert not np.array_equal(op.grid.x_edges_m, start.grid.x_edges_m)
    counts = []
    for kwargs in ({}, {"start": start}):
        solves.backsolves = 0
        mode = solve_fundamental(op, "TE", cfg.solver, **kwargs)
        counts.append(solves.backsolves)
        if not kwargs:
            cold = mode
    assert counts[1] < counts[0]
    assert counts[1] <= _CONTINUE_MAX_BACKSOLVES
    assert abs(mode.n_eff - cold.n_eff) <= 1e-9 * abs(cold.n_eff)
    assert mode.polarization == cold.polarization == "TE"


@pytest.mark.parametrize("start_from", ["tm-mode", "other-section"])
@pytest.mark.parametrize("geometry", ["shipped", "offset"])
def test_wrong_start_gives_the_cold_pick(default_config, coarse_solved, geometry, start_from):
    """A start far from the answer, the TM mode for a TE query or a mode of
    an unrelated section on another grid, is not continued: the TM mode has
    no component in the class a split TE query solves and is rejected by
    polarization on the full domain, and from the other section's field the
    iteration reaches the cap unconverged. The ladder then runs cold and
    picks the mode it picks without a start, on the split and the
    full-domain paths."""
    op, modes = coarse_solved[geometry]
    if start_from == "tm-mode":
        start = select_mode(modes, "TM")
    else:
        start = solve_fundamental(assemble_operator(step_index_grid(3.4, 3.2, 24, 4e-6)), "TE")
    assert start is not None
    cold = select_mode(modes, "TE")
    mode = solve_fundamental(op, "TE", default_config.solver, start)
    assert abs(mode.n_eff - cold.n_eff) <= 1e-9 * abs(cold.n_eff)
    assert mode.polarization == "TE"
    assert_same_pick(mode, solve_fundamental(op, "TE", default_config.solver))


@pytest.mark.parametrize("kind", ["TE", "TM"])
@pytest.mark.parametrize("geometry", ["shipped", "offset"])
def test_continuing_on_the_same_section_returns_its_mode(default_config, coarse_solved, geometry,
                                                          kind, solves):
    """A start solved on the identical section puts the shift on an exact
    eigenvalue of the factored operator: the continuation returns that mode
    from its one factorization, within the cap."""
    op, _modes = coarse_solved[geometry]
    start = solve_fundamental(op, kind, default_config.solver)
    solves.factored.clear()
    solves.per_lu.clear()
    mode = solve_fundamental(op, kind, default_config.solver, start)
    assert abs(mode.n_eff - start.n_eff) <= 1e-12 * abs(start.n_eff)
    assert mode.polarization == kind
    assert len(solves.factored) == 1 and solves.per_lu[0] <= _CONTINUE_MAX_BACKSOLVES


@pytest.mark.parametrize("failure", ["singular", "nan"])
def test_failed_continuation_falls_back_to_the_ladder(default_config, failure, monkeypatch):
    """A continuation whose factorization raises (SuperLU's singular-factor
    ``RuntimeError``) or whose back-solves return NaN falls back to the
    ladder: the second of two points of the identical section is solved,
    and no error reaches the sweep's point evaluation."""
    cfg = default_config
    splu, calls = spla.splu, []

    class NanLU:
        def solve(self, rhs):
            return np.full_like(rhs, np.nan)

    def factor(mat, *args, **kwargs):
        calls.append(mat.shape[0])
        if len(calls) == 2:   # the second point's continuation
            if failure == "singular":
                raise RuntimeError("Factor is exactly singular")
            return NanLU()
        return splu(mat, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", factor)
    values = COARSE_GEOMETRIES["offset"]
    spec = cfg.sweeps[0]
    evaluate = _default_evaluate("TE", coarse_case(cfg, "offset")[1], cfg.solver)
    first, second = (_evaluate_point(cfg.cross_section, values, spec, evaluate) for _ in range(2))
    assert len(calls) == 3   # the ladder, the failed continuation, the ladder again
    assert first.status == second.status == "ok"
    assert second.n_eff == first.n_eff


def test_start_at_another_same_kind_mode_falls_back(default_config, coarse_solved, solves):
    """A start whose n_eff is the second TE mode's, with TE0's fields: the
    iteration reaches the second TE mode at once, a guided TE mode, and only
    the overlap rule rejects it, so the ladder returns TE0."""
    op, modes = coarse_solved["offset"]
    te0, te1 = [m for m in modes if m.polarization == "TE"][:2]
    cold = solve_fundamental(op, "TE", default_config.solver)
    solves.factored.clear()
    mode = solve_fundamental(op, "TE", default_config.solver, replace(te0, n_eff=te1.n_eff))
    assert solves.factored == [op.matrix.shape[0]] * 2
    assert_same_pick(mode, cold)


def test_tm_thickness_step_falls_back_to_tm0(default_config, solves):
    """A 50 nm core step moves TM0 by more than the continuation can follow:
    another eigenvalue lies nearer the old one. The inverse iteration stops
    at the cap, its LU dies, and the ladder returns TM0 from its own
    factorization."""
    cfg = default_config
    policy = cfg.policy.bulk_refined(0.35)
    ops = [assemble_operator(rasterize(apply_parameters(cfg.cross_section, {"core_thickness_nm": nm}),
                                       policy)) for nm in (250.0, 300.0)]
    start, cold = (solve_fundamental(op, "TM", cfg.solver) for op in ops)
    op = ops[1]
    solves.factored.clear()
    solves.per_lu.clear()
    mode = solve_fundamental(op, "TM", cfg.solver, start)
    assert solves.factored == [op.matrix.shape[0] // 2] * 2
    assert solves.per_lu[0] <= _CONTINUE_MAX_BACKSOLVES
    assert all(lu() is None for lu in solves.lus)
    assert mode.polarization == "TM"
    assert abs(mode.n_eff - cold.n_eff) <= 1e-9 * abs(cold.n_eff)


def test_fallback_builds_its_parity_class_once(default_config, solves, monkeypatch):
    """A continued query that falls back to the ladder (the TM core step of
    ``test_tm_thickness_step_falls_back_to_tm0``) solves one eigenproblem:
    the continuation and the ladder factor the same parity class, which is
    built once."""
    cfg = default_config
    policy = cfg.policy.bulk_refined(0.35)
    start, op = (assemble_operator(rasterize(apply_parameters(cfg.cross_section, {"core_thickness_nm": nm}),
                                             policy)) for nm in (250.0, 300.0))
    start = solve_fundamental(start, "TM", cfg.solver)
    built = []

    def classes(*args, **kwargs):
        built.append(args)
        return _mirror_classes(*args, **kwargs)

    monkeypatch.setattr("snspdkit.modes._mirror_classes", classes)
    solves.factored.clear()
    mode = solve_fundamental(op, "TM", cfg.solver, start)
    assert solves.factored == [op.matrix.shape[0] // 2] * 2
    assert mode is not None and mode.polarization == "TM"
    assert len(built) == 1


def test_default_offset_sweep_counted_work(default_config, solves):
    """One default offset sweep on a coarse grid: one ARPACK run (the cold
    point 0), one factorization per point, every continued point within the
    cap, and no LU alive once the sweep returns."""
    cfg = default_config
    result = run_sweep(cfg.cross_section, cfg.sweeps[0], cfg.policy.bulk_refined(0.35), cfg.solver)
    assert [p.status for p in result.points] == ["ok"] * 5
    assert len(solves.runs) == 1
    assert len(solves.factored) == 5
    assert all(n <= _CONTINUE_MAX_BACKSOLVES for n in solves.per_lu[1:])
    assert all(lu() is None for lu in solves.lus)


def test_touching_wires_te_query_passes_residual_gate(touching_wires_case, default_config):
    """The shared edge of touching wires is one grid line, so the TE query
    passes the residual gate; a sub-femtometre cell there fails it by ten
    orders of magnitude."""
    cs, policy = touching_wires_case
    _grid, te = solve_cross_section(cs, policy, default_config.solver, "TE")
    assert te is not None and te.polarization == "TE"
    assert modal_absorption(te) > 0


def test_clipped_four_layer_te_query_passes_residual_gate(clipped_four_layer_case, default_config):
    """A window clipped at the substrate top starts on the lowest interface,
    so the TE query passes the residual gate; a sub-femtometre row of air
    under that interface fails it."""
    cs, policy = clipped_four_layer_case
    _grid, te = solve_cross_section(cs, policy, default_config.solver, "TE")
    assert te is not None and te.polarization == "TE"
    assert cs.index_of("AlGaAs").real < te.n_eff.real < cs.index_of("GaAs").real


# -- guided-mode physics -----------------------------------------------------

def test_slab_limit_matches_analytic_oracle(slab_solve):
    cs, modes, _seconds = slab_solve
    n_core = cs.index_of("GaAs").real
    n_clad = cs.index_of("AlGaAs").real
    oracle = slab_neff(n_core, n_clad, 300e-9, 1300e-9, "TE", 0)
    te = select_mode(modes, "TE")
    assert te is not None
    assert abs(te.n_eff.real - oracle) <= 1e-4
    assert abs(te.n_eff.imag) < 1e-9


def test_lossless_fundamental_bracketed(lossless_solve):
    cs, modes = lossless_solve
    te = select_mode(modes, "TE")
    n_clad = cs.index_of("AlGaAs").real
    n_core = cs.index_of("GaAs").real
    assert n_clad < te.n_eff.real < n_core


def test_guided_modes_bracketed_and_sorted(reference_solve, default_config):
    modes, _seconds = reference_solve
    cs = default_config.cross_section
    n_clad = cs.index_of("AlGaAs").real
    n_max = cs.index_of("NbN").real
    res = [m.n_eff.real for m in modes]
    assert res == sorted(res, reverse=True)
    for m in modes:
        assert n_clad < m.n_eff.real < n_max
        assert np.all(np.isfinite(m.hx)) and np.all(np.isfinite(m.ex))
        assert unit_power(m) == pytest.approx(1.0, rel=1e-9)


def test_fundamental_symmetry(reference_solve):
    """TE0 of the mirror-symmetric reference section: Hy even, Hx odd, exactly."""
    modes, _seconds = reference_solve
    te = select_mode(modes, "TE")
    assert np.array_equal(te.hy, te.hy[::-1, :])
    assert np.array_equal(te.hx, -te.hx[::-1, :])


def test_asymmetric_operators_take_full_path(default_config, solves):
    """An offset array, and a symmetric grid with one eps cell changed, are
    solved on the full domain and pass the residual gate."""
    cfg = default_config
    policy = cfg.policy.bulk_refined(0.35)
    offset = rasterize(apply_parameters(cfg.cross_section, {"array_offset_nm": 100}), policy)
    grid = rasterize(cfg.cross_section, policy)
    assert _mirror_classes(assemble_operator(grid)) is not None
    eps = grid.eps.copy()
    eps[3, 5] = 1.5 ** 2
    perturbed = PermittivityGrid(grid.x_edges_m, grid.y_edges_m, eps, grid.wavelength_m)
    for g in (offset, perturbed):
        op = assemble_operator(g)
        assert _mirror_classes(op) is None
        solves.factored.clear()
        found = solve_modes(op, cfg.solver)
        assert solves.factored == [op.matrix.shape[0]]
        assert select_mode(found, "TE") is not None
        assert all(mode_residual(op, m) <= cfg.solver.tolerance for m in found)


def test_solve_is_deterministic(default_config):
    cfg = default_config
    coarse = replace(cfg.cross_section, window_width_m=5.2e-6)
    pol = sk.ResolutionPolicy(base_m=50e-9, far_m=125e-9)
    _grid, m1 = solve_cross_section(coarse, pol, sk.SolverConfig(num_modes=4))
    _grid, m2 = solve_cross_section(coarse, pol, sk.SolverConfig(num_modes=4))
    assert [m.n_eff for m in m1] == [m.n_eff for m in m2]
    assert all(np.array_equal(a.hx, b.hx) for a, b in zip(m1, m2))


_REPEAT_SOLVE = """
import json
from dataclasses import replace

import numpy as np

import snspdkit as sk
from snspdkit.config import default_config_path, load_project_config
from snspdkit.modes import _mirror_classes

cs = replace(load_project_config(default_config_path()).cross_section, window_width_m=5.2e-6)
policy = sk.ResolutionPolicy(base_m=50e-9, far_m=125e-9)
op = sk.assemble_operator(sk.rasterize(cs, policy))
runs = [sk.solve_modes(op, sk.SolverConfig(num_modes=4)) for _ in range(2)]
print(json.dumps({
    "split": _mirror_classes(op) is not None,
    "n_eff": [[m.n_eff.real, m.n_eff.imag] for m in runs[0]],
    "repeat_n_eff_identical": [m.n_eff for m in runs[0]] == [m.n_eff for m in runs[1]],
    "repeat_hx_identical": all(np.array_equal(a.hx, b.hx) for a, b in zip(*runs)),
}))
"""


def test_solve_deterministic_across_blas_threads():
    """Repeated symmetric solves in a fresh interpreter are bit-identical at
    1 and at 2 BLAS threads; the two thread counts agree to round-off."""
    src = str(Path(sk.__file__).resolve().parents[1])
    results = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _REPEAT_SOLVE], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        results[threads] = json.loads(out.stdout)
    for res in results.values():
        assert res["split"] and res["n_eff"]
        assert res["repeat_n_eff_identical"] and res["repeat_hx_identical"]
    one, two = ([complex(*v) for v in results[t]["n_eff"]] for t in ("1", "2"))
    assert len(one) == len(two)
    assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(one, two))


# -- polarization and absorption --------------------------------------------

def test_classify_pure_te_synthetic(reference_solve):
    modes, _seconds = reference_solve
    te = modes[0]
    pure = replace(te, hx=np.zeros_like(te.hx), te_fraction=1.0)
    assert pure.polarization == "TE" and pure.te_fraction == 1.0


def test_classify_reference_fundamental(reference_solve):
    modes, _seconds = reference_solve
    te = select_mode(modes, "TE")
    assert te.polarization == "TE"
    assert te.te_fraction > 0.8


def test_modal_absorption_values(reference_solve):
    modes, _seconds = reference_solve
    te = modes[0]
    # alpha = 4 pi Im(n_eff) / lambda, reported in 1/cm
    synth = replace(te, n_eff=complex(3.2, 4.666e-3))
    assert modal_absorption(synth) == pytest.approx(451.0, abs=0.1)
    assert modal_absorption(replace(te, n_eff=complex(3.2, 0.0))) == 0.0
    assert modal_absorption(replace(te, n_eff=complex(3.2, 9.332e-3))) == pytest.approx(902.0, abs=0.2)


def test_te_fraction_is_energy_share(reference_solve):
    modes, _seconds = reference_solve
    for m in modes:
        assert 0.0 <= m.te_fraction <= 1.0
        assert m.polarization == ("TE" if m.te_fraction >= 0.5 else "TM")


def test_select_mode_validation(reference_solve):
    modes, _seconds = reference_solve
    with pytest.raises(DomainError):
        select_mode(modes, "TEM")


# -- convergence ladders ------------------------------------------------------

def test_convergence_study_lossless_guide(default_config):
    cs = replace(default_config.cross_section, wires=None)
    policy = sk.ResolutionPolicy(base_m=60e-9, far_m=150e-9)
    ladder = tuple(policy.refined(s) for s in (1.0, 1.5, 2.25))
    config = sk.SolverConfig(num_modes=2)
    neffs = [solve_cross_section(cs, p, config, "TE")[1].n_eff.real for p in ladder]
    deltas = [abs(a - b) for a, b in zip(neffs, neffs[1:])]
    assert deltas[1] < deltas[0]


def test_convergence_order_on_detector_geometry(default_config):
    """Bulk-grid ladder on the wired geometry: monotonically shrinking alpha
    deltas and a Richardson order estimate of at least one. Near-wire cells
    stay at their mandated floor; the ladder varies the bulk resolution.

    Each delta is |a_i - a_(i-1)| / |a_i|, taken at the coarser level's base
    cell; the order is the least-squares slope of log delta vs log cell."""
    cfg = default_config
    ladder = tuple(cfg.policy.bulk_refined(s) for s in (0.35, 0.7, 1.4))
    alphas = [modal_absorption(solve_cross_section(cfg.cross_section, p, cfg.solver, "TE")[1])
              for p in ladder]
    cells = [p.base_m for p in ladder[:-1]]
    deltas = [abs(a - b) / abs(a) for b, a in zip(alphas, alphas[1:])]
    assert deltas[1] < deltas[0]
    order = float(np.polyfit(np.log(cells), np.log(deltas), 1)[0])
    assert order >= 1.0
