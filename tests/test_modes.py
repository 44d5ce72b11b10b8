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

import snspdkit as sk
import snspdkit.modes as modes_module
from snspdkit.errors import ConfigError, ConvergenceError, DomainError
from snspdkit.geometry import PermittivityGrid, rasterize
from snspdkit.modes import (
    _ARNOLDI_SEED,
    _finalize_mode,
    _mirror_bases,
    _relative_residual,
    assemble_operator,
    convergence_study,
    modal_absorption,
    mode_power,
    select_mode,
    solve_cross_section,
    solve_fundamental,
    solve_modes,
)
from snspdkit.sweep import apply_parameters

from slab_oracle import slab_neff


def uniform_grid(n_index, nx, ny, size):
    edges_x = np.linspace(-size / 2, size / 2, nx + 1)
    edges_y = np.linspace(-size / 2, size / 2, ny + 1)
    eps = np.full((nx, ny), complex(n_index, 0) ** 2)
    return PermittivityGrid(edges_x, edges_y, eps, 1300e-9)


def step_index_grid(n_core, n_clad, cells, size, mirrored=False):
    """Square core of half the window width, centered. ``mirrored`` builds
    the edges by reflection, so the grid is exactly mirror-symmetric."""
    if mirrored:
        half = np.linspace(0.0, size / 2, cells // 2 + 1)
        edges = np.concatenate([-half[:0:-1], half])
    else:
        edges = np.linspace(-size / 2, size / 2, cells + 1)
    centers = 0.5 * (edges[1:] + edges[:-1])
    core = (np.abs(centers)[:, None] < size / 4) & (np.abs(centers)[None, :] < size / 4)
    eps = np.where(core, complex(n_core) ** 2, complex(n_clad) ** 2)
    return PermittivityGrid(edges, edges, eps, 1300e-9)


# -- operator assembly -------------------------------------------------------

def test_operator_rejects_tiny_grids():
    with pytest.raises(ConfigError, match="too small"):
        assemble_operator(uniform_grid(3.4, 2, 8, 20e-6))
    with pytest.raises(ConfigError, match="too small"):
        assemble_operator(uniform_grid(3.4, 8, 2, 20e-6))


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


def test_max_iterations_at_arpack_limit_solves():
    """The largest ``max_iterations`` ARPACK's Fortran integer holds still
    runs; one more is a config error (see test_config)."""
    modes = solve_modes(assemble_operator(uniform_grid(1.0, 24, 24, 10e-6)),
                        sk.SolverConfig(num_modes=3, max_iterations=2**31 - 1))
    assert modes == []


@pytest.fixture()
def solves(monkeypatch):
    """Records the shift-invert work of a solve: ``factored`` holds the
    unknown count of each factorization (one full-size operator, or one
    half-size operator per mirror parity class), ``runs`` the (unknowns, k)
    of each Arnoldi run on those factorizations, and ``lus`` a weak reference
    to each factorization's closure. Each new factorization asserts that the
    earlier ones are dead: one LU is alive at a time."""
    record = SimpleNamespace(factored=[], runs=[], lus=[])
    inner = modes_module._shift_invert

    def spy(mat, sigma, config):
        assert all(lu() is None for lu in record.lus), "an earlier factorization is still alive"
        record.factored.append(mat.shape[0])
        nearest = inner(mat, sigma, config)
        record.lus.append(weakref.ref(nearest))

        def counted(k):
            record.runs.append((mat.shape[0], k))
            return nearest(k)

        return counted

    monkeypatch.setattr(modes_module, "_shift_invert", spy)
    return record


def full_domain_eigs(op, k, return_eigenvectors=True):
    """Oracle: SciPy's default shift-invert eigs (internal COLAMD LU) on the
    full-domain operator, with the solver's start vector and default shift."""
    nn = op.matrix.shape[0]
    rng = np.random.default_rng(_ARNOLDI_SEED)
    v0 = rng.standard_normal(nn) + 1j * rng.standard_normal(nn)
    sigma = (op.k0 * 0.98 * op.index_bracket()[1]) ** 2
    return spla.eigs(op.matrix, k, sigma=sigma, v0=v0, tol=0,
                     return_eigenvectors=return_eigenvectors)


def mode_residual(op, mode):
    """Eigen-residual of a returned mode against the full-domain operator."""
    vec = np.concatenate([mode.hx.ravel(), mode.hy.ravel()])
    return _relative_residual(op.matrix, mode.beta ** 2, vec)


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
    n_effs = np.sqrt(vals.astype(complex)) / op.k0
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
    oracle = sorted(np.sqrt(vals.astype(complex)) / op.k0, key=lambda n: -n.real)
    assert len(modes) == len(oracle) == num_modes
    for mode, n_eff in zip(modes, oracle):
        assert abs(mode.n_eff - n_eff) <= 1e-10 * abs(n_eff)


@pytest.mark.parametrize("mirrored", [False, True], ids=["full", "split"])
def test_arpack_no_convergence_is_convergence_error(mirrored, solves):
    op = assemble_operator(step_index_grid(3.4, 3.2, 24, 4e-6, mirrored))
    with pytest.raises(ConvergenceError, match="did not converge within 1 iterations") as info:
        solve_modes(op, sk.SolverConfig(max_iterations=1))
    assert isinstance(info.value.__cause__, spla.ArpackNoConvergence)
    # linspace edges are not exactly symmetric: one full-domain solve; the
    # reflected grid is split and its first parity class already fails
    assert solves.factored == [op.matrix.shape[0] // 2 if mirrored else op.matrix.shape[0]]


def test_residual_gate_raises_with_residual():
    op = assemble_operator(step_index_grid(3.4, 3.2, 24, 4e-6))
    assert solve_modes(op)   # guided modes exist, so the gate is reached
    with pytest.raises(ConvergenceError, match="exceeds tolerance") as info:
        solve_modes(op, sk.SolverConfig(tolerance=1e-30))
    assert info.value.residual is not None and info.value.residual > 1e-30


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
        assert mode_power(mode) == pytest.approx(1.0, rel=1e-9)
        assert mode_residual(op, mode) <= default_config.solver.tolerance
        # one factorization per operator, whatever k grows to
        split = geometry != "offset"
        assert solves.factored == ([op.matrix.shape[0] // 2] * 2 if split else [op.matrix.shape[0]])


def test_solve_fundamental_grows_k_only_as_needed(default_config, coarse_solved, solves):
    """TE0 of the shipped section is nearest the shift in its class: k = 1 in
    each class. TM0 is not, so the TM query grows k = 1, 2, ... per class."""
    op, _modes = coarse_solved["shipped"]
    half = op.matrix.shape[0] // 2
    solve_fundamental(op, "TE", default_config.solver)
    assert solves.runs == [(half, 1), (half, 1)]

    solves.runs.clear()
    solve_fundamental(op, "TM", default_config.solver)
    ks = [k for _n, k in solves.runs]
    assert max(ks) > 1
    assert ks[0] == 1 and all(b in (1, 2 * a) for a, b in zip(ks, ks[1:]))


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
    assert solves.runs == [(op.matrix.shape[0] // 2, 1)] * 2
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
    mode list and for both queries: the ``solves`` spy checks it at every
    factorization, and the last one is dead once the solve returns."""
    op, _modes = coarse_solved["shipped"]
    if kind is None:
        solve_modes(op, default_config.solver)
    else:
        solve_fundamental(op, kind, default_config.solver)
    assert solves.factored == [op.matrix.shape[0] // 2] * 2
    assert all(lu() is None for lu in solves.lus)


def test_solve_fundamental_failures_are_convergence_errors():
    # the clustered spectrum of an empty window does not converge in one
    # iteration even at k = 1
    empty = assemble_operator(uniform_grid(1.0, 24, 24, 10e-6))
    with pytest.raises(ConvergenceError, match="did not converge within 1 iterations") as info:
        solve_fundamental(empty, "TE", sk.SolverConfig(max_iterations=1))
    assert isinstance(info.value.__cause__, spla.ArpackNoConvergence)
    op = assemble_operator(step_index_grid(3.4, 3.2, 24, 4e-6))
    assert solve_fundamental(op, "TE") is not None   # the gate is reached
    with pytest.raises(ConvergenceError, match="exceeds tolerance") as info:
        solve_fundamental(op, "TE", sk.SolverConfig(tolerance=1e-30))
    assert info.value.residual is not None and info.value.residual > 1e-30


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
        assert mode_power(m) == pytest.approx(1.0, rel=1e-9)


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
    assert _mirror_bases(assemble_operator(grid)) is not None
    eps = grid.eps.copy()
    eps[3, 5] = 1.5 ** 2
    perturbed = PermittivityGrid(grid.x_edges_m, grid.y_edges_m, eps, grid.wavelength_m)
    for g in (offset, perturbed):
        op = assemble_operator(g)
        assert _mirror_bases(op) is None
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
from snspdkit.modes import _mirror_bases

cs = replace(load_project_config(default_config_path()).cross_section, window_width_m=5.2e-6)
policy = sk.ResolutionPolicy(base_m=50e-9, far_m=125e-9)
op = sk.assemble_operator(sk.rasterize(cs, policy))
runs = [sk.solve_modes(op, sk.SolverConfig(num_modes=4)) for _ in range(2)]
print(json.dumps({
    "split": _mirror_bases(op) is not None,
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


# -- convergence study -------------------------------------------------------

def test_convergence_study_needs_three_levels(default_config):
    pol = sk.ResolutionPolicy()
    with pytest.raises(ConfigError, match="3 refinement levels"):
        convergence_study(default_config.cross_section, (pol, pol.refined(2.0)))


def test_convergence_study_lossless_guide(default_config):
    cs = replace(default_config.cross_section, wires=None)
    policy = sk.ResolutionPolicy(base_m=60e-9, far_m=150e-9)
    ladder = tuple(policy.refined(s) for s in (1.0, 1.5, 2.25))
    table = convergence_study(cs, ladder, config=sk.SolverConfig(num_modes=2))
    ok = [r for r in table.rows if r.status == "ok"]
    assert len(ok) == 3
    neffs = [r.n_eff.real for r in ok]
    deltas = [abs(a - b) for a, b in zip(neffs, neffs[1:])]
    assert deltas[1] < deltas[0]


def test_convergence_study_keeps_failed_and_no_mode_levels(default_config, monkeypatch):
    """A level whose solve does not converge is kept as a ``failed:`` row and
    one with no mode of the kind as a ``no-mode`` row; neither enters the
    deltas, so the next solved level is compared with the last solved one."""
    ladder = tuple(sk.ResolutionPolicy().refined(s) for s in (1.0, 1.5, 2.25, 3.375))
    first = SimpleNamespace(n_eff=complex(3.2, 4e-3), wavelength_m=1300e-9)
    last = SimpleNamespace(n_eff=complex(3.2, 5e-3), wavelength_m=1300e-9)
    outcomes = iter([first, ConvergenceError("synthetic stall"), None, last])

    def solve(cs, policy, config, kind):
        outcome = next(outcomes)
        if isinstance(outcome, Exception):
            raise outcome
        return None, outcome

    monkeypatch.setattr(modes_module, "solve_cross_section", solve)
    table = convergence_study(default_config.cross_section, ladder)
    assert [r.status for r in table.rows] == ["ok", "failed: synthetic stall", "no-mode", "ok"]
    assert [r.base_cell_m for r in table.rows] == [p.base_m for p in ladder]
    for row in table.rows[1:3]:
        assert row.n_eff is row.alpha_per_cm is row.delta_alpha_rel is None
    a0, a3 = modal_absorption(first), modal_absorption(last)
    assert table.rows[3].delta_alpha_rel == pytest.approx(abs(a3 - a0) / abs(a3), rel=1e-12)
    assert table.order_estimate is None      # one delta fits no slope


def test_convergence_order_on_detector_geometry(default_config):
    """Bulk-grid ladder on the wired geometry: monotonically shrinking alpha
    deltas and a Richardson order estimate of at least one. Near-wire cells
    stay at their mandated floor; the ladder varies the bulk resolution."""
    cfg = default_config
    ladder = tuple(cfg.policy.bulk_refined(s) for s in (0.35, 0.7, 1.4))
    table = convergence_study(cfg.cross_section, ladder, config=cfg.solver)
    assert all(r.status == "ok" for r in table.rows)
    deltas = [r.delta_alpha_rel for r in table.rows if r.delta_alpha_rel is not None]
    assert len(deltas) == 2
    assert deltas[1] < deltas[0]
    assert table.order_estimate is not None and table.order_estimate >= 1.0
