"""Full-vector finite-difference eigenmode solver on a nonuniform tensor grid.

The transverse magnetic-field components (Hx, Hy) at the grid nodes are the
eigenvector; the eigenvalue is beta^2 = (k0 * n_eff)^2. The stencil is the
standard full-vector scheme for isotropic media on a nonuniform rectangular
grid (Fallahkhair, Li & Murphy, J. Lightwave Technol. 26, 1423 (2008),
specialized to a diagonal, scalar permittivity): five-point blocks for
Hx-Hx and Hy-Hy plus the interface-induced Hx-Hy cross couplings, which
vanish in homogeneous regions and at purely horizontal or vertical
interfaces and act only around material corners.

Sign bookkeeping: grids store eps = (n - 1j*k)^2 (absorbing cells have a
negative imaginary part); the operator is assembled from conj(eps), i.e.
with the exp(-i w t) physics convention, so absorbing guided modes come out
with Im(n_eff) >= 0 and a positive power absorption coefficient
alpha = 4*pi*Im(n_eff)/lambda.

Boundaries: the outer walls of the window are zero-field (perfect walls);
the modes of interest are bound and decay well inside the mandated window
clearance. A mirror plane at x = 0 needs no boundary stencil of its own: an
exactly mirror-symmetric operator is split into its two parity classes (see
:func:`_mirror_bases`), each solved as a half-size eigenproblem.
"""

from dataclasses import dataclass, field

import numpy as np
# scipy.sparse is imported inside the functions that build or solve an
# operator, so that ``import snspdkit`` and the CLI commands that never solve
# do not pay ~0.35 s for it at start-up.

from .errors import ConfigError, ConvergenceError, DomainError
from .geometry import CrossSection, PermittivityGrid, ResolutionPolicy, rasterize

_ARNOLDI_SEED = 718281828  # fixed start-vector seed: solves are deterministic
_DIELECTRIC_IM_CUT = 0.1   # |Im n| below this counts as a dielectric for bracketing
# Shift-invert LU of A - sigma*I. The sparsity pattern is nearly symmetric
# (five-point blocks plus corner couplings), so minimum degree on A^T + A with
# diagonal pivots gives about half the fill of SciPy's default COLAMD column
# ordering, and each Arnoldi back-solve costs about half as much. The small
# threshold still lets SuperLU pivot off a weak diagonal.
_SHIFT_INVERT_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                        options=dict(SymmetricMode=True))


@dataclass(frozen=True)
class SolverConfig:
    num_modes: int = 8
    target_n_eff: float | None = None   # shift-invert target; default 0.98 * core index
    tolerance: float = 1e-10            # relative eigen-residual bound
    max_iterations: int = 400

    def __post_init__(self):
        if self.num_modes < 1:
            raise ConfigError("num_modes must be >= 1")
        if self.target_n_eff is not None and self.target_n_eff <= 0:
            raise ConfigError("target_n_eff must be > 0")
        if self.tolerance <= 0:
            raise ConfigError("solver tolerance must be > 0")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.max_iterations > 2**31 - 1:   # ARPACK's Fortran integer
            raise ConfigError("max_iterations must be <= 2**31 - 1")


@dataclass(frozen=True, eq=False)
class ModeOperator:
    """Assembled eigenproblem A [Hx; Hy] = beta^2 [Hx; Hy]."""

    matrix: "scipy.sparse.csc_matrix" = field(repr=False)
    k0: float
    x_nodes_m: np.ndarray
    y_nodes_m: np.ndarray
    eps: np.ndarray = field(repr=False)   # solver-convention (conjugated) cell eps

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.x_nodes_m), len(self.y_nodes_m))

    def index_bracket(self) -> tuple[float, float, float]:
        """(cladding max, core, global max) of Re(n) over the cells.

        The core index is the largest dielectric index and places the default
        shift; the cladding bound is the largest dielectric index strictly
        below it. Guided modes lie strictly between the cladding bound and the
        global maximum; lossy materials such as the nanowire metal only enter
        the latter.
        """
        n_vals = np.sqrt(self.eps.ravel())
        re = n_vals.real
        n_high = float(re.max())
        diel = re[np.abs(n_vals.imag) < _DIELECTRIC_IM_CUT]
        n_core = float(diel.max())
        below = diel[diel < n_core - 1e-9]
        n_clad = float(below.max()) if below.size else 1.0
        return n_clad, n_core, n_high


@dataclass(frozen=True, eq=False)
class ModeSolution:
    """One guided mode: complex effective index plus discrete field profiles.

    Hx, Hy (eigenvector) and the derived longitudinal Hz live on the grid
    nodes; Ex, Ey, Ez are derived at cell centers. Fields are normalized to
    unit guided power with a deterministic phase.
    """

    n_eff: complex
    k0: float
    x_nodes_m: np.ndarray
    y_nodes_m: np.ndarray
    hx: np.ndarray = field(repr=False)
    hy: np.ndarray = field(repr=False)
    hz: np.ndarray = field(repr=False)
    ex: np.ndarray = field(repr=False)
    ey: np.ndarray = field(repr=False)
    ez: np.ndarray = field(repr=False)
    # Share of transverse field energy carried by the horizontal E component,
    # evaluated through its magnetic-field proxy |Hy|^2 / (|Hx|^2 + |Hy|^2).
    # The proxy is impedance-paired with (Ex, Ey) and insensitive to the
    # corner-singular E cells at the metal wire edges, which otherwise
    # dominate the raw E-energy integral on refined grids.
    te_fraction: float = 0.0

    @property
    def beta(self) -> complex:
        """Propagation constant [1/m]."""
        return self.k0 * self.n_eff

    @property
    def wavelength_m(self) -> float:
        return 2.0 * np.pi / self.k0

    @property
    def polarization(self) -> str:
        return _polarization(self.te_fraction)


def modal_absorption(mode: ModeSolution) -> float:
    """Power absorption coefficient alpha = 4*pi*Im(n_eff)/lambda in 1/cm."""
    return 4.0 * np.pi * mode.n_eff.imag / mode.wavelength_m / 100.0


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def assemble_operator(grid: PermittivityGrid) -> ModeOperator:
    """Build the sparse eigenproblem for the two transverse H components at
    the wavelength the grid was painted at."""
    import scipy.sparse as sp

    if grid.wavelength_m <= 0:
        raise DomainError("wavelength must be > 0")
    nx_cells, ny_cells = grid.eps.shape
    if nx_cells < 3 or ny_cells < 3:
        raise ConfigError("grid too small: need >= 3 cells in each direction")

    x = np.asarray(grid.x_edges_m, dtype=float)
    y = np.asarray(grid.y_edges_m, dtype=float)
    nnx, nny = len(x), len(y)
    k0 = 2.0 * np.pi / grid.wavelength_m

    # exp(-i w t) convention: absorbing cells get Im(eps) > 0
    eps_cells = np.conj(grid.eps)
    epsp = np.pad(eps_cells, 1, mode="edge")
    # quadrant cells around each node: 1=NW, 2=SW, 3=SE, 4=NE
    e1 = epsp[0:nnx, 1:nny + 1]
    e2 = epsp[0:nnx, 0:nny]
    e3 = epsp[1:nnx + 1, 0:nny]
    e4 = epsp[1:nnx + 1, 1:nny + 1]

    dx = np.diff(x)
    dy = np.diff(y)
    dxp = np.concatenate(([dx[0]], dx, [dx[-1]]))
    dyp = np.concatenate(([dy[0]], dy, [dy[-1]]))
    w = dxp[0:nnx][:, None]
    e = dxp[1:nnx + 1][:, None]
    s = dyp[0:nny][None, :]
    n = dyp[1:nny + 1][None, :]

    ns21 = n * e2 + s * e1
    ns34 = n * e3 + s * e4
    ew14 = e * e1 + w * e4
    ew23 = e * e2 + w * e3

    k2 = k0 * k0

    axxn = 2.0 * (e * e3 / ns34 + w * e2 / ns21) / (n * (e + w))
    axxs = 2.0 * (e * e4 / ns34 + w * e1 / ns21) / (s * (e + w))
    axxe = 2.0 / (e * (e + w))
    axxw = 2.0 / (w * (e + w))
    axxp = -axxn - axxs - axxe - axxw + k2 * (n + s) * (
        e4 * e3 * e / ns34 + e1 * e2 * w / ns21
    ) / (e + w)

    ayye = 2.0 * (n * e1 / ew14 + s * e2 / ew23) / (e * (n + s))
    ayyw = 2.0 * (n * e4 / ew14 + s * e3 / ew23) / (w * (n + s))
    ayyn = 2.0 / (n * (n + s))
    ayys = 2.0 / (s * (n + s))
    ayyp = -ayyn - ayys - ayye - ayyw + k2 * (e + w) * (
        e1 * e4 * n / ew14 + e2 * e3 * s / ew23
    ) / (n + s)

    cross = e2 * e4 - e1 * e3
    axyn = (e3 / ns34 - e2 / ns21 + s * cross / (ns21 * ns34)) / (e + w)
    axys = (e1 / ns21 - e4 / ns34 + n * cross / (ns21 * ns34)) / (e + w)
    axye = -2.0 * (e2 - e1) * w * w / (ns21 * e * (e + w) ** 2)
    axyw = -2.0 * (e4 - e3) * e * e / (ns34 * w * (e + w) ** 2)
    axyp = -(axyn + axys + axye + axyw)

    ayxe = (e1 / ew14 - e2 / ew23 + w * cross / (ew23 * ew14)) / (n + s)
    ayxw = (e3 / ew23 - e4 / ew14 + e * cross / (ew23 * ew14)) / (n + s)
    ayxn = -2.0 * (e2 - e3) * s * s / (ew23 * n * (n + s) ** 2)
    ayxs = -2.0 * (e4 - e1) * n * n / (ew14 * s * (n + s) ** 2)
    ayxp = -(ayxn + ayxs + ayxe + ayxw)

    nn = nnx * nny
    ii = np.arange(nn).reshape(nnx, nny)
    whole, head, tail = slice(None), slice(None, -1), slice(1, None)
    # row-node and column-node slices of the self, N, S, E and W couplings:
    # a node couples only to the neighbours inside the grid
    links = [((whole, whole), (whole, whole)), ((whole, head), (whole, tail)),
             ((whole, tail), (whole, head)), ((head, whole), (tail, whole)),
             ((tail, whole), (head, whole))]
    blocks = [
        (0, 0, (axxp, axxn, axxs, axxe, axxw)),
        (0, nn, (axyp, axyn, axys, axye, axyw)),
        (nn, 0, (ayxp, ayxn, ayxs, ayxe, ayxw)),
        (nn, nn, (ayyp, ayyn, ayys, ayye, ayyw)),
    ]
    rows, cols, vals = [], [], []
    for row_off, col_off, coeffs in blocks:
        for (r, c), a in zip(links, coeffs):
            rows.append(ii[r].ravel() + row_off)
            cols.append(ii[c].ravel() + col_off)
            vals.append(np.broadcast_to(a, ii.shape)[r].ravel())
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(2 * nn, 2 * nn)).tocsc()

    return ModeOperator(mat, k0, x, y, eps_cells)


# ---------------------------------------------------------------------------
# eigen-solve and field post-processing
# ---------------------------------------------------------------------------

def _centered(a: np.ndarray) -> np.ndarray:
    return 0.25 * (a[1:, 1:] + a[1:, :-1] + a[:-1, 1:] + a[:-1, :-1])


def _derive_fields(op: ModeOperator, beta: complex, hx: np.ndarray, hy: np.ndarray):
    """Hz at nodes from the divergence relation; E at cell centers from
    Ampere's law, D = i (curl H) / omega, with relative eps per cell."""
    x, y = op.x_nodes_m, op.y_nodes_m
    k0 = op.k0
    hz = 1j * (np.gradient(hx, x, axis=0) + np.gradient(hy, y, axis=1)) / beta

    dxc = np.diff(x)[:, None]
    dyc = np.diff(y)[None, :]
    hxc, hyc = _centered(hx), _centered(hy)
    dhz_dy = (hz[:-1, 1:] + hz[1:, 1:] - hz[:-1, :-1] - hz[1:, :-1]) / (2.0 * dyc)
    dhz_dx = (hz[1:, :-1] + hz[1:, 1:] - hz[:-1, :-1] - hz[:-1, 1:]) / (2.0 * dxc)
    dhy_dx = (hy[1:, :-1] + hy[1:, 1:] - hy[:-1, :-1] - hy[:-1, 1:]) / (2.0 * dxc)
    dhx_dy = (hx[:-1, 1:] + hx[1:, 1:] - hx[:-1, :-1] - hx[1:, :-1]) / (2.0 * dyc)

    # scaled fields: E_scaled = (eps0 * c) * E, so power = 0.5 Re(E x H*) / ...
    # carries no large constants; normalization below makes the scale moot.
    eps = op.eps
    ex = (beta * hyc + 1j * dhz_dy) / (k0 * eps)
    ey = -(beta * hxc + 1j * dhz_dx) / (k0 * eps)
    ez = 1j * (dhy_dx - dhx_dy) / (k0 * eps)
    return hz, ex, ey, ez


def solve_modes(op: ModeOperator, config: SolverConfig | None = None) -> list[ModeSolution]:
    """Guided eigenmodes nearest the shift-invert target.

    Returns guided modes (effective index inside the bracket given by
    :meth:`ModeOperator.index_bracket`) sorted by descending Re(n_eff);
    an empty list signals that no guided mode was found. Fields are
    normalized to unit power. Raises :class:`ConvergenceError` if the
    Arnoldi iteration fails or residuals exceed the configured tolerance.
    """
    config = config or SolverConfig()
    sigma, vals, vecs = _search(op, config, None)
    # over the two mirror parity classes, the num_modes eigenvalues nearest
    # sigma are the ones a full-domain solve returns
    nearest = np.argsort(np.abs(vals - sigma), kind="stable")[: config.num_modes]
    vals, vecs = vals[nearest], vecs[:, nearest]
    return [_gated_mode(op, n_eff, vals[idx], vecs[:, idx], config)
            for idx, n_eff in _guided(op, vals)]


def solve_fundamental(
    op: ModeOperator, kind: str, config: SolverConfig | None = None
) -> ModeSolution | None:
    """The mode ``select_mode(solve_modes(op, config), kind)`` picks, computed
    from as few eigenpairs as the query needs.

    Each operator (the full domain, or each mirror parity class in turn) is
    factored once, and Arnoldi runs for the k = 1, 2, 4, ... eigenpairs
    nearest the shift (at most ``num_modes``) until the computed set holds a
    guided ``kind`` mode and reaches at least (k0 * n_core)^2 - sigma from
    the shift, so that every dielectric-guided eigenvalue above the shift has
    been seen. The highest-Re(n_eff) guided ``kind`` mode over all computed
    pairs passes the residual gate against the full operator and is the only
    one finalized. Returns None if no such mode is found within the cap.
    """
    kind = _mode_kind(kind)
    config = config or SolverConfig()
    _sigma, vals, vecs = _search(op, config, kind)
    found = _first_of_kind(op, vals, vecs, kind)
    return None if found is None else _gated_mode(op, *found, config)


def _search(op: ModeOperator, config: SolverConfig, kind: str | None):
    """The shift sigma, and the eigenvalues and full-domain eigenvectors that
    :func:`_nearest` computes on each operator ``op`` is solved as, joined
    in operator order."""
    sigma = (op.k0 * (config.target_n_eff or 0.98 * op.index_bracket()[1])) ** 2
    found = [_nearest(op, mat, lift, sigma, kind, config) for mat, lift in _operators(op)]
    return sigma, np.concatenate([v for v, _ in found]), np.hstack([u for _, u in found])


def _nearest(op, mat, lift, sigma, kind, config):
    """The eigenpairs of ``mat`` nearest sigma, eigenvectors lifted to the
    full domain: the cap, ``num_modes`` of them, for ``kind`` None, or the k
    ladder of :func:`solve_fundamental` for "TE" or "TM". ``mat`` is factored
    once, and the factorization dies with this call."""
    nearest = _shift_invert(mat, sigma, config)
    cap = min(config.num_modes, mat.shape[0] - 2)
    reach = max(0.0, (op.k0 * op.index_bracket()[1]) ** 2 - sigma)
    k = cap if kind is None else 1
    while True:
        vals, vecs = nearest(k)
        if lift is not None:
            vecs = lift @ vecs
        if k == cap or (_first_of_kind(op, vals, vecs, kind) is not None
                        and np.abs(vals - sigma).max() >= reach):
            return vals, vecs
        k = min(2 * k, cap)


def _first_of_kind(op: ModeOperator, vals: np.ndarray, vecs: np.ndarray, kind: str):
    """``(n_eff, eigenvalue, vector)`` of the highest-Re(n_eff) guided
    ``kind`` mode among the eigenpairs, the earliest on a tie; or None."""
    area = _cell_area(op)
    for idx, n_eff in _guided(op, vals):
        hx, hy = _components(op, vecs[:, idx])
        if _polarization(_te_share(_centered(hx), _centered(hy), area)) == kind:
            return n_eff, vals[idx], vecs[:, idx]
    return None


def _guided(op: ModeOperator, vals: np.ndarray):
    """``(index, n_eff)`` of the guided eigenvalues among ``vals``: n_eff =
    sqrt(lambda)/k0 strictly inside :meth:`ModeOperator.index_bracket`, by
    descending Re(n_eff)."""
    n_clad, _n_core, n_high = op.index_bracket()
    n_effs = np.sqrt(vals.astype(complex)) / op.k0
    return [(idx, complex(n_effs[idx])) for idx in np.argsort(-n_effs.real, kind="stable")
            if n_clad < n_effs[idx].real < n_high]


def _shift_invert(mat, sigma: float, config: SolverConfig):
    """Factor mat - sigma*I once and return ``nearest(k)``: the k eigenpairs
    of ``mat`` nearest sigma, by shift-invert Arnoldi with that LU and a
    seeded start vector. The LU lives as long as ``nearest`` does."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    nn = mat.shape[0]
    rng = np.random.default_rng(_ARNOLDI_SEED)
    v0 = rng.standard_normal(nn) + 1j * rng.standard_normal(nn)

    lu = spla.splu(mat - sigma * sp.identity(nn, format="csc"), **_SHIFT_INVERT_LU)
    opinv = spla.LinearOperator((nn, nn), matvec=lu.solve, dtype=complex)

    def nearest(k: int):
        try:
            return spla.eigs(
                mat, k=k, sigma=sigma, OPinv=opinv, v0=v0, tol=0,
                maxiter=config.max_iterations, return_eigenvectors=True,
            )
        except spla.ArpackNoConvergence as exc:
            found = 0 if exc.eigenvalues is None else len(exc.eigenvalues)
            raise ConvergenceError(
                f"eigensolver did not converge within {config.max_iterations} iterations "
                f"({found}/{k} eigenvalues found)"
            ) from exc

    return nearest


def _operators(op: ModeOperator):
    """The eigenproblems ``op`` is solved as, built one at a time as
    ``(matrix, lift)``: the full operator with lift None, or, for an exactly
    mirror-symmetric operator, each parity class's restriction with the
    basis that lifts its eigenvectors to the full domain."""
    bases = _mirror_bases(op)
    if bases is None:
        yield op.matrix, None
        return
    by_row = op.matrix.tocsr()
    for keep, basis in bases:
        yield (by_row[keep] @ basis).tocsc(), basis


def _components(op: ModeOperator, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Hx, Hy) node arrays of a full-domain eigenvector."""
    nxn, nyn = op.shape
    return vec[: nxn * nyn].reshape(nxn, nyn), vec[nxn * nyn:].reshape(nxn, nyn)


def _gated_mode(op: ModeOperator, n_eff: complex, val, vec, config: SolverConfig) -> ModeSolution:
    """Finalized mode of an eigenpair whose residual against the full
    operator is within the configured tolerance."""
    resid = _relative_residual(op.matrix, val, vec)
    if resid > config.tolerance:
        raise ConvergenceError(
            f"eigenpair residual {resid:.2e} exceeds tolerance {config.tolerance:.1e}",
            residual=resid,
        )
    return _finalize_mode(op, n_eff, *_components(op, vec))


def _mirror_bases(op: ModeOperator):
    """Parity-class restrictions of an exactly mirror-symmetric operator.

    With an odd node count, x spacing equal to its reverse and eps equal to
    its mirror image, the operator commutes with S = mirror * diag(+1 on Hx,
    -1 on Hy), so every eigenvector has S v = +v (Hx even, Hy odd and zero
    on the centre line) or S v = -v (Hx odd, Hy even). For each class this
    returns ``(keep, basis)``: ``basis`` (2N x N, entries 0/+-1) maps the
    unknowns on the nodes left of and on the centre line to the full vector,
    and ``keep`` are their full-vector indices, so ``A[keep] @ basis`` is the
    class's exact restriction and ``basis @ u`` lifts its eigenvectors.
    Returns None when the operator is not exactly symmetric.
    """
    import scipy.sparse as sp

    dx = np.diff(op.x_nodes_m)
    nnx, nny = op.shape
    if nnx % 2 == 0 or not np.array_equal(dx, dx[::-1]) or not np.array_equal(op.eps, op.eps[::-1]):
        return None
    nn = nnx * nny
    centre = nnx // 2
    node = np.arange(nn).reshape(nnx, nny)
    off_centre = np.arange(centre * nny)
    bases = []
    for hx_parity in (1, -1):
        keep, rows, cols, vals = [], [], [], []
        col = 0
        for comp, parity in ((0, hx_parity), (1, -hx_parity)):
            left = node[: centre + (parity > 0)].ravel() + comp * nn   # centre row only if even
            mirrored = node[::-1][:centre].ravel() + comp * nn
            keep.append(left)
            rows += [left, mirrored]
            cols += [col + np.arange(left.size), col + off_centre]
            vals += [np.ones(left.size), np.full(mirrored.size, float(parity))]
            col += left.size
        basis = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(2 * nn, col)
        )
        bases.append((np.concatenate(keep), basis))
    return bases


def _relative_residual(mat, val, vec) -> float:
    r = mat @ vec - val * vec
    return float(np.linalg.norm(r) / (abs(val) * np.linalg.norm(vec)))


def _finalize_mode(op: ModeOperator, n_eff: complex, hx: np.ndarray, hy: np.ndarray) -> ModeSolution:
    beta = op.k0 * n_eff
    # deterministic phase: largest transverse H sample made real positive
    stacked = np.concatenate([hx.ravel(), hy.ravel()])
    pivot = stacked[np.argmax(np.abs(stacked))]
    phase = pivot / abs(pivot)
    hx = hx / phase
    hy = hy / phase

    hz, ex, ey, ez = _derive_fields(op, beta, hx, hy)
    if not all(np.all(np.isfinite(f)) for f in (hx, hy, hz, ex, ey, ez)):
        raise ConvergenceError("non-finite field values in computed mode")

    area = _cell_area(op)
    hxc, hyc = _centered(hx), _centered(hy)
    scale = 1.0 / np.sqrt(abs(_power(hxc, hyc, ex, ey, area)))
    hx, hy, hz = hx * scale, hy * scale, hz * scale
    ex, ey, ez = ex * scale, ey * scale, ez * scale

    return ModeSolution(
        n_eff=n_eff, k0=op.k0,
        x_nodes_m=op.x_nodes_m, y_nodes_m=op.y_nodes_m,
        hx=hx, hy=hy, hz=hz, ex=ex, ey=ey, ez=ez,
        te_fraction=_te_share(hxc, hyc, area),
    )


def _cell_area(nodes) -> np.ndarray:
    """Cell areas of the node grid of a :class:`ModeOperator` or :class:`ModeSolution`."""
    return np.diff(nodes.x_nodes_m)[:, None] * np.diff(nodes.y_nodes_m)[None, :]


def _power(hxc, hyc, ex, ey, area) -> float:
    """Guided power 0.5 Re sum (E x H*)_z over the cells, H at cell centers."""
    return 0.5 * float(np.sum((ex * np.conj(hyc) - ey * np.conj(hxc)).real * area))


def _te_share(hxc: np.ndarray, hyc: np.ndarray, area: np.ndarray) -> float:
    """|Hy|^2 / (|Hx|^2 + |Hy|^2) over the cells (see ModeSolution.te_fraction)."""
    e_h = float(np.sum(np.abs(hyc) ** 2 * area))
    e_v = float(np.sum(np.abs(hxc) ** 2 * area))
    return e_h / (e_h + e_v)


def _polarization(te_fraction: float) -> str:
    return "TE" if te_fraction >= 0.5 else "TM"


def mode_power(mode: ModeSolution) -> float:
    """Guided power of the stored fields (should be 1 after normalization)."""
    return _power(_centered(mode.hx), _centered(mode.hy), mode.ex, mode.ey, _cell_area(mode))


def select_mode(modes: list[ModeSolution], kind: str = "TE") -> ModeSolution | None:
    """Fundamental mode of the requested polarization: the highest-Re(n_eff)
    guided mode classified as ``kind``; None if there is none."""
    kind = _mode_kind(kind)
    for mode in modes:  # already sorted by descending Re(n_eff)
        if mode.polarization == kind:
            return mode
    return None


def _mode_kind(kind: str) -> str:
    kind = kind.upper()
    if kind not in ("TE", "TM"):
        raise DomainError(f"mode kind must be 'TE' or 'TM', got {kind!r}")
    return kind


def solve_cross_section(
    cs: CrossSection,
    policy: ResolutionPolicy | None = None,
    config: SolverConfig | None = None,
    kind: str | None = None,
) -> tuple[PermittivityGrid, list[ModeSolution] | ModeSolution | None]:
    """Rasterize, assemble and solve: the path from a cross-section to its
    modes that the CLI, the pipeline, sweeps and convergence studies share.

    Returns ``(grid, result)``. With ``kind`` None, ``result`` is the
    :func:`solve_modes` list; with ``kind`` "TE" or "TM", it is the mode
    :func:`solve_fundamental` computes, or None if there is none.
    """
    grid = rasterize(cs, policy)
    op = assemble_operator(grid)
    if kind is None:
        return grid, solve_modes(op, config)
    return grid, solve_fundamental(op, kind, config)


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    base_cell_m: float
    n_eff: complex | None
    alpha_per_cm: float | None
    delta_alpha_rel: float | None
    status: str


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple[ConvergenceRow, ...]
    order_estimate: float | None


def convergence_study(
    cs: CrossSection,
    policies: tuple[ResolutionPolicy, ...],
    config: SolverConfig | None = None,
    kind: str = "TE",
) -> ConvergenceTable:
    """Solve the fundamental mode on a ladder of grid policies (>= 3 levels,
    coarsest first; use ``ResolutionPolicy.refined`` / ``bulk_refined`` to
    build one). A level that fails to converge is marked in its row and
    excluded from the deltas; the Richardson order estimate is the
    least-squares slope of log successive-delta vs log base cell size.
    """
    if len(policies) < 3:
        raise ConfigError("convergence study needs at least 3 refinement levels")
    rows: list[ConvergenceRow] = []
    prev: tuple[float, float] | None = None   # (cell size, alpha) of last ok level
    deltas: list[tuple[float, float]] = []
    for policy in policies:
        cell = policy.base_m
        try:
            _grid, mode = solve_cross_section(cs, policy, config, kind)
        except ConvergenceError as exc:
            rows.append(ConvergenceRow(cell, None, None, None, f"failed: {exc}"))
            continue
        if mode is None:
            rows.append(ConvergenceRow(cell, None, None, None, "no-mode"))
            continue
        alpha = modal_absorption(mode)
        delta = None
        if prev is not None:
            ref = abs(alpha) if abs(alpha) > 1e-12 else 1.0
            delta = abs(alpha - prev[1]) / ref
            deltas.append((prev[0], delta))
        rows.append(ConvergenceRow(cell, mode.n_eff, alpha, delta, "ok"))
        prev = (cell, alpha)

    order = None
    if len(deltas) >= 2 and all(d > 0 for _h, d in deltas):
        hs = np.log([h for h, _d in deltas])
        ds = np.log([d for _h, d in deltas])
        order = float(np.polyfit(hs, ds, 1)[0])
    return ConvergenceTable(tuple(rows), order)
