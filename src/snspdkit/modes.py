"""Full-vector finite-difference eigenmode solver on a nonuniform tensor grid.

The transverse magnetic-field components (Hx, Hy) at the grid nodes are the
eigenvector; the eigenvalue is beta^2 = (k0 * n_eff)^2. The stencil is the
standard full-vector scheme for isotropic media on a nonuniform rectangular
grid (Fallahkhair, Li & Murphy, J. Lightwave Technol. 26, 1423 (2008),
specialized to a diagonal, scalar permittivity): five-point blocks for
Hx-Hx and Hy-Hy plus the interface-induced Hx-Hy cross couplings, which
vanish in homogeneous regions and at purely horizontal or vertical
interfaces and act only around material corners. The stencil is written
once, for the x side (:func:`_x_couplings`): the Hy-Hy and Hy-Hx couplings
are the Hx-Hx and Hx-Hy ones with x and y exchanged, i.e. node spacings
(w, e, s, n) -> (s, n, w, e), quadrant cells (NW, SW, SE, NE) ->
(SE, SW, NW, NE) and neighbours (N, S, E, W) -> (E, W, N, S).

Sign bookkeeping: grids store eps = (n - 1j*k)^2 (absorbing cells have a
negative imaginary part); the operator is assembled from conj(eps), i.e.
with the exp(-i w t) physics convention, so absorbing guided modes come out
with Im(n_eff) >= 0 and a positive power absorption coefficient
alpha = 4*pi*Im(n_eff)/lambda.

Boundaries: the outer walls of the window are zero-field (perfect walls);
the modes of interest are bound and decay well inside the mandated window
clearance. A mirror plane at x = 0 needs no boundary stencil of its own: an
exactly mirror-symmetric operator is split into its two parity classes (see
:func:`_mirror_classes`), each solved as a half-size eigenproblem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

# scipy.sparse is imported inside the functions that build or solve an
# operator, so that ``import snspdkit`` and the CLI commands that never solve
# do not pay ~0.35 s for it at start-up; numpy loads at its first use too.
from ._numpy import np
from .errors import ConfigError, ConvergenceError, DomainError
from .geometry import CrossSection, PermittivityGrid, ResolutionPolicy, rasterize

_ARNOLDI_SEED = 718281828  # fixed start-vector seed: solves are deterministic
# Continuation of a query from a solved mode (see solve_fundamental): the
# back-solves an inverse iteration may spend, the relative change of its
# eigenvalue below which it has stalled, and the least overlap of an accepted
# iterate with the carried field.
_CONTINUE_MAX_BACKSOLVES = 10
_CONTINUE_STALL = 1e-14
_CONTINUE_MIN_OVERLAP = 0.9
_ARPACK_MAX_ITERATIONS = 400   # Arnoldi restarts per eigs call before giving up
_DIELECTRIC_IM_CUT = 0.1   # |Im n| below this counts as a dielectric for bracketing
# Per kind of fundamental-mode query: the Hx parity of the one mirror class
# it solves (see _mirror_classes), and the first k of its ladder (see
# _nearest) in that class and on the full domain. The class is the one in
# which the kind's dominant E component is even, Ex (paired with Hy) for TE
# and Ey (paired with Hx) for TM, so it holds the kind's fundamental mode;
# the other class holds the kind's modes odd in x. TE0 and the TE mode odd
# in Ex (n_eff 3.1006 on the shipped section) have lain nearer the default
# shift than TM0 on every section solved so far, so a TM ladder cannot stop
# at k = 1 in its class, which holds the latter, or at k = 2 on the full domain.
_QUERY = {"TE": (-1, 1, 1), "TM": (1, 2, 4)}
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
    tolerance: ClassVar[float] = 1e-10  # relative eigen-residual gate: a constant, not a setting

    def __post_init__(self):
        if self.num_modes < 1:
            raise ConfigError("num_modes must be >= 1")
        if self.target_n_eff is not None and self.target_n_eff <= 0:
            raise ConfigError("target_n_eff must be > 0")


@dataclass(frozen=True, eq=False)
class ModeOperator:
    """Assembled eigenproblem A [Hx; Hy] = beta^2 [Hx; Hy] on the nodes of
    ``grid``, whose cell eps is the operator's only permittivity."""

    matrix: "scipy.sparse.csc_matrix" = field(repr=False)
    grid: PermittivityGrid

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.grid.x_edges_m), len(self.grid.y_edges_m))

    def index_bracket(self) -> tuple[float, float, float]:
        """(cladding max, core, global max) of Re(n) over the cells.

        The core index is the largest dielectric index and places the default
        shift; the cladding bound is the largest dielectric index strictly
        below it. Guided modes lie strictly between the cladding bound and the
        global maximum; lossy materials such as the nanowire metal only enter
        the latter.
        """
        n_vals = np.sqrt(self.grid.eps.ravel())   # same Re and |Im| as for conj(eps)
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

    Hx, Hy (eigenvector) and the derived longitudinal Hz live on the nodes of
    ``grid``; Ex, Ey, Ez are derived at its cell centers. Fields are
    normalized to unit guided power with a deterministic phase.
    """

    n_eff: complex
    grid: PermittivityGrid
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
    te_fraction: float

    @property
    def beta(self) -> complex:
        """Propagation constant [1/m]."""
        return self.grid.k0 * self.n_eff

    @property
    def polarization(self) -> str:
        return _polarization(self.te_fraction)


def modal_absorption(mode: ModeSolution) -> float:
    """Power absorption coefficient alpha = 4*pi*Im(n_eff)/lambda in 1/cm."""
    return 4.0 * np.pi * mode.n_eff.imag / mode.grid.wavelength_m / 100.0


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def assemble_operator(grid: PermittivityGrid) -> ModeOperator:
    """Build the sparse eigenproblem for the two transverse H components at
    the wavelength the grid was painted at."""
    import scipy.sparse as sp

    nx_cells, ny_cells = grid.eps.shape
    if nx_cells < 3 or ny_cells < 3:
        raise ConfigError("grid too small: need >= 3 cells in each direction")

    x, y, k0 = grid.x_edges_m, grid.y_edges_m, grid.k0
    nnx, nny = len(x), len(y)

    # exp(-i w t) convention: absorbing cells get Im(eps) > 0
    epsp = np.pad(np.conj(grid.eps), 1, mode="edge")
    # quadrant cells around each node: 1=NW, 2=SW, 3=SE, 4=NE
    e1 = epsp[0:nnx, 1:nny + 1]
    e2 = epsp[0:nnx, 0:nny]
    e3 = epsp[1:nnx + 1, 0:nny]
    e4 = epsp[1:nnx + 1, 1:nny + 1]

    # node spacings to the W, E, S and N neighbours; wall nodes repeat the last one
    dxp = np.pad(np.diff(x), 1, mode="edge")[:, None]
    dyp = np.pad(np.diff(y), 1, mode="edge")[None, :]
    w, e, s, n = dxp[:-1], dxp[1:], dyp[:, :-1], dyp[:, 1:]

    # a zero-eps wall cell divides by zero; the check below reports it
    with np.errstate(divide="ignore", invalid="ignore"):
        (axxn, axxs, axxe, axxw), (axyn, axys, axye, axyw), xx_k2 = _x_couplings(
            w, e, s, n, e1, e2, e3, e4, k0)
        # the Hy couplings are the Hx ones with x and y exchanged: spacings
        # (w, e, s, n) -> (s, n, w, e), cells NW <-> SE, and the exchanged
        # stencil's N, S, E, W neighbours are E, W, N, S here
        (ayye, ayyw, ayyn, ayys), (ayxe, ayxw, ayxn, ayxs), yy_k2 = _x_couplings(
            s, n, w, e, e3, e2, e1, e4, k0)

        # each self term sums its own block's couplings in N, S, E, W order
        blocks = [
            [(-axxn - axxs - axxe - axxw + xx_k2, axxn, axxs, axxe, axxw),
             (-(axyn + axys + axye + axyw), axyn, axys, axye, axyw)],
            [(-(ayxn + ayxs + ayxe + ayxw), ayxn, ayxs, ayxe, ayxw),
             (-ayyn - ayys - ayye - ayyw + yy_k2, ayyn, ayys, ayye, ayyw)],
        ]
    j = np.arange(nny)

    def block(p, an, as_, ae, aw):
        # node (i, j) is row i * nny + j, so the self, N, S, E and W couplings
        # are the diagonals 0, +1, -1, +nny and -nny; the N and S couplings of
        # the wall nodes would wrap to the next node column and are zeroed
        an, as_ = np.where(j < nny - 1, an, 0.0), np.where(j > 0, as_, 0.0)
        p, an, as_, ae, aw = (np.broadcast_to(a, (nnx, nny)).ravel() for a in (p, an, as_, ae, aw))
        return sp.diags([p, an[:-1], as_[1:], ae[:-nny], aw[nny:]], [0, 1, -1, nny, -nny])

    # converting the diagonals drops their zeros, so no zero is stored (the
    # Hx-Hy couplings vanish away from material corners)
    mat = sp.bmat([[block(*couplings) for couplings in row] for row in blocks], format="csc")
    bad = np.count_nonzero(~np.isfinite(mat.data))
    if bad:
        raise DomainError(f"operator has {bad} non-finite couplings of {mat.nnz} "
                          "(a zero permittivity on the window wall?)")
    return ModeOperator(mat, grid)


def _x_couplings(w, e, s, n, e1, e2, e3, e4, k0):
    """The x side of the stencil at every node, from the spacings to the W,
    E, S and N neighbours and the NW (1), SW (2), SE (3) and NE (4) cells:
    the N, S, E and W couplings Hx->Hx and Hx->Hy, and the k0^2 part of the
    Hx self term."""
    ns21 = n * e2 + s * e1
    ns34 = n * e3 + s * e4
    xx = (2.0 * (e * e3 / ns34 + w * e2 / ns21) / (n * (e + w)),
          2.0 * (e * e4 / ns34 + w * e1 / ns21) / (s * (e + w)),
          2.0 / (e * (e + w)),
          2.0 / (w * (e + w)))
    cross = e2 * e4 - e1 * e3
    xy = ((e3 / ns34 - e2 / ns21 + s * cross / (ns21 * ns34)) / (e + w),
          (e1 / ns21 - e4 / ns34 + n * cross / (ns21 * ns34)) / (e + w),
          -2.0 * (e2 - e1) * w * w / (ns21 * e * (e + w) ** 2),
          -2.0 * (e4 - e3) * e * e / (ns34 * w * (e + w) ** 2))
    return xx, xy, k0 * k0 * (n + s) * (e4 * e3 * e / ns34 + e1 * e2 * w / ns21) / (e + w)


# ---------------------------------------------------------------------------
# eigen-solve and field post-processing
# ---------------------------------------------------------------------------

def _centered(a: np.ndarray) -> np.ndarray:
    return 0.25 * (a[1:, 1:] + a[1:, :-1] + a[:-1, 1:] + a[:-1, :-1])


def _derive_fields(op: ModeOperator, beta: complex, hx: np.ndarray, hy: np.ndarray):
    """Hz at nodes from the divergence relation; E at cell centers from
    Ampere's law, D = i (curl H) / omega, with relative eps per cell."""
    x, y, k0 = op.grid.x_edges_m, op.grid.y_edges_m, op.grid.k0
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
    eps = np.conj(op.grid.eps)   # the operator's exp(-i w t) convention
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
    Arnoldi iteration fails or a residual exceeds the fixed 1e-10 gate.
    """
    config = config or SolverConfig()
    sigma, reach = _shift(op, config)
    found = [_nearest(op, mat, lift, sigma, reach, None, config)
             for mat, lift in _operators(op, None)]
    vals, vecs = np.concatenate([v for v, _ in found]), np.hstack([u for _, u in found])
    # over the two mirror parity classes, the num_modes eigenvalues nearest
    # sigma are the ones a full-domain solve returns
    nearest = np.argsort(np.abs(vals - sigma), kind="stable")[: config.num_modes]
    vals, vecs = vals[nearest], vecs[:, nearest]
    return [_gated_mode(op, n_eff, vals[idx], vecs[:, idx])
            for idx, n_eff in _guided(op, vals)]


def solve_fundamental(
    op: ModeOperator, kind: str, config: SolverConfig | None = None,
    start: ModeSolution | None = None,
) -> ModeSolution | None:
    """The mode ``select_mode(solve_modes(op, config), kind)`` picks, computed
    from as few eigenpairs as the query needs.

    Without ``start``, one operator is factored once: the full domain or,
    on an exactly mirror-symmetric operator, the one parity class
    :data:`_QUERY` names for ``kind``. Arnoldi runs on it for the k = 1, 2,
    4, ... eigenpairs nearest the shift (at most ``num_modes``;
    :data:`_QUERY` gives the first k) until the computed set holds a guided
    ``kind`` mode and reaches at least (k0 * n_core)^2 - sigma from the
    shift, so that every dielectric-guided eigenvalue above the shift has
    been seen. The highest-Re(n_eff) guided ``kind`` mode over the computed
    pairs passes the residual gate against the full operator and is the
    only one finalized. Returns None if no such mode is found within the
    cap.

    Starting a TM ladder above k = 1 changes the pick only where a skipped
    rung would have stopped and a later pair is a guided TM mode of higher
    Re(n_eff). Solving one class changes the pick only where the other
    class holds a guided ``kind`` mode of higher Re(n_eff). Its modes are
    odd in the kind's dominant E component, so they are higher-order modes;
    on every section solved so far, one lay above the pick only where the
    ladder stopped at the cap short of the fundamental, which then neither
    search computes.

    ``start``, a mode solved before on any grid (the previous point of a
    sweep), is continued instead: on the same operator, the full domain or
    the query's parity class, ``mat - sigma*I`` is factored once at sigma =
    (k0 * n_eff(start))^2, and inverse iteration runs from ``start``'s
    fields interpolated onto this grid (see :func:`_carried`), with the
    Rayleigh quotient as the eigenvalue. It stops once the residual against
    the full operator is within :attr:`SolverConfig.tolerance` and the
    eigenvalue has stalled (relative change at most
    :data:`_CONTINUE_STALL`), within :data:`_CONTINUE_MAX_BACKSOLVES`
    back-solves. The iterate is accepted only if it is guided, of
    polarization ``kind``, and its overlap with the carried field, both of
    unit norm, is at least :data:`_CONTINUE_MIN_OVERLAP` (0.9, stated before
    measuring; continued TE and TM offset points keep 0.998 or more).
    Otherwise, and also where the factorization fails or the carried field
    has no component in the solved class, that LU is dropped and the ladder
    above runs cold with its own factorization at the default shift.

    What the continuation rule cannot see: a mode of the same kind that
    overtakes the continued one within one step. An accepted point is
    certified only as the continuation of ``start``, not as the
    highest-Re(n_eff) mode of its kind; the ladder certifies only the
    first point of every call, which is solved without ``start``.
    """
    kind = _mode_kind(kind)
    config = config or SolverConfig()
    (mat, lift), = _operators(op, kind)
    found = None if start is None else _continued(op, mat, lift, kind, start)
    if found is None:
        vals, vecs = _nearest(op, mat, lift, *_shift(op, config), kind, config)
        found = _first_of_kind(op, vals, vecs, kind)
    return None if found is None else _gated_mode(op, *found)


def _shift(op: ModeOperator, config: SolverConfig) -> tuple[float, float]:
    """The shift sigma of a cold solve, and the ladder's reach from it:
    (k0 * n_core)^2 - sigma, or 0 above the core (see :func:`solve_fundamental`)."""
    n_core = op.index_bracket()[1]
    sigma = (op.grid.k0 * (config.target_n_eff or 0.98 * n_core)) ** 2
    return sigma, max(0.0, (op.grid.k0 * n_core) ** 2 - sigma)


def _operators(op: ModeOperator, kind: str | None):
    """``(mat, lift)`` of each eigenproblem ``op`` is solved as for ``kind``:
    on an exactly mirror-symmetric operator both parity classes for the mode
    list (``kind`` None) and the class of :data:`_QUERY` for "TE" or "TM",
    else the full operator, whose ``lift`` is None."""
    classes = _mirror_classes(op, (1, -1) if kind is None else _QUERY[kind][:1])
    return classes or [(op.matrix, None)]


def _shift_invert_lu(mat, sigma):
    """SuperLU factorization of ``mat - sigma*I`` with :data:`_SHIFT_INVERT_LU`."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    return spla.splu(mat - sigma * sp.identity(mat.shape[0], format="csc"), **_SHIFT_INVERT_LU)


def _nearest(op, mat, lift, sigma, reach, kind, config):
    """The eigenpairs of ``mat`` nearest sigma, eigenvectors lifted to the
    full domain by ``lift`` (None for the full operator): the cap,
    ``num_modes`` of them, for ``kind`` None, or the k ladder of
    :func:`solve_fundamental`, from the first k of :data:`_QUERY` and with
    its reach from sigma, for "TE" or "TM". Every Arnoldi run uses one LU
    of mat - sigma*I, which dies with this call, and the seeded start."""
    import scipy.sparse.linalg as spla

    nn = mat.shape[0]
    lu = _shift_invert_lu(mat, sigma)
    backsolves = 0

    def backsolve(rhs):
        nonlocal backsolves
        backsolves += 1
        return lu.solve(rhs)

    opinv = spla.LinearOperator((nn, nn), matvec=backsolve, dtype=complex)
    rng = np.random.default_rng(_ARNOLDI_SEED)
    v0 = rng.standard_normal(nn) + 1j * rng.standard_normal(nn)
    cap = min(config.num_modes, nn - 2)
    k = cap if kind is None else min(_QUERY[kind][1 if lift is not None else 2], cap)
    while True:
        try:
            vals, vecs = spla.eigs(mat, k=k, sigma=sigma, OPinv=opinv, v0=v0, tol=0,
                                   maxiter=_ARPACK_MAX_ITERATIONS, return_eigenvectors=True)
        except spla.ArpackNoConvergence as exc:
            found = 0 if exc.eigenvalues is None else len(exc.eigenvalues)
            raise ConvergenceError(
                f"eigensolver did not converge within {_ARPACK_MAX_ITERATIONS} iterations "
                f"(k = {k} of cap {cap}, {found} eigenvalues found; "
                f"{nn} unknowns, {backsolves} back-solves)") from exc
        if lift is not None:
            vecs = lift @ vecs
        if k == cap or (_first_of_kind(op, vals, vecs, kind) is not None
                        and np.abs(vals - sigma).max() >= reach):
            return vals, vecs
        k = min(2 * k, cap)


def _continued(op: ModeOperator, mat, lift, kind: str, start: ModeSolution):
    """``(n_eff, eigenvalue, vector)`` that inverse iteration on the
    eigenproblem ``(mat, lift)`` at ``start``'s eigenvalue reaches and
    accepts (see :func:`solve_fundamental`), or None for the ladder. Its LU
    dies with this call."""
    carried = _carried(op, start)
    vec = carried if lift is None else lift.T @ carried
    norm = np.linalg.norm(vec)
    if not 0.0 < norm < np.inf:
        return None
    try:
        lu = _shift_invert_lu(mat, (op.grid.k0 * start.n_eff) ** 2)
    except RuntimeError:   # SuperLU: an exactly singular factor
        return None
    vec, val = vec / norm, None
    for _ in range(_CONTINUE_MAX_BACKSOLVES):
        vec = lu.solve(vec)
        norm = np.linalg.norm(vec)
        if not 0.0 < norm < np.inf:
            return None
        vec /= norm
        last, val = val, np.vdot(vec, mat @ vec)
        full = vec if lift is None else lift @ vec
        if (last is not None and abs(val - last) <= _CONTINUE_STALL * abs(val)
                and _relative_residual(op.matrix, val, full) <= SolverConfig.tolerance):
            break
    else:
        return None
    found = _first_of_kind(op, np.array([val]), full[:, None], kind)
    overlap = abs(np.vdot(carried, full)) / np.linalg.norm(full)
    return found if found is not None and overlap >= _CONTINUE_MIN_OVERLAP else None


def _first_of_kind(op: ModeOperator, vals: np.ndarray, vecs: np.ndarray, kind: str):
    """``(n_eff, eigenvalue, vector)`` of the highest-Re(n_eff) guided
    ``kind`` mode among the eigenpairs, the earliest on a tie; or None."""
    area = _cell_area(op.grid)
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
    n_effs = np.sqrt(vals.astype(complex)) / op.grid.k0
    return [(idx, complex(n_effs[idx])) for idx in np.argsort(-n_effs.real, kind="stable")
            if n_clad < n_effs[idx].real < n_high]


def _carried(op: ModeOperator, start: ModeSolution) -> np.ndarray:
    """(Hx, Hy) of ``start`` on ``op``'s nodes as one full-domain vector of
    unit norm: separable linear interpolation along x, then y, held constant
    beyond ``start``'s outermost nodes."""
    def resample(h):
        h = np.apply_along_axis(lambda a: np.interp(op.grid.x_edges_m, start.grid.x_edges_m, a), 0, h)
        return np.apply_along_axis(lambda a: np.interp(op.grid.y_edges_m, start.grid.y_edges_m, a), 1, h)

    vec = np.concatenate([resample(start.hx).ravel(), resample(start.hy).ravel()])
    return vec / np.linalg.norm(vec)


def _components(op: ModeOperator, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Hx, Hy) node arrays of a full-domain eigenvector."""
    nxn, nyn = op.shape
    return vec[: nxn * nyn].reshape(nxn, nyn), vec[nxn * nyn:].reshape(nxn, nyn)


def _gated_mode(op: ModeOperator, n_eff: complex, val, vec) -> ModeSolution:
    """Finalized mode of an eigenpair whose residual against the full
    operator is within :attr:`SolverConfig.tolerance`."""
    resid = _relative_residual(op.matrix, val, vec)
    if resid > SolverConfig.tolerance:
        raise ConvergenceError(
            f"eigenpair residual {resid:.2e} exceeds tolerance {SolverConfig.tolerance:.1e}",
            residual=resid,
        )
    return _finalize_mode(op, n_eff, *_components(op, vec))


def _mirror_classes(op: ModeOperator, hx_parities=(1, -1)):
    """Parity-class restrictions of an exactly mirror-symmetric operator.

    With an odd node count, x spacing equal to its reverse and eps equal to
    its mirror image, the operator commutes with S = mirror * diag(+1 on Hx,
    -1 on Hy), so every eigenvector has S v = +v (Hx even, Hy odd and zero
    on the centre line) or S v = -v (Hx odd, Hy even). For each class, named
    by its Hx parity in ``hx_parities`` (+1 or -1), this returns
    ``(A[keep] @ basis, basis)`` in CSC: ``basis`` (2N x N, entries 0/+-1)
    maps the unknowns on the nodes left of and on the centre line to the
    full vector, and ``keep`` are their full-vector indices, so the first
    is the class's exact restriction and ``basis @ u`` lifts its
    eigenvectors. Each component's part of ``basis`` is a map over node
    columns times the identity over y. Returns None when the operator is
    not exactly symmetric.
    """
    import scipy.sparse as sp

    dx, eps = np.diff(op.grid.x_edges_m), op.grid.eps
    nnx, nny = op.shape
    if nnx % 2 == 0 or not np.array_equal(dx, dx[::-1]) or not np.array_equal(eps, eps[::-1]):
        return None
    centre = nnx // 2
    by_row = op.matrix.tocsr()
    classes = []
    for hx_parity in hx_parities:
        maps = []
        for parity in (hx_parity, -hx_parity):   # Hx, then Hy
            # kept column i (the centre one only if even) is node column i
            # and, times parity, its mirror image
            node_map = np.eye(nnx, centre + (parity > 0))
            node_map[centre + 1:, :centre] = parity * np.eye(centre)[::-1]
            maps.append(sp.kron(node_map, sp.identity(nny), format="csr"))
        basis = sp.block_diag(maps, format="csr")
        keep = np.concatenate([comp * nnx * nny + np.arange(m.shape[1]) for comp, m in enumerate(maps)])
        classes.append(((by_row[keep] @ basis).tocsc(), basis))
    return classes


def _relative_residual(mat, val, vec) -> float:
    r = mat @ vec - val * vec
    return float(np.linalg.norm(r) / (abs(val) * np.linalg.norm(vec)))


def _finalize_mode(op: ModeOperator, n_eff: complex, hx: np.ndarray, hy: np.ndarray) -> ModeSolution:
    beta = op.grid.k0 * n_eff
    # deterministic phase: largest transverse H sample made real positive
    stacked = np.concatenate([hx.ravel(), hy.ravel()])
    pivot = stacked[np.argmax(np.abs(stacked))]
    phase = pivot / abs(pivot)
    hx = hx / phase
    hy = hy / phase

    hz, ex, ey, ez = _derive_fields(op, beta, hx, hy)
    if not all(np.all(np.isfinite(f)) for f in (hx, hy, hz, ex, ey, ez)):
        raise ConvergenceError("non-finite field values in computed mode")

    area = _cell_area(op.grid)
    hxc, hyc = _centered(hx), _centered(hy)
    scale = 1.0 / np.sqrt(abs(_power(hxc, hyc, ex, ey, area)))
    hx, hy, hz = hx * scale, hy * scale, hz * scale
    ex, ey, ez = ex * scale, ey * scale, ez * scale

    return ModeSolution(
        n_eff=n_eff, grid=op.grid, hx=hx, hy=hy, hz=hz, ex=ex, ey=ey, ez=ez,
        te_fraction=_te_share(hxc, hyc, area),
    )


def _cell_area(grid: PermittivityGrid) -> np.ndarray:
    return np.diff(grid.x_edges_m)[:, None] * np.diff(grid.y_edges_m)[None, :]


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
    start: ModeSolution | None = None,
) -> tuple[PermittivityGrid, list[ModeSolution] | ModeSolution | None]:
    """Rasterize, assemble and solve: the path from a cross-section to its
    modes that the CLI, the pipeline and sweeps share.

    Returns ``(grid, result)``. With ``kind`` None, ``result`` is the
    :func:`solve_modes` list; with ``kind`` "TE" or "TM", it is the mode
    :func:`solve_fundamental` computes from ``start``, or None if there is
    none; the mode list does not use ``start``.
    """
    grid = rasterize(cs, policy)
    op = assemble_operator(grid)
    if kind is None:
        return grid, solve_modes(op, config)
    return grid, solve_fundamental(op, kind, config, start)
