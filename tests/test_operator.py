"""The assembled FD operator, pinned: bit for bit against the nonzero
entries of the reference assembly that writes every coupling out, with no
zero stored, and the x <-> y exchange that lets ``assemble_operator`` state
the x-side stencil once."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snspdkit.geometry import PermittivityGrid, rasterize
from snspdkit.modes import assemble_operator
from snspdkit.sweep import apply_parameters

from operator_reference import reference_matrix
from test_geometry import _POLICY, _cross_sections


def assert_same_bits(grid):
    """The operator stores no zero, and its values, row indices and column
    pointers equal those of the reference assembly's nonzero entries, byte
    for byte. Returns the number of stored entries."""
    mat, ref = assemble_operator(grid).matrix, reference_matrix(grid)
    ref.eliminate_zeros()   # the reference writes every coupling, zeros included
    assert (mat.data != 0).all()
    for part in ("data", "indices", "indptr"):
        got, want = getattr(mat, part), getattr(ref, part)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), part
    return mat.nnz


@pytest.mark.parametrize("changes, stored", [({}, 256_892), ({"array_offset_nm": 100}, 264_330),
                                             ({"core_thickness_nm": 350}, 259_298)],
                         ids=["shipped", "offset-100", "core-350"])
def test_operator_matches_reference_on_shipped_grids(default_config, changes, stored):
    cs = apply_parameters(default_config.cross_section, changes)
    assert assert_same_bits(rasterize(cs, default_config.policy)) == stored


def test_operator_matches_reference_on_slab(slab_case):
    assert_same_bits(rasterize(*slab_case))


@settings(max_examples=30, deadline=None)
@given(cs=_cross_sections())
def test_operator_matches_reference_on_random_sections(cs):
    assert_same_bits(rasterize(cs, _POLICY))


@st.composite
def _small_grids(draw):
    """A few cells each way, non-uniform edges (tens of nm) and a random mix
    of dielectric and absorbing cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nx, ny = draw(st.integers(3, 9)), draw(st.integers(3, 9))
    x = np.cumsum(np.concatenate(([0.0], rng.uniform(10e-9, 80e-9, nx))))
    y = np.cumsum(np.concatenate(([0.0], rng.uniform(10e-9, 80e-9, ny))))
    n = rng.uniform(1.0, 3.6, (nx, ny)) - 1j * np.where(rng.random((nx, ny)) < 0.3,
                                                         rng.uniform(0.0, 6.0, (nx, ny)), 0.0)
    return PermittivityGrid(x, y, n ** 2, 1300e-9)


@settings(max_examples=60, deadline=None)
@given(grid=_small_grids())
def test_operator_transposes_with_the_grid(grid):
    """Assembling the grid with x and y exchanged gives the operator with Hx
    and Hy exchanged and the nodes transposed; the self terms sum their
    couplings in another order, so agreement is to round-off."""
    op = assemble_operator(grid)
    swapped = assemble_operator(
        PermittivityGrid(grid.y_edges_m, grid.x_edges_m, grid.eps.T, grid.wavelength_m))
    nnx, nny = op.shape
    node_t = np.arange(nnx * nny).reshape(nnx, nny).T.ravel()
    # (Hx, Hy) of the swapped grid at node (j, i) are (Hy, Hx) here at (i, j)
    perm = np.concatenate([node_t + nnx * nny, node_t])
    moved = op.matrix.tocsr()[perm][:, perm]
    scale = abs(op.matrix).max()
    assert abs(swapped.matrix - moved).max() <= 1e-13 * scale
