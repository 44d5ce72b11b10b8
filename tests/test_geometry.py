from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import snspdkit as sk
from snspdkit.errors import ConfigError
from snspdkit.geometry import MIN_CLEARANCE_M, SAME_POSITION_M, PermittivityGrid
from snspdkit.materials import NBN_INDEX_1300


@pytest.fixture()
def mats():
    return sk.default_materials()


@pytest.fixture()
def reference_cs(mats):
    stack = sk.LayerStack((
        sk.Layer("AlGaAs", 1.5e-6),
        sk.Layer("GaAs", 300e-9),
    ), "GaAs")
    ridge = sk.RidgeSpec(width_m=1.85e-6, etch_depth_m=250e-9)
    wires = sk.NanowireArray(count=4, width_m=100e-9, pitch_m=250e-9, thickness_m=4.3e-9,
                             material="NbN", cap_material="SiOx", cap_thickness_m=100e-9)
    return sk.CrossSection(stack, ridge, wires, 6e-6, 3.6e-6, 1300e-9, mats)


# -- alignment margin ------------------------------------------------------

def test_alignment_margin_reference_geometry():
    ridge = sk.RidgeSpec(width_m=1.85e-6, etch_depth_m=250e-9)
    wires = sk.NanowireArray(4, 100e-9, 250e-9, 4.3e-9)
    # extent = 3*250 + 100 = 850 nm -> margin (1850 - 850)/2 = 500 nm
    assert sk.alignment_margin(ridge, wires) == pytest.approx(0.5e-6, rel=1e-12)


def test_alignment_margin_zero_when_array_fills_ridge():
    ridge = sk.RidgeSpec(width_m=850e-9, etch_depth_m=100e-9)
    wires = sk.NanowireArray(4, 100e-9, 250e-9, 4.3e-9)
    assert sk.alignment_margin(ridge, wires) == pytest.approx(0.0, abs=1e-15)


def test_alignment_margin_with_offset():
    ridge = sk.RidgeSpec(width_m=1.85e-6, etch_depth_m=250e-9)
    wires = sk.NanowireArray(4, 100e-9, 250e-9, 4.3e-9, offset_m=100e-9)
    assert sk.alignment_margin(ridge, wires) == pytest.approx(0.4e-6, rel=1e-12)


def test_alignment_margin_can_go_negative():
    ridge = sk.RidgeSpec(width_m=800e-9, etch_depth_m=100e-9)
    wires = sk.NanowireArray(4, 100e-9, 250e-9, 4.3e-9)
    assert sk.alignment_margin(ridge, wires) < 0


# -- rasterization ---------------------------------------------------------

def test_rasterize_reference_geometry(reference_cs):
    grid = sk.rasterize(reference_cs)
    eps_nbn = NBN_INDEX_1300 ** 2
    nbn_mask = grid.eps == eps_nbn
    assert nbn_mask.any()
    # every interface lands on a grid line: wire edges are exact member floats
    wire_edges = set()
    for c in reference_cs.wires.wire_centers():
        wire_edges |= {c - 50e-9, c + 50e-9}
    assert wire_edges <= set(grid.x_edges_m.tolist())
    assert {0.0, reference_cs.wires.thickness_m} <= set(grid.y_edges_m.tolist())
    # cell-count invariants
    y_in_wire = (grid.y_centers_m > 0) & (grid.y_centers_m < reference_cs.wires.thickness_m)
    assert int(y_in_wire.sum()) >= 2
    for c in reference_cs.wires.wire_centers():
        cols = np.abs(grid.x_centers_m - c) < 50e-9
        assert int(cols.sum()) >= 4


def test_nbn_area_matches_geometry(reference_cs):
    grid = sk.rasterize(reference_cs)
    areas = np.diff(grid.x_edges_m)[:, None] * np.diff(grid.y_edges_m)[None, :]
    nbn_area = float(areas[grid.eps == NBN_INDEX_1300 ** 2].sum())
    w = reference_cs.wires
    expected = w.count * w.width_m * w.thickness_m
    assert nbn_area == pytest.approx(expected, rel=1e-6)


def test_rasterize_without_wires_is_lossless(reference_cs):
    from dataclasses import replace

    grid = sk.rasterize(replace(reference_cs, wires=None))
    assert float(np.max(np.abs(grid.eps.imag))) == 0.0


def test_rasterize_mirror_symmetry(reference_cs):
    grid = sk.rasterize(reference_cs)
    assert np.array_equal(grid.x_edges_m, -grid.x_edges_m[::-1])
    assert np.array_equal(grid.eps, grid.eps[::-1, :])


def _mirror_symmetric(grid) -> bool:
    """Exact mirror symmetry about x = 0: odd node count, reflected edges,
    spacing equal to its reverse and eps equal to its mirror image."""
    x = grid.x_edges_m
    dx = np.diff(x)
    return (len(x) % 2 == 1 and np.array_equal(x, -x[::-1]) and np.array_equal(dx, dx[::-1])
            and np.array_equal(grid.eps, grid.eps[::-1, :]))


@settings(max_examples=40, deadline=None)
@given(count=st.integers(1, 6), width_nm=st.integers(40, 150), gap_nm=st.integers(0, 250),
       offset_nm=st.one_of(st.just(0), st.integers(-300, 300)))
def test_rasterize_mirror_symmetric_iff_centred(count, width_nm, gap_nm, offset_nm):
    ridge = sk.RidgeSpec(width_m=1.85e-6, etch_depth_m=250e-9)
    wires = sk.NanowireArray(count=count, width_m=width_nm * 1e-9, pitch_m=(width_nm + gap_nm) * 1e-9,
                             thickness_m=4.3e-9, cap_material="SiOx", cap_thickness_m=100e-9,
                             offset_m=offset_nm * 1e-9)
    assume(sk.alignment_margin(ridge, wires) >= 0)
    stack = sk.LayerStack((
        sk.Layer("AlGaAs", 1.5e-6),
        sk.Layer("GaAs", 300e-9),
    ), "GaAs")
    cs = sk.CrossSection(stack, ridge, wires, 6e-6, 3.6e-6, 1300e-9, sk.default_materials())
    grid = sk.rasterize(cs, sk.ResolutionPolicy(base_m=50e-9))
    assert _mirror_symmetric(grid) == (offset_nm == 0)


def test_rasterize_deterministic(reference_cs):
    g1 = sk.rasterize(reference_cs)
    g2 = sk.rasterize(reference_cs)
    assert np.array_equal(g1.x_edges_m, g2.x_edges_m)
    assert np.array_equal(g1.y_edges_m, g2.y_edges_m)
    assert np.array_equal(g1.eps, g2.eps)


def test_etched_region_gets_ambient(reference_cs):
    grid = sk.rasterize(reference_cs)
    outside = np.abs(grid.x_centers_m) > reference_cs.ridge.width_m / 2
    etched = (grid.y_centers_m > -reference_cs.ridge.etch_depth_m) & (grid.y_centers_m < 0)
    assert np.all(grid.eps[np.ix_(outside, etched)] == 1.0 + 0j)


def test_policy_too_coarse_for_wire_thickness(reference_cs):
    with pytest.raises(ConfigError, match="2 cells"):
        sk.rasterize(reference_cs, sk.ResolutionPolicy(fine_m=5e-9, base_m=25e-9))


def test_policy_too_coarse_for_wire_width(reference_cs):
    with pytest.raises(ConfigError, match="4 cells"):
        sk.rasterize(reference_cs, sk.ResolutionPolicy(x_base_m=50e-9, edge_band_m=0.0))


def test_touching_wires_share_one_grid_line(touching_wires_case):
    """Neighbouring wires whose shared edge is computed twice, with values an
    ulp apart, get one grid line there, not a sliver cell between two."""
    cs, policy = touching_wires_case
    grid = sk.rasterize(cs, policy)
    assert np.diff(grid.x_edges_m).min() >= policy.fine_m / 4
    areas = np.diff(grid.x_edges_m)[:, None] * np.diff(grid.y_edges_m)[None, :]
    nbn_area = float(areas[grid.eps == NBN_INDEX_1300 ** 2].sum())
    assert nbn_area == pytest.approx(cs.wires.count * cs.wires.width_m * cs.wires.thickness_m, rel=1e-6)


def test_clipped_window_bottom_is_the_lowest_interface(clipped_four_layer_case):
    """A window clipped at the substrate top starts on the lowest layer
    interface itself: no row of air below it, no sliver cell."""
    cs, policy = clipped_four_layer_case
    grid = sk.rasterize(cs, policy)
    lowest = cs.stack.finite_spans()[-1][0]
    assert cs.window_bottom_m == cs.stack.stack_bottom_m == lowest == grid.y_edges_m[0]
    assert np.diff(grid.y_edges_m).min() >= policy.fine_m / 4
    assert np.all(grid.eps[:, 0] == cs.index_of("GaAs") ** 2)


# -- construction validation ----------------------------------------------

def test_window_clearance_enforced(mats):
    stack = sk.LayerStack((
        sk.Layer("AlGaAs", 1.5e-6),
        sk.Layer("GaAs", 300e-9),
    ), "GaAs")
    ridge = sk.RidgeSpec(width_m=1.85e-6, etch_depth_m=250e-9)
    with pytest.raises(ConfigError, match="lateral clearance"):
        sk.CrossSection(stack, ridge, None, 4.0e-6, 3.6e-6, 1300e-9, mats)
    with pytest.raises(ConfigError, match="vertical clearance"):
        sk.CrossSection(stack, ridge, None, 6.0e-6, 2.0e-6, 1300e-9, mats)


def test_window_never_reaches_substrate(reference_cs):
    from dataclasses import replace

    assert reference_cs.window_bottom_m >= reference_cs.stack.stack_bottom_m
    tall = replace(reference_cs, window_height_m=6.0e-6)
    assert tall.window_bottom_m == pytest.approx(tall.stack.stack_bottom_m)
    assert tall.window_top_m - tall.window_bottom_m == pytest.approx(6.0e-6)


def test_etch_depth_budget(mats):
    stack = sk.LayerStack((
        sk.Layer("AlGaAs", 1.5e-6),
        sk.Layer("GaAs", 300e-9),
    ), "GaAs")
    with pytest.raises(ConfigError, match="etch depth"):
        sk.CrossSection(stack, sk.RidgeSpec(1.85e-6, 400e-9), None, 6e-6, 3.6e-6, 1300e-9, mats)


def test_overhanging_array_rejected(mats):
    stack = sk.LayerStack((
        sk.Layer("AlGaAs", 1.5e-6),
        sk.Layer("GaAs", 300e-9),
    ), "GaAs")
    wires = sk.NanowireArray(4, 100e-9, 250e-9, 4.3e-9, offset_m=600e-9)
    with pytest.raises(ConfigError, match="alignment margin"):
        sk.CrossSection(stack, sk.RidgeSpec(1.85e-6, 250e-9), wires, 6e-6, 3.6e-6, 1300e-9, mats)


def test_wire_pitch_validation():
    with pytest.raises(ConfigError, match="pitch"):
        sk.NanowireArray(4, 100e-9, 80e-9, 4.3e-9)
    sk.NanowireArray(1, 100e-9, 0.0, 4.3e-9)  # single wire: pitch unused


def test_stack_substrate_is_a_named_half_space(mats):
    """The substrate is a half-space below the layers, as the ambient is
    one above: one layer makes a stack, the window clips at the substrate
    top, and the substrate's material must be defined though no cell holds it."""
    stack = sk.LayerStack((sk.Layer("GaAs", 2e-6),), "AlGaAs")
    assert stack.finite_spans() == [(-2e-6, 0.0, "GaAs")]
    cs = sk.CrossSection(stack, sk.RidgeSpec(1.85e-6, 250e-9), None, 6e-6, 3.6e-6, 1300e-9, mats)
    grid = sk.rasterize(cs, sk.ResolutionPolicy(base_m=50e-9))
    assert not np.any(grid.eps == cs.index_of("AlGaAs") ** 2)
    with pytest.raises(ConfigError, match="material 'InP' referenced but not defined"):
        replace(cs, stack=replace(stack, substrate="InP"))


@pytest.mark.parametrize("changes, message", [
    ({"far_m": 0.0}, "cell sizes must be > 0"),
    ({"far_m": -5e-9}, "cell sizes must be > 0"),
    ({"x_base_m": 0.0}, "cell sizes must be > 0"),
    ({"x_base_m": -10e-9}, "cell sizes must be > 0"),
    ({"y_refine": ((-1e-6, 0.0, 0.0),)}, "cell sizes must be > 0"),
    ({"y_refine": ((-2e-6, -1e-6, 5e-9), (-1e-6, 0.0, -3e-9))}, "cell sizes must be > 0"),
    ({"edge_band_m": -1e-9}, "edge band"),
    ({"fine_m": 30e-9}, "fine cell size must not exceed the base cell size"),
], ids=["far-0", "far-negative", "x_base-0", "x_base-negative", "y_refine-0",
        "y_refine-negative", "edge_band-negative", "fine-above-base"])
def test_policy_rejects_bad_cells_at_construction(changes, message):
    """Every cell size is checked when the policy is built. These policies
    are never rasterized: a zero cell divides by zero there, and a negative
    graded cell size grows its list of cells without end."""
    with pytest.raises(ConfigError, match=message):
        sk.ResolutionPolicy(**changes)


def test_wires_have_no_cap_unless_one_is_named():
    wires = sk.NanowireArray(4, 100e-9, 250e-9, 4.3e-9)
    assert wires.cap_material is None
    assert wires.top_m == wires.thickness_m


def test_undefined_cap_material_without_cap_thickness_accepted(reference_cs):
    """A cap of zero thickness is no cap, so its material is never painted
    and need not be defined."""
    cs = replace(reference_cs, wires=replace(reference_cs.wires, cap_material="Al2O3", cap_thickness_m=0.0))
    assert cs.wires.top_m == cs.wires.thickness_m
    assert "Al2O3" not in [mat for mat, *_ in cs._boxes()]


@pytest.mark.parametrize("build, message", [
    (lambda: sk.LayerStack((), "GaAs"), "layer stack is empty"),
    (lambda: sk.RidgeSpec(0.0, 250e-9), "ridge width must be > 0"),
    (lambda: sk.RidgeSpec(1.85e-6, -1e-9), "etch depth must be > 0"),
    (lambda: sk.NanowireArray(0, 100e-9, 250e-9, 4.3e-9), "wire count must be >= 1"),
    (lambda: sk.NanowireArray(4, 0.0, 250e-9, 4.3e-9), "wire width and thickness must be > 0"),
    (lambda: sk.NanowireArray(4, 100e-9, 250e-9, -1e-9), "wire width and thickness must be > 0"),
    (lambda: sk.NanowireArray(4, 100e-9, 250e-9, 4.3e-9, cap_thickness_m=-1e-9),
     "cap thickness must be >= 0"),
    (lambda: sk.NanowireArray(4, 100e-9, 250e-9, 4.3e-9, cap_material=None, cap_thickness_m=1e-7),
     "cap thickness given without a cap material"),
    (lambda: sk.CrossSection(
        sk.LayerStack((sk.Layer("GaAs", 300e-9),), "GaAs", ambient="vacuum"),
        sk.RidgeSpec(1.85e-6, 250e-9), None, 6e-6, 3.6e-6, 1300e-9, sk.default_materials()),
     "material 'vacuum' referenced but not defined"),
    (lambda: PermittivityGrid(np.linspace(0, 1, 4), np.linspace(0, 1, 5), np.ones((3, 3), complex), 1300e-9),
     "eps array shape does not match"),
], ids=["empty-stack", "ridge-width-0", "etch-negative", "count-0", "width-0", "thickness-negative",
        "cap-negative", "cap-without-material", "undefined-material", "eps-shape"])
def test_construction_validation_raises(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


def test_min_clearance_constant():
    assert MIN_CLEARANCE_M == pytest.approx(1.5e-6)


@st.composite
def _cross_sections(draw):
    """A detector cross-section with a random stack of 1-4 finite layers,
    ridge and (optional, possibly offset, possibly capped, possibly
    touching) wire array, in a window that meets the clearance rule and
    may be tall enough to clip at the substrate top."""
    core_nm = draw(st.integers(150, 400))
    etch_nm = draw(st.integers(20, core_nm))
    ridge = sk.RidgeSpec(width_m=draw(st.integers(800, 2500)) * 1e-9, etch_depth_m=etch_nm * 1e-9)
    nms = draw(st.lists(st.integers(100, 1600), max_size=3)) + [core_nm]   # bottom to top
    nms[0] += max(0, 1500 + etch_nm - sum(nms))   # room for the clearance below the ridge
    mats = draw(st.lists(st.sampled_from(["GaAs", "AlGaAs"]), min_size=len(nms), max_size=len(nms)))
    stack = sk.LayerStack(tuple(sk.Layer(mat, nm * 1e-9) for mat, nm in zip(mats, nms)), "GaAs")
    wires = None
    if draw(st.booleans()):
        width_nm = draw(st.integers(40, 150))
        cap = draw(st.sampled_from(["SiOx", None]))
        wires = sk.NanowireArray(
            count=draw(st.integers(1, 5)), width_m=width_nm * 1e-9,
            pitch_m=(width_nm + draw(st.one_of(st.just(0), st.integers(0, 200)))) * 1e-9,
            thickness_m=draw(st.integers(4, 12)) * 1e-9, cap_material=cap,
            cap_thickness_m=draw(st.sampled_from([0, 60, 100])) * 1e-9 if cap else 0.0,
            offset_m=draw(st.one_of(st.just(0), st.integers(-300, 300))) * 1e-9)
        assume(sk.alignment_margin(ridge, wires) >= 0)
    top = wires.top_m if wires is not None else 0.0
    extra_m = draw(st.sampled_from([0.0, 2e-6, 6e-6]))
    return sk.CrossSection(stack, ridge, wires, ridge.width_m + 3.4e-6,
                           top + ridge.etch_depth_m + 3.4e-6 + extra_m, 1300e-9, sk.default_materials())


_POLICY = sk.ResolutionPolicy(base_m=50e-9)


def _on_grid_lines(positions, lines) -> bool:
    """Every position is a grid line, or lies within rounding of another
    position that is one (two computations of one shared interface, such
    as the touching edges of neighbouring wires, are one line)."""
    lines = set(lines.tolist())
    return all(p in lines or any(abs(p - q) < SAME_POSITION_M and q in lines for q in positions)
               for p in positions)


@settings(max_examples=30, deadline=None)
@given(cs=_cross_sections())
def test_rasterize_interfaces_on_grid_lines(cs):
    """Every material interface inside the window is exactly a grid line,
    and no cell is a rounding-error sliver."""
    grid = sk.rasterize(cs, _POLICY)
    xs = [-cs.ridge.width_m / 2, cs.ridge.width_m / 2]
    ys = [-cs.ridge.etch_depth_m]
    y = 0.0
    for lay in reversed(cs.stack.layers):
        ys.append(y)
        y -= lay.thickness_m
        ys.append(y)
    w = cs.wires
    if w is not None:
        n = w.count
        for k in range(n):
            c = (k - (n - 1) / 2) * w.pitch_m + w.offset_m
            xs += [c - w.width_m / 2, c + w.width_m / 2]
        ys += [w.thickness_m] + ([w.thickness_m + w.cap_thickness_m] if w.cap_material else [])
    y_lo, y_hi = grid.y_edges_m[0], grid.y_edges_m[-1]
    assert _on_grid_lines(xs, grid.x_edges_m)
    assert _on_grid_lines([v for v in ys if y_lo <= v <= y_hi], grid.y_edges_m)
    assert min(np.diff(grid.x_edges_m).min(), np.diff(grid.y_edges_m).min()) > 1e-12


def _material_at(cs, x: float, y: float) -> str:
    """Name of the material at the point (x, y), from the geometry alone."""
    w = cs.wires
    if w is not None and y > 0:
        n = w.count
        in_wire = any(abs(x - ((k - (n - 1) / 2) * w.pitch_m + w.offset_m)) < w.width_m / 2
                      for k in range(n))
        if in_wire and y < w.thickness_m:
            return w.material
        if in_wire and w.cap_material and y < w.thickness_m + w.cap_thickness_m:
            return w.cap_material
    if y > 0 or (y > -cs.ridge.etch_depth_m and abs(x) > cs.ridge.width_m / 2):
        return cs.stack.ambient
    top = 0.0
    for lay in reversed(cs.stack.layers):
        if y > top - lay.thickness_m:
            return lay.material
        top -= lay.thickness_m
    return cs.stack.substrate


@settings(max_examples=30, deadline=None)
@given(cs=_cross_sections())
def test_rasterize_eps_matches_geometry_at_cell_centres(cs):
    """The eps painted on each cell is that of the material at its centre."""
    grid = sk.rasterize(cs, _POLICY)
    eps_of = {name: cs.index_of(name) ** 2 for name in ("GaAs", "AlGaAs", "NbN", "SiOx", "air")}
    for i, x in enumerate(grid.x_centers_m.tolist()):
        for j, y in enumerate(grid.y_centers_m.tolist()):
            assert grid.eps[i, j] == eps_of[_material_at(cs, x, y)], (x, y)
