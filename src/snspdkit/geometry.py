"""Layer stack, ridge and nanowire-array geometry, and grid rasterization.

Coordinate conventions
----------------------
* y = 0 at the top surface of the top (unetched) epitaxial layer; y grows
  upward. Layers stack downward, wires and their cap sit on top of the
  ridge at y >= 0.
* x = 0 at the ridge center; the simulation window is laterally centered
  on the ridge.
* The window is placed vertically so the clearance above the highest solid
  feature (cap or ridge top) equals the clearance below the ridge bottom
  (the etched surface), except that the window never reaches into the
  semi-infinite substrate: a zero-field wall inside a high-index substrate
  would manufacture spurious box resonances, so the window bottom is
  clipped to the substrate top and the excess height moves to the air
  side. The substrate is thus a half-space like the ambient: its material
  is validated but never painted into a cell. Construction requires
  >= 1.5 um of cladding/air between the ridge+array bounding box and every
  window edge.

The section is one ordered table of boxes ``(material, x0, x1, y0, y1)``
over the ambient: layers, etched trenches, then each wire and its
cap. Rasterization makes every box edge inside the window a grid line
(edges closer than ``SAME_POSITION_M`` are one line) and paints per-cell
``eps = (n - 1j*k)**2`` box by box by cell midpoint: no sub-cell averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

from ._numpy import np
from .errors import ConfigError, DomainError
from .materials import Material, lookup_index

MIN_CLEARANCE_M = 1.5e-6   # mandated cladding/air margin around ridge + array
GROWTH = 1.6               # size ratio of neighbouring cells in a graded band
SAME_POSITION_M = 1e-15    # positions closer than this differ only by rounding


@dataclass(frozen=True)
class Layer:
    material: str
    thickness_m: float

    def __post_init__(self):
        if not self.thickness_m > 0:
            raise ConfigError(f"layer {self.material!r}: thickness must be > 0")


@dataclass(frozen=True)
class LayerStack:
    """Finite layers ordered bottom-to-top between two half-spaces: the
    ``substrate`` below and the ``ambient`` above. The window clips at the
    substrate top, so its material is validated but never painted."""

    layers: tuple[Layer, ...]
    substrate: str
    ambient: str = "air"

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("layer stack is empty")

    @property
    def top_layer(self) -> Layer:
        return self.layers[-1]

    def finite_spans(self) -> list[tuple[float, float, str]]:
        """(y_bottom, y_top, material) for each layer, top first, y=0 on top."""
        spans = []
        y_top = 0.0
        for lay in reversed(self.layers):
            y_bot = y_top - lay.thickness_m
            spans.append((y_bot, y_top, lay.material))
            y_top = y_bot
        return spans

    @property
    def stack_bottom_m(self) -> float:
        """y of the substrate top surface."""
        return self.finite_spans()[-1][0]


@dataclass(frozen=True)
class RidgeSpec:
    width_m: float
    etch_depth_m: float

    def __post_init__(self):
        if self.width_m <= 0:
            raise ConfigError("ridge width must be > 0")
        if self.etch_depth_m <= 0:
            raise ConfigError("etch depth must be > 0")


@dataclass(frozen=True)
class NanowireArray:
    count: int
    width_m: float
    pitch_m: float
    thickness_m: float
    material: str = "NbN"
    cap_material: str | None = None
    cap_thickness_m: float = 0.0
    offset_m: float = 0.0

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("wire count must be >= 1")
        if self.width_m <= 0 or self.thickness_m <= 0:
            raise ConfigError("wire width and thickness must be > 0")
        if self.count > 1 and self.pitch_m < self.width_m:
            raise ConfigError("wire pitch must be >= wire width (non-overlapping wires)")
        if self.cap_thickness_m < 0:
            raise ConfigError("cap thickness must be >= 0")
        if self.cap_thickness_m > 0 and not self.cap_material:
            raise ConfigError("cap thickness given without a cap material")

    @property
    def extent_m(self) -> float:
        return (self.count - 1) * self.pitch_m + self.width_m

    @property
    def top_m(self) -> float:
        return self.thickness_m + self.cap_thickness_m

    def wire_centers(self) -> list[float]:
        """Wire center x positions [m]."""
        half = (self.count - 1) / 2.0
        return [(k - half) * self.pitch_m + self.offset_m for k in range(self.count)]


def alignment_margin(ridge: RidgeSpec, array: NanowireArray) -> float:
    """Lateral clearance between the array edge and the ridge edge [m].

    Negative values indicate an invalid placement (array hangs over the
    ridge edge); no error is raised here.
    """
    return (ridge.width_m - array.extent_m) / 2.0 - abs(array.offset_m)


@dataclass(frozen=True, eq=False)
class CrossSection:
    stack: LayerStack
    ridge: RidgeSpec
    wires: NanowireArray | None
    window_width_m: float
    window_height_m: float
    wavelength_m: float
    materials: dict[str, Material] = field(repr=False)

    def __post_init__(self):
        # the half-spaces have no box, so they are named as well as the boxes
        named = [self.stack.substrate, self.stack.ambient]
        for name in dict.fromkeys(named + [mat for mat, *_ in self._boxes()]):
            if name not in self.materials:
                raise ConfigError(f"material {name!r} referenced but not defined")
            # early wavelength-range validation with a precise error
            lookup_index(self.materials[name], self.wavelength_m)
        top = self.stack.top_layer
        if self.ridge.etch_depth_m > top.thickness_m:
            raise ConfigError(
                f"etch depth {self.ridge.etch_depth_m * 1e9:.0f} nm exceeds the "
                f"top-layer thickness {top.thickness_m * 1e9:.0f} nm"
            )
        if self.wires is not None and alignment_margin(self.ridge, self.wires) < 0:
            raise ConfigError("nanowire array extends past the ridge edge (negative alignment margin)")
        # the margin check above keeps any wire array inside the ridge
        lat = self.window_width_m / 2.0 - self.ridge.width_m / 2.0
        if lat < MIN_CLEARANCE_M - SAME_POSITION_M:
            raise ConfigError(
                f"window leaves only {lat * 1e6:.2f} um lateral clearance; "
                f">= {MIN_CLEARANCE_M * 1e6:.1f} um required"
            )
        if self.vertical_clearance_m < MIN_CLEARANCE_M - SAME_POSITION_M:
            raise ConfigError(
                f"window leaves only {self.vertical_clearance_m * 1e6:.2f} um vertical clearance; "
                f">= {MIN_CLEARANCE_M * 1e6:.1f} um required"
            )

    def _boxes(self) -> list[tuple[str, float, float, float, float]]:
        """The section as (material, x0, x1, y0, y1) boxes in paint order over
        the ambient: layers, etched trenches, then each wire and its cap.
        The substrate needs no box: the window never reaches below its top."""
        ambient, half, etch = self.stack.ambient, self.ridge.width_m / 2.0, -self.ridge.etch_depth_m
        boxes = [(mat, -math.inf, math.inf, lo, hi) for lo, hi, mat in self.stack.finite_spans()]
        boxes += [(ambient, -math.inf, -half, etch, 0.0), (ambient, half, math.inf, etch, 0.0)]
        w = self.wires
        if w is not None:
            for c in w.wire_centers():
                x0, x1 = c - w.width_m / 2.0, c + w.width_m / 2.0
                boxes.append((w.material, x0, x1, 0.0, w.thickness_m))
                if w.cap_thickness_m > 0:
                    boxes.append((w.cap_material, x0, x1, w.thickness_m, w.top_m))
        return boxes

    # -- vertical window placement -------------------------------------

    @property
    def feature_top_m(self) -> float:
        return self.wires.top_m if self.wires is not None else 0.0

    @property
    def feature_bottom_m(self) -> float:
        return -self.ridge.etch_depth_m

    @property
    def window_bottom_m(self) -> float:
        half = (self.window_height_m - (self.feature_top_m - self.feature_bottom_m)) / 2.0
        return max(self.feature_bottom_m - half, self.stack.stack_bottom_m)

    @property
    def window_top_m(self) -> float:
        return self.window_bottom_m + self.window_height_m

    @property
    def vertical_clearance_m(self) -> float:
        return min(
            self.window_top_m - self.feature_top_m,
            self.feature_bottom_m - self.window_bottom_m,
        )

    def index_of(self, material_name: str) -> complex:
        return lookup_index(self.materials[material_name], self.wavelength_m)


@dataclass(frozen=True)
class ResolutionPolicy:
    """Grid sizing: base cells everywhere, fine cells across the wire layer
    with geometrically graded bands around it and around each wire edge
    (the field is sharpest at the metal corners), and coarser cells far
    from the ridge/core region.

    ``y_refine`` entries (y0_m, y1_m, cell_m) force a cell size over explicit
    vertical ranges (used e.g. to resolve a buried core without wires).
    """

    base_m: float = 25e-9
    fine_m: float = 2e-9
    band_m: float = 40e-9
    edge_band_m: float = 20e-9        # lateral grading band at each wire edge
    far_m: float | None = None        # defaults to 2.5 * base
    far_margin_m: float = 0.5e-6
    x_base_m: float | None = None     # defaults to base
    y_refine: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if min(self.fine_m, self.base_m, self.far, self.x_base, *(c for _, _, c in self.y_refine)) <= 0:
            raise ConfigError("cell sizes must be > 0")
        if self.fine_m > self.base_m:
            raise ConfigError("fine cell size must not exceed the base cell size")
        if min(self.band_m, self.edge_band_m, self.far_margin_m) < 0:
            raise ConfigError("band, edge band and far margin must be >= 0")

    @property
    def far(self) -> float:
        return self.far_m if self.far_m is not None else 2.5 * self.base_m

    @property
    def x_base(self) -> float:
        return self.x_base_m if self.x_base_m is not None else self.base_m

    def refined(self, factor: float) -> "ResolutionPolicy":
        """Uniformly shrink every cell size by ``factor`` (band unchanged)."""
        return self.bulk_refined(factor, fine_m=self.fine_m / factor)

    def bulk_refined(self, factor: float, **changes) -> "ResolutionPolicy":
        """Shrink only the bulk cell sizes (base, x_base, far) by ``factor``,
        keeping the near-wire resolution pinned. Used for convergence
        ladders: the wire cells sit at their mandated floor already, so the
        controllable error lives in the bulk discretization. ``changes``
        sets further fields in the same step: a policy with only its bulk
        or only its fine cells scaled can fail validation (fine > base)."""
        return replace(
            self,
            base_m=self.base_m / factor,
            x_base_m=self.x_base / factor,
            far_m=self.far / factor,
            y_refine=tuple((a, b, c / factor) for a, b, c in self.y_refine),
            **changes,
        )


@dataclass(frozen=True, eq=False)
class PermittivityGrid:
    """Cell-edge coordinates plus per-cell complex relative permittivity.

    ``eps[i, j]`` belongs to the cell between ``x_edges[i:i+2]`` and
    ``y_edges[j:j+2]`` and equals ``(n - 1j*k)**2`` of the material there
    at ``wavelength_m``. The edges are the mode solver's field nodes.
    """

    x_edges_m: np.ndarray
    y_edges_m: np.ndarray
    eps: np.ndarray = field(repr=False)
    wavelength_m: float

    def __post_init__(self):
        for arr in (self.x_edges_m, self.y_edges_m, self.eps):
            arr.setflags(write=False)
        if self.eps.shape != (len(self.x_edges_m) - 1, len(self.y_edges_m) - 1):
            raise ConfigError("eps array shape does not match the grid edges")
        if not self.wavelength_m > 0:   # NaN too
            raise DomainError("wavelength must be > 0")

    @property
    def k0(self) -> float:
        """Vacuum wavenumber 2*pi/lambda [1/m]."""
        return 2.0 * math.pi / self.wavelength_m


# ---------------------------------------------------------------------------
# grid-line construction
# ---------------------------------------------------------------------------

def _subdivide(a: float, b: float, target: float) -> list[float]:
    """Interior points splitting [a, b] into uniform cells no wider than target."""
    n = max(1, math.ceil((b - a) / target - 1e-9))
    return [a + (b - a) * k / n for k in range(1, n)]


def _graded(a: float, b: float, fine: float, coarse: float, anchor_low: bool) -> list[float]:
    """Interior points of [a, b] graded geometrically from ``fine`` at the
    anchored end toward ``coarse`` at the other end."""
    span = b - a
    sizes = [fine]
    while sum(sizes) < span:
        sizes.append(min(sizes[-1] * GROWTH, coarse))
    scale = span / sum(sizes)
    sizes = [s * scale for s in sizes]
    pts = []
    acc = 0.0
    for s in sizes[:-1]:
        acc += s
        pts.append(a + acc if anchor_low else b - acc)
    return sorted(pts)


def _merge_lines(mandatory: list[float], soft: list[float], min_sep: float) -> list[float]:
    """Sorted union of grid lines. Mandatory lines closer than
    ``SAME_POSITION_M`` are one line (the lowest); soft lines too close to
    kept lines are dropped."""
    keep: list[float] = []
    for m in sorted(mandatory):
        if not keep or m - keep[-1] >= SAME_POSITION_M:
            keep.append(m)
    for s in sorted(set(soft)):
        if all(abs(s - m) > min_sep for m in keep):
            keep.append(s)
    return sorted(keep)


def _build_axis(mandatory, soft, zones, min_sep):
    """Grid nodes along one axis. ``zones`` is a list of (lo, hi, fill) in
    priority order, the last covering everything: each interval between
    adjacent merged lines gets the interior points ``fill(a, b)`` of the
    first zone whose range holds the interval midpoint."""
    lines = _merge_lines(mandatory, soft, min_sep)
    nodes = [lines[0]]
    for a, b in zip(lines[:-1], lines[1:]):
        mid = 0.5 * (a + b)
        fill = next(fill for lo, hi, fill in zones if lo <= mid <= hi)
        nodes += fill(a, b)
        nodes.append(b)
    return nodes


def rasterize(cs: CrossSection, policy: ResolutionPolicy | None = None) -> PermittivityGrid:
    """Paint the cross-section onto a nonuniform tensor grid.

    Every material interface lands exactly on a grid line; box edges closer
    than ``SAME_POSITION_M`` share one line. Raises
    :class:`ConfigError` if the policy cannot place >= 2 cells across the
    wire thickness or >= 4 cells across each wire width.
    """
    if policy is None:
        policy = ResolutionPolicy()
    wires = cs.wires
    boxes = cs._boxes()
    half_w = cs.window_width_m / 2.0
    min_sep = policy.fine_m / 4.0

    def uniform(size):
        return partial(_subdivide, target=size)

    def graded(coarse, anchor_low):
        return partial(_graded, fine=policy.fine_m, coarse=coarse, anchor_low=anchor_low)

    # ---- vertical lines ------------------------------------------------
    y_bot, y_top = cs.window_bottom_m, cs.window_top_m
    y_mand = [y_bot, y_top] + [y for *_, y0, y1 in boxes for y in (y0, y1) if y_bot < y < y_top]
    y_soft: list[float] = []
    zones_y: list[tuple] = []
    if wires is not None:
        t_w = wires.thickness_m
        band_lo, band_hi = -policy.band_m, t_w + policy.band_m
        y_soft += [band_lo, band_hi]
        zones_y.append((0.0, t_w, uniform(policy.fine_m)))
        zones_y.append((band_lo, 0.0, graded(policy.base_m, False)))
        zones_y.append((t_w, band_hi, graded(policy.base_m, True)))
    for y0, y1, size in policy.y_refine:
        y_soft += [y0, y1]
        zones_y.append((y0, y1, uniform(size)))
    # far zones: away from the guiding region (top epi layer + features)
    far_lo = -cs.stack.top_layer.thickness_m - policy.far_margin_m
    far_hi = cs.feature_top_m + policy.far_margin_m
    y_soft += [far_lo, far_hi]
    zones_y.append((-np.inf, far_lo, uniform(policy.far)))
    zones_y.append((far_hi, np.inf, uniform(policy.far)))
    zones_y.append((-np.inf, np.inf, uniform(policy.base_m)))
    y_soft = [y for y in y_soft if y_bot < y < y_top]
    y_nodes = _build_axis(y_mand, y_soft, zones_y, min_sep)

    # ---- horizontal lines ----------------------------------------------
    # For mirror-symmetric sections only the non-negative side is
    # constructed and then reflected, which makes the grid exactly symmetric.
    x_mand = [-half_w, half_w] + [x for _, x0, x1, *_ in boxes for x in (x0, x1) if -half_w < x < half_w]
    ridge_hi = cs.ridge.width_m / 2.0 + policy.far_margin_m
    x_soft = [ridge_hi]
    zones_x: list[tuple] = []
    if wires is not None:
        eb = policy.edge_band_m
        for c in wires.wire_centers():
            for edge in (c - wires.width_m / 2.0, c + wires.width_m / 2.0):
                x_soft += [edge - eb, edge + eb]
                zones_x.append((edge - eb, edge, graded(policy.x_base, False)))
                zones_x.append((edge, edge + eb, graded(policy.x_base, True)))
        arr_lo = wires.offset_m - wires.extent_m / 2.0
        arr_hi = wires.offset_m + wires.extent_m / 2.0
        x_soft += [arr_lo - policy.band_m, arr_hi + policy.band_m]
        zones_x.append((arr_lo - policy.band_m, arr_hi + policy.band_m, uniform(policy.x_base)))
    zones_x.append((-ridge_hi, ridge_hi, uniform(policy.x_base)))
    zones_x.append((-np.inf, np.inf, uniform(policy.far)))

    symmetric = wires is None or wires.offset_m == 0.0
    if symmetric:
        pos_mand = [abs(v) for v in x_mand] + [0.0]
        pos_soft = [abs(v) for v in x_soft]
        pos_nodes = _build_axis(pos_mand, [s for s in pos_soft if 0 < s < half_w], zones_x, min_sep)
        x_nodes = [-v for v in reversed(pos_nodes[1:])] + pos_nodes
    else:
        soft = x_soft + [-s for s in x_soft]
        x_nodes = _build_axis(x_mand, [s for s in soft if -half_w < s < half_w], zones_x, min_sep)

    x_edges = np.asarray(x_nodes, dtype=float)
    y_edges = np.asarray(y_nodes, dtype=float)

    # ---- paint cells -----------------------------------------------------
    xm = 0.5 * (x_edges[1:] + x_edges[:-1])
    ym = 0.5 * (y_edges[1:] + y_edges[:-1])
    if wires is not None:
        if np.count_nonzero((ym > 0.0) & (ym < wires.thickness_m)) < 2:
            raise ConfigError("resolution policy places fewer than 2 cells across the wire thickness")
        if any(np.count_nonzero(np.abs(xm - c) < wires.width_m / 2.0) < 4 for c in wires.wire_centers()):
            raise ConfigError("resolution policy places fewer than 4 cells across a wire width")
    eps = np.full((len(xm), len(ym)), cs.index_of(cs.stack.ambient) ** 2, dtype=complex)
    for mat, x0, x1, y0, y1 in boxes:
        eps[np.ix_((xm > x0) & (xm < x1), (ym > y0) & (ym < y1))] = cs.index_of(mat) ** 2

    return PermittivityGrid(x_edges, y_edges, eps, cs.wavelength_m)
