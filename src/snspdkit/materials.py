"""Optical materials: tabulated complex refractive indices and lookups.

Sign convention: indices are stored as ``n - 1j*k`` with ``k >= 0``, so an
absorbing material has a complex index with a non-positive imaginary part.
Downstream the mode solver reports absorbing guided modes with
``Im(n_eff) >= 0`` and a positive power absorption coefficient.

Shipped dispersion sources (1260-1360 nm band):

* GaAs and AlxGa1-xAs -- modified single-oscillator model of
  Afromowitz, Solid State Commun. 15, 59 (1974).
* SiOx -- fused-silica Sellmeier fit of Malitson, J. Opt. Soc. Am. 55,
  1205 (1965); the oxide left on top of the wires is treated as silica.
* NbN -- 5.23 - 5.82j measured at 1300 nm on sputtered ultrathin films
  (Anant et al., Opt. Express 16, 10750 (2008)), held constant over the
  shipped band.
* air -- n = 1.
"""

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass, field

from .constants import E_CHARGE, HC
from .errors import DomainError, WavelengthRangeError

# Wavelengths given in nm are converted as nm / 1e9 (correctly rounded), so
# 1360 nm maps to exactly BAND_M[1]; the shipped tables sample whole nm.
BAND_NM = (1260, 1360)
BAND_M = (BAND_NM[0] / 1e9, BAND_NM[1] / 1e9)   # wavelength range covered by shipped tables
_TABLE_STEP_NM = 5

NBN_INDEX_1300 = complex(5.23, -5.82)


@dataclass(frozen=True, eq=False)
class Material:
    """A named material with a tabulated complex index vs wavelength.

    ``wavelengths_m`` must be strictly increasing and every entry finite;
    real and imaginary parts are interpolated linearly and independently
    between table nodes.
    """

    name: str
    wavelengths_m: tuple[float, ...]
    indices: tuple[complex, ...] = field(repr=False)

    def __post_init__(self):
        if len(self.wavelengths_m) == 0:
            raise DomainError(f"material {self.name!r}: empty index table")
        if len(self.wavelengths_m) != len(self.indices):
            raise DomainError(f"material {self.name!r}: table length mismatch")
        wl = self.wavelengths_m
        # in the positive form, so that a NaN wavelength fails it too
        if not all(b > a for a, b in zip(wl, wl[1:])):
            raise DomainError(f"material {self.name!r}: wavelengths not strictly increasing")
        for w, nk in zip(wl, self.indices):
            if not (math.isfinite(w) and cmath.isfinite(nk)):
                raise DomainError(f"material {self.name!r}: non-finite table entry {nk} at {w} m")
            if nk.real <= 0:
                raise DomainError(f"material {self.name!r}: Re(n) must be > 0, got {nk}")
            if nk.imag > 0:
                raise DomainError(
                    f"material {self.name!r}: index must be given as n - 1j*k with k >= 0, got {nk}"
                )


def lookup_index(material: Material, wavelength_m: float) -> complex:
    """Complex refractive index ``n - 1j*k`` at a wavelength inside the table.

    Clamping is forbidden: a wavelength outside the tabulated range raises
    :class:`WavelengthRangeError` naming the material.
    """
    lo, hi = material.wavelengths_m[0], material.wavelengths_m[-1]
    if not (lo <= wavelength_m <= hi):
        raise WavelengthRangeError(material.name, wavelength_m, lo, hi)
    # numpy.interp's arithmetic, part by part: the node value at a node and
    # at the upper edge, else the left value plus slope times offset
    wl, idx = material.wavelengths_m, material.indices
    j = bisect_right(wl, wavelength_m) - 1
    if j == len(wl) - 1 or wl[j] == wavelength_m:
        return complex(idx[j])
    a, b = idx[j], idx[j + 1]
    dx, width = wavelength_m - wl[j], wl[j + 1] - wl[j]
    return complex((b.real - a.real) / width * dx + a.real, (b.imag - a.imag) / width * dx + a.imag)


# ---------------------------------------------------------------------------
# dispersion models used to populate the shipped tables
# ---------------------------------------------------------------------------

def algaas_index(wavelength_m: float, aluminum_fraction: float) -> float:
    """Real index of AlxGa1-xAs below the band gap (Afromowitz 1974)."""
    x = aluminum_fraction
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"aluminum fraction must be in [0, 1], got {x}")
    e = HC / wavelength_m / E_CHARGE  # photon energy [eV]
    e0 = 3.65 + 0.871 * x + 0.179 * x**2
    ed = 36.1 - 2.45 * x
    eg = 1.424 + 1.266 * x + 0.26 * x**2
    if e >= eg:
        raise DomainError(
            f"photon energy {e:.3f} eV above the AlGaAs gap {eg:.3f} eV (x={x}); "
            "model valid only in the transparent region"
        )
    eta = math.pi * ed / (2 * e0**3 * (e0**2 - eg**2))
    n2 = (
        1.0
        + ed / e0
        + ed * e**2 / e0**3
        + (eta / math.pi) * e**4 * math.log((2 * e0**2 - eg**2 - e**2) / (eg**2 - e**2))
    )
    return math.sqrt(n2)


def gaas_index(wavelength_m: float) -> float:
    """Real index of GaAs (Afromowitz model at x = 0)."""
    return algaas_index(wavelength_m, 0.0)


def silica_index(wavelength_m: float) -> float:
    """Real index of fused silica (Malitson 1965 Sellmeier)."""
    lam = wavelength_m * 1e6  # model is parameterized in microns
    lam2 = lam * lam
    n2 = 1.0
    for b, c in ((0.6961663, 0.0684043), (0.4079426, 0.1162414), (0.8974794, 9.896161)):
        n2 += b * lam2 / (lam2 - c * c)
    return math.sqrt(n2)


def _sampled_material(name, model) -> Material:
    wl = tuple(nm / 1e9 for nm in range(BAND_NM[0], BAND_NM[1] + 1, _TABLE_STEP_NM))
    return Material(name, wl, tuple(complex(model(w), 0.0) for w in wl))


def make_builtin_material(name: str, kind: str, aluminum_fraction: float | None = None) -> Material:
    """Construct one of the shipped materials.

    ``kind`` is one of ``gaas``, ``algaas``, ``nbn``, ``siox``, ``air``.
    ``aluminum_fraction`` is the Al fraction x of an ``algaas`` material
    (None takes 0.75, the paper's cladding; 0.70 is the other value in
    circulation for this stack); any other kind given one is refused.
    """
    kind = kind.lower()
    if kind == "algaas":
        x = 0.75 if aluminum_fraction is None else aluminum_fraction
        return _sampled_material(name, lambda w: algaas_index(w, x))
    if aluminum_fraction is not None:
        raise DomainError(f"aluminum fraction applies only to algaas, not {kind!r}")
    if kind == "gaas":
        return _sampled_material(name, gaas_index)
    if kind == "siox":
        return _sampled_material(name, silica_index)
    if kind == "air":
        return Material(name, BAND_M, (complex(1.0, 0.0), complex(1.0, 0.0)))
    if kind == "nbn":
        return Material(name, BAND_M, (NBN_INDEX_1300, NBN_INDEX_1300))
    raise DomainError(f"unknown builtin material kind {kind!r}")


def default_materials() -> dict[str, Material]:
    """The shipped material set keyed by name."""
    return {
        "GaAs": make_builtin_material("GaAs", "gaas"),
        "AlGaAs": make_builtin_material("AlGaAs", "algaas"),
        "NbN": make_builtin_material("NbN", "nbn"),
        "SiOx": make_builtin_material("SiOx", "siox"),
        "air": make_builtin_material("air", "air"),
    }
