"""Fabry-Perot fringe analysis of a cleaved waveguide.

The cleaved chip forms a low-finesse cavity; the contrast of its transmission
fringes yields the facet power reflectivity and the absolute level yields the
fiber-to-waveguide coupling efficiency. Facets and couplers are assumed
symmetric throughout; an asymmetric extraction is underdetermined by the two
observables T_max and T_min.
"""

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

from ._numpy import np
from .errors import DomainError, InconsistencyError


@dataclass(frozen=True)
class FringeData:
    """Measured transmission extrema, plus the assumed single-pass
    propagation transmission ``a`` (default 1: negligible loss)."""

    t_max: float
    t_min: float
    single_pass: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.t_min < self.t_max <= 1.0:
            raise DomainError(
                f"extrema must satisfy 0 < T_min < T_max <= 1, got ({self.t_max}, {self.t_min})"
            )
        if not 0.0 < self.single_pass <= 1.0:
            raise DomainError("single-pass transmission must be in (0, 1]")


@dataclass(frozen=True)
class CouplingResult:
    facet_reflectivity: float      # R_f, power
    mode_match: float              # eta_m, per facet
    coupling: float                # eta_c = eta_m * (1 - R_f), from fiber input
    contrast: float                # K = sqrt(T_max / T_min)

    def __post_init__(self):
        if not 0.0 < self.facet_reflectivity < 1.0:
            raise DomainError("facet reflectivity must be in (0, 1)")
        if not 0.0 < self.mode_match <= 1.0:
            raise DomainError("mode-match efficiency must be in (0, 1]")


def fp_transmission(
    facet_reflectivity: float,
    mode_match: float,
    single_pass: float = 1.0,
    phase: float = 0.0,
) -> float:
    """Airy transmission of the symmetric fiber-waveguide-fiber cavity.

    T(phi) = eta_m^2 (1-R)^2 a / ((1 - R a)^2 + 4 R a sin^2(phi/2));
    maximal at phi = 0, minimal at phi = pi, 2 pi periodic.
    """
    r, eta, a = facet_reflectivity, mode_match, single_pass
    if not 0.0 <= r < 1.0:
        raise DomainError("facet reflectivity must be in [0, 1)")
    if not 0.0 < eta <= 1.0:
        raise DomainError("mode-match efficiency must be in (0, 1]")
    if not 0.0 < a <= 1.0:
        raise DomainError("single-pass transmission must be in (0, 1]")
    num = eta * eta * (1.0 - r) ** 2 * a
    den = (1.0 - r * a) ** 2 + 4.0 * r * a * math.sin(phase / 2.0) ** 2
    return num / den


def extract_coupling(fringes: FringeData) -> CouplingResult:
    """Invert measured fringe extrema into facet reflectivity and coupling.

    K = sqrt(T_max/T_min) gives R_f * a = (K-1)/(K+1); the absolute maximum
    then gives the per-facet mode match eta_m and the coupling efficiency
    from the fiber input eta_c = eta_m * (1 - R_f).
    """
    k = math.sqrt(fringes.t_max / fringes.t_min)
    ra = (k - 1.0) / (k + 1.0)
    a = fringes.single_pass
    r = ra / a
    if r >= 1.0:
        raise InconsistencyError(
            f"extracted facet reflectivity {r:.3f} >= 1; the assumed single-pass "
            f"transmission {a} is too small for this contrast"
        )
    eta_m = math.sqrt(fringes.t_max) * (1.0 - ra) / ((1.0 - r) * math.sqrt(a))
    if eta_m > 1.0 + 1e-12:
        raise InconsistencyError(
            f"extracted mode match {eta_m:.3f} > 1: extrema inconsistent with "
            "a passive symmetric cavity"
        )
    return CouplingResult(
        facet_reflectivity=r,
        mode_match=min(eta_m, 1.0),
        coupling=min(eta_m, 1.0) * (1.0 - r),
        contrast=k,
    )


def fresnel_reflectivity(n_eff: float) -> float:
    """Normal-incidence Fresnel estimate ((n-1)/(n+1))^2 for the facet,
    a sanity band for the extracted reflectivity rather than an equality."""
    if n_eff < 1.0:
        raise DomainError("effective index must be >= 1")
    return ((n_eff - 1.0) / (n_eff + 1.0)) ** 2


def read_fringe_scan(path: str | Path, single_pass: float = 1.0) -> FringeData:
    """Load a fringe scan CSV (wavelength_nm, transmission) and pick robust
    extrema as the 95th/5th percentiles of the transmission samples.

    Blank and ``#`` comment rows are skipped, and so are non-numeric rows
    before the first data row (headers). A later non-numeric row, a row
    with one column, a non-finite wavelength or a transmission that is not
    a number in [0, 1] is a DomainError naming its line: the percentiles
    would silently drop an outlier, and a NaN would spoil both extrema. So
    is a file that cannot be read as UTF-8 text (missing, a directory)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"fringe scan {path} cannot be read: {exc}") from exc
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    for row in reader:
        if not row or row[0].lstrip().startswith("#"):
            continue
        try:
            wavelength, transmission = float(row[0]), float(row[1])
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ValueError) and not rows:
                continue  # header row
            raise DomainError(f"fringe scan {path} line {reader.line_num}: "
                              "expected wavelength_nm, transmission") from None
        if not (math.isfinite(wavelength) and 0.0 <= transmission <= 1.0):
            raise DomainError(f"fringe scan {path} line {reader.line_num}: needs a finite "
                              f"wavelength and a transmission in [0, 1], got {row[0]}, {row[1]}")
        rows.append((wavelength, transmission))
    if len(rows) < 10:
        raise DomainError(f"fringe scan {path} has fewer than 10 samples")
    t = np.array([r[1] for r in rows])
    t_max = float(np.percentile(t, 95.0))
    t_min = float(np.percentile(t, 5.0))
    return FringeData(t_max=t_max, t_min=t_min, single_pass=single_pass)
