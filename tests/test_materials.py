import math

import numpy as np
import pytest

from snspdkit.errors import DomainError, WavelengthRangeError
from snspdkit.materials import (
    BAND_M,
    BAND_NM,
    Material,
    algaas_index,
    default_materials,
    gaas_index,
    lookup_index,
    make_builtin_material,
    silica_index,
)

EV = 1.602176634e-19
HC = 6.62607015e-34 * 299792458.0


def afromowitz_oracle(wavelength_m, x):
    """Independent transcription of the published single-oscillator model."""
    e = HC / wavelength_m / EV
    e0 = 3.65 + 0.871 * x + 0.179 * x * x
    ed = 36.1 - 2.45 * x
    eg = 1.424 + 1.266 * x + 0.26 * x * x
    eta = math.pi * ed / (2 * e0**3 * (e0**2 - eg**2))
    n2 = (1 + ed / e0 + ed * e * e / e0**3
          + (eta / math.pi) * e**4 * math.log((2 * e0**2 - eg**2 - e * e) / (eg**2 - e * e)))
    return math.sqrt(n2)


def test_nbn_lookup_at_1300nm():
    mats = default_materials()
    assert lookup_index(mats["NbN"], 1300e-9) == complex(5.23, -5.82)


def test_single_entry_material_identity():
    m = Material("probe", (1310e-9,), (complex(2.5, -0.25),))
    assert lookup_index(m, 1310e-9) == complex(2.5, -0.25)
    with pytest.raises(WavelengthRangeError):
        lookup_index(m, 1311e-9)


def test_gaas_matches_published_model():
    # oracle value frozen from the independent transcription above
    assert afromowitz_oracle(1300e-9, 0.0) == pytest.approx(3.413022, abs=1e-6)
    mats = default_materials()
    got = lookup_index(mats["GaAs"], 1300e-9)
    assert got.real == pytest.approx(afromowitz_oracle(1300e-9, 0.0), abs=2e-5)
    assert got.imag == 0.0
    assert got.real == pytest.approx(3.41, abs=0.01)


def test_algaas_fraction_options():
    n75 = algaas_index(1300e-9, 0.75)
    n70 = algaas_index(1300e-9, 0.70)
    assert n75 == pytest.approx(afromowitz_oracle(1300e-9, 0.75), rel=1e-12)
    assert n70 > n75  # less aluminum, higher index
    assert gaas_index(1300e-9) > n70


def test_silica_index_value():
    # Malitson fused-silica fit at 1300 nm
    assert silica_index(1300e-9) == pytest.approx(1.4469, abs=2e-4)


def test_out_of_range_names_material():
    mats = default_materials()
    with pytest.raises(WavelengthRangeError, match="GaAs"):
        lookup_index(mats["GaAs"], 1500e-9)
    with pytest.raises(WavelengthRangeError, match="NbN"):
        lookup_index(mats["NbN"], 1200e-9)


def test_interpolation_exact_at_nodes_and_monotone_between():
    mats = default_materials()
    for mat in mats.values():
        wl = np.asarray(mat.wavelengths_m)
        idx = np.asarray(mat.indices)
        for w, n in zip(wl, idx):
            assert lookup_index(mat, float(w)) == pytest.approx(n, abs=0)
        # linear interpolation stays within the bracketing node values
        for k in range(len(wl) - 1):
            mid = 0.5 * (wl[k] + wl[k + 1])
            got = lookup_index(mat, float(mid)).real
            lo, hi = sorted((idx[k].real, idx[k + 1].real))
            assert lo - 1e-12 <= got <= hi + 1e-12


def _bits(z) -> tuple[str, str]:
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _numpy_lookup(material, wavelength_m):
    """Linear interpolation of each part by numpy.interp."""
    wl, idx = np.asarray(material.wavelengths_m), np.asarray(material.indices)
    return complex(np.interp(wavelength_m, wl, idx.real), np.interp(wavelength_m, wl, idx.imag))


def _numpy_algaas(wavelength_m, x):
    """The Afromowitz formula of ``algaas_index`` term by term, on numpy
    float64 scalars with numpy's log and sqrt."""
    e = HC / np.float64(wavelength_m) / EV
    e0 = 3.65 + 0.871 * x + 0.179 * x**2
    ed = 36.1 - 2.45 * x
    eg = 1.424 + 1.266 * x + 0.26 * x**2
    eta = np.pi * ed / (2 * e0**3 * (e0**2 - eg**2))
    n2 = (1.0 + ed / e0 + ed * e**2 / e0**3
          + (eta / np.pi) * e**4 * np.log((2 * e0**2 - eg**2 - e**2) / (eg**2 - e**2)))
    return float(np.sqrt(n2))


def _numpy_silica(wavelength_m):
    lam2 = (np.float64(wavelength_m) * 1e6) ** 2
    n2 = 1.0
    for b, c in ((0.6961663, 0.0684043), (0.4079426, 0.1162414), (0.8974794, 9.896161)):
        n2 += b * lam2 / (lam2 - c * c)
    return float(np.sqrt(n2))


@pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 0.7, 0.75, 1.0])
def test_tables_and_lookup_match_numpy_bit_for_bit(x):
    """The pure-Python tables and interpolation give numpy's float64 answers
    exactly: the tables against the same formulas evaluated with numpy's
    log and sqrt on numpy's arange grid, and ``lookup_index`` against
    numpy.interp on a dense grid, at every node and at both band edges."""
    nodes = np.arange(BAND_NM[0], BAND_NM[1] + 1, 5) / 1e9
    mats = {**default_materials(), "AlGaAs": make_builtin_material("AlGaAs", "algaas", x)}
    probe = Material("probe", (1260e-9, 1283.7e-9, 1300e-9, 1360e-9),
                     (complex(2.0, -0.1), complex(2.3, -0.0), complex(2.1, -0.4), complex(1.9, -0.2)))
    expected = {"GaAs": [_numpy_algaas(w, 0.0) for w in nodes],
                "AlGaAs": [_numpy_algaas(w, x) for w in nodes],
                "SiOx": [_numpy_silica(w) for w in nodes]}
    for name, table in expected.items():
        assert mats[name].wavelengths_m == tuple(nodes.tolist())
        assert [_bits(n) for n in mats[name].indices] == [_bits(n) for n in table], name
    grid = np.linspace(*BAND_M, 4001).tolist() + list(BAND_M)
    for mat in [*mats.values(), probe]:
        for w in grid + list(mat.wavelengths_m):
            assert _bits(lookup_index(mat, w)) == _bits(_numpy_lookup(mat, w)), (mat.name, w)


def test_material_invariants():
    with pytest.raises(DomainError):
        Material("empty", (), ())
    with pytest.raises(DomainError, match="table length mismatch"):
        Material("short", (1290e-9, 1300e-9), (1.5 + 0j,))
    with pytest.raises(DomainError):
        Material("bad-order", (1300e-9, 1290e-9), (1.5 + 0j, 1.5 + 0j))
    with pytest.raises(DomainError):
        Material("gain", (1300e-9,), (complex(1.5, +0.1),))  # k < 0 forbidden
    with pytest.raises(DomainError):
        Material("nonphysical", (1300e-9,), (complex(-1.0, 0.0),))


def test_builtin_kinds():
    air = make_builtin_material("vac", "air")
    assert lookup_index(air, 1300e-9) == 1.0 + 0j
    with pytest.raises(DomainError):
        make_builtin_material("x", "unobtainium")


def test_builtin_fraction_only_for_algaas():
    """AlGaAs without a fraction is the paper's x = 0.75 cladding; any other
    kind given a fraction is refused rather than silently ignored."""
    assert (default_materials()["AlGaAs"].indices
            == make_builtin_material("AlGaAs", "algaas", 0.75).indices)
    for kind in ("gaas", "nbn", "siox", "air"):
        with pytest.raises(DomainError, match=f"applies only to algaas, not '{kind}'"):
            make_builtin_material("m", kind, 0.5)


def test_algaas_transparency_guard():
    with pytest.raises(DomainError):
        algaas_index(800e-9, 0.0)  # above the GaAs gap
