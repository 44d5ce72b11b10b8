import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snspdkit.errors import DomainError, InconsistencyError
from snspdkit.fabry_perot import (
    CouplingResult,
    FringeData,
    extract_coupling,
    fp_transmission,
    fresnel_reflectivity,
    read_fringe_scan,
)


def test_forward_reproduces_reference_extrema():
    # forward evaluation at the extracted parameters returns the measured extrema
    assert fp_transmission(0.296, 0.247, 1.0, 0.0) == pytest.approx(0.061, abs=2e-4)
    assert fp_transmission(0.296, 0.247, 1.0, math.pi) == pytest.approx(0.018, abs=1e-4)


def test_no_cavity_is_transparent():
    for phase in (0.0, 1.0, math.pi, 5.0):
        assert fp_transmission(0.0, 1.0, 1.0, phase) == 1.0


def test_extraction_reference_values():
    res = extract_coupling(FringeData(0.061, 0.018))
    assert res.facet_reflectivity == pytest.approx(0.296, abs=0.001)
    assert res.mode_match == pytest.approx(0.247, abs=0.001)
    assert res.coupling == pytest.approx(0.174, abs=0.001)
    assert res.contrast == pytest.approx(math.sqrt(0.061 / 0.018), rel=1e-12)


def test_constructed_inverse_is_exact():
    for r in (0.1, 0.296, 0.5, 0.75):
        t_max = 0.2
        t_min = t_max * ((1.0 - r) / (1.0 + r)) ** 2
        res = extract_coupling(FringeData(t_max, t_min))
        assert res.facet_reflectivity == pytest.approx(r, rel=1e-12)


def test_round_trip_identity_over_box():
    """extract(render extrema) == identity within 1e-12 over the parameter box."""
    rng = np.random.default_rng(20120515)
    n_cases = 1500
    rs = rng.uniform(0.05, 0.8, n_cases)
    etas = rng.uniform(0.05, 1.0, n_cases)
    worst = 0.0
    for r, eta in zip(rs, etas):
        t_max = fp_transmission(r, eta, 1.0, 0.0)
        t_min = fp_transmission(r, eta, 1.0, math.pi)
        res = extract_coupling(FringeData(t_max, t_min))
        worst = max(worst,
                    abs(res.facet_reflectivity - r) / r,
                    abs(res.mode_match - eta) / eta)
    assert worst < 1e-12


@given(st.floats(0.05, 0.8), st.floats(0.05, 1.0))
@settings(max_examples=300, deadline=None)
def test_round_trip_identity_property(r, eta):
    t_max = fp_transmission(r, eta, 1.0, 0.0)
    t_min = fp_transmission(r, eta, 1.0, math.pi)
    res = extract_coupling(FringeData(t_max, t_min))
    assert res.facet_reflectivity == pytest.approx(r, rel=1e-12)
    assert res.mode_match == pytest.approx(eta, rel=1e-12)
    assert res.coupling == pytest.approx(eta * (1.0 - r), rel=1e-12)


def test_transmission_periodic_and_extremal():
    r, eta = 0.296, 0.247
    phases = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 401)
    t = np.array([fp_transmission(r, eta, 1.0, p) for p in phases])
    t_shift = np.array([fp_transmission(r, eta, 1.0, p + 2.0 * math.pi) for p in phases])
    assert np.allclose(t, t_shift, rtol=1e-12)
    assert t.max() == pytest.approx(fp_transmission(r, eta, 1.0, 0.0), rel=1e-9)
    assert t.min() == pytest.approx(fp_transmission(r, eta, 1.0, math.pi), rel=1e-9)


def test_coupling_decreases_with_reflectivity_at_fixed_tmax():
    t_max = 0.061
    couplings = []
    for r in (0.1, 0.2, 0.3, 0.4, 0.6):
        t_min = t_max * ((1.0 - r) / (1.0 + r)) ** 2
        couplings.append(extract_coupling(FringeData(t_max, t_min)).coupling)
    assert all(a > b for a, b in zip(couplings, couplings[1:]))


def test_loss_attribution_direction():
    """Attributing part of the insertion loss to propagation (a < 1) raises
    the extracted coupling, so the a = 1 analysis is the lower bound."""
    base = extract_coupling(FringeData(0.061, 0.018, single_pass=1.0))
    for a in (0.95, 0.9, 0.8):
        lossy = extract_coupling(FringeData(0.061, 0.018, single_pass=a))
        assert lossy.coupling > base.coupling
        assert lossy.facet_reflectivity > base.facet_reflectivity


def test_fresnel_reference_values():
    assert fresnel_reflectivity(3.2) == pytest.approx(0.274, abs=5e-4)
    assert fresnel_reflectivity(1.0) == 0.0
    assert fresnel_reflectivity(100.0) == pytest.approx(0.961, abs=5e-4)
    values = [fresnel_reflectivity(n) for n in (1.5, 3.0, 10.0, 100.0)]
    assert all(a < b for a, b in zip(values, values[1:]))
    with pytest.raises(DomainError):
        fresnel_reflectivity(0.5)


def test_extraction_inconsistency_detected():
    # strongly lossy assumption pushes the implied mode match above 1
    with pytest.raises(InconsistencyError):
        extract_coupling(FringeData(0.9, 0.3, single_pass=0.5))


def test_fringe_data_invariants():
    with pytest.raises(DomainError):
        FringeData(0.018, 0.061)
    with pytest.raises(DomainError):
        FringeData(1.2, 0.018)
    with pytest.raises(DomainError):
        FringeData(0.061, 0.018, single_pass=0.0)
    with pytest.raises(DomainError):
        CouplingResult(0.0, 0.5, 0.5, 1.5)
    with pytest.raises(DomainError, match="mode-match efficiency"):
        CouplingResult(0.3, 1.2, 0.5, 1.5)


@pytest.mark.parametrize("args, message", [
    ((1.0, 0.25), r"facet reflectivity must be in \[0, 1\)"),
    ((0.3, 0.0), r"mode-match efficiency must be in \(0, 1\]"),
    ((0.3, 0.25, 1.5), r"single-pass transmission must be in \(0, 1\]"),
], ids=["reflectivity-1", "mode-match-0", "single-pass-1.5"])
def test_fp_transmission_domain(args, message):
    with pytest.raises(DomainError, match=message):
        fp_transmission(*args)


def test_read_fringe_scan_percentile_extrema(tmp_path):
    r, eta = 0.296, 0.247
    wl = np.linspace(1299.0, 1301.0, 2001)
    phases = np.linspace(0.0, 40.0 * math.pi, 2001)
    path = tmp_path / "scan.csv"
    with open(path, "w") as fh:
        fh.write("wavelength_nm,transmission\n")
        for w, p in zip(wl, phases):
            fh.write(f"{w},{fp_transmission(r, eta, 1.0, p)}\n")
    fringes = read_fringe_scan(path)
    # percentile extrema sit just inside the true envelope
    assert fringes.t_max == pytest.approx(0.061, rel=0.02)
    assert fringes.t_min == pytest.approx(0.018, rel=0.05)
    res = extract_coupling(fringes)
    assert res.coupling == pytest.approx(0.174, rel=0.05)


def test_read_fringe_scan_needs_data(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("wavelength_nm,transmission\n1300,0.05\n")
    with pytest.raises(DomainError):
        read_fringe_scan(path)


@pytest.mark.parametrize("kind", ["missing", "directory", "latin-1"])
def test_read_fringe_scan_unreadable_file_named(tmp_path, kind):
    """A file that is missing, a directory or not UTF-8 text is a DomainError
    naming the file, not a raw OSError or UnicodeDecodeError."""
    path = tmp_path / "scan.csv"
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes("# Me\xdfung\nwavelength_nm,transmission\n1300,0.05\n".encode("latin-1"))
    with pytest.raises(DomainError, match=f"^fringe scan {re.escape(str(path))} cannot be read: "):
        read_fringe_scan(path)


def scan_with_bad_row(tmp_path, bad):
    """A fringe scan file: a comment, a header and 12 data rows, with ``bad``
    on line 8, after the fifth data row."""
    path = tmp_path / "scan.csv"
    rows = [f"{1300 + k},{0.02 + 0.004 * k}" for k in range(12)]
    path.write_text("# fringe scan\nwavelength_nm,transmission\n" + "\n".join(rows[:5])
                    + f"\n{bad}\n" + "\n".join(rows[5:]) + "\n")
    return path


def test_read_fringe_scan_one_column_row_names_line(tmp_path):
    """A data row without a transmission column is a DomainError naming its
    line; comment and header rows are still skipped."""
    with pytest.raises(DomainError, match="line 8"):
        read_fringe_scan(scan_with_bad_row(tmp_path, "1320"))


@pytest.mark.parametrize("garbled", ["1320,0.0x5", "1321,n/a", "n/a,0.05", "1320,inf", "1320,nan",
                                     "1320,-0.5", "1320,1.5", "inf,0.05", "nan,0.05"])
def test_read_fringe_scan_garbled_row_names_line(tmp_path, garbled):
    """A non-numeric row after the first data row is a DomainError naming its
    line, not a header: the extrema never come from the other rows alone. So
    is a row with a non-finite wavelength, or with a transmission that is
    non-finite or outside [0, 1]: the percentiles would drop such an outlier
    without a word, and a NaN would spoil both extrema."""
    with pytest.raises(DomainError, match="line 8"):
        read_fringe_scan(scan_with_bad_row(tmp_path, garbled))

