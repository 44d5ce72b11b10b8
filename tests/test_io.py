import re

import numpy as np
import pytest

import snspdkit as sk
from snspdkit.errors import ConfigError
from snspdkit.io_utils import OutputDir, export_grid, header_line, write_csv, write_matrix


def test_output_dir_rejects_escapes(tmp_path):
    out = OutputDir(tmp_path / "runs")
    with pytest.raises(ConfigError, match="escapes"):
        out.path("../evil.csv")
    p = out.path("sub/dir/file.csv")
    assert p.parent.is_dir()


def test_output_dir_on_a_file_is_a_config_error(tmp_path):
    """A path naming an existing file cannot be the output directory; the
    error names it instead of escaping as a raw FileExistsError."""
    taken = tmp_path / "taken"
    taken.write_text("")
    for base in (taken, taken / "runs"):
        with pytest.raises(ConfigError, match=f"^output directory {re.escape(str(base))} cannot be created: "):
            OutputDir(base)


def test_csv_header_and_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1.5, "x"), (2.25, "y")], "deadbeef")
    lines = path.read_text().splitlines()
    assert lines[0] == header_line("deadbeef")
    assert lines[1] == "a,b"
    assert lines[2] == "1.5,x"


def test_csv_numpy_scalars_format_as_python(tmp_path):
    """numpy scalars are written as the Python float or bool they hold; under
    numpy >= 2 their repr would write ``np.float64(0.5)``."""
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c", "d"],
              [(np.float64(0.5), np.float32(0.25), np.bool_(True), np.False_)], "d")
    assert path.read_text().splitlines()[2] == "0.5,0.25,true,false"


def test_complex_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    path = tmp_path / "m.txt"
    write_matrix(path, mat, "d")
    back = np.loadtxt(path, skiprows=1, dtype=complex,
                      converters=lambda s: complex(s))
    assert np.allclose(back, mat, rtol=1e-8)


def _reference_matrix_text(array, config_digest):
    """The per-element formatter write_matrix must reproduce byte for byte."""
    lines = [header_line(config_digest)]
    for row in array:
        lines.append("\t".join(f"{v.real:.9e}{v.imag:+.9e}j" for v in row))
    return "".join(line + "\n" for line in lines)


def _hard_doubles(rng):
    """Doubles, with random signs, on which a vectorized ``%.9e`` goes wrong
    first: random finite bit patterns; every power of ten from 1e-300 to
    1e300 and both its float neighbours; (k + 1/2)*10**j for k in
    [1e9, 1e10), exact ties for j in 0..8 and the nearest doubles to ties
    elsewhere; and the carries 9.9999999995*10**j with both float
    neighbours."""
    bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64)
    powers = np.array([float(f"1e{j}") for j in range(-300, 301)])
    ties = np.array([float(f"{k}5e{j - 1}")
                     for j in [*range(-305, 291, 3), *[0, 1, 2, 3, 4, 5, 6, 7, 8] * 40]
                     for k in rng.integers(10 ** 9, 10 ** 10, 2)])
    carries = np.array([float(f"99999999995e{j - 10}") for j in range(-300, 301)])
    near = np.concatenate([powers, carries])
    values = np.concatenate([bits[np.isfinite(bits)], ties, near,
                             np.nextafter(near, 0.0), np.nextafter(near, np.inf)])
    return values * rng.choice([-1.0, 1.0], values.size)


def test_matrix_bytes_match_per_element_formatter(tmp_path):
    rng = np.random.default_rng(11)
    special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2e-310,
               1.7976931348623157e308, 1.0 - 2.0 ** -53, 0.5e-9 + 4.9999999995e-19]
    real = rng.standard_normal((6, 7)) * 10.0 ** rng.integers(-30, 30, (6, 7))
    real.flat[: len(special)] = special
    cplx = np.empty(real.shape, complex)
    cplx.real, cplx.imag = real, real[::-1, ::-1]   # specials in both parts
    with np.errstate(over="ignore"):
        single = cplx.astype(np.complex64)
    hard = _hard_doubles(rng)
    hard = hard[: hard.size // 16 * 16].reshape(-1, 16) * (1 + 0j)
    hard.imag = rng.permutation(hard.real.ravel()).reshape(hard.shape)   # each in both parts
    cases = {
        "hard": hard,
        "complex": cplx,
        "complex64": single,
        "fortran": np.asfortranarray(cplx),
        "strided": cplx[::2, ::-3],
        "one_column": cplx[:, :1],
        "no_rows": cplx[:0],
    }
    for name, mat in cases.items():
        path = tmp_path / f"{name}.txt"
        write_matrix(path, mat, "d")
        assert path.read_bytes() == _reference_matrix_text(mat, "d").encode("utf-8"), name


def test_export_grid_sidecar(tmp_path):
    mats = sk.default_materials()
    stack = sk.LayerStack((
        sk.Layer("AlGaAs", 1.5e-6),
        sk.Layer("GaAs", 300e-9),
    ), "GaAs")
    cs = sk.CrossSection(stack, sk.RidgeSpec(1.85e-6, 250e-9), None,
                         6e-6, 3.6e-6, 1300e-9, mats)
    grid = sk.rasterize(cs, sk.ResolutionPolicy(base_m=50e-9, far_m=125e-9))
    out = OutputDir(tmp_path)
    names = export_grid(grid, out, "g", "cafe")
    assert set(names) == {"g_eps.txt", "g_coords.json"}
    import json

    sidecar = json.loads((tmp_path / "g_coords.json").read_text())
    assert sidecar["_header"]["config_digest"] == "cafe"
    assert len(sidecar["x_edges_m"]) == grid.eps.shape[0] + 1
