import time
from dataclasses import replace

import pytest

import snspdkit as sk
from snspdkit.config import default_config_path, load_project_config
from snspdkit.modes import solve_cross_section

# Expensive eigensolves are shared across test modules via session fixtures;
# each records its wall time so the acceptance tests can assert runtime bounds.


@pytest.fixture(scope="session")
def default_config():
    return load_project_config(default_config_path())


@pytest.fixture(scope="session")
def reference_solve(default_config):
    """Guided modes of the shipped detector geometry, with solve seconds."""
    cfg = default_config
    t0 = time.monotonic()
    _grid, modes = solve_cross_section(cfg.cross_section, cfg.policy, cfg.solver)
    return modes, time.monotonic() - t0


@pytest.fixture(scope="session")
def lossless_solve(default_config):
    """Same stack and ridge without the wire array (lossless)."""
    cfg = default_config
    cs = replace(cfg.cross_section, wires=None)
    _grid, modes = solve_cross_section(cs, cfg.policy, cfg.solver)
    return cs, modes


@pytest.fixture(scope="session")
def slab_case(default_config):
    """Buried symmetric slab in the wide-ridge limit and its grid policy.

    The decorative shallow ridge keeps the cross-section contract satisfied
    while the buried core sees an essentially one-dimensional structure.
    """
    mats = default_config.cross_section.materials
    stack = sk.LayerStack((
        sk.Layer("AlGaAs", 1.5e-6),
        sk.Layer("GaAs", 300e-9),
        sk.Layer("AlGaAs", 1.5e-6),
    ), "GaAs")
    ridge = sk.RidgeSpec(width_m=52e-6, etch_depth_m=100e-9)
    cs = sk.CrossSection(stack, ridge, None, window_width_m=56e-6, window_height_m=6.5e-6,
                         wavelength_m=1300e-9, materials=mats)
    policy = sk.ResolutionPolicy(
        base_m=150e-9, fine_m=3e-9, x_base_m=400e-9, far_m=1000e-9,
        y_refine=((-1.83e-6, -1.47e-6, 3e-9),
                  (-2.6e-6, -1.83e-6, 12e-9),
                  (-1.47e-6, -0.7e-6, 12e-9)),
    )
    return cs, policy


@pytest.fixture(scope="session")
def slab_solve(slab_case):
    """Guided modes of the slab case, with solve seconds."""
    cs, policy = slab_case
    t0 = time.monotonic()
    _grid, modes = solve_cross_section(cs, policy, sk.SolverConfig(num_modes=4))
    return cs, modes, time.monotonic() - t0


@pytest.fixture(scope="session", params=[0.0, 50e-9], ids=["centred", "offset-50nm"])
def touching_wires_case(request, default_config):
    """The shipped section with touching wires (pitch equal to width),
    centred or offset, and the shipped policy with bulk cells doubled. The
    shared edge of neighbouring wires is computed from two wire centres, so
    its two values can differ by rounding."""
    cfg = default_config
    w = cfg.cross_section.wires
    wires = replace(w, pitch_m=w.width_m, offset_m=request.param)
    return replace(cfg.cross_section, wires=wires), cfg.policy.bulk_refined(0.5)


@pytest.fixture(scope="session")
def clipped_four_layer_case(default_config):
    """Four finite layers under a 2 um wide, 100 nm deep ridge without wires,
    in a window tall enough to clip at the substrate top, and its policy."""
    stack = sk.LayerStack((
        sk.Layer("GaAs", 200e-9),
        sk.Layer("AlGaAs", 1.5e-6),
        sk.Layer("AlGaAs", 1.1e-6),
        sk.Layer("GaAs", 300e-9),
    ), "GaAs")
    cs = sk.CrossSection(stack, sk.RidgeSpec(width_m=2e-6, etch_depth_m=100e-9), None,
                         window_width_m=6e-6, window_height_m=20e-6, wavelength_m=1300e-9,
                         materials=default_config.cross_section.materials)
    return cs, sk.ResolutionPolicy(base_m=100e-9, far_m=400e-9)
