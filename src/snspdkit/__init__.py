"""snspdkit: design and characterization of waveguide-integrated
superconducting-nanowire single-photon detectors."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    InconsistencyError,
    SnspdKitError,
    WavelengthRangeError,
)
from .geometry import (
    CrossSection,
    Layer,
    LayerStack,
    NanowireArray,
    PermittivityGrid,
    ResolutionPolicy,
    RidgeSpec,
    alignment_margin,
    rasterize,
)
from .materials import Material, default_materials, lookup_index, make_builtin_material
from .modes import (
    ModeOperator,
    ModeSolution,
    SolverConfig,
    assemble_operator,
    modal_absorption,
    select_mode,
    solve_cross_section,
    solve_fundamental,
    solve_modes,
)

__all__ = [
    "__version__",
    "ConfigError", "ConvergenceError", "DomainError", "InconsistencyError",
    "SnspdKitError", "WavelengthRangeError",
    "CrossSection", "Layer", "LayerStack", "NanowireArray", "PermittivityGrid",
    "ResolutionPolicy", "RidgeSpec", "alignment_margin", "rasterize",
    "Material", "default_materials", "lookup_index", "make_builtin_material",
    "ModeOperator", "ModeSolution", "SolverConfig", "assemble_operator",
    "modal_absorption",
    "select_mode", "solve_cross_section", "solve_fundamental", "solve_modes",
]
