"""Physical constants (CODATA 2018 exact values).

All photon-energy and photon-flux computations in the package route through
this module so there is exactly one value of h*c in play.
"""

H_PLANCK = 6.62607015e-34   # Planck constant [J s]
C_LIGHT = 299792458.0       # speed of light [m/s]
E_CHARGE = 1.602176634e-19  # elementary charge [C], used for eV conversions
HC = H_PLANCK * C_LIGHT     # [J m]


def photon_flux(power_w: float, wavelength_m: float) -> float:
    """Photon rate [1/s] carried by an optical power [W] at a wavelength [m]."""
    return power_w * wavelength_m / HC
