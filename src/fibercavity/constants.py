"""Physical constants: CODATA values plus cesium D2 reference data.

The CODATA 2022 constants are literals, the values :mod:`scipy.constants`
1.17 returns, so importing the package does not load scipy;
``tests/test_constants.py`` checks them against the installed scipy. The
cesium D2 numbers are standard reference data (D. A. Steck, "Cesium D Line
Data", rev. 2.3.3): vacuum wavelength and natural linewidth. The
cycling-transition dipole moment is derived from the linewidth through the
spontaneous-emission relation

    Gamma = omega^3 mu^2 / (3 pi eps0 hbar c^3),

which holds exactly for the stretched (F=4, mF=+-4 -> F'=5, mF'=+-5)
transition because that excited state decays to a single ground state. The
derived value, 3.1669 e*a0, matches Steck's tabulated cycling-transition
matrix element.
"""

import numpy as np

C = 299792458.0  # m/s, exact
HBAR = 1.0545718176461565e-34  # J*s, h / 2 pi with h exact
EPSILON_0 = 8.8541878188e-12  # F/m, CODATA 2022

# Cesium D2 line (6S_1/2 -> 6P_3/2)
CS_D2_WAVELENGTH = 852.34727582e-9  # m, vacuum
CS_D2_ANGULAR_FREQUENCY = 2.0 * np.pi * C / CS_D2_WAVELENGTH  # rad/s
CS_D2_LINEWIDTH = 2.0 * np.pi * 5.2227e6  # rad/s, natural linewidth Gamma

# Cycling-transition dipole moment, C*m (see module docstring).
CS_D2_CYCLING_DIPOLE = float(
    np.sqrt(
        3.0
        * np.pi
        * EPSILON_0
        * HBAR
        * C**3
        * CS_D2_LINEWIDTH
        / CS_D2_ANGULAR_FREQUENCY**3
    )
)
