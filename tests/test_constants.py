"""The CODATA literals in ``constants`` match the installed scipy.

If a scipy release moves to newer CODATA values, these fail instead of
letting the derived dipole moment, and with it every ``mode-solve`` output,
drift.
"""

import numpy as np
from scipy import constants as sc

from fibercavity import constants


def test_codata_literals_match_scipy():
    assert constants.C == sc.c
    assert constants.HBAR == sc.hbar
    assert constants.EPSILON_0 == sc.epsilon_0


def test_cycling_dipole_is_bit_identical_to_the_scipy_derivation():
    omega = 2.0 * np.pi * sc.c / constants.CS_D2_WAVELENGTH
    dipole = float(
        np.sqrt(
            3.0 * np.pi * sc.epsilon_0 * sc.hbar * sc.c**3
            * constants.CS_D2_LINEWIDTH / omega**3
        )
    )
    assert constants.CS_D2_CYCLING_DIPOLE == dipole
    assert constants.CS_D2_ANGULAR_FREQUENCY == omega
