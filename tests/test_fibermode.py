import math
import warnings

import numpy as np
import pytest

from fibercavity import (
    AtomSpec,
    CavityGeometry,
    FiberSpec,
    NoGuidedModeError,
    ParameterError,
    coupling_rate,
    cs_d2_atom,
    mode_volume,
    sellmeier_fused_silica,
    solve_fundamental_mode,
    solve_lp01,
    two_pi_mhz,
)
from fibercavity.constants import (
    CS_D2_ANGULAR_FREQUENCY,
    CS_D2_CYCLING_DIPOLE,
    CS_D2_WAVELENGTH,
    EPSILON_0,
    HBAR,
)
from fibercavity.fibermode import _dispersion_he11, gaussian_mode_field_radius


def solve_sm800():
    fiber = FiberSpec.sm800()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fiber, solve_fundamental_mode(fiber)


def weak_fiber(delta_n, v_target=2.0, wavelength=CS_D2_WAVELENGTH):
    n_clad = 1.45
    n_core = n_clad + delta_n
    na = math.sqrt(n_core**2 - n_clad**2)
    radius = v_target * wavelength / (2.0 * math.pi * na)
    return FiberSpec(radius, n_core, n_clad, wavelength)


def test_sellmeier_fused_silica_at_852nm():
    n = sellmeier_fused_silica(852.347e-9)
    assert n == pytest.approx(1.4525, abs=2e-4)
    with pytest.raises(ParameterError):
        sellmeier_fused_silica(0.1e-6)


def test_fiber_spec_validation():
    with pytest.raises(ParameterError):
        FiberSpec(2.8e-6, 1.44, 1.45, 852e-9)  # core below cladding
    with pytest.raises(ParameterError):
        FiberSpec(-1.0, 1.46, 1.45, 852e-9)
    fiber = FiberSpec.sm800()
    assert fiber.numerical_aperture == pytest.approx(0.12, rel=1e-12)
    assert fiber.v_number == pytest.approx(2.477, abs=0.001)


def test_sm800_not_single_mode_warning():
    fiber = FiberSpec.sm800()
    with pytest.warns(UserWarning, match="not single-mode"):
        solve_fundamental_mode(fiber)


def test_fundamental_mode_bounds_and_residual():
    fiber, mode = solve_sm800()
    assert fiber.n_clad < mode.n_eff < fiber.n_core
    assert abs(_dispersion_he11(mode.n_eff, fiber)) < 1e-12


def test_single_root_just_below_cutoff():
    # V -> 2.405 from below: the fundamental root stays unique
    n_clad = sellmeier_fused_silica(852.347e-9)
    na = 0.12
    radius = 2.39 * 852.347e-9 / (2.0 * math.pi * na)
    fiber = FiberSpec.from_numerical_aperture(radius, na, 852.347e-9)
    assert fiber.v_number < 2.405
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning expected
        mode = solve_fundamental_mode(fiber)
    assert n_clad < mode.n_eff < fiber.n_core


def test_weakly_guiding_limit_matches_lp01():
    for delta_n, tol in ((1e-3, 1e-6), (1e-4, 1e-8)):
        fiber = weak_fiber(delta_n)
        mode = solve_fundamental_mode(fiber)
        lp01 = solve_lp01(fiber)
        assert abs(mode.n_eff - lp01) / lp01 < tol


def test_intensity_profile_normalized_and_decaying():
    fiber, mode = solve_sm800()
    r = np.linspace(0.0, 10.0 * fiber.core_radius, 50)
    intensity = mode.intensity(r)
    assert intensity[0] == pytest.approx(1.0, rel=1e-12)
    assert np.max(intensity) <= 1.0 + 1e-12
    assert intensity[-1] < 1e-6


def test_effective_area_gaussian_cross_check():
    fiber, mode = solve_sm800()
    w = gaussian_mode_field_radius(fiber)
    gaussian_area = math.pi * w**2 / 2.0
    assert abs(mode.effective_area - gaussian_area) / gaussian_area < 0.10


def test_effective_area_quadrature_convergence():
    fiber = FiberSpec.sm800()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        coarse = solve_fundamental_mode(fiber, samples_per_region=4097)
        fine = solve_fundamental_mode(fiber, samples_per_region=8193)
    assert abs(fine.effective_area - coarse.effective_area) < 1e-8 * coarse.effective_area


def test_tail_truncation_negligible():
    _, mode = solve_sm800()
    assert mode.tail_truncation_error < 1e-12 * mode.effective_area


def test_dispersion_monotone_in_wavelength():
    previous = None
    for wavelength in (800e-9, 850e-9, 900e-9, 950e-9):
        fiber = FiberSpec.from_numerical_aperture(2.8e-6, 0.12, wavelength)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mode = solve_fundamental_mode(fiber)
        if previous is not None:
            assert mode.n_eff < previous
        previous = mode.n_eff


def test_no_root_reported_for_degenerate_fiber():
    # barely-guiding fiber: the root sits too close to cutoff to resolve
    fiber = weak_fiber(1e-5, v_target=0.05)
    with pytest.raises(NoGuidedModeError):
        solve_fundamental_mode(fiber)


def test_mode_volume_linear_in_length():
    _, mode = solve_sm800()
    short = mode_volume(mode, CavityGeometry(0.33, 1.45))
    long = mode_volume(mode, CavityGeometry(0.66, 1.45))
    assert long == pytest.approx(2.0 * short, rel=1e-12)


def test_coupling_rate_scalings():
    atom = cs_d2_atom()
    base = coupling_rate(atom, 4.7e-12, 1.0)
    assert coupling_rate(atom, 4.7e-12, 0.0) == 0.0
    assert coupling_rate(atom, 4.0 * 4.7e-12, 1.0) == pytest.approx(base / 2.0, rel=1e-12)
    with pytest.raises(ParameterError):
        coupling_rate(atom, 0.0)
    with pytest.raises(ParameterError):
        coupling_rate(atom, 1.0, phi=1.5)


def test_coupling_rate_refuses_an_underflowing_volume_and_an_overflowing_g():
    atom = cs_d2_atom()
    with pytest.raises(ParameterError, match="underflows"):
        coupling_rate(atom, 1e-300)
    with pytest.raises(ParameterError, match="overflows"):
        coupling_rate(AtomSpec(1e150, atom.transition_angular_frequency), 1e-12)


def test_coupling_rate_formula():
    atom = cs_d2_atom()
    volume = 3.3e-12
    g = coupling_rate(atom, volume, 1.0)
    expected = math.sqrt(
        CS_D2_CYCLING_DIPOLE**2
        * CS_D2_ANGULAR_FREQUENCY
        / (2.0 * HBAR * EPSILON_0 * volume)
    )
    assert g == pytest.approx(expected, rel=1e-12)


def test_coupling_estimate_for_uniform_fiber_model():
    # With the uniform single-mode-fiber mode volume this lands near
    # 2pi x 2.1 MHz; see the acceptance suite for the 7.4 MHz comparison.
    fiber, mode = solve_sm800()
    volume = mode_volume(mode, CavityGeometry(0.33, 1.45))
    g = coupling_rate(cs_d2_atom(), volume, 1.0)
    assert two_pi_mhz(g) == pytest.approx(2.098, abs=0.02)


def test_atom_spec_validation():
    with pytest.raises(ParameterError):
        AtomSpec(dipole_moment=0.0, transition_angular_frequency=1.0)
    with pytest.raises(ParameterError):
        AtomSpec(dipole_moment=1e-29, transition_angular_frequency=-1.0)
    atom = cs_d2_atom()
    assert atom.dipole_moment == pytest.approx(2.685e-29, rel=1e-3)
