import contextlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from fibercavity import fibermode
from fibercavity.fibermode import _he11_residual_u


def _dispersion_he11(n_eff: float, fiber: FiberSpec) -> float:
    """Residual of the characteristic equation as a function of n_eff."""
    k0a = fiber.k0 * fiber.core_radius
    u = k0a * math.sqrt(fiber.n_core**2 - n_eff**2)
    return _he11_residual_u(u, fiber)


def gaussian_mode_field_radius(fiber: FiberSpec) -> float:
    """Marcuse fit for the fundamental-mode Gaussian radius (m)."""
    v = fiber.v_number
    return fiber.core_radius * (0.65 + 1.619 / v**1.5 + 2.879 / v**6)


def solve_sm800():
    fiber = FiberSpec.sm800()
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


def test_a_scalar_radius_gets_the_bits_of_its_grid_element():
    fiber, mode = solve_sm800()
    # a last-bit difference shows for about 1 radius in 1500
    r = np.random.default_rng(0).uniform(0.0, 3.0 * fiber.core_radius, 3000)
    grid = mode.intensity(r)
    scalars = [mode.intensity(x) for x in r.tolist()]
    assert all(type(x) is float for x in scalars)
    np.testing.assert_array_equal(np.array(scalars).view(np.int64), grid.view(np.int64))


def test_effective_area_gaussian_cross_check():
    fiber, mode = solve_sm800()
    w = gaussian_mode_field_radius(fiber)
    gaussian_area = math.pi * w**2 / 2.0
    assert abs(mode.effective_area - gaussian_area) / gaussian_area < 0.10


def test_effective_area_quadrature_convergence():
    fiber = FiberSpec.sm800()
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
        mode = solve_fundamental_mode(fiber)
        if previous is not None:
            assert mode.n_eff < previous
        previous = mode.n_eff


def test_no_root_reported_for_degenerate_fiber():
    # barely-guiding fiber: the root sits too close to cutoff to resolve
    fiber = weak_fiber(1e-5, v_target=0.05)
    with pytest.raises(NoGuidedModeError):
        solve_fundamental_mode(fiber)


@pytest.mark.parametrize("step", [2e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 3e-11])
@pytest.mark.parametrize("core_radius, wavelength", [
    (1340.229393233965e-6, 2.402276266194462e-9), (1e-3, 1e-9), (3e-3, 1e-9), (2e-6, 852e-9),
])
def test_a_fiber_with_an_index_step_near_rounding_solves_or_has_no_guided_mode(
    step, core_radius, wavelength
):
    # n_core/n_clad - 1 from 2e-16 to 3e-11, at V from 3e-7 to 212: n_eff may round onto n_clad
    fiber = FiberSpec(core_radius, 1.45 * (1.0 + step), 1.45, wavelength)
    try:
        mode = solve_fundamental_mode(fiber)
    except NoGuidedModeError:
        return
    assert fiber.n_clad < mode.n_eff <= fiber.n_core
    assert mode.w > 0.0 and 0.0 < mode.effective_area < math.inf


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
        coupling_rate(AtomSpec(1e150, atom.transition_wavelength), 1e-12)


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
    with pytest.raises(ParameterError, match="dipole_moment"):
        AtomSpec(dipole_moment=0.0, transition_wavelength=1.0)
    with pytest.raises(ParameterError, match="transition_wavelength"):
        AtomSpec(dipole_moment=1e-29, transition_wavelength=-1.0)
    atom = cs_d2_atom()
    assert atom.dipole_moment == pytest.approx(2.685e-29, rel=1e-3)
    assert atom.transition_angular_frequency == CS_D2_ANGULAR_FREQUENCY


def random_fiber(rng, v_range=(0.5, 3.8)):
    """A step-index fiber with V log-uniform in ``v_range``, by default 0.5 to 3.8,
    past the single-mode limit."""
    wavelength = rng.uniform(0.4e-6, 1.6e-6)
    n_clad = rng.uniform(1.3, 1.6)
    v = 10.0 ** rng.uniform(math.log10(v_range[0]), math.log10(v_range[1]))
    radius = 10.0 ** rng.uniform(-6.5, -5.0)
    na = v * wavelength / (2.0 * math.pi * radius)
    return FiberSpec(radius, math.sqrt(n_clad**2 + na**2), n_clad, wavelength)


def test_mode_solutions_agree_with_scipy_brentq_and_simpson(monkeypatch):
    from scipy.integrate import simpson
    from scipy.optimize import brentq

    def solve(fiber, samples):
        mode = solve_fundamental_mode(fiber, samples)
        fields = (mode.n_eff, mode.u, mode.effective_area, mode.tail_truncation_error)
        return np.array([*fields, solve_lp01(fiber)])

    bounds = np.array([1e-15, 1e-14, 1e-11, 1e-11, 1e-15])
    rng = np.random.default_rng(19)
    for _ in range(24):
        fiber = random_fiber(rng)
        samples = int(rng.choice([3, 5, 9, 33, 257]))
        found = solve(fiber, samples)
        with monkeypatch.context() as patch:
            patch.setattr(
                fibermode, "_bisect",
                lambda f, lo, hi: brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16),
            )
            patch.setattr(fibermode, "_simpson", lambda y, x: simpson(y, x=x))
            expected = solve(fiber, samples)
        assert np.all(np.abs(found - expected) <= bounds * np.abs(expected)), (found, expected)


def scipy_bessel(function):
    """(order 0, 1, 2) values of a scipy.special Bessel function, as the kernels return them."""
    return lambda x: np.array([function(n, x) for n in range(3)])


def test_the_bessel_kernels_agree_with_scipy_special():
    from scipy.special import jv, kv, kve

    # J's domain: the mode solve takes no J beyond the first zero of J0
    x = np.geomspace(1e-8, fibermode.J0_FIRST_ZERO, 20001)
    found, expected = fibermode._bessel_j(x), scipy_bessel(jv)(x)
    error = np.abs(found - expected)
    assert np.all(error <= 1e-15)
    large = np.abs(expected) > 1e-2
    assert np.all(error[large] <= 5e-14 * np.abs(expected[large]))
    small = x < 2.4
    assert np.all(error[1:, small] <= 6e-15 * np.abs(expected[1:, small]))
    # within 0.1 of J0's first zero, scipy's J0 itself is off by up to 2.7e-14
    # relative (against 30-digit values), so 6e-15 is not checkable there
    assert np.all(error[0, x < 2.3] <= 6e-15 * expected[0, x < 2.3])

    x = np.geomspace(1e-8, 740.0, 20001)
    found, expected = fibermode._bessel_k(x), scipy_bessel(kv)(x)
    # kv flushes to 0 from x = 697.9 on; there the reference is kve(x) e^-x,
    # which is subnormal from x = 708 on: one step of 2^-1074 is allowed
    flushed = expected == 0.0
    expected[flushed] = (scipy_bessel(kve)(x) * np.exp(-x))[flushed]
    assert np.all(expected > 0.0)
    assert np.all(np.abs(found - expected) <= 6e-14 * expected + 2.0**-1074)


def test_the_bessel_kernels_give_scipy_values_at_zero_and_infinity_without_warnings():
    from scipy.special import jv, kv

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(fibermode._bessel_j(0.0), scipy_bessel(jv)(0.0))
        for x in (0.0, math.inf):
            np.testing.assert_array_equal(fibermode._bessel_k(x), scipy_bessel(kv)(x))


def test_a_scalar_argument_gets_the_bits_of_its_array_element():
    # more than one block, and every node count of both kernels
    x = np.random.default_rng(1).permutation(np.geomspace(1e-6, 1e3, 700))
    for kernel in (fibermode._bessel_j, fibermode._bessel_k):
        array = kernel(x)
        scalars = np.array([kernel(v) for v in x.tolist()]).T
        np.testing.assert_array_equal(scalars.view(np.int64), array.view(np.int64))


def test_mode_solutions_agree_with_scipy_bessel_functions(monkeypatch):
    from scipy.special import jv, kv

    def solve(fiber):
        mode = solve_fundamental_mode(fiber)
        fields = (mode.n_eff, mode.u, mode.effective_area, mode.tail_truncation_error)
        return np.array([*fields, solve_lp01(fiber)])

    bounds = np.array([1e-15, 1e-14, 1e-11, 1e-11, 1e-15])
    rng = np.random.default_rng(19)
    for fiber in [FiberSpec.sm800()] + [random_fiber(rng) for _ in range(24)]:
        found = solve(fiber)
        with monkeypatch.context() as patch:
            patch.setattr(fibermode, "_bessel_j", scipy_bessel(jv))
            patch.setattr(fibermode, "_bessel_k", scipy_bessel(kv))
            expected = solve(fiber)
        assert np.all(np.abs(found - expected) <= bounds * np.abs(expected)), (found, expected)


def test_no_solve_takes_j_beyond_the_first_zero_of_j0(monkeypatch):
    arguments = []
    bessel_j = fibermode._bessel_j

    def recorded(x):
        arguments.append(np.max(x))
        return bessel_j(x)

    monkeypatch.setattr(fibermode, "_bessel_j", recorded)
    rng = np.random.default_rng(21)
    solved = []
    for _ in range(40):
        fiber = random_fiber(rng, (0.1, 700.0))
        # below V ~ 1, w can be so small that u lies above the scan's top, V (1 - 1e-9)
        with contextlib.suppress(NoGuidedModeError):
            mode = solve_fundamental_mode(fiber, 33)
            mode.intensity(np.linspace(0.0, 15.0 * fiber.core_radius, 31))
            solved.append(fiber.v_number)
        with contextlib.suppress(NoGuidedModeError):
            solve_lp01(fiber)
    assert len(solved) >= 30 and max(solved) > 600.0
    assert 0.0 < max(arguments) <= fibermode.J0_FIRST_ZERO


def test_the_solves_and_the_profile_raise_no_warning():
    rng = np.random.default_rng(23)
    fibers = [FiberSpec.sm800()] + [random_fiber(rng, (1.0, 740.0)) for _ in range(20)]
    # K1(w) underflows to 0 over the whole scan: no guided mode
    past_double_precision = [
        (FiberSpec.from_numerical_aperture(numerical_aperture=60.0), "1238.4332"),
        (FiberSpec(2.5550778864664203e-06, 72.04519969256562, 1.3090105698747707,
                   1.537551240319439e-06), "752.1211"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fiber in fibers:
            mode = solve_fundamental_mode(fiber)
            solve_lp01(fiber)
            mode.intensity(np.linspace(0.0, 15.0 * fiber.core_radius, 61))
        for fiber, v in past_double_precision:
            message = f"no HE11 root found in ({fiber.n_clad}, {fiber.n_core}); V = {v}"
            with pytest.raises(NoGuidedModeError, match=f"^{re.escape(message)}$"):
                solve_fundamental_mode(fiber)
            lp01 = "dispersion residual is NaN at u = 2.404825557695773e-09"
            with pytest.raises(NoGuidedModeError, match=f"^{re.escape(lp01)}$"):
                solve_lp01(fiber)


def first_crossing(residuals):
    """The index ``solve_fundamental_mode`` brackets: the first sign change
    between finite residuals."""
    finite = np.isfinite(residuals)
    return np.nonzero((np.diff(np.sign(residuals)) != 0) & finite[:-1] & finite[1:])[0][0]


def test_the_array_scan_finds_the_crossing_of_the_scalar_residual():
    rng = np.random.default_rng(20)
    for _ in range(40):
        fiber = random_fiber(rng)
        upper = min(fiber.v_number, fibermode.J0_FIRST_ZERO)
        grid = np.linspace(1e-6 * upper, upper * (1.0 - 1e-9), 2000)
        scalar = [fibermode._he11_residual_u(float(u), fiber) for u in grid]
        assert first_crossing(fibermode._he11_residual_u(grid, fiber)) == first_crossing(
            np.array(scalar)
        )


# index ratios n_core/n_clad of 40, 64 and 100 just below V = j_{0,1}
HIGH_CONTRAST = [
    FiberSpec(v * 1e-6 / (2.0 * math.pi * 1.5 * math.sqrt(ratio**2 - 1.0)), 1.5 * ratio, 1.5, 1e-6)
    for ratio in (40.0, 64.0, 100.0)
    for v in (2.375, 2.3833, 2.39)
]


def test_the_he11_root_is_the_first_sign_change_of_the_residual():
    rng = np.random.default_rng(20)
    weak = [FiberSpec.sm800()] + [random_fiber(rng) for _ in range(20)]
    changes = []
    for fiber in weak + HIGH_CONTRAST:
        upper = min(fiber.v_number, fibermode.J0_FIRST_ZERO)
        grid = np.linspace(1e-6 * upper, upper * (1.0 - 1e-9), 20001)
        residuals = _he11_residual_u(grid, fiber)
        first = first_crossing(residuals)
        u = solve_fundamental_mode(fiber, 3).u
        assert grid[first] <= u <= grid[first + 1]
        changes.append(np.count_nonzero(np.diff(np.sign(residuals))))
    # one sign change in the span of a weakly guiding fiber; at high contrast two
    # more roots lie near cutoff, u close to V, the last of them often above the span
    assert changes[: len(weak)] == [1] * len(weak)
    assert all(count in (2, 3) for count in changes[len(weak):])


def test_simpson_is_exact_for_a_cubic():
    for n in (3, 5, 7, 31, 4097):
        x = np.linspace(-0.5, 2.0, n)
        assert fibermode._simpson(x**3 - 2.0 * x**2 + 1.0, x) == pytest.approx(
            (2.0**4 - 0.5**4) / 4.0 - 2.0 * (2.0**3 + 0.5**3) / 3.0 + 2.5, rel=1e-14
        )


monotone_shapes = st.sampled_from([
    lambda t: t,
    lambda t: math.copysign(abs(t) ** 0.5, t),
    lambda t: t**3,
    lambda t: math.tanh(50.0 * t),
    math.expm1,
])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    shape=monotone_shapes,
    scale=st.floats(-10.0, 10.0).filter(bool),
    root=st.floats(-100.0, 100.0),
    shift=st.floats(0.0, 1.0),
    below=st.floats(0.0, 100.0),
    above=st.floats(0.0, 100.0),
)
def test_bisect_ends_on_a_zero_or_next_to_a_sign_change(shape, scale, root, shift, below, above):
    """f is 0 at the result, or changes sign towards a neighbouring double
    where |f| is no smaller. The zero of f lies ``shift`` of the way from the
    double ``root`` to the next one up."""
    gap = math.nextafter(root, math.inf) - root

    def f(x):
        return scale * shape((x - root) - shift * gap)

    lo, hi = root - below, math.nextafter(root + above, math.inf)
    x = fibermode._bisect(f, lo, hi)
    assert lo <= x <= hi
    neighbours = (math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
    assert f(x) == 0.0 or any(
        (f(n) > 0.0) != (f(x) > 0.0) and abs(f(x)) <= abs(f(n)) for n in neighbours
    )


def test_bisect_refuses_a_bracket_without_a_sign_change_or_with_a_nan():
    with pytest.raises(NoGuidedModeError, match="no sign change"):
        fibermode._bisect(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(NoGuidedModeError, match="NaN"):
        fibermode._bisect(lambda x: x if x >= 0.0 else math.nan, -1.0, 1.0)
