import json
import math

import numpy as np
import pytest

from fibercavity import (
    ParameterError,
    RingdownParams,
    RingdownTrace,
    analytic_trace,
    from_two_pi_mhz,
    integrate_ringdown,
    kappa_from_lifetime,
    lifetime_from_kappa,
    reflected_intensity_analytic,
    two_pi_mhz,
)
from fibercavity import cli, ringdown
from fibercavity.ringdown import IntegrationError

KAPPA1 = from_two_pi_mhz(0.12)
KAPPA_LOSS = from_two_pi_mhz(3.2)
KAPPA_S = from_two_pi_mhz(50.0)


def make_params(kappa2_mhz, kappa_s=KAPPA_S, s0=1.0):
    return RingdownParams(
        kappa1=KAPPA1,
        kappa2=from_two_pi_mhz(kappa2_mhz),
        kappa_loss=KAPPA_LOSS,
        kappa_s=kappa_s,
        s0=s0,
    )


def test_params_validation():
    with pytest.raises(ParameterError, match="kappa_s"):
        make_params(3.0, kappa_s=from_two_pi_mhz(3.0))
    with pytest.raises(ParameterError, match="s0"):
        make_params(3.0, s0=0.0)
    with pytest.raises(ParameterError, match="non-negative"):
        RingdownParams(kappa1=-1.0, kappa2=1.0, kappa_loss=0.0, kappa_s=1e9)


def test_steady_state_field_and_reflection():
    p = make_params(3.08)
    expected = abs(2.0 * p.kappa2 / p.kappa - 1.0) ** 2 * p.s0**2
    assert reflected_intensity_analytic(p, -1e-9) == pytest.approx(expected, rel=1e-12)


def test_field_decays_to_zero():
    p = make_params(3.08)
    assert reflected_intensity_analytic(p, 1e-5) < 1e-60 * p.s0**2


def test_critical_coupling_null():
    p = make_params(two_pi_mhz(KAPPA1 + KAPPA_LOSS))
    assert reflected_intensity_analytic(p, -1e-9) < 1e-20 * p.s0**2


def test_intensity_continuous_at_switch_off():
    p = make_params(3.08)
    before = reflected_intensity_analytic(p, -1e-15)
    at_zero = reflected_intensity_analytic(p, 0.0)
    assert at_zero == pytest.approx(before, rel=1e-12)


def test_tail_decays_at_twice_kappa():
    p = make_params(3.08)
    t = np.linspace(5.0 / (p.kappa_s - p.kappa), 10.0 / p.kappa, 200)
    intensity = reflected_intensity_analytic(p, t)
    slope, _ = np.polyfit(t, np.log(intensity), 1)
    assert -slope == pytest.approx(2.0 * p.kappa, rel=1e-3)


def test_tail_rate_extraction_within_0p1_percent():
    # log-linear fit over [5/(kappa_s - kappa), 10/kappa] for kappa_s >= 5 kappa
    for kappa2_mhz, ks_factor in ((1.005, 8.0), (3.046, 5.0), (7.581, 12.0)):
        kappa = KAPPA1 + from_two_pi_mhz(kappa2_mhz) + KAPPA_LOSS
        p = make_params(kappa2_mhz, kappa_s=ks_factor * kappa)
        t = np.linspace(5.0 / (p.kappa_s - p.kappa), 10.0 / p.kappa, 400)
        slope, _ = np.polyfit(t, np.log(reflected_intensity_analytic(p, t)), 1)
        assert -slope == pytest.approx(2.0 * p.kappa, rel=1e-3)


def test_instantaneous_switch_off_limit():
    # the drive vanishes at once, so only the leaking field 2 kappa2/kappa s0 e^{-kappa t} is left
    kappa = KAPPA1 + from_two_pi_mhz(3.08) + KAPPA_LOSS
    p = make_params(3.08, kappa_s=1e6 * kappa)
    t = np.linspace(1e-10, 5.0 / kappa, 50)
    leaked = (2.0 * p.kappa2 / kappa * p.s0) ** 2 * np.exp(-2.0 * kappa * t)
    np.testing.assert_allclose(reflected_intensity_analytic(p, t), leaked, rtol=1e-4)


def test_integration_matches_analytic_random_params():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        kappa1 = rng.uniform(0.05, 5.0)
        kappa2 = rng.uniform(0.05, 10.0)
        kappa_loss = rng.uniform(0.0, 5.0)
        kappa = kappa1 + kappa2 + kappa_loss
        p = RingdownParams(
            kappa1=from_two_pi_mhz(kappa1),
            kappa2=from_two_pi_mhz(kappa2),
            kappa_loss=from_two_pi_mhz(kappa_loss),
            kappa_s=from_two_pi_mhz(kappa) * rng.uniform(1.5, 30.0),
            s0=rng.uniform(0.3, 3.0),
        )
        t = np.linspace(0.0, 10.0 / p.kappa, 300)
        numeric = integrate_ringdown(p, t)
        exact = analytic_trace(p, t)
        deviation = np.max(np.abs(numeric.intensities - exact.intensities))
        assert deviation / np.max(exact.intensities) < 1e-6


def test_integration_handles_pre_switch_times():
    p = make_params(3.08)
    t = np.linspace(-20e-9, 100e-9, 200)
    numeric = integrate_ringdown(p, t)
    exact = analytic_trace(p, t)
    np.testing.assert_allclose(
        numeric.intensities, exact.intensities, atol=1e-8 * np.max(exact.intensities)
    )


def test_integration_rejects_unsorted_grid():
    p = make_params(3.08)
    with pytest.raises(ParameterError):
        integrate_ringdown(p, np.array([0.0, 1e-9, 0.5e-9]))


def test_no_output_coupler_reflects_input():
    p = RingdownParams(kappa1=KAPPA1, kappa2=0.0, kappa_loss=KAPPA_LOSS, kappa_s=KAPPA_S)
    t = np.linspace(-5e-9, 100e-9, 100)
    trace = integrate_ringdown(p, t)
    s_in = np.where(t < 0.0, 1.0, np.exp(-p.kappa_s * np.maximum(t, 0.0)))
    np.testing.assert_allclose(trace.intensities, s_in**2, rtol=1e-9, atol=1e-300)


def test_under_vs_over_coupling_profiles():
    other = KAPPA1 + KAPPA_LOSS
    under = RingdownParams(
        kappa1=KAPPA1, kappa2=0.3 * other, kappa_loss=KAPPA_LOSS, kappa_s=KAPPA_S
    )
    over = RingdownParams(
        kappa1=KAPPA1, kappa2=2.3 * other, kappa_loss=KAPPA_LOSS, kappa_s=KAPPA_S
    )
    t = np.linspace(1e-12, 200e-9, 5000)
    i_under = reflected_intensity_analytic(under, t)
    i_over = reflected_intensity_analytic(over, t)
    pre_under = reflected_intensity_analytic(under, -1e-12)
    pre_over = reflected_intensity_analytic(over, -1e-12)
    # undercoupling: the reflected field crosses zero (dip to ~0, then revival)
    assert np.min(i_under) < 1e-3 * pre_under
    # overcoupling: no zero crossing; intensity never drops below its floor
    # before the overall decay (compare against the pure-tail envelope)
    q = 2.0 * over.kappa2 / (over.kappa_s - over.kappa)
    a_coef = 2.0 * over.kappa2 / over.kappa + q
    b_coef = 1.0 + q
    envelope = a_coef**2 * np.exp(-2.0 * over.kappa * t)
    assert np.all(i_over / envelope >= (1.0 - b_coef / a_coef) ** 2 * (1.0 - 1e-9))
    assert reflected_intensity_analytic(over, 0.0) == pytest.approx(pre_over, rel=1e-12)


def test_lifetime_from_kappa():
    kappa = from_two_pi_mhz(6.4)
    lifetime = lifetime_from_kappa(kappa)
    assert lifetime == pytest.approx(1.0 / (2.0 * kappa), rel=1e-15)
    assert lifetime * 1e9 == pytest.approx(12.43, abs=0.01)
    assert abs(lifetime * 1e9 - 12.5) < 0.2  # measured photon lifetime, rounded
    assert lifetime_from_kappa(2.0 * kappa) == pytest.approx(lifetime / 2.0, rel=1e-15)


def test_kappa_from_lifetime_inverse():
    kappa = kappa_from_lifetime(18.4e-9)
    assert two_pi_mhz(kappa) == pytest.approx(4.325, abs=0.005)
    assert kappa_from_lifetime(lifetime_from_kappa(12345.0)) == pytest.approx(12345.0)
    with pytest.raises(ParameterError):
        lifetime_from_kappa(0.0)
    with pytest.raises(ParameterError):
        kappa_from_lifetime(-1.0)


def test_trace_invariants():
    with pytest.raises(ParameterError):
        RingdownTrace(np.array([0.0, 1.0, 0.5]), np.zeros(3))
    with pytest.raises(ParameterError):
        RingdownTrace(np.array([0.0, 1.0]), np.array([1.0, -0.5]))
    trace = RingdownTrace(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
    assert len(trace) == 2


def scipy_dop853(fun, t_end, y0, t_eval, rtol, atol):
    """A reference for ``ringdown._dopri5``: scipy's DOP853 at a tenth of its
    tolerances (rtol 1e-12 for the ring-down)."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda t, y: [fun(t, y[0])], (0.0, t_end), [y0], method="DOP853", t_eval=t_eval,
        rtol=rtol / 10, atol=atol / 10,
    )
    assert sol.success, sol.message
    return sol.y[0]


def random_grid(rng, p):
    """A strictly increasing grid: across the switch-off, from it, a single
    positive point, ending at t = 0, or all before it."""
    t_hi = rng.uniform(0.01, 30.0) / p.kappa
    points = int(rng.integers(2, 400))
    shape = rng.integers(5)
    if shape == 0:
        return np.linspace(-rng.uniform(0.0, 1.0) * t_hi, t_hi, points)
    if shape == 1:
        return np.linspace(rng.uniform(0.0, 0.5) * t_hi, t_hi, points)
    if shape == 2:
        return np.array([t_hi])
    if shape == 3:
        return np.linspace(-t_hi, 0.0, points)
    return np.linspace(-2.0 * t_hi, -t_hi, points)


def test_integration_matches_scipy_dop853_at_a_tighter_tolerance(monkeypatch):
    rng = np.random.default_rng(19)
    for _ in range(80):
        kappa1 = rng.uniform(0.05, 5.0)
        kappa2 = rng.uniform(0.0, 10.0)
        kappa_loss = rng.uniform(0.0, 5.0)
        p = RingdownParams(
            kappa1=from_two_pi_mhz(kappa1),
            kappa2=from_two_pi_mhz(kappa2),
            kappa_loss=from_two_pi_mhz(kappa_loss),
            kappa_s=from_two_pi_mhz(kappa1 + kappa2 + kappa_loss) * rng.uniform(1.01, 40.0),
            s0=10.0 ** rng.uniform(-3.0, 3.0),
        )
        t = random_grid(rng, p)
        ours = integrate_ringdown(p, t).intensities
        with monkeypatch.context() as patched:
            patched.setattr(ringdown, "_dopri5", scipy_dop853)
            reference = integrate_ringdown(p, t).intensities
        # in units of s0^2, not of the grid's own peak: a grid tens of
        # lifetimes out holds only values below the absolute tolerance
        assert np.max(np.abs(ours - reference)) < 1e-6 * p.s0**2


def nan_after(t_fail):
    """y' = -y until t_fail, then NaN: every later step is rejected."""

    def fun(t, y):
        return -y if t < t_fail else math.nan

    return fun


STEP_TOO_SMALL = (
    "ring-down integration failed near t = {} s: "
    "Required step size is less than spacing between numbers."
)


def test_a_failed_integration_reports_the_last_point_reached():
    t_eval = np.linspace(0.0, 10.0, 101)
    with pytest.raises(IntegrationError) as failure:
        ringdown._dopri5(nan_after(3.3), 10.0, 1.0, t_eval, 1e-9, 1e-12)
    assert str(failure.value) == STEP_TOO_SMALL.format("3.200e+00")


def test_a_nan_derivative_at_the_start_fails_at_t_zero_instead_of_stepping_forever():
    with pytest.raises(IntegrationError) as failure:
        ringdown._dopri5(nan_after(0.0), 10.0, 1.0, np.linspace(5.0, 10.0, 3), 1e-9, 1e-12)
    assert str(failure.value) == STEP_TOO_SMALL.format("0.000e+00")


def test_a_drive_whose_field_underflows_fails_through_main_at_t_zero(tmp_path, capsys):
    # field and absolute tolerance are both 0: every step's error is NaN and shrinks it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ringdown": {"s0": 5e-324}}))
    out = tmp_path / "out"
    assert cli.main(["ringdown", "--config", str(config), "--out", str(out), "--compare"]) == 3
    assert capsys.readouterr().err == f"numerical failure: {STEP_TOO_SMALL.format('0.000e+00')}\n"
    assert not out.exists()


def test_a_drive_that_overflows_the_steady_state_field_is_refused():
    with pytest.raises(ParameterError, match="s0 = 1e\\+305 overflows"):
        integrate_ringdown(make_params(3.08, s0=1e305), np.linspace(0.0, 1e-7, 5))
