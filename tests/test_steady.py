import dataclasses
import math

import numpy as np
import pytest

from fibercavity import (
    CavityGeometry,
    ParameterError,
    SystemParams,
    cooperativity,
    empty_cavity_peak_transmission,
    from_two_pi_mhz,
    mirror_to_rate,
    normal_modes,
    normalized_transmission,
    rate_to_mirror,
    transmission,
    transmission_peak_detunings,
    two_pi_mhz,
)
from fibercavity import cli
from fibercavity.experiment import ProbeConfig
from conftest import grid_peak_detunings


def test_lossless_symmetric_cavity_on_resonance():
    p = SystemParams(kappa1=1e6, kappa2=1e6, kappa_loss=0.0, gamma=1.0, g=0.0)
    assert transmission(p, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_empty_cavity_half_maximum_at_kappa():
    # critical coupling: kappa2 = kappa1 + kappa_loss
    p = SystemParams(kappa1=1e6, kappa2=1.5e6, kappa_loss=0.5e6, gamma=1.0, g=0.0)
    assert transmission(p, p.kappa) == pytest.approx(
        transmission(p, 0.0) / 2.0, rel=1e-12
    )


def test_measured_params_dip_and_peak_positions(measured_params):
    # on resonance the coupled system transmits far less than nearby detunings
    t0 = transmission(measured_params, 0.0)
    eps = from_two_pi_mhz(0.5)
    assert t0 < transmission(measured_params, eps)
    assert t0 < transmission(measured_params, -eps)
    # brute-force maxima agree with the closed-form peak locator
    peaks = grid_peak_detunings(
        measured_params, span=from_two_pi_mhz(25.0), step=from_two_pi_mhz(0.002)
    )
    assert peaks.size == 2
    exact = transmission_peak_detunings(measured_params)
    assert len(exact) == 2
    for found, expected in zip(np.sort(peaks), exact):
        assert abs(found - expected) <= from_two_pi_mhz(0.002)


def test_normalized_transmission_definition(measured_params):
    empty = measured_params.with_g(0.0)
    assert normalized_transmission(empty, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert normalized_transmission(empty, empty.kappa) == pytest.approx(0.5, rel=1e-12)
    # depth of the on-resonance dip exploited by the detection probe
    dip = normalized_transmission(measured_params, 0.0)
    kappa, gamma, g = measured_params.kappa, measured_params.gamma, measured_params.g
    assert dip == pytest.approx((kappa * gamma / (kappa * gamma + g**2)) ** 2, rel=1e-12)
    assert dip < 0.2


def test_normalized_transmission_requires_both_mirrors():
    p = SystemParams(kappa1=0.0, kappa2=1e6, kappa_loss=0.0, gamma=1.0, g=0.0)
    with pytest.raises(ParameterError, match="kappa1"):
        normalized_transmission(p, 0.0)


def test_transmission_even_in_detuning(measured_params):
    deltas = np.linspace(0.0, from_two_pi_mhz(30.0), 301)
    np.testing.assert_allclose(
        transmission(measured_params, deltas),
        transmission(measured_params, -deltas),
        rtol=1e-12,
    )


def test_transmission_reduces_to_lorentzian_when_uncoupled(measured_params):
    empty = measured_params.with_g(0.0)
    deltas = np.linspace(-from_two_pi_mhz(50.0), from_two_pi_mhz(50.0), 1001)
    lorentzian = (
        4.0 * empty.kappa1 * empty.kappa2 / (deltas**2 + empty.kappa**2)
    )
    np.testing.assert_allclose(transmission(empty, deltas), lorentzian, rtol=1e-12)


def test_peak_transmission_bounded_by_empty_peak():
    rng = np.random.default_rng(42)
    deltas = np.linspace(-1e9, 1e9, 2001)
    for _ in range(25):
        p = SystemParams(
            kappa1=rng.uniform(1e5, 5e7),
            kappa2=rng.uniform(1e5, 5e7),
            kappa_loss=rng.uniform(0.0, 5e7),
            gamma=rng.uniform(1e5, 5e7),
            g=rng.uniform(0.0, 1e8),
        )
        bound = empty_cavity_peak_transmission(p)
        assert float(np.max(transmission(p, deltas))) <= bound * (1.0 + 1e-12)


def test_normal_modes_uncoupled(measured_params):
    modes = normal_modes(measured_params.with_g(0.0))
    assert not modes.resolved
    assert modes.plus_detuning == 0.0 and modes.minus_detuning == 0.0
    widths = sorted((modes.plus_linewidth, modes.minus_linewidth))
    assert widths[0] == pytest.approx(2.0 * measured_params.gamma, rel=1e-12)
    assert widths[1] == pytest.approx(2.0 * measured_params.kappa, rel=1e-12)


def test_normal_modes_strong_coupling_asymptotics(measured_params):
    g = from_two_pi_mhz(5000.0)
    modes = normal_modes(measured_params.with_g(g))
    assert modes.resolved
    assert modes.splitting == pytest.approx(2.0 * g, rel=1e-3)
    assert modes.plus_linewidth == pytest.approx(
        measured_params.kappa + measured_params.gamma, rel=1e-12
    )


def test_normal_modes_measured_splitting(measured_params):
    modes = normal_modes(measured_params)
    expected = 2.0 * math.sqrt(
        measured_params.g**2
        - ((measured_params.kappa - measured_params.gamma) / 2.0) ** 2
    )
    assert modes.splitting == pytest.approx(expected, rel=1e-12)
    assert two_pi_mhz(expected) == pytest.approx(15.13, abs=0.01)


def test_normal_modes_match_grid_peaks_when_far_resolved(measured_params):
    # peak pull ((kappa+gamma)/2)^2 / (2g) shrinks below the grid step only
    # deep in the resolved regime
    g = from_two_pi_mhz(1500.0)
    p = measured_params.with_g(g)
    modes = normal_modes(p)
    step = from_two_pi_mhz(0.002)
    peaks = grid_peak_detunings(
        p, span=from_two_pi_mhz(1520.0), step=step
    )
    upper = peaks[peaks > 0]
    assert upper.size == 1
    assert abs(upper[0] - modes.plus_detuning) <= from_two_pi_mhz(0.01)


def test_peak_locator_single_peak_when_weakly_coupled(measured_params):
    p = measured_params.with_g(from_two_pi_mhz(0.2))
    assert transmission_peak_detunings(p) == (0.0,)


def test_peak_locator_requires_co_resonance(measured_params):
    p = dataclasses.replace(measured_params, cavity_detuning=from_two_pi_mhz(5.0))
    with pytest.raises(ParameterError):
        transmission_peak_detunings(p)


def test_cavity_detuning_shifts_empty_resonance(measured_params):
    detuned = dataclasses.replace(
        measured_params.with_g(0.0), cavity_detuning=from_two_pi_mhz(5.0)
    )
    deltas = np.linspace(-from_two_pi_mhz(20), from_two_pi_mhz(20), 4001)
    values = transmission(detuned, deltas)
    assert abs(deltas[np.argmax(values)] - detuned.cavity_detuning) < from_two_pi_mhz(0.02)


def test_mirror_to_rate_reference_values():
    geom = CavityGeometry(length=0.33, effective_index=1.45)
    kappa1 = mirror_to_rate(0.005, geom)  # FBG1 reflectivity 99.5 %
    assert two_pi_mhz(kappa1) == pytest.approx(0.12, rel=0.10)
    assert mirror_to_rate(0.0, geom) == 0.0
    # round-trip taper loss of 2pi x 3.2 MHz corresponds to ~94 % one-way
    fraction = rate_to_mirror(from_two_pi_mhz(3.2), geom)
    one_way = math.sqrt(1.0 - fraction)
    assert abs(one_way * 100.0 - 94.0) < 1.0


def test_mirror_to_rate_linear():
    geom = CavityGeometry(length=0.33, effective_index=1.45)
    assert mirror_to_rate(0.02, geom) == pytest.approx(
        2.0 * mirror_to_rate(0.01, geom), rel=1e-12
    )
    with pytest.raises(ParameterError):
        mirror_to_rate(1.0, geom)
    with pytest.raises(ParameterError):
        mirror_to_rate(-0.1, geom)


def test_cooperativity(measured_params):
    assert cooperativity(measured_params.with_g(0.0)) == 0.0
    value = cooperativity(measured_params)
    assert value == pytest.approx(7.8**2 / (2.0 * 6.4 * 2.6), rel=1e-12)
    doubled = cooperativity(measured_params.with_g(2.0 * measured_params.g))
    assert doubled == pytest.approx(4.0 * value, rel=1e-12)


def jaynes_cummings_transmission(params, delta, g, photon_flux, photons=6):
    """T = 2 kappa2 <a^dag a> / flux in the Lindblad steady state of the driven
    Jaynes-Cummings model, truncated at ``photons`` Fock states (test oracle).

    In the frame of the probe, H = -(Delta - Delta_C) a^dag a - Delta s+ s-
    + g (a^dag s- + a s+) + eps (a + a^dag) with eps = sqrt(2 kappa1 flux), and
    the collapse operators are sqrt(2 kappa) a and sqrt(2 gamma) s-. Rates go
    in 2pi x MHz, so the Liouvillian and the trace row are of one scale.
    """
    unit = from_two_pi_mhz(1.0)
    kappa, kappa1, kappa2, gamma, delta_c, delta, g, flux = (
        x / unit for x in (params.kappa, params.kappa1, params.kappa2, params.gamma,
                           params.cavity_detuning, delta, g, photon_flux)
    )
    a = np.kron(np.diag(np.sqrt(np.arange(1.0, photons)), 1), np.eye(2))
    lower = np.kron(np.eye(photons), np.array([[0.0, 1.0], [0.0, 0.0]]))  # atom (g, e)
    hamiltonian = (
        -(delta - delta_c) * a.T @ a - delta * lower.T @ lower
        + g * (a.T @ lower + lower.T @ a) + math.sqrt(2.0 * kappa1 * flux) * (a + a.T)
    )
    one = np.eye(2 * photons)
    # column-stacked vec(A rho B) = (B^T kron A) vec(rho)
    liouvillian = -1j * (np.kron(one, hamiltonian) - np.kron(hamiltonian.T, one))
    for jump in (math.sqrt(2.0 * kappa) * a, math.sqrt(2.0 * gamma) * lower):
        number = jump.T @ jump
        liouvillian += (
            np.kron(jump.conj(), jump) - 0.5 * np.kron(one, number) - 0.5 * np.kron(number.T, one)
        )
    system = np.vstack([liouvillian, one.reshape(1, -1)])  # last row: trace rho = 1
    rhs = np.zeros(system.shape[0])
    rhs[-1] = 1.0
    rho = np.linalg.lstsq(system, rhs, rcond=None)[0].reshape(one.shape, order="F")
    photons_inside = np.trace(a.T @ a @ rho).real
    return 2.0 * kappa2 * photons_inside / flux


def closed_form_deviation(params, power_w, deltas, couplings):
    """Largest |T_oracle / T - 1| over the detunings and couplings."""
    flux = ProbeConfig(power=power_w, duration=1.0).photon_flux
    return max(
        abs(jaynes_cummings_transmission(params, delta, g, flux)
            / transmission(params, delta, g) - 1.0)
        for g in couplings
        for delta in deltas
    )


def test_transmission_is_the_weak_drive_limit_of_the_master_equation(measured_params):
    # 4e-15 W puts 1.6e-5 photons in the empty cavity, against n0 = 0.056 at g_max
    deltas = np.linspace(-25.0, 25.0, 21) * from_two_pi_mhz(1.0)
    couplings = np.linspace(0.0, measured_params.g, 5)
    assert closed_form_deviation(measured_params, 4e-15, deltas, couplings) < 1e-3


def test_the_closed_form_deviates_from_the_master_equation_linearly_in_power(measured_params):
    # at the dip on resonance with g = g_max, where the probe saturates the atom most
    weak, strong = (
        closed_form_deviation(measured_params, power, [0.0], [measured_params.g])
        for power in (4e-15, 4e-14)
    )
    assert strong / weak == pytest.approx(10.0, rel=0.05)


def test_the_default_probes_are_weak_enough_for_the_closed_form(measured_params):
    sequence, grid = cli.EXPERIMENT["sequence"], cli.EXPERIMENT["detunings"]
    unit = from_two_pi_mhz(1.0)
    couplings = np.linspace(0.0, sequence["g_max"].default["value"], 5) * unit
    deltas = np.linspace(
        grid["min"].default["value"], grid["max"].default["value"], grid["points"].default
    ) * unit
    # the detection probe is resonant; the spectroscopy probe scans the grid
    detection = closed_form_deviation(
        measured_params, sequence["detection"]["power_w"].default, [0.0], couplings
    )
    spectroscopy = closed_form_deviation(
        measured_params, sequence["spectroscopy"]["power_w"].default, deltas, couplings
    )
    assert detection < 0.03
    assert spectroscopy < 0.015
