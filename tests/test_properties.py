"""Property tests of physics invariants and of the ensemble's random streams.

Derandomized: every run checks the same examples.
"""

import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibercavity import (
    CavityGeometry,
    Ensemble,
    ProbeConfig,
    RingdownParams,
    SequenceConfig,
    SystemParams,
    analytic_trace,
    from_two_pi_mhz,
    integrate_ringdown,
    mirror_to_rate,
    normalized_transmission,
    rate_to_mirror,
    reflected_intensity_analytic,
    run_ensemble,
    transmission,
)
from fibercavity.dataio import detuning_keys, write_events_jsonl

TW = from_two_pi_mhz(1.0)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

rates = st.floats(0.01, 200.0).map(lambda mhz: mhz * TW)
detunings = st.floats(-300.0, 300.0).map(lambda mhz: mhz * TW)


@st.composite
def systems(draw, cavity_detuning=detunings):
    return SystemParams(
        kappa1=draw(rates),
        kappa2=draw(rates),
        kappa_loss=draw(st.just(0.0) | rates),
        gamma=draw(rates),
        g=draw(st.just(0.0) | rates),
        cavity_detuning=draw(cavity_detuning),
    )


@PROPERTY
@given(
    params=systems(),
    deltas=st.lists(detunings, min_size=1, max_size=12),
    couplings=st.lists(st.just(0.0) | rates, min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_transmission_coupling_column_matches_per_coupling_calls(
    params, deltas, couplings, seed
):
    # a last-bit difference in g^2 shows for about 1 coupling in 600, so a
    # seeded batch of 256 uniform couplings rides along with the drawn ones
    couplings = couplings + (np.random.default_rng(seed).uniform(0.0, 200.0, 256) * TW).tolist()
    deltas = np.array(deltas)
    column = np.array(couplings)[:, None]
    broadcast = transmission(params, deltas, g=column)
    one_by_one = np.array([transmission(params.with_g(g), deltas) for g in couplings])
    assert broadcast.shape == (len(couplings), deltas.size)
    np.testing.assert_array_equal(broadcast, one_by_one)


@PROPERTY
@given(params=systems(cavity_detuning=st.just(0.0)), delta=detunings)
def test_co_resonant_transmission_is_even_in_detuning(params, delta):
    assert transmission(params, -delta) == pytest.approx(transmission(params, delta), rel=1e-12)


@PROPERTY
@given(params=systems())
def test_normalized_empty_cavity_transmission_is_one_at_zero_detuning(params):
    empty = params.with_g(0.0)
    assert normalized_transmission(empty, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert normalized_transmission(params, [0.0], g=[0.0]) == pytest.approx([1.0], rel=1e-12)


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@PROPERTY
@given(
    params=systems(),
    deltas=st.lists(detunings, min_size=2, max_size=12),
    index=st.integers(0, 11),
    g=st.just(0.0) | rates,
)
def test_a_scalar_detuning_gets_the_bits_of_its_grid_element(params, deltas, index, g):
    index %= len(deltas)
    grid = np.array(deltas)
    delta = deltas[index]
    kernels = {
        "transmission": lambda d: transmission(params, d),
        "transmission with g": lambda d: transmission(params, d, g=g),
        "normalized_transmission": lambda d: normalized_transmission(params, d),
    }
    for name, kernel in kernels.items():
        scalar = kernel(delta)
        assert type(scalar) is float, name
        assert bits(scalar) == bits(kernel(np.array([delta]))) == bits(kernel(grid)[index]), name
    grid[index] = 0.0
    assert normalized_transmission(params.with_g(0.0), grid)[index] == 1.0


@PROPERTY
@given(
    kappa1=rates,
    kappa2=st.just(0.0) | rates,
    kappa_loss=st.just(0.0) | rates,
    ratio=st.floats(1.2, 40.0),
    s0=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_scalar_time_gets_the_bits_of_its_grid_element(
    kappa1, kappa2, kappa_loss, ratio, s0, seed
):
    kappa = kappa1 + kappa2 + kappa_loss
    params = RingdownParams(kappa1, kappa2, kappa_loss, kappa_s=ratio * kappa, s0=s0)
    # a last-bit difference in |s_out|^2 shows for about 1 time in 3000, so
    # each example checks a seeded batch of 256 times
    times = np.random.default_rng(seed).uniform(-2.0, 12.0, 256) / kappa
    grid = reflected_intensity_analytic(params, times)
    for index, t in enumerate(times.tolist()):
        scalar = reflected_intensity_analytic(params, t)
        assert type(scalar) is float
        assert bits(scalar) == bits(reflected_intensity_analytic(params, [t])) == bits(grid[index])


@PROPERTY
@given(
    kappa1=rates,
    kappa2=st.just(0.0) | rates,
    kappa_loss=st.just(0.0) | rates,
    ratio=st.floats(1.2, 40.0),
    s0=st.floats(0.1, 10.0),
)
def test_closed_form_ringdown_matches_the_integration(kappa1, kappa2, kappa_loss, ratio, s0):
    kappa = kappa1 + kappa2 + kappa_loss
    params = RingdownParams(kappa1, kappa2, kappa_loss, kappa_s=ratio * kappa, s0=s0)
    t = np.linspace(-2.0 / kappa, 12.0 / kappa, 201)
    exact = analytic_trace(params, t).intensities
    numeric = integrate_ringdown(params, t).intensities
    # the integrator's relative tolerance is 1e-11; 1e-6 of the peak is the
    # bound the benchmark's check holds `ringdown --compare` to
    assert np.max(np.abs(numeric - exact)) <= 1e-6 * np.max(exact)


@PROPERTY
@given(
    fraction=st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False),
    length=st.floats(1e-3, 100.0),
    effective_index=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
)
def test_rate_to_mirror_inverts_mirror_to_rate(fraction, length, effective_index):
    geom = CavityGeometry(length, effective_index)
    # three roundings each way, at most 2**-53 relative each
    back = rate_to_mirror(mirror_to_rate(fraction, geom), geom)
    assert back == pytest.approx(fraction, rel=4 * np.finfo(float).eps, abs=0.0)


@PROPERTY
@given(
    n=st.integers(0, 12),
    m=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    load_probability=st.floats(0.0, 0.95),
    poisson_loading=st.booleans(),
    hold_time=st.sampled_from([0.0, 5e-3]),
)
def test_sequences_do_not_depend_on_ensemble_size(
    n, m, seed, load_probability, poisson_loading, hold_time
):
    system = SystemParams(
        kappa1=0.12 * TW, kappa2=3.08 * TW, kappa_loss=3.2 * TW, gamma=2.6 * TW, g=7.8 * TW
    )
    config = SequenceConfig(
        load_probability=load_probability,
        g_max=7.8 * TW,
        detection=ProbeConfig(power=0.8e-12, duration=2e-3),
        spectroscopy=ProbeConfig(power=0.4e-12, duration=5e-3),
        hold_time=hold_time,
        poisson_loading=poisson_loading,
        normalization_drift=1e-3,
    )
    grid = np.array([-10.0, 0.0, 10.0]) * TW
    short = run_ensemble(system, config, grid, n, base_seed=seed)
    long = run_ensemble(system, config, grid, n + m, base_seed=seed)
    assert len(short) == n and len(long) == n + m
    np.testing.assert_array_equal(long.detunings, short.detunings)
    for field in dataclasses.fields(Ensemble):
        if field.name != "detunings":
            np.testing.assert_array_equal(
                getattr(long, field.name)[:n], getattr(short, field.name), err_msg=field.name
            )


def json_dumps_events(ensemble) -> str:
    """events.jsonl as ``json.dumps(..., sort_keys=True)`` writes each record."""
    keys = detuning_keys(ensemble.detunings)
    return "".join(
        json.dumps({
            "atom_present": present,
            "local_g": {"value": g, "unit": "two_pi_mhz"},
            "detection_counts": detection,
            "normalized_detection": normalized,
            "level": level,
            "spectroscopy_counts": dict(zip(keys, counts)),
            "survived_hold": survived,
        }, sort_keys=True) + "\n"
        for present, g, detection, normalized, level, counts, survived in zip(
            ensemble.atom_present.tolist(),
            (ensemble.local_g / TW).tolist(),
            ensemble.detection_counts.tolist(),
            ensemble.normalized_detection.tolist(),
            ensemble.level.tolist(),
            ensemble.spectroscopy_counts.tolist(),
            ensemble.survived_hold.tolist(),
        )
    )


finite = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(
    n=st.integers(0, 300),
    grid_khz=st.lists(st.integers(-50_000, 50_000), min_size=1, max_size=9, unique=True),
    poisson_loading=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    g_values=st.lists(finite.map(abs), max_size=4),
    normalized_values=st.lists(finite, max_size=4),
)
@example(n=0, grid_khz=[0], poisson_loading=False, seed=0, g_values=[], normalized_values=[])
@example(n=3, grid_khz=[1_000], poisson_loading=False, seed=1, g_values=[], normalized_values=[])
@example(
    n=40, grid_khz=[-10_000, -1_000, 0, 1_000, 10_000, -1_500, 25_000], poisson_loading=False,
    seed=2, g_values=[], normalized_values=[-0.0, 5e-324, 1e16],
)
@example(n=300, grid_khz=[-2_000, 2_000], poisson_loading=True, seed=3, g_values=[],
         normalized_values=[])
def test_events_jsonl_is_what_json_dumps_writes(
    n, grid_khz, poisson_loading, seed, g_values, normalized_values
):
    system = SystemParams(
        kappa1=0.12 * TW, kappa2=3.08 * TW, kappa_loss=3.2 * TW, gamma=2.6 * TW, g=7.8 * TW
    )
    config = SequenceConfig(
        load_probability=0.6,
        g_max=7.8 * TW,
        detection=ProbeConfig(power=0.8e-12, duration=2e-3),
        spectroscopy=ProbeConfig(power=0.4e-12, duration=5e-3),
        hold_time=5e-3,
        poisson_loading=poisson_loading,
    )
    grid = np.array(grid_khz) * 1e-3 * TW
    ensemble = run_ensemble(system, config, grid, n, base_seed=seed)
    # drawn floats replace the first values, to cover every form repr takes
    local_g, normalized = ensemble.local_g.copy(), ensemble.normalized_detection.copy()
    local_g[: len(g_values)] = g_values[:n]
    normalized[: len(normalized_values)] = normalized_values[: n]
    ensemble = dataclasses.replace(ensemble, local_g=local_g, normalized_detection=normalized)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "events.jsonl")
        write_events_jsonl(path, ensemble)
        with open(path, encoding="utf-8", newline="") as handle:
            assert handle.read() == json_dumps_events(ensemble)
