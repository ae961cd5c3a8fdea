import dataclasses
import math

import numpy as np
import pytest
from scipy import constants as sc
from scipy.stats import kstest

from fibercavity import (
    Ensemble,
    ParameterError,
    ProbeConfig,
    SequenceConfig,
    accumulate_spectra,
    classify_level,
    expected_count_rate,
    fit_exponential_recovery,
    fit_rabi_g,
    from_two_pi_mhz,
    level_occupancy,
    local_g_cdf,
    normalized_transmission,
    run_ensemble,
    sample_local_g,
    transmission_peak_detunings,
)
from fibercavity import experiment
from fibercavity.dataio import DataFormatError, write_events_jsonl
from fibercavity.experiment import _load, _stream_words, empty_cavity_signal_rate, sequence_rng
from fibercavity.steady import rows_per_block

TW = from_two_pi_mhz(1.0)


def make_config(**overrides):
    defaults = dict(
        load_probability=0.3,
        g_max=7.8 * TW,
        detection=ProbeConfig(power=0.8e-12, duration=2e-3),
        spectroscopy=ProbeConfig(power=0.4e-12, duration=5e-3),
        background_rate=1e4,
        detector_efficiency=0.5,
        trap_lifetime=11e-3,
        hold_time=0.0,
    )
    defaults.update(overrides)
    return SequenceConfig(**defaults)


def test_sample_local_g_basics():
    rng = np.random.default_rng(1)
    assert sample_local_g(0.0, rng) == 0.0
    g_max = 7.8 * TW
    draws = np.array([sample_local_g(g_max, rng) for _ in range(2000)])
    assert np.all(draws >= 0.0) and np.all(draws <= g_max)
    with pytest.raises(ParameterError):
        sample_local_g(-1.0, rng)


def test_sample_local_g_matches_arcsine_cdf():
    rng = np.random.default_rng(2)
    g_max = 1.0
    draws = np.array([sample_local_g(g_max, rng) for _ in range(100_000)])
    statistic = kstest(draws, lambda x: local_g_cdf(x)).statistic
    assert statistic < 0.01


def test_expected_count_rate_photon_flux(measured_params):
    probe = ProbeConfig(power=0.8e-12, duration=2e-3)
    omega = 2.0 * math.pi * sc.c / probe.wavelength
    assert probe.photon_flux == pytest.approx(0.8e-12 / (sc.hbar * omega), rel=1e-12)
    assert probe.photon_flux == pytest.approx(3.43e6, rel=2e-3)


def test_expected_count_rate_limits(measured_params):
    probe = ProbeConfig(power=0.8e-12, duration=2e-3)
    strong = measured_params.with_g(5000.0 * TW)
    rate = expected_count_rate(strong, probe, background_rate=1e4, detector_efficiency=0.5)
    assert rate == pytest.approx(1e4, rel=1e-3)  # full extinction leaves background
    faint = ProbeConfig(power=1e-300, duration=2e-3)
    assert expected_count_rate(
        measured_params, faint, background_rate=1e4, detector_efficiency=0.5
    ) == pytest.approx(1e4, rel=1e-15)


def test_expected_count_rate_composition(measured_params):
    probe = ProbeConfig(power=0.8e-12, duration=2e-3, detuning=3.0 * TW)
    rate = expected_count_rate(measured_params, probe, 1e4, 0.5)
    signal = (
        0.5
        * probe.photon_flux
        * normalized_transmission(measured_params, probe.detuning)
        * (4 * measured_params.kappa1 * measured_params.kappa2 / measured_params.kappa**2)
    )
    assert rate == pytest.approx(signal + 1e4, rel=1e-12)

    # (n, 1) couplings and gains over a grid: each row is that row's scalar call, bit for bit
    grid = np.linspace(-20.0, 20.0, 41) * TW
    g = np.array([0.0, 1.3, 7.8, 25.0])[:, None] * TW
    gain = np.array([1.0, 0.75, 1.0 + 3e-4, 2.5])[:, None]
    rows = expected_count_rate(measured_params, probe, 1e4, 0.5, grid, g, gain)
    assert rows.shape == (4, grid.size)
    for row, g_i, gain_i in zip(rows, g[:, 0].tolist(), gain[:, 0].tolist()):
        scalar = expected_count_rate(measured_params, probe, 1e4, 0.5, grid, g=g_i, gain=gain_i)
        np.testing.assert_array_equal(row, scalar)


def test_classify_level_ordering():
    edges = np.array([1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6])
    assert classify_level(1.2, edges) == 1   # above the top edge: no atom
    assert classify_level(0.9, edges) == 1
    assert classify_level(0.0, edges) == 6
    assert classify_level(-0.2, edges) == 6  # shot noise can undershoot
    assert classify_level(0.25, edges) == 5
    assert classify_level(0.55, edges) == 3
    with pytest.raises(ParameterError):
        classify_level(0.5, np.array([0.5, 0.4, 0.6, 0.7, 0.8]))


def test_sequence_config_validation():
    with pytest.raises(ParameterError):
        make_config(load_probability=1.5)
    with pytest.raises(ParameterError):
        make_config(bin_edges=(0.1, 0.2, 0.3, 0.4))
    with pytest.raises(ParameterError):
        make_config(bin_edges=(0.0, 0.2, 0.4, 0.6, 0.8))
    with pytest.raises(ParameterError):
        make_config(detector_efficiency=0.0)


def test_run_sequence_no_loading(measured_params):
    config = make_config(load_probability=0.0)
    detunings = np.linspace(-25.0, 25.0, 5) * TW
    ensemble = run_ensemble(measured_params, config, detunings, 200, base_seed=5)
    assert not ensemble.atom_present.any()
    assert np.all(ensemble.local_g == 0.0)
    occupancy = level_occupancy(ensemble)
    assert occupancy[1] >= 0.9 * len(ensemble)  # concentrated at no-reduction


def test_run_sequence_record_consistency(measured_params):
    config = make_config(load_probability=1.0)
    detunings = np.linspace(-25.0, 25.0, 5) * TW
    ensemble = run_ensemble(measured_params, config, detunings, 1, base_seed=123)
    assert ensemble.atom_present[0]
    assert 0.0 <= ensemble.local_g[0] <= config.g_max
    assert ensemble.level[0] == classify_level(
        ensemble.normalized_detection[0], config.bin_edges
    )
    np.testing.assert_array_equal(ensemble.detunings, detunings)
    assert ensemble.spectroscopy_counts.shape == (1, detunings.size)
    assert np.all(ensemble.spectroscopy_counts >= 0)


def test_rng_streams_deterministic(measured_params):
    config = make_config()
    detunings = np.linspace(-25.0, 25.0, 5) * TW
    a = run_ensemble(measured_params, config, detunings, 50, base_seed=9)
    b = run_ensemble(measured_params, config, detunings, 50, base_seed=9)
    c = run_ensemble(measured_params, config, detunings, 50, base_seed=10)

    def same(x, y):
        return all(
            np.array_equal(getattr(x, f.name), getattr(y, f.name))
            for f in dataclasses.fields(Ensemble)
        )

    assert same(a, b)
    assert not same(a, c)


def test_occupancy_monotone_under_paired_seeds(measured_params):
    detunings = np.array([0.0])
    counts = []
    for p in (0.05, 0.15, 0.4, 0.8):
        config = make_config(load_probability=p)
        ensemble = run_ensemble(measured_params, config, detunings, 400, base_seed=77)
        occupancy = level_occupancy(ensemble)
        counts.append(sum(occupancy[level] for level in range(2, 7)))
    assert counts == sorted(counts)


def test_survival_statistics(measured_params):
    lifetime = 11e-3
    detunings = np.array([0.0])
    fractions = []
    holds = np.array([0.0, 5e-3, 10e-3, 20e-3, 40e-3])
    for i, hold in enumerate(holds):
        config = make_config(load_probability=1.0, hold_time=hold, trap_lifetime=lifetime)
        ensemble = run_ensemble(measured_params, config, detunings, 4000, base_seed=31 + i)
        survived = int(ensemble.survived_hold.sum())
        fractions.append(survived / len(ensemble))
    expected = np.exp(-holds / lifetime)
    np.testing.assert_allclose(fractions, expected, atol=0.03)
    slope = np.polyfit(holds, np.log(fractions), 1)[0]
    assert -1.0 / slope == pytest.approx(lifetime, rel=0.05)


def test_transmission_recovery_fits_trap_lifetime(measured_params):
    lifetime = 11e-3
    detunings = np.array([0.0])
    holds = np.linspace(0.0, 40e-3, 9)
    means = []
    for i, hold in enumerate(holds):
        config = make_config(load_probability=1.0, hold_time=float(hold))
        ensemble = run_ensemble(measured_params, config, detunings, 3000, base_seed=101 + i)
        spectra = accumulate_spectra(ensemble, measured_params, config)
        stacked = np.concatenate(
            [spectra[level].values * int(np.sum(ensemble.level == level))
             for level in spectra]
        )
        total = sum(int(np.sum(ensemble.level == level)) for level in spectra)
        means.append(float(stacked.sum() / total))
    fit = fit_exponential_recovery(holds, np.array(means))
    assert fit.converged
    assert fit["lifetime"] == pytest.approx(lifetime, rel=0.05)


def test_accumulate_spectra_empty_cavity(measured_params):
    config = make_config(load_probability=0.0)
    detunings = np.linspace(-25.0, 25.0, 21) * TW
    ensemble = run_ensemble(measured_params, config, detunings, 400, base_seed=3)
    spectra = accumulate_spectra(ensemble, measured_params, config)
    # detection shot noise leaks a few percent of no-atom events into level 2,
    # but the deep-reduction levels stay empty and absent (not zero spectra)
    occupancy = level_occupancy(ensemble)
    assert occupancy[1] >= 0.9 * len(ensemble)
    assert 6 not in spectra and 5 not in spectra
    spectrum = spectra[1]
    clean = normalized_transmission(measured_params.with_g(0.0), detunings)
    np.testing.assert_allclose(spectrum.values, clean, atol=0.05)
    assert spectrum.sigmas is not None and np.all(spectrum.sigmas > 0.0)


def test_accumulate_spectra_level6_two_peaks(measured_params):
    config = make_config(load_probability=1.0, g_max=7.8 * TW)
    detunings = np.linspace(-25.0, 25.0, 51) * TW
    ensemble = run_ensemble(measured_params, config, detunings, 4000, base_seed=8)
    spectra = accumulate_spectra(ensemble, measured_params, config)
    assert 6 in spectra
    values = spectra[6].values
    grid = spectra[6].deltas
    # two-peaked: maxima near the closed-form transmission peak positions of
    # the dominant (near-maximal) coupling
    left = grid < 0
    right = grid > 0
    peak_left = grid[left][np.argmax(values[left])]
    peak_right = grid[right][np.argmax(values[right])]
    lo, hi = transmission_peak_detunings(measured_params)
    step = grid[1] - grid[0]
    assert abs(peak_left - lo) <= 3 * step
    assert abs(peak_right - hi) <= 3 * step
    assert values[np.argmin(np.abs(grid))] < 0.3  # deep central dip


def test_fitted_g_invariant_under_loading_probability(measured_params):
    detunings = np.linspace(-25.0, 25.0, 21) * TW
    fits = []
    for p in (0.05, 0.5):
        config = make_config(load_probability=p)
        ensemble = run_ensemble(measured_params, config, detunings, 4000, base_seed=55)
        spectra = accumulate_spectra(ensemble, measured_params, config)
        fit = fit_rabi_g(spectra[6], measured_params)
        fits.append(fit)
    ga, gb = fits[0]["g"], fits[1]["g"]
    sa, sb = fits[0].uncertainty("g"), fits[1].uncertainty("g")
    assert abs(ga - gb) <= 2.0 * math.hypot(sa, sb)


def test_poisson_loading_mode(measured_params):
    config = make_config(load_probability=0.6, poisson_loading=True)
    detunings = np.array([0.0])
    ensemble = run_ensemble(measured_params, config, detunings, 500, base_seed=21)
    present = int(ensemble.atom_present.sum())
    assert present / len(ensemble) == pytest.approx(0.6, abs=0.06)
    # collective coupling can exceed the single-atom maximum
    assert np.any(ensemble.local_g > config.g_max)
    with pytest.raises(ParameterError):
        config = make_config(load_probability=1.0, poisson_loading=True)
        run_ensemble(measured_params, config, detunings, 1, base_seed=0)


def test_accumulate_spectra_no_records(measured_params):
    config = make_config()
    empty = run_ensemble(measured_params, config, np.array([0.0]), 0)
    assert accumulate_spectra(empty, measured_params, config) == {}


def test_empty_cavity_signal_rate_consistency(measured_params):
    probe = ProbeConfig(power=0.4e-12, duration=5e-3)
    signal = empty_cavity_signal_rate(measured_params, probe, 0.5)
    rate = expected_count_rate(measured_params.with_g(0.0), probe, 0.0, 0.5)
    assert signal == pytest.approx(rate, rel=1e-12)


def test_normalization_drift_biases_uncorrected_values(measured_params):
    detunings = np.array([0.0])
    n = 400
    drifting = make_config(load_probability=0.0, normalization_drift=5e-4)
    values = run_ensemble(
        measured_params, drifting, detunings, n, base_seed=12
    ).normalized_detection
    # signal gain ramps to 1.2 by the last sequence while the normalization
    # stays fixed, so the late-half mean sits visibly above the early half
    early, late = values[: n // 2].mean(), values[n // 2 :].mean()
    assert late - early == pytest.approx(0.5 * 5e-4 * n, rel=0.25)
    steady_cfg = make_config(load_probability=0.0)
    steady_values = run_ensemble(
        measured_params, steady_cfg, detunings, n, base_seed=12
    ).normalized_detection
    assert abs(steady_values.mean() - 1.0) < 0.02


def test_classify_level_accepts_arrays():
    edges = np.array([1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6])
    values = np.array([[1.2, 0.9, 0.0], [-0.2, 0.25, 0.55]])
    levels = classify_level(values, edges)
    assert levels.shape == values.shape
    assert levels.tolist() == [[classify_level(v, edges) for v in row] for row in values]


def test_poisson_loading_bound_is_a_config_check():
    with pytest.raises(ParameterError, match="poisson_loading"):
        make_config(load_probability=1.0, poisson_loading=True)
    make_config(load_probability=1.0)  # certain single-atom loading stays valid


def test_spectroscopy_probe_detuning_other_than_zero_is_a_config_check():
    spectroscopy = ProbeConfig(power=0.4e-12, duration=5e-3, detuning=10.0 * TW)
    with pytest.raises(ParameterError, match="spectroscopy detuning must be 0") as caught:
        make_config(spectroscopy=spectroscopy)
    assert caught.value.field == "spectroscopy/detuning"
    make_config(detection=ProbeConfig(power=0.8e-12, duration=2e-3, detuning=10.0 * TW))


@pytest.mark.parametrize("probe", ["detection", "spectroscopy"])
def test_mean_count_beyond_the_poisson_sampler_is_rejected_before_drawing(
    measured_params, monkeypatch, probe
):
    def no_draws(*args):
        raise AssertionError("drew before checking the mean counts")

    monkeypatch.setattr(experiment, "_sequence_streams", no_draws)
    config = make_config(**{probe: ProbeConfig(power=1e3, duration=1e3)})
    with pytest.raises(ParameterError, match="Poisson mean") as caught:
        run_ensemble(measured_params, config, np.array([0.0]), 3, base_seed=1)
    assert caught.value.field == probe
    run_ensemble(measured_params, config, np.array([0.0]), 0)  # nothing to draw


def test_largest_mean_count_reaches_its_bound_and_draws(measured_params):
    # An empty cavity probed at the cavity detuning transmits the bound
    # 1 + (cavity_detuning / kappa)^2 of T_norm; the last sequence has the
    # largest gain, 1 + 0.5 * 2.
    system = dataclasses.replace(measured_params, cavity_detuning=4.0 * TW)
    detunings = np.array([-4.0, 0.0, 4.0]) * TW
    unit = ProbeConfig(power=1.0, duration=1.0)
    signal = empty_cavity_signal_rate(system, unit, 0.5)
    peak = 2.0 * (1.0 + (system.cavity_detuning / system.kappa) ** 2)
    power = (0.999 * experiment.POISSON_MEAN_LIMIT - 1e4) / (peak * signal)
    config = make_config(load_probability=0.0, normalization_drift=0.5,
                         spectroscopy=ProbeConfig(power=power, duration=1.0))
    ensemble = run_ensemble(system, config, detunings, 3, base_seed=5)
    assert ensemble.spectroscopy_counts.dtype == np.int64
    assert ensemble.spectroscopy_counts[2, 2] > 0.998 * experiment.POISSON_MEAN_LIMIT
    over = dataclasses.replace(config, spectroscopy=ProbeConfig(power=1.01 * power, duration=1.0))
    with pytest.raises(ParameterError) as caught:
        experiment.check_ensemble(system, over, 3)
    assert caught.value.field == "spectroscopy"


@pytest.mark.parametrize("n, points, loading", [
    (2000, 1001, dict(load_probability=0.5, poisson_loading=True)),  # ensemble-wide of bench/
    (20000, 21, {}),  # ensemble-narrow of bench/
])
def test_bench_sized_counts_are_uint16(measured_params, n, points, loading):
    config = make_config(hold_time=5e-3, **loading)
    detunings = np.linspace(-25.0, 25.0, points) * TW
    counts = run_ensemble(measured_params, config, detunings, n, base_seed=3).spectroscopy_counts
    assert counts.dtype == np.uint16 and counts.nbytes == 2 * n * points


@pytest.mark.parametrize("limit, above, dtype", [
    (2.0**14, False, np.uint16),
    (2.0**14, True, np.int64),
    (2.0**30, False, np.int64),
    (2.0**30, True, np.int64),
])
def test_count_dtype_switches_at_each_mean_limit(measured_params, limit, above, dtype):
    # the last probe power whose mean-count bound stays within the limit, or the next one
    assert experiment.UINT16_MEAN_LIMIT == 2.0**14
    system = dataclasses.replace(measured_params, cavity_detuning=4.0 * TW)
    signal = empty_cavity_signal_rate(system, ProbeConfig(power=1.0, duration=1.0), 0.5)
    peak = 1.0 + (system.cavity_detuning / system.kappa) ** 2

    def config_at(power):
        spectroscopy = ProbeConfig(power=power, duration=1.0)
        return make_config(load_probability=0.0, spectroscopy=spectroscopy)

    power = (limit - 1e4) / (peak * signal)
    while experiment.check_ensemble(system, config_at(power), 3) > limit:
        power = np.nextafter(power, 0.0)
    while experiment.check_ensemble(system, config_at(np.nextafter(power, np.inf)), 3) <= limit:
        power = np.nextafter(power, np.inf)
    # the bound meets the limit exactly, so a table chosen by "<" would differ
    assert experiment.check_ensemble(system, config_at(power), 3) == limit
    if above:
        power = np.nextafter(power, np.inf)
        assert experiment.check_ensemble(system, config_at(power), 3) > limit
    # an empty cavity probed at the cavity detuning has the largest mean
    ensemble = run_ensemble(system, config_at(power), np.array([-4.0, 4.0]) * TW, 3, base_seed=9)
    counts = ensemble.spectroscopy_counts
    assert counts.dtype == dtype
    assert np.all(np.abs(counts[:, 1] - limit) < 8.0 * math.sqrt(limit))


@pytest.mark.parametrize("seed", [0, 7, 2**31 + 5, 2**32 - 1, 2**32, 2**40 + 3, 2**130 + 1])
def test_stream_words_replay_numpy_seed_sequence(seed):
    # one- to five-word seeds; indices from 2**32 on spawn from two words
    indices = [0, 1, 255, 256, 2**32 - 1, 2**32]
    expected = [
        np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)
        for i in indices
    ]
    replayed = [_stream_words(seed, i, i + 1)[0] for i in indices]
    np.testing.assert_array_equal(replayed, expected, strict=True)
    across = _stream_words(seed, 2**32 - 2, 2**32 + 2)
    np.testing.assert_array_equal(across[1:3], expected[-2:], strict=True)
    assert across.dtype == np.uint64 and across.shape == (4, 4)
    with pytest.raises(ValueError):
        _stream_words(-1, 0, 1)


def reference_ensemble(system, config, detunings, n, seed):
    """Sequence by sequence, each on its own ``sequence_rng`` stream, with the
    rates of the whole table at once: the order of draws and the arithmetic
    that ``run_ensemble`` keeps."""
    rngs = [sequence_rng(seed, i) for i in range(n)]
    gains = 1.0 + config.normalization_drift * np.arange(n)
    loaded = np.array([_load(config, rng) for rng in rngs], dtype=float).reshape(n, 2)
    present, local_g = loaded[:, 0] > 0.0, loaded[:, 1].copy()
    det, spec = config.detection, config.spectroscopy
    efficiency, background = config.detector_efficiency, config.background_rate
    det_signal = empty_cavity_signal_rate(system, det, efficiency)
    rates = gains * det_signal * normalized_transmission(system, det.detuning, g=local_g)
    means = (rates + background) * det.duration
    detection = np.array([rng.poisson(m) for rng, m in zip(rngs, means)], dtype=int)
    survival = math.exp(-config.hold_time / config.trap_lifetime)
    survived = np.array(
        [p and rng.random() < survival for rng, p in zip(rngs, present)], dtype=bool
    )
    probed_g = np.where(survived, local_g, 0.0)[:, None]
    spec_signal = empty_cavity_signal_rate(system, spec, efficiency)
    transmitted = normalized_transmission(system, detunings, g=probed_g)
    means = (gains[:, None] * spec_signal * transmitted + background) * spec.duration
    counts = [rng.poisson(row) for rng, row in zip(rngs, means)]
    # the count table is uint16 while the largest mean that the config allows is within 2**14
    bound = experiment.check_ensemble(system, config, n)
    dtype = np.uint16 if bound <= 2.0**14 else np.int64
    normalized = (detection / det.duration - background) / det_signal
    return Ensemble(
        detunings=detunings,
        atom_present=present,
        local_g=local_g,
        detection_counts=detection,
        normalized_detection=normalized,
        level=classify_level(normalized, config.bin_edges),
        survived_hold=survived,
        spectroscopy_counts=np.array(counts, dtype=dtype).reshape(n, detunings.size),
    )


def assert_same_ensemble(actual, expected, n=None):
    """Every field of ``actual`` equals that of ``expected`` (its first n sequences)."""
    np.testing.assert_array_equal(actual.detunings, expected.detunings)
    for field in dataclasses.fields(Ensemble):
        if field.name != "detunings":
            value = getattr(expected, field.name)
            np.testing.assert_array_equal(
                getattr(actual, field.name), value[:n], err_msg=field.name, strict=True
            )


@pytest.mark.parametrize("poisson_loading", [False, True])
@pytest.mark.parametrize("seed", [5, 2**32 - 1, 2**32, 2**40 + 3, 0, 7, 2**130 + 1])
def test_run_ensemble_matches_the_per_sequence_reference(measured_params, seed, poisson_loading):
    config = make_config(
        load_probability=0.5, poisson_loading=poisson_loading, hold_time=5e-3,
        normalization_drift=1e-4,
    )
    detunings = np.array([-10.0, 0.0, 3.0, 10.0]) * TW
    expected = reference_ensemble(measured_params, config, detunings, 300, seed)
    assert_same_ensemble(
        run_ensemble(measured_params, config, detunings, 300, base_seed=seed), expected
    )


def test_sequences_across_block_edges_match_a_longer_run(measured_params):
    config = make_config(
        load_probability=0.5, poisson_loading=True, hold_time=5e-3, normalization_drift=1e-4
    )
    for points in (3, 1001):
        detunings = np.linspace(-10.0, 10.0, points) * TW
        block = rows_per_block(points)
        assert 2 * block + 1 < 600  # every run from n = 2 * block + 1 on crosses two edges
        long = run_ensemble(measured_params, config, detunings, 600, base_seed=41)
        for n in (block - 1, block, block + 1, 2 * block + 1):
            short = run_ensemble(measured_params, config, detunings, n, base_seed=41)
            assert len(short) == n
            assert_same_ensemble(short, long, n)


def test_events_writer_refuses_non_finite_values(measured_params, tmp_path):
    ensemble = run_ensemble(measured_params, make_config(), np.array([0.0]), 3, base_seed=2)
    for name in ("local_g", "normalized_detection"):
        values = getattr(ensemble, name).copy()
        values[1] = math.nan if name == "local_g" else math.inf
        broken = dataclasses.replace(ensemble, **{name: values})
        with pytest.raises(DataFormatError, match=name):
            write_events_jsonl(tmp_path / "events.jsonl", broken)
        assert list(tmp_path.iterdir()) == []
