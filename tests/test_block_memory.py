"""The ensemble pipeline holds one block of counts at a time, with unchanged bytes.

``run_ensemble``, the ``events.jsonl`` writer, ``accumulate_spectra`` and the
coarse scan of ``fit_rabi_g`` work through (rows x detunings) tables one
block of ``steady.rows_per_block`` rows at a time. These tests check that
the blockwise results are bit-identical to numpy's reductions over the whole
table, and bound each stage's scratch memory with tracemalloc.
"""

import math
import tracemalloc

import numpy as np
import pytest

from fibercavity import (
    ProbeConfig,
    SequenceConfig,
    Spectrum,
    accumulate_spectra,
    fit_rabi_g,
    from_two_pi_mhz,
    normalized_transmission,
    run_ensemble,
)
from fibercavity import estimation
from fibercavity.dataio import write_events_jsonl
from fibercavity.estimation import RABI_G_UPPER_BOUND, rabi_model_factory
from fibercavity.experiment import Ensemble, empty_cavity_signal_rate
from fibercavity.steady import BLOCK_COUNTS, rows_per_block

TW = from_two_pi_mhz(1.0)

# Scratch memory allowed to each stage: eight complex128 copies of one block
# of BLOCK_COUNTS counts, 2 MiB. Holding a whole level, or 256 rows, of the
# 2000 x 1001 ensemble at once takes 4.6-15.7 MiB.
TRANSIENT_BOUND = 8 * 16 * BLOCK_COUNTS


def make_config(**overrides):
    return SequenceConfig(
        load_probability=0.5,
        g_max=7.8 * TW,
        detection=ProbeConfig(power=0.8e-12, duration=2e-3),
        spectroscopy=ProbeConfig(power=0.4e-12, duration=5e-3),
        hold_time=5e-3,
        **overrides,
    )


def ensemble_of_levels(points: int, sizes, seed: int) -> Ensemble:
    """Poisson counts on a ``points`` grid; level L + 1 holds sizes[L] rows,
    interleaved with the other levels."""
    rng = np.random.default_rng(seed)
    level = rng.permutation(np.repeat(np.arange(1, len(sizes) + 1), sizes))
    n = level.size
    counts = rng.poisson(rng.uniform(10.0, 5000.0, points), size=(n, points))
    nothing = np.zeros(n)
    return Ensemble(
        detunings=np.linspace(-25.0, 25.0, points) * TW,
        atom_present=nothing > 0.0,
        local_g=nothing,
        detection_counts=np.zeros(n, dtype=int),
        normalized_detection=nothing,
        level=level,
        survived_hold=nothing > 0.0,
        spectroscopy_counts=counts,
    )


LEVEL_SIZES = (1, 2, 255, 256, 257, 513)


@pytest.mark.parametrize(
    "points, sizes",
    [
        (21, LEVEL_SIZES),
        (1001, LEVEL_SIZES),
        # numpy sums a single column pairwise, not row by row
        (1, LEVEL_SIZES[:-1] + (2 * BLOCK_COUNTS + 1,)),
    ],
)
def test_blockwise_spectra_equal_numpy_mean_and_std_bytes(measured_params, points, sizes):
    config = make_config()
    ensemble = ensemble_of_levels(points, sizes, seed=points)
    spec = config.spectroscopy
    signal = empty_cavity_signal_rate(measured_params, spec, config.detector_efficiency)
    spectra = accumulate_spectra(ensemble, measured_params, config)
    assert sorted(spectra) == list(range(1, len(sizes) + 1))
    for level, size in enumerate(sizes, start=1):
        counts = ensemble.spectroscopy_counts[ensemble.level == level]
        rows = (counts / spec.duration - config.background_rate) / signal
        assert rows.shape == (size, points)
        assert spectra[level].values.tobytes() == rows.mean(axis=0).tobytes(), level
        if size == 1:
            assert spectra[level].sigmas is None
        else:
            sem = rows.std(axis=0, ddof=1) / math.sqrt(size)
            sem = np.where(sem > 0.0, sem, np.finfo(float).tiny)  # as the library floors it
            assert spectra[level].sigmas.tobytes() == sem.tobytes(), level


@pytest.mark.parametrize("g_two_pi_mhz", [0.0, 3.0, 7.8, 30.0])
def test_blockwise_rabi_g_scan_picks_the_whole_scan_start(
    measured_params, monkeypatch, g_two_pi_mhz
):
    deltas = np.linspace(-25.0, 25.0, 1001) * TW
    assert rows_per_block(deltas.size) < 201  # the 201-candidate scan spans blocks
    rng = np.random.default_rng(4)
    values = normalized_transmission(measured_params, deltas, g=g_two_pi_mhz * TW)
    values = values + rng.normal(0.0, 0.01, deltas.size)
    model, _ = rabi_model_factory(measured_params)
    candidates = np.linspace(0.0, RABI_G_UPPER_BOUND, 201)
    costs = np.sum((model(deltas, [candidates[:, None]]) - values) ** 2, axis=1)

    starts = []
    fit_least_squares = estimation.fit_least_squares

    def spy(model, x, y, initial, **kwargs):
        starts.append(initial)
        return fit_least_squares(model, x, y, initial, **kwargs)

    monkeypatch.setattr(estimation, "fit_least_squares", spy)
    fit_rabi_g(Spectrum(deltas, values), measured_params)
    assert starts == [[float(candidates[int(np.argmin(costs))])]]


def traced(call):
    """call()'s result and its scratch memory: traced peak minus what it keeps."""
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - retained


def test_every_ensemble_stage_holds_at_most_one_block_of_scratch(measured_params, tmp_path):
    config = make_config(poisson_loading=True)
    detunings = np.linspace(-25.0, 25.0, 1001) * TW
    scratch = {}
    ensemble, scratch["run_ensemble"] = traced(
        lambda: run_ensemble(measured_params, config, detunings, 2000, base_seed=2)
    )
    _, scratch["write_events_jsonl"] = traced(
        lambda: write_events_jsonl(tmp_path / "events.jsonl", ensemble)
    )
    spectra, scratch["accumulate_spectra"] = traced(
        lambda: accumulate_spectra(ensemble, measured_params, config)
    )
    assert len(ensemble) == 2000 and 6 in spectra
    _, scratch["fit_rabi_g"] = traced(lambda: fit_rabi_g(spectra[6], measured_params))
    assert {stage: size for stage, size in scratch.items() if size > TRANSIENT_BOUND} == {}


def test_events_writer_holds_at_most_one_block_of_scratch_on_the_narrow_shape(tmp_path):
    # 20000 sequences x 21 detunings, the shape of a narrow ensemble
    sizes = LEVEL_SIZES[:-1] + (20000 - sum(LEVEL_SIZES[:-1]),)
    ensemble = ensemble_of_levels(21, sizes, seed=5)
    assert ensemble.spectroscopy_counts.shape == (20000, 21)
    _, scratch = traced(lambda: write_events_jsonl(tmp_path / "events.jsonl", ensemble))
    assert scratch <= TRANSIENT_BOUND
