"""Monte Carlo simulator of the single-atom measurement pipeline.

Each sequence models one experimental cycle: an atom loads into the trap
with some probability; its local coupling rate is drawn from the
incommensurate standing-wave distribution g = g_max |cos(phi)| with phi
uniform (trap minima sample the cavity standing wave uniformly because the
two periods differ); a resonant detection probe classifies the transmission
reduction into six levels; the atom survives a hold time with probability
exp(-tau_hold / trap_lifetime); and a detuning-swept spectroscopy probe
records Poisson photon counts per detuning, against a constant background.

At most one atom is loaded per sequence (multi-atom loading is negligible at
low atomic density). An optional Poisson-number loading mode exists for
sensitivity studies; when several atoms load in that mode, they act through
the single-excitation collective coupling sqrt(sum g_i^2).

Sequences are independent given per-sequence RNG streams derived from
(seed, sequence index), so sequence i does not depend on how many others
run. ``sequence_rng`` is the reference stream of sequence i;
``run_ensemble`` replays numpy's seeding of it for a whole block of indices
at once, and draws the same numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import steady
from .constants import C, CS_D2_WAVELENGTH, HBAR
from .estimation import Spectrum
from .units import (
    DETUNING, NON_NEGATIVE, POSITIVE, RATE, WAVELENGTH, Bound, Bounded, ParameterError,
    SystemParams,
)


@dataclass(frozen=True)
class ProbeConfig(Bounded):
    """One probe pulse: optical power (W), duration (s), detuning (rad/s)."""

    power: float
    duration: float
    detuning: float = 0.0
    wavelength: float = CS_D2_WAVELENGTH

    BOUNDS = {
        "power": POSITIVE, "duration": POSITIVE, "detuning": DETUNING, "wavelength": WAVELENGTH,
    }

    @property
    def photon_flux(self) -> float:
        """Photons per second: power / (hbar omega)."""
        omega = 2.0 * math.pi * C / self.wavelength
        return self.power / (HBAR * omega)


@dataclass(frozen=True)
class SequenceConfig(Bounded):
    """Knobs of one measurement sequence (see module docstring)."""

    load_probability: float
    g_max: float
    detection: ProbeConfig
    spectroscopy: ProbeConfig
    background_rate: float = 1e4  # counts/s, includes dark counts
    detector_efficiency: float = 0.5
    trap_lifetime: float = 11e-3  # s
    hold_time: float = 0.0  # s, between detection and spectroscopy
    # equal-width bins over normalized detection transmission [0, 1], a documented free choice
    bin_edges: tuple = (1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6)
    poisson_loading: bool = False
    # fractional signal-gain change per sequence; models slow setup drift
    # that the (fixed) normalization does not track. 0 disables.
    normalization_drift: float = 0.0

    BOUNDS = {
        "load_probability": Bound(0.0, 1.0, "[]"),
        "g_max": RATE,
        "background_rate": NON_NEGATIVE,
        "detector_efficiency": Bound(0.0, 1.0, "(]"),
        "trap_lifetime": POSITIVE,
        "hold_time": NON_NEGATIVE,
    }

    def __post_init__(self):
        super().__post_init__()
        if self.poisson_loading and self.load_probability >= 1.0:
            raise ParameterError("poisson_loading requires load_probability < 1")
        if self.spectroscopy.detuning != 0.0:
            raise ParameterError(
                "spectroscopy detuning must be 0: the probe sweeps the detuning grid",
                field="spectroscopy/detuning",
            )
        edges = _check_bin_edges(self.bin_edges)
        if edges[0] <= 0.0 or edges[-1] >= 1.0:
            raise ParameterError("bin_edges must lie strictly inside (0, 1)", field="bin_edges")
        object.__setattr__(self, "bin_edges", tuple(edges.tolist()))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Outcomes of n measurement sequences on one shared detuning grid.

    Entry i of each per-sequence array, and row i of ``spectroscopy_counts``
    (one column per detuning), belong to sequence i.
    """

    detunings: np.ndarray  # (k,) rad/s
    atom_present: np.ndarray  # (n,) bool
    local_g: np.ndarray  # (n,) rad/s
    detection_counts: np.ndarray  # (n,) int
    normalized_detection: np.ndarray  # (n,)
    level: np.ndarray  # (n,) int, 1..6
    survived_hold: np.ndarray  # (n,) bool
    # (n, k): uint16 while every spectroscopy mean stays within UINT16_MEAN_LIMIT,
    # int64 beyond; the experiment job drops the ensemble once
    # accumulate_spectra has read it, before the per-level fits
    spectroscopy_counts: np.ndarray

    def __len__(self) -> int:
        return self.level.size


def sample_local_g(g_max: float, rng: np.random.Generator) -> float:
    """Draw g = g_max |cos(phi)|, phi uniform on [0, pi).

    The trap and cavity standing waves have different periods, so trap
    minima sample the cavity phase uniformly; the CDF of the draw is
    P(g <= x g_max) = (2/pi) arcsin(x).
    """
    if g_max < 0.0:
        raise ParameterError("g_max must be non-negative")
    phase = rng.random() * math.pi
    return g_max * abs(math.cos(phase))


def local_g_cdf(x) -> np.ndarray:
    """CDF of g / g_max for the |cos| distribution: (2/pi) arcsin(x)."""
    return 2.0 / math.pi * np.arcsin(np.clip(np.asarray(x, dtype=float), 0.0, 1.0))


def expected_count_rate(
    params: SystemParams,
    probe: ProbeConfig,
    background_rate: float,
    detector_efficiency: float,
    detunings=None,
    g=None,
    gain=1.0,
):
    """Mean detector count rate of a probe, plus background.

    rate = (gain * empty_cavity_signal_rate) * normalized_transmission + background,
    at ``detunings`` (the probe's own detuning when None) and with ``g`` in
    place of ``params.g`` when given. ``detunings``, ``g`` and ``gain``
    broadcast as in ``steady.transmission``: (n, 1) columns of couplings and
    gains over a (k,) grid give n rows, each equal bit for bit to the call
    with that row's scalars.
    """
    signal = gain * empty_cavity_signal_rate(params, probe, detector_efficiency)
    delta = probe.detuning if detunings is None else detunings
    return signal * steady.normalized_transmission(params, delta, g) + background_rate


def empty_cavity_signal_rate(
    params: SystemParams, probe: ProbeConfig, detector_efficiency: float
) -> float:
    """Detected signal rate through the empty cavity on resonance (no background)."""
    return (
        detector_efficiency
        * probe.photon_flux
        * steady.empty_cavity_peak_transmission(params)
    )


def _check_bin_edges(bin_edges) -> np.ndarray:
    """The 5 level thresholds as a float array; raises unless strictly increasing."""
    edges = np.asarray(bin_edges, dtype=float)
    if edges.shape != (5,):
        raise ParameterError("bin_edges must hold exactly 5 thresholds", field="bin_edges")
    if np.any(np.diff(edges) <= 0.0):
        raise ParameterError("bin_edges must be strictly increasing", field="bin_edges")
    return edges


def classify_level(normalized_detection, bin_edges):
    """Map normalized detection transmission(s) onto levels 1..6.

    Level 1 is the least reduction (value above the top edge, i.e. no atom);
    level 6 the strongest reduction (value below the bottom edge). Values
    outside [0, 1] from shot noise clamp into the end bins. A scalar gives an
    int, an array an integer array of the same shape.
    """
    edges = _check_bin_edges(bin_edges)
    levels = 6 - np.searchsorted(edges, normalized_detection, side="left")
    return levels if np.ndim(levels) else int(levels)


def _normalized_counts(counts, duration, background_rate, signal_rate):
    """Background-subtracted counts over the expected empty-cavity signal."""
    return (counts / duration - background_rate) / signal_rate


def sequence_rng(base_seed: int, index: int) -> np.random.Generator:
    """Per-sequence RNG stream derived from (seed, sequence index).

    The reference stream of sequence ``index``: ``run_ensemble`` builds the same
    streams a block at a time through ``_sequence_streams``, which replays the
    seeding done here.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(index),))
    )


# numpy's SeedSequence (numpy/random/bit_generator.pyx, after the seed_seq hash
# mix of O'Neill's PCG paper): pool size, hash constants and shift, on uint32 words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _hashmix(value, hash_const: int, mult: int):
    """numpy's hashmix of a uint32 array: (mixed value, next hash constant)."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> _XSHIFT, hash_const


def _mix(x, y):
    """numpy's mix of two uint32 arrays."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _mix_word(pool: list, word, hash_const: int) -> int:
    """Mix one entropy word past the pool size into every pool entry, in place;
    return the next hash constant."""
    for dst in range(_POOL_SIZE):
        mixed, hash_const = _hashmix(word, hash_const, _MULT_A)
        pool[dst] = _mix(pool[dst], mixed)
    return hash_const


def _stream_words(base_seed: int, start: int, stop: int) -> np.ndarray:
    """PCG64 seed words of the streams ``sequence_rng(base_seed, i)``, i in [start, stop).

    Row i - start of the (stop - start, 4) uint64 result equals
    ``SeedSequence(base_seed, spawn_key=(i,)).generate_state(4, np.uint64)``.
    A spawn key appends its words after the seed's, zero-padded to the pool
    size, so the pool starts as ``SeedSequence(base_seed).pool``, and mixing
    in a seed of n uint32 words has advanced the hash constant 4 max(4, n)
    times. The one or two uint32 words of each index (two from 2**32 on) then
    mix in as uint32 arrays.
    """
    seed = int(base_seed)
    if seed < 0:
        raise ValueError("base_seed must be non-negative")
    n_seed_words = max(_POOL_SIZE, -(-seed.bit_length() // 32))
    hash_const = _INIT_A * pow(_MULT_A, 4 * n_seed_words, 2**32) & _MASK32
    index = np.arange(start, stop, dtype=np.uint64)
    pool = [np.full(index.size, w, dtype=np.uint32) for w in np.random.SeedSequence(seed).pool]
    hash_const = _mix_word(pool, (index & _MASK32).astype(np.uint32), hash_const)
    high = (index >> 32).astype(np.uint32)
    if high.any():
        wide = pool.copy()
        _mix_word(wide, high, hash_const)
        pool = [np.where(high > 0, w, p) for w, p in zip(wide, pool)]

    state = np.empty((index.size, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for dst in range(2 * _POOL_SIZE):
        state[:, dst], hash_const = _hashmix(pool[dst % _POOL_SIZE], hash_const, _MULT_B)
    # as numpy does: pairs of words read little-endian, then in native order
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_type() -> type:
    """A numpy ``ISeedSequence`` that hands ``PCG64`` one row of ``_stream_words``.

    ``PCG64`` asks its seed sequence for ``generate_state(4, np.uint64)`` and
    runs its own seeding step on the answer in C. numpy.random loads here, on
    the first ensemble, not on ``import fibercavity``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


class SeedReplayError(RuntimeError):
    """numpy seeds the streams otherwise than ``_stream_words`` replays it."""


def _sequence_streams(base_seed: int, start: int, stop: int) -> list:
    """The streams ``sequence_rng(base_seed, i)`` for i in [start, stop), in one replay.

    The block that starts at sequence 0 checks its first row against numpy's
    own ``SeedSequence`` and raises SeedReplayError before any draw if they differ.
    """
    from numpy.random import PCG64, Generator, SeedSequence

    words = _stream_words(base_seed, start, stop)
    if start == 0 and len(words):
        reference = SeedSequence(int(base_seed), spawn_key=(0,)).generate_state(4, np.uint64)
        if not np.array_equal(words[0], reference):
            raise SeedReplayError(
                f"numpy {np.__version__} seeds sequence 0 otherwise than the replay of "
                "its SeedSequence in run_ensemble; the outputs would not be reproducible"
            )
    seed_words = _seed_words_type()
    return [Generator(PCG64(seed_words(row))) for row in words]


# numpy's Poisson sampler refuses a mean above 9.223372006484771e18; the
# limit sits below it by more than the rounding of the bound it is held to.
POISSON_MEAN_LIMIT = 9.2e18
# The spectroscopy count table is uint16 while no mean exceeds UINT16_MEAN_LIMIT,
# and int64, which holds every count numpy's Poisson sampler draws, beyond. A
# count past 2**16 - 1 lies (2**16 - 1 - 2**14) / 2**7, about 384 standard
# deviations, above a mean within the limit.
UINT16_MEAN_LIMIT = 2.0**14


def _load(config: SequenceConfig, rng: np.random.Generator) -> tuple[bool, float]:
    """Draw whether an atom loads and its (collective) coupling rate."""
    if config.poisson_loading:
        # Mean atom number chosen so P(n >= 1) matches load_probability.
        n_atoms = int(rng.poisson(-math.log1p(-config.load_probability)))
        draws = [sample_local_g(config.g_max, rng) for _ in range(n_atoms)]
        return bool(draws), math.sqrt(sum(g * g for g in draws))
    present = rng.random() < config.load_probability
    return present, sample_local_g(config.g_max, rng) if present else 0.0


def check_ensemble(system: SystemParams, config: SequenceConfig, n_sequences: int) -> float:
    """Reject, before anything is drawn, an ensemble run_ensemble cannot simulate;
    return the bound on its spectroscopy mean counts (0 with no sequences).

    The signal gain 1 + normalization_drift * i must stay positive for every
    sequence i, and no probe's mean count may exceed POISSON_MEAN_LIMIT. The
    mean count is bounded with the largest gain and with
    T_norm <= 1 + (cavity_detuning / kappa)^2, which holds because T never
    exceeds the empty-cavity peak 4 kappa1 kappa2 / kappa^2. Normalized
    counts, (counts / duration - background) / signal, must stay within 1e100
    for every count a draw can return (below 2**63), so that their means,
    squared deviations and fits stay finite; this refuses a vanishing
    empty-cavity signal. The ParameterError names the field at fault.
    """
    if not n_sequences:
        return 0.0
    last_gain = 1.0 + config.normalization_drift * (n_sequences - 1)
    if not last_gain > 0.0:
        raise ParameterError(
            f"signal gain 1 + drift * i must stay positive up to i = {n_sequences - 1}",
            field="normalization_drift",
        )
    ratio = system.cavity_detuning / system.kappa  # squared by hand: ** raises on overflow
    peak = max(last_gain, 1.0) * (1.0 + ratio * ratio)
    means = {}
    for name in ("detection", "spectroscopy"):
        probe = getattr(config, name)
        signal = empty_cavity_signal_rate(system, probe, config.detector_efficiency)
        means[name] = mean = (peak * signal + config.background_rate) * probe.duration
        if not mean <= POISSON_MEAN_LIMIT:
            raise ParameterError(
                f"mean count up to {mean:.4g} exceeds {POISSON_MEAN_LIMIT:.4g}, "
                "the largest Poisson mean that can be drawn",
                field=name,
            )
        if not 2.0**63 / probe.duration + config.background_rate < 1e100 * signal:
            raise ParameterError(
                f"an empty-cavity signal of {signal:.4g} counts/s normalizes counts beyond 1e100",
                field=name,
            )
    return means["spectroscopy"]


def run_ensemble(
    system: SystemParams,
    config: SequenceConfig,
    spectroscopy_detunings,
    n_sequences: int,
    base_seed: int = 0,
) -> Ensemble:
    """Simulate n_sequences independent sequences, ordered by index.

    Sequence i draws from its own stream ``sequence_rng(base_seed, i)``, which
    ``_sequence_streams`` rebuilds for a whole block at once, in this order:
    loading, coupling phase(s), detection counts, survival (only when an atom
    is present), spectroscopy counts. So the output is
    deterministic, and sequence i does not depend on how many others run. Each
    sequence replaces the g of ``system`` with its local coupling (zero for
    spectroscopy once the atom is lost) and scales the signal, not the
    background, by the gain 1 + normalization_drift * i: its mean count rate
    is ``expected_count_rate`` with that coupling and gain. Normalization
    divides by the same empty-cavity signal, so values compare
    across sequences. Sequences run in blocks of ``steady.rows_per_block``
    rows, which bounds the transients to one block. ``check_ensemble`` runs
    first; the spectroscopy counts are uint16 when its mean-count bound is at
    most UINT16_MEAN_LIMIT, and int64 otherwise.
    """
    spec_mean_bound = check_ensemble(system, config, n_sequences)
    spec, det = config.spectroscopy, config.detection
    n = int(n_sequences)
    gains = 1.0 + config.normalization_drift * np.arange(n)
    detunings = np.asarray(spectroscopy_detunings, dtype=float)
    efficiency, background = config.detector_efficiency, config.background_rate
    survival = math.exp(-config.hold_time / config.trap_lifetime)

    atom_present = np.empty(n, dtype=bool)
    local_g = np.empty(n)
    detection_counts = np.empty(n, dtype=int)
    survived = np.empty(n, dtype=bool)
    count_dtype = np.uint16 if spec_mean_bound <= UINT16_MEAN_LIMIT else np.int64
    counts = np.empty((n, detunings.size), dtype=count_dtype)
    step = steady.rows_per_block(detunings.size)
    for start in range(0, n, step):
        block = slice(start, min(start + step, n))
        rngs = _sequence_streams(base_seed, block.start, block.stop)
        gain = gains[block]

        loaded = np.array([_load(config, rng) for rng in rngs], dtype=float)
        atom_present[block], local_g[block] = loaded[:, 0] > 0.0, loaded[:, 1]

        rates = expected_count_rate(
            system, det, background, efficiency, g=local_g[block], gain=gain
        )
        means = rates * det.duration
        detection_counts[block] = [rng.poisson(mean) for rng, mean in zip(rngs, means)]
        survived[block] = [
            present and rng.random() < survival
            for rng, present in zip(rngs, atom_present[block])
        ]

        # the lost atom couples no more
        probed_g = np.where(survived[block], local_g[block], 0.0)[:, None]
        rates = expected_count_rate(
            system, spec, background, efficiency, detunings, g=probed_g, gain=gain[:, None]
        )
        means = rates * spec.duration
        for row, rng, mean in zip(counts[block], rngs, means):
            row[:] = rng.poisson(mean)

    det_signal = empty_cavity_signal_rate(system, det, efficiency)
    normalized_detection = _normalized_counts(
        detection_counts, det.duration, background, det_signal
    )
    return Ensemble(
        detunings=detunings,
        atom_present=atom_present,
        local_g=local_g,
        detection_counts=detection_counts,
        normalized_detection=normalized_detection,
        level=classify_level(normalized_detection, config.bin_edges),
        survived_hold=survived,
        spectroscopy_counts=counts,
    )


def accumulate_spectra(ensemble: Ensemble, system: SystemParams, config: SequenceConfig) -> dict:
    """Per-level mean normalized spectra with standard errors of the mean.

    Counts are background-subtracted and normalized by the expected
    empty-cavity on-resonance spectroscopy signal. Levels with no events are
    absent from the returned mapping (not zero spectra). Two passes over each
    level, a block of rows at a time, add its rows in numpy's mean/std order.
    """
    spec = config.spectroscopy
    signal = empty_cavity_signal_rate(system, spec, config.detector_efficiency)
    width = ensemble.detunings.size
    # numpy sums a single column pairwise, not row by row: one block
    step = steady.rows_per_block(width) if width > 1 else len(ensemble)

    def normalized(rows):
        counts = ensemble.spectroscopy_counts[rows]
        return _normalized_counts(counts, spec.duration, config.background_rate, signal)

    spectra = {}
    # bincount, not np.unique, which loads numpy.ma
    for level in np.flatnonzero(np.bincount(ensemble.level)).tolist():
        index = np.flatnonzero(ensemble.level == level)
        blocks, n = np.split(index, range(step, index.size, step)), index.size
        mean = _sum_rows(map(normalized, blocks)) / n
        sem = None
        if n > 1:
            squares = _sum_rows(np.square(normalized(rows) - mean) for rows in blocks)
            sem = np.sqrt(squares / (n - 1)) / math.sqrt(n)
            sem = np.where(sem > 0.0, sem, np.finfo(float).tiny)
        spectra[level] = Spectrum(deltas=ensemble.detunings, values=mean, sigmas=sem)
    return spectra


def _sum_rows(blocks):
    """``np.add.reduce(np.concatenate(blocks), axis=0)``, rows added in that order."""
    total = np.add.reduce(next(blocks), axis=0)
    for rows in blocks:  # the running total rides as row 0 of the next block
        total = np.add.reduce(np.concatenate((total[None], rows)), axis=0)
    return total


def level_occupancy(ensemble: Ensemble) -> dict:
    """Counts of sequences per classification level (1..6)."""
    counts = np.bincount(ensemble.level, minlength=7)
    return {level: int(counts[level]) for level in range(1, 7)}
