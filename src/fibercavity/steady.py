"""Closed-form steady-state observables of the driven atom-cavity system.

In the weak-driving limit the transmitted power at probe detuning
Delta = omega_P - omega_A is

    T(Delta) = | 2 sqrt(kappa1 kappa2) (i Delta + gamma) |^2
               / | (i (Delta - Delta_C) + kappa)(i Delta + gamma) + g^2 |^2,

with Delta_C = omega_C - omega_A the cavity detuning (zero by default, the
co-resonant case). For g = 0 this reduces exactly to the empty-cavity
Lorentzian 4 kappa1 kappa2 / ((Delta - Delta_C)^2 + kappa^2).

All functions are pure and accept scalar or ndarray detunings. A scalar
evaluates as a 1-element array and gets that array's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C
from .units import CavityGeometry, ParameterError, SystemParams


@dataclass(frozen=True)
class NormalModes:
    """Normal-mode structure from the complex roots of the response denominator.

    The poles of T(Delta) solve (i Delta + kappa)(i Delta + gamma) + g^2 = 0.
    When resolved (g^2 > ((kappa - gamma)/2)^2) the two modes sit at
    +-sqrt(g^2 - ((kappa-gamma)/2)^2) with intensity FWHM kappa + gamma each;
    otherwise both collapse onto Delta = 0 with distinct widths (2*kappa and
    2*gamma at g = 0).
    """

    plus_detuning: float
    minus_detuning: float
    plus_linewidth: float
    minus_linewidth: float
    resolved: bool

    @property
    def splitting(self) -> float:
        return self.plus_detuning - self.minus_detuning


# Row x detuning tables are handled a block of rows at a time: at most BLOCK_COUNTS
# entries, and BLOCK_ROWS rows, as each simulated row also holds a 0.8 kB stream.
BLOCK_COUNTS = 2**14
BLOCK_ROWS = 256


def rows_per_block(width: int) -> int:
    """Rows of a table ``width`` entries wide that one block holds (at least 1)."""
    return max(1, min(BLOCK_ROWS, BLOCK_COUNTS // max(width, 1)))


def _response_denominator(params: SystemParams, delta, g):
    """(i (Delta - Delta_C) + kappa)(i Delta + gamma) + g^2, on arrays of at least 1-d."""
    return (
        (1j * (delta - params.cavity_detuning) + params.kappa)
        * (1j * delta + params.gamma)
        + g**2
    )


def transmission(params: SystemParams, delta, g=None):
    """Absolute steady-state transmission T(Delta); scalar or ndarray delta.

    ``g``, when given, replaces ``params.g`` and broadcasts against ``delta``:
    a (n, 1) column of couplings over a (k,) grid gives n spectra, each equal
    bit for bit to the call with ``params.with_g`` of that coupling. Scalar
    ``delta`` and ``g`` evaluate as 1-element arrays; the float has their bits.
    Finite for |delta| and g within ``units.RATE_LIMIT`` (see ``SystemParams``).
    """
    delta = np.asarray(delta, dtype=float)
    g = np.asarray(params.g if g is None else g, dtype=float)
    if not np.all(np.isfinite(g) & (g >= 0.0)):
        raise ParameterError("g must be finite and non-negative")
    deltas, couplings = np.atleast_1d(delta, g)
    num = np.abs(
        2.0 * np.sqrt(params.kappa1 * params.kappa2) * (1j * deltas + params.gamma)
    ) ** 2
    out = num / np.abs(_response_denominator(params, deltas, couplings)) ** 2
    return float(out[0]) if delta.ndim == g.ndim == 0 else out


def empty_cavity_peak_transmission(params: SystemParams) -> float:
    """Peak transmission 4 kappa1 kappa2 / kappa^2 of the empty cavity."""
    return 4.0 * params.kappa1 * params.kappa2 / params.kappa**2


def empty_cavity_reference(params: SystemParams) -> float:
    """The empty-cavity T(0) that ``normalized_transmission`` divides by.

    Raises ParameterError when it vanishes, or is 0/0 because gamma * kappa
    underflows, so a caller can reject such params before it computes
    anything.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # the check below reports it
        reference = transmission(params, 0.0, g=0.0)
    if not reference > 0.0:
        raise ParameterError(
            f"empty-cavity transmission T(0) is {reference}: kappa1 * kappa2 must be > 0, "
            "and gamma * kappa must not underflow"
        )
    return reference


def normalized_transmission(params: SystemParams, delta, g=None):
    """T(Delta) over the on-resonance empty-cavity T; ``g`` as in ``transmission``."""
    reference = empty_cavity_reference(params)
    return transmission(params, delta, g) / reference


def normal_modes(params: SystemParams) -> NormalModes:
    """Solve the pole quadratic for the normal-mode detunings and linewidths."""
    kappa, gamma, g = params.kappa, params.gamma, params.g
    half_diff = 0.5 * (kappa - gamma)
    disc = g**2 - half_diff**2
    if disc > 0.0:
        split = math.sqrt(disc)
        width = kappa + gamma
        return NormalModes(
            plus_detuning=split,
            minus_detuning=-split,
            plus_linewidth=width,
            minus_linewidth=width,
            resolved=True,
        )
    root = math.sqrt(-disc)
    decay_narrow = 0.5 * (kappa + gamma) - root
    decay_broad = 0.5 * (kappa + gamma) + root
    return NormalModes(
        plus_detuning=0.0,
        minus_detuning=0.0,
        plus_linewidth=2.0 * decay_narrow,
        minus_linewidth=2.0 * decay_broad,
        resolved=False,
    )


def transmission_peak_detunings(params: SystemParams) -> tuple[float, ...]:
    """Exact detunings of the transmission maxima (co-resonant cavity only).

    With x = Delta^2, A = kappa*gamma + g^2, B = kappa + gamma, stationarity
    of T gives x = -gamma^2 + sqrt((A + gamma^2)^2 - gamma^2 B^2). When that
    root is positive the spectrum is two-peaked at +-sqrt(x); otherwise the
    single maximum sits at Delta = 0. Note the maxima of a broad doublet sit
    outside the normal-mode detunings: the pull vanishes only for
    g >> kappa, gamma.
    """
    if params.cavity_detuning != 0.0:
        raise ParameterError(
            "closed-form peak positions require cavity_detuning = 0"
        )
    kappa, gamma, g = params.kappa, params.gamma, params.g
    a = kappa * gamma + g**2
    b = kappa + gamma
    # inner = g^2 (2 gamma b + g^2) >= 0; at g = 0 rounding may leave it below 0
    inner = (a + gamma**2) ** 2 - gamma**2 * b**2
    x = -(gamma**2) + math.sqrt(max(inner, 0.0))
    if x <= 0.0:
        return (0.0,)
    peak = math.sqrt(x)
    return (-peak, peak)


def mirror_to_rate(fraction: float, geom: CavityGeometry) -> float:
    """Field decay rate from a per-pass power transmission/loss fraction.

    Low-loss approximation kappa_i = c * fraction / (4 n_eff L): the power
    lost per round trip, divided by twice the round-trip time. For mirror
    reflectivities R >= 0.99 this differs from the exact ln(1/R) form by
    under 1 percent.
    """
    if not 0.0 <= fraction < 1.0:
        raise ParameterError("transmission/loss fraction must lie in [0, 1)")
    return float(C * fraction / (4.0 * geom.effective_index * geom.length))


def rate_to_mirror(rate: float, geom: CavityGeometry) -> float:
    """Inverse of mirror_to_rate: per-pass fraction for a field decay rate."""
    if rate < 0.0:
        raise ParameterError("decay rate must be non-negative")
    return 4.0 * geom.effective_index * geom.length * float(rate) / C


def cooperativity(params: SystemParams) -> float:
    """C = g^2 / (2 kappa gamma)."""
    return params.g**2 / (2.0 * params.kappa * params.gamma)
