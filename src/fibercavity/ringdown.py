"""Cavity ring-down in the reflection geometry.

A one-sided cavity is driven through its output coupler with a resonant field
of amplitude s0 that is switched off at t = 0 with decay rate kappa_s
(> kappa). In the frame rotating at the carrier, the field amplitude obeys

    da/dt = -kappa a + sqrt(2 kappa2) s_in(t),
    s_out = -s_in + sqrt(2 kappa2) a,

with s_in = s0 for t < 0 and s0 exp(-kappa_s t) for t >= 0. The closed-form
solution is a pair of exponentials:

    a(t>=0)  = (sqrt(2 kappa2)/kappa) s0 [ (1 + r) e^{-kappa t} - r e^{-kappa_s t} ],
               r = kappa / (kappa_s - kappa)

    |s_out|^2(t>=0) = | (2 kappa2/kappa + q) e^{-kappa t} - (1 + q) e^{-kappa_s t} |^2 s0^2,
               q = 2 kappa2 / (kappa_s - kappa)

and |s_out|^2 = |2 kappa2/kappa - 1|^2 s0^2 in the steady state (t < 0). The
pre-switch reflection vanishes exactly at critical coupling, and every trace
decays at rate 2 kappa once t >> 1/(kappa_s - kappa).

The same equation is integrated numerically (adaptive Runge-Kutta) as an
independent cross-check of the closed form. The optical carrier exp(i w0 t)
is factored out everywhere: it cancels in all intensities and would be
numerically intractable at ~2e15 rad/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import ParameterError, check_rates, from_two_pi_mhz

DEFAULT_KAPPA_S = from_two_pi_mhz(50.0)  # rad/s, default switch-off rate

# The explicit integrator's steps stay near its stability limit ~1/kappa even
# after the field has decayed, so its cost grows as kappa * t_end; far below
# this span exp(-2 kappa t) is already smaller than the smallest double.
MAX_INTEGRATED_LIFETIMES = 1e4


class IntegrationError(RuntimeError):
    """The adaptive integrator failed to reach the requested accuracy."""


@dataclass(frozen=True)
class RingdownParams:
    """Rates (rad/s) and drive amplitude for a reflection ring-down."""

    kappa1: float
    kappa2: float
    kappa_loss: float
    kappa_s: float = DEFAULT_KAPPA_S
    s0: float = 1.0

    @property
    def kappa(self) -> float:
        return self.kappa1 + self.kappa2 + self.kappa_loss

    def __post_init__(self):
        check_rates(self)
        if self.kappa <= 0.0:
            raise ParameterError("total kappa must be positive")
        if not self.kappa_s > self.kappa:
            raise ParameterError(
                "kappa_s must exceed kappa (closed form is singular at kappa_s = kappa)"
            )
        if not self.s0 > 0.0:
            raise ParameterError("s0 must be positive")


@dataclass(frozen=True)
class RingdownTrace:
    """Sampled (time, reflected intensity) record; times strictly increasing."""

    times: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        intensities = np.asarray(self.intensities, dtype=float)
        if times.shape != intensities.shape or times.ndim != 1:
            raise ParameterError("times and intensities must be 1-d and equal length")
        if times.size >= 2 and not np.all(np.diff(times) > 0.0):
            raise ParameterError("times must be strictly increasing")
        if np.any(intensities < 0.0):
            raise ParameterError("intensities must be non-negative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "intensities", intensities)

    def __len__(self) -> int:
        return self.times.size


def reflected_intensity_analytic(params: RingdownParams, t):
    """Closed-form reflected intensity |s_out(t)|^2 (s_out as in the module docstring).

    A scalar ``t`` evaluates as a 1-element array, and the float returned has
    that array's bits.
    """
    t = np.asarray(t, dtype=float)
    times = np.atleast_1d(t)
    kappa, kappa2, kappa_s, s0 = (
        params.kappa,
        params.kappa2,
        params.kappa_s,
        params.s0,
    )
    q = 2.0 * kappa2 / (kappa_s - kappa)
    tc = np.maximum(times, 0.0)
    after = s0 * (
        (2.0 * kappa2 / kappa + q) * np.exp(-kappa * tc)
        - (1.0 + q) * np.exp(-kappa_s * tc)
    )
    before = s0 * (2.0 * kappa2 / kappa - 1.0)
    out = np.abs(np.where(times < 0.0, before, after)) ** 2
    return float(out[0]) if t.ndim == 0 else out


def analytic_trace(params: RingdownParams, t_grid) -> RingdownTrace:
    return RingdownTrace(t_grid, reflected_intensity_analytic(params, t_grid))


def check_integration_span(params: RingdownParams, t_end: float):
    """Refuse to integrate beyond MAX_INTEGRATED_LIFETIMES lifetimes 1/kappa."""
    if t_end * params.kappa > MAX_INTEGRATED_LIFETIMES:
        raise ParameterError(
            f"integrating to t = {t_end:.4g} s spans {t_end * params.kappa:.4g} cavity "
            f"lifetimes 1/kappa, more than {MAX_INTEGRATED_LIFETIMES:g}"
        )


def integrate_ringdown(params: RingdownParams, t_grid) -> RingdownTrace:
    """Numerically integrate the ring-down and sample it on t_grid.

    Adaptive explicit Runge-Kutta (DOP853, relative tolerance 1e-9) in the
    rotating frame; the system is linear and non-stiff at physical rate
    ratios. Points with t < 0 get the steady-state value. Raises
    IntegrationError with the offending time if the integrator cannot proceed,
    and ParameterError (see ``check_integration_span``) for a grid that ends
    too many lifetimes after the switch-off.
    """
    from scipy.integrate import solve_ivp

    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ParameterError("t_grid must be a non-empty 1-d array")
    if t_grid.size >= 2 and not np.all(np.diff(t_grid) > 0.0):
        raise ParameterError("t_grid must be strictly increasing")

    kappa, kappa2, kappa_s, s0 = (
        params.kappa,
        params.kappa2,
        params.kappa_s,
        params.s0,
    )
    root2k2 = math.sqrt(2.0 * kappa2)
    steady = root2k2 * s0 / kappa
    rtol = 1e-9

    def s_in(t):
        return s0 * math.exp(-kappa_s * t)

    def rhs(t, y):
        return [-kappa * y[0] + root2k2 * s_in(t)]

    positive = t_grid[t_grid >= 0.0]
    amplitudes = np.full(t_grid.shape, steady)
    if positive.size:
        t_end = float(positive[-1])
        check_integration_span(params, t_end)
        if t_end == 0.0:
            field = np.array([steady])
        else:
            sol = solve_ivp(
                rhs,
                (0.0, t_end),
                [steady],
                method="DOP853",
                t_eval=positive,
                rtol=rtol,
                atol=rtol * max(steady, s0) * 1e-3,
            )
            if not sol.success:
                reached = sol.t[-1] if sol.t.size else 0.0
                raise IntegrationError(
                    f"ring-down integration failed near t = {reached:.3e} s: "
                    f"{sol.message}"
                )
            field = sol.y[0]
        amplitudes[t_grid >= 0.0] = field

    s_in_grid = np.where(t_grid < 0.0, s0, s0 * np.exp(-kappa_s * np.maximum(t_grid, 0.0)))
    s_out = -s_in_grid + root2k2 * amplitudes
    return RingdownTrace(t_grid, s_out**2)


def lifetime_from_kappa(kappa: float) -> float:
    """Photon lifetime (2 kappa)^-1 in seconds."""
    if not kappa > 0.0:
        raise ParameterError("kappa must be positive")
    return 1.0 / (2.0 * float(kappa))


def kappa_from_lifetime(lifetime_s: float) -> float:
    """Total field decay rate from a photon lifetime: kappa = 1/(2 tau)."""
    if not lifetime_s > 0.0:
        raise ParameterError("lifetime must be positive")
    return 1.0 / (2.0 * float(lifetime_s))
