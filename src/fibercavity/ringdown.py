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
decays at rate 2 kappa once t >> 1/(kappa_s - kappa). Since kappa2 <= kappa and
1 - e^{-x} <= x, the field stays between 0 and (1 + 1/e) times its steady
state sqrt(2 kappa2) s0 / kappa, and s_out between -s0 and 2 (1 + 1/e) s0.

The same equation is integrated numerically as an independent cross-check of
the closed form, by ``_dopri5``: the adaptive Dormand-Prince 5(4) Runge-Kutta
pair with its continuous extension, on floats, so this module loads no
scipy. The optical carrier exp(i w0 t) is factored out everywhere: it
cancels in all intensities and would be numerically intractable at
~2e15 rad/s.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .units import NON_NEGATIVE, POSITIVE, Bounded, ParameterError, from_two_pi_mhz

# Once the field has decayed, the explicit DP5 pair's steps sit at its stability
# limit, h kappa ~ 3.3 (2.7 on average), so its cost grows as kappa * t_end: at
# this span about 3700 steps, 65 ms on a 2-vCPU x86 host with Python 3.11. Far
# below it exp(-2 kappa t) is already smaller than the smallest double.
MAX_INTEGRATED_LIFETIMES = 1e4


class IntegrationError(RuntimeError):
    """The adaptive integrator failed to reach the requested accuracy."""


@dataclass(frozen=True)
class RingdownParams(Bounded):
    """Rates (rad/s) and drive amplitude for a reflection ring-down."""

    kappa1: float
    kappa2: float
    kappa_loss: float
    kappa_s: float = from_two_pi_mhz(50.0)  # default switch-off rate
    s0: float = 1.0

    BOUNDS = {"kappa1": NON_NEGATIVE, "kappa2": NON_NEGATIVE, "kappa_loss": NON_NEGATIVE,
              "kappa_s": NON_NEGATIVE, "s0": POSITIVE}

    @property
    def kappa(self) -> float:
        return self.kappa1 + self.kappa2 + self.kappa_loss

    def __post_init__(self):
        super().__post_init__()
        if self.kappa <= 0.0:
            raise ParameterError("total kappa must be positive")
        if not self.kappa_s > self.kappa:
            raise ParameterError(
                "kappa_s must exceed kappa (closed form is singular at kappa_s = kappa)"
            )
        # |s_out| < 3 s0 and a < 2 sqrt(2 kappa2) s0 / kappa at every t (module docstring)
        peak, steady = 3.0 * self.s0, math.sqrt(2.0 * self.kappa2) * self.s0 / self.kappa
        if not (math.isfinite(peak * peak) and math.isfinite(2.0 * steady)):
            raise ParameterError(
                f"s0 = {self.s0:.4g} overflows the reflected intensity or the cavity field",
                field="s0",
            )


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

    Adaptive explicit Runge-Kutta (``_dopri5``, the Dormand-Prince 5(4) pair,
    relative tolerance 1e-11) in the rotating frame; the system is linear and
    non-stiff at physical rate ratios. Points with t < 0 get the steady-state
    value. Raises IntegrationError with the offending time if the integrator
    cannot proceed, and ParameterError (see ``check_integration_span``) for a
    grid that ends too many lifetimes after the switch-off.
    """
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
    rtol = 1e-11

    def rhs(t, y):
        return -kappa * y + root2k2 * s0 * math.exp(-kappa_s * t)

    positive = t_grid[t_grid >= 0.0]
    amplitudes = np.full(t_grid.shape, steady)
    if positive.size:
        t_end = float(positive[-1])
        check_integration_span(params, t_end)
        if t_end == 0.0:
            field = np.array([steady])
        else:
            field = _dopri5(rhs, t_end, steady, positive, rtol, rtol * max(steady, s0) * 1e-3)
        amplitudes[t_grid >= 0.0] = field

    s_in_grid = np.where(t_grid < 0.0, s0, s0 * np.exp(-kappa_s * np.maximum(t_grid, 0.0)))
    s_out = -s_in_grid + root2k2 * amplitudes
    return RingdownTrace(t_grid, s_out**2)


# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6, 19,
# 1980) with Hairer's continuous extension "contd5" (Hairer, Norsett & Wanner,
# Solving Ordinary Differential Equations I, Sec. II.5-6): the nodes and rows
# of stages 2-6, the 5th-order weights (also the row of the FSAL stage 7 at
# t + h), the 5th- minus 4th-order weights and the dense-output weights.
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
      -10690763975 / 1880347072, 701980252875 / 199316789632,
      -1453857185 / 822651844, 69997945 / 29380423)


def _weighted(weights, k) -> float:
    return sum(map(operator.mul, weights, k))


def _dopri5(fun, t_end, y0, t_eval, rtol, atol):
    """y at the sorted points t_eval in [0, t_end] for y' = fun(t, y), y(0) = y0.

    One real equation on floats. Each step is accepted when the difference of
    the 5th- and 4th-order solutions is within atol + rtol |y|; the first step
    tries all of [0, t_end]. The t_eval points inside a step are read off its
    4th-order continuous extension. A NaN error rejects the step like a large
    one, so it only shrinks; once a step would be shorter than ten float
    spacings of t, raises IntegrationError naming the last t_eval point reached.
    """
    t, y, f, h = 0.0, y0, fun(0.0, y0), t_end
    samples, done = [], 0
    while t < t_end:
        rejected = False
        while True:
            if not h >= 10.0 * math.ulp(t):
                reached = t_eval[done - 1] if done else 0.0
                raise IntegrationError(
                    f"ring-down integration failed near t = {reached:.3e} s: "
                    "Required step size is less than spacing between numbers."
                )
            t_new = min(t + h, t_end)
            h = t_new - t
            k = [f]
            for c, row in zip(_C, _A):
                k.append(fun(t + c * h, y + h * _weighted(row, k)))
            y_new = y + h * _weighted(_B, k)
            k.append(fun(t_new, y_new))
            scale = atol + rtol * max(abs(y), abs(y_new))
            # a field and atol that underflow to 0 leave no scale: a NaN error
            error = abs(h * _weighted(_E, k)) / scale if scale else math.nan
            if error < 1.0:
                break
            h *= max(0.2, 0.9 * error**-0.2)
            rejected = True

        stop = np.searchsorted(t_eval, t_new, side="right")
        if stop > done:
            # contd5's polynomial in x = (t - t_old) / h, its coefficients named as in dopri5
            x = (t_eval[done:stop] - t) / h
            rcont2 = y_new - y
            rcont3 = h * f - rcont2
            rcont4 = rcont2 - h * k[-1] - rcont3
            rcont5 = h * _weighted(_D, k)
            samples.append(y + x * (rcont2 + (1 - x) * (rcont3 + x * (rcont4 + (1 - x) * rcont5))))
            done = stop
        t, y, f = t_new, y_new, k[-1]
        h *= min(1.0 if rejected else 10.0, 0.9 * error**-0.2 if error else 10.0)
    return np.concatenate(samples)


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
