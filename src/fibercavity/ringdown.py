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
the closed form, by ``_dop853``: a port of scipy.integrate's adaptive
8th-order Runge-Kutta solver (DOP853) that returns scipy's bits, so this
module loads no scipy. The optical carrier exp(i w0 t) is factored out
everywhere: it cancels in all intensities and would be numerically
intractable at ~2e15 rad/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import NON_NEGATIVE, POSITIVE, Bounded, ParameterError, from_two_pi_mhz

# The explicit integrator's steps stay near its stability limit ~1/kappa even
# after the field has decayed, so its cost grows as kappa * t_end; far below
# this span exp(-2 kappa t) is already smaller than the smallest double.
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

    Adaptive explicit Runge-Kutta (``_dop853``, the DOP853 pair, relative
    tolerance 1e-9) in the rotating frame; the system is linear and non-stiff
    at physical rate ratios. Points with t < 0 get the steady-state value.
    Raises IntegrationError with the offending time if the integrator cannot
    proceed, and ParameterError (see ``check_integration_span``) for a grid
    that ends too many lifetimes after the switch-off.
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
    rtol = 1e-9

    def s_in(t):
        return s0 * math.exp(-kappa_s * t)

    def rhs(t, y):
        return np.array([-kappa * y[0] + root2k2 * s_in(t)])

    positive = t_grid[t_grid >= 0.0]
    amplitudes = np.full(t_grid.shape, steady)
    if positive.size:
        t_end = float(positive[-1])
        check_integration_span(params, t_end)
        if t_end == 0.0:
            field = np.array([steady])
        else:
            # a drive whose field or atol underflows to 0 gives a NaN step: IntegrationError
            with np.errstate(divide="ignore", invalid="ignore"):
                field = _dop853(rhs, t_end, steady, positive, rtol, rtol * max(steady, s0) * 1e-3)
        amplitudes[t_grid >= 0.0] = field

    s_in_grid = np.where(t_grid < 0.0, s0, s0 * np.exp(-kappa_s * np.maximum(t_grid, 0.0)))
    s_out = -s_in_grid + root2k2 * amplitudes
    return RingdownTrace(t_grid, s_out**2)


# The DOP853 pair (Hairer, Norsett & Wanner, Solving Ordinary Differential
# Equations I, Sec. II) as scipy 1.17 implements it in scipy/integrate/_ivp/
# (BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. and 2003-2024 SciPy
# Developers). The digits are those of dop853_coefficients.py verbatim: each
# row is "<table>[.<row>]" followed by its nonzero "<column>:<value>" entries.
_DOP853_DIGITS = """
C 1:0.526001519587677318785587544488e-01 2:0.789002279381515978178381316732e-01
  3:0.118350341907227396726757197510 4:0.281649658092772603273242802490
  5:0.333333333333333333333333333333 6:0.25 7:0.307692307692307692307692307692
  8:0.651282051282051282051282051282 9:0.6 10:0.857142857142857142857142857142 11:1.0 12:1.0
  13:0.1 14:0.2 15:0.777777777777777777777777777778
A.1 0:5.26001519587677318785587544488e-2
A.2 0:1.97250569845378994544595329183e-2 1:5.91751709536136983633785987549e-2
A.3 0:2.95875854768068491816892993775e-2 2:8.87627564304205475450678981324e-2
A.4 0:2.41365134159266685502369798665e-1 2:-8.84549479328286085344864962717e-1
  3:9.24834003261792003115737966543e-1
A.5 0:3.7037037037037037037037037037e-2 3:1.70828608729473871279604482173e-1
  4:1.25467687566822425016691814123e-1
A.6 0:3.7109375e-2 3:1.70252211019544039314978060272e-1 4:6.02165389804559606850219397283e-2
  5:-1.7578125e-2
A.7 0:3.70920001185047927108779319836e-2 3:1.70383925712239993810214054705e-1
  4:1.07262030446373284651809199168e-1 5:-1.53194377486244017527936158236e-2
  6:8.27378916381402288758473766002e-3
A.8 0:6.24110958716075717114429577812e-1 3:-3.36089262944694129406857109825
  4:-8.68219346841726006818189891453e-1 5:2.75920996994467083049415600797e1
  6:2.01540675504778934086186788979e1 7:-4.34898841810699588477366255144e1
A.9 0:4.77662536438264365890433908527e-1 3:-2.48811461997166764192642586468
  4:-5.90290826836842996371446475743e-1 5:2.12300514481811942347288949897e1
  6:1.52792336328824235832596922938e1 7:-3.32882109689848629194453265587e1
  8:-2.03312017085086261358222928593e-2
A.10 0:-9.3714243008598732571704021658e-1 3:5.18637242884406370830023853209
  4:1.09143734899672957818500254654 5:-8.14978701074692612513997267357
  6:-1.85200656599969598641566180701e1 7:2.27394870993505042818970056734e1
  8:2.49360555267965238987089396762 9:-3.0467644718982195003823669022
A.11 0:2.27331014751653820792359768449 3:-1.05344954667372501984066689879e1
  4:-2.00087205822486249909675718444 5:-1.79589318631187989172765950534e1
  6:2.79488845294199600508499808837e1 7:-2.85899827713502369474065508674
  8:-8.87285693353062954433549289258 9:1.23605671757943030647266201528e1
  10:6.43392746015763530355970484046e-1
A.12 0:5.42937341165687622380535766363e-2 5:4.45031289275240888144113950566
  6:1.89151789931450038304281599044 7:-5.8012039600105847814672114227
  8:3.1116436695781989440891606237e-1 9:-1.52160949662516078556178806805e-1
  10:2.01365400804030348374776537501e-1 11:4.47106157277725905176885569043e-2
A.13 0:5.61675022830479523392909219681e-2 6:2.53500210216624811088794765333e-1
  7:-2.46239037470802489917441475441e-1 8:-1.24191423263816360469010140626e-1
  9:1.5329179827876569731206322685e-1 10:8.20105229563468988491666602057e-3
  11:7.56789766054569976138603589584e-3 12:-8.298e-3
A.14 0:3.18346481635021405060768473261e-2 5:2.83009096723667755288322961402e-2
  6:5.35419883074385676223797384372e-2 7:-5.49237485713909884646569340306e-2
  10:-1.08347328697249322858509316994e-4 11:3.82571090835658412954920192323e-4
  12:-3.40465008687404560802977114492e-4 13:1.41312443674632500278074618366e-1
A.15 0:-4.28896301583791923408573538692e-1 5:-4.69762141536116384314449447206
  6:7.68342119606259904184240953878 7:4.06898981839711007970213554331
  8:3.56727187455281109270669543021e-1 12:-1.39902416515901462129418009734e-3
  13:2.9475147891527723389556272149 14:-9.15095847217987001081870187138
D.0 0:-0.84289382761090128651353491142e+1 5:0.56671495351937776962531783590
  6:-0.30689499459498916912797304727e+1 7:0.23846676565120698287728149680e+1
  8:0.21170345824450282767155149946e+1 9:-0.87139158377797299206789907490
  10:0.22404374302607882758541771650e+1 11:0.63157877876946881815570249290
  12:-0.88990336451333310820698117400e-1 13:0.18148505520854727256656404962e+2
  14:-0.91946323924783554000451984436e+1 15:-0.44360363875948939664310572000e+1
D.1 0:0.10427508642579134603413151009e+2 5:0.24228349177525818288430175319e+3
  6:0.16520045171727028198505394887e+3 7:-0.37454675472269020279518312152e+3
  8:-0.22113666853125306036270938578e+2 9:0.77334326684722638389603898808e+1
  10:-0.30674084731089398182061213626e+2 11:-0.93321305264302278729567221706e+1
  12:0.15697238121770843886131091075e+2 13:-0.31139403219565177677282850411e+2
  14:-0.93529243588444783865713862664e+1 15:0.35816841486394083752465898540e+2
D.2 0:0.19985053242002433820987653617e+2 5:-0.38703730874935176555105901742e+3
  6:-0.18917813819516756882830838328e+3 7:0.52780815920542364900561016686e+3
  8:-0.11573902539959630126141871134e+2 9:0.68812326946963000169666922661e+1
  10:-0.10006050966910838403183860980e+1 11:0.77771377980534432092869265740
  12:-0.27782057523535084065932004339e+1 13:-0.60196695231264120758267380846e+2
  14:0.84320405506677161018159903784e+2 15:0.11992291136182789328035130030e+2
D.3 0:-0.25693933462703749003312586129e+2 5:-0.15418974869023643374053993627e+3
  6:-0.23152937917604549567536039109e+3 7:0.35763911791061412378285349910e+3
  8:0.93405324183624310003907691704e+2 9:-0.37458323136451633156875139351e+2
  10:0.10409964950896230045147246184e+3 11:0.29840293426660503123344363579e+2
  12:-0.43533456590011143754432175058e+2 13:0.96324553959188282948394950600e+2
  14:-0.39177261675615439165231486172e+2 15:-0.14972683625798562581422125276e+3
E5 0:0.1312004499419488073250102996e-1 5:-0.1225156446376204440720569753e+1
  6:-0.4957589496572501915214079952 7:0.1664377182454986536961530415e+1
  8:-0.3503288487499736816886487290 9:0.3341791187130174790297318841
  10:0.8192320648511571246570742613e-1 11:-0.2235530786388629525884427845e-1
"""


def _dop853_tables():
    """scipy's DOP853 arrays: A (16 x 16), its row B, C (16), E3, E5 (13) and D (4 x 16)."""
    A, C, D, E5 = np.zeros((16, 16)), np.zeros(16), np.zeros((4, 16)), np.zeros(13)
    tables = {"A": A, "C": C, "D": D, "E5": E5}
    for token in _DOP853_DIGITS.split():
        if ":" in token:
            column, value = token.split(":")
            row[int(column)] = float(value)
        else:
            name, _, index = token.partition(".")
            row = tables[name][int(index)] if index else tables[name]
    B = A[12, :12]
    E3 = np.zeros(13)
    E3[:-1] = B.copy()
    E3[0] -= 0.244094488188976377952755905512
    E3[8] -= 0.733846688281611857341361741547
    E3[11] -= 0.220588235294117647058823529412e-1
    return A, B, C, E3, E5, D


def _dop853(fun, t_end, y0, t_eval, rtol, atol):
    """y at the sorted points t_eval in [0, t_end] for y' = fun(t, y), y(0) = y0.

    scipy.integrate's DOP853 solver for one real equation, with the same
    initial step, step-size control, error norm, dense output and numpy calls
    (so BLAS rounds alike), hence the same bits. ``fun`` maps a 1-element
    array to a 1-element array, whose RMS norm is its 2-norm. Raises
    IntegrationError where scipy's solver fails, naming the last t_eval point
    reached, and where a NaN step would keep scipy's solver stepping forever.
    """
    A_ext, B, C_ext, E3, E5, D = _dop853_tables()
    A, C = A_ext[:12, :12], C_ext[:12]
    t, y = 0.0, np.array([y0], dtype=float)
    f = fun(t, y)
    # common.select_initial_step for error estimator order 7
    scale = atol + np.abs(y) * rtol
    d0, d1 = np.linalg.norm(y / scale), np.linalg.norm(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = np.linalg.norm((fun(t + h0, y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, t_end)

    K_ext = np.empty((16, 1))
    K = K_ext[:13]
    samples, done = [], 0
    while t < t_end:
        # RungeKutta._step_impl with DOP853._estimate_error_norm
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # scipy: h_abs < min_step, and a NaN h_abs loops forever
                reached = t_eval[done - 1] if done else 0.0
                raise IntegrationError(
                    f"ring-down integration failed near t = {reached:.3e} s: "
                    "Required step size is less than spacing between numbers."
                )
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 12):
                K[s] = fun(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = K[-1] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5_norm_2 = np.linalg.norm(np.dot(K.T, E5) / scale) ** 2
            err3_norm_2 = np.linalg.norm(np.dot(K.T, E3) / scale) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5_norm_2 / np.sqrt(err5_norm_2 + 0.01 * err3_norm_2)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm**-0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm**-0.125)
            rejected = True
        t_old, y_old, f_old = t, y, f
        t, y, f = t_new, y_new, f_new

        # the solver's t_eval bookkeeping and DOP853._dense_output_impl
        stop = np.searchsorted(t_eval, t, side="right")
        if stop > done:
            for s in range(13, 16):
                K_ext[s] = fun(t_old + C_ext[s] * h, y_old + np.dot(K_ext[:s].T, A_ext[s, :s]) * h)
            delta_y = y - y_old
            F = np.empty((7, 1))
            F[0] = delta_y
            F[1] = h * f_old - delta_y
            F[2] = 2 * delta_y - h * (f + f_old)
            F[3:] = h * np.dot(D, K_ext)
            x = ((t_eval[done:stop] - t_old) / (t - t_old))[:, None]
            value = np.zeros((len(x), 1))
            for i, row in enumerate(reversed(F)):
                value += row
                value *= x if i % 2 == 0 else 1 - x
            value += y_old
            samples.append(value[:, 0])
            done = stop
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
