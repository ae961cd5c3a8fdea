"""Nonlinear least-squares engine and the fit recipes used by this toolkit.

The minimizer is damped Gauss-Newton with a Levenberg-Marquardt damping
schedule: the damping multiplies the diagonal of J^T J, grows x10 when a step
fails and shrinks /10 when it succeeds, starting from 1e-3. The cost is the
weighted squared-residual sum. Convergence is declared when the cost is
exactly 0, when its relative change drops below 1e-10, or when every
gradient component divided by its weighted-Jacobian column norm drops below
1e-10; the iteration cap is 200, after which the best point is returned with
``converged=False``. When no damped step lowers the cost, the fit stops where
it is and is converged if the undamped Gauss-Newton step predicts a relative
cost reduction of at most 1e-10 (MINPACK's ``ftol`` test, Moré 1978), else
not. A residual or cost that is not finite is refused at the start point and
fails as a trial step.

Every model supplies its analytic Jacobian; the engine has no other source
of derivatives. Weights are 1/sigma^2 when per-point uncertainties are given;
otherwise weights are uniform and the parameter covariance is scaled by the
residual variance. Bounds are enforced by projecting each trial point.

Everything here is deterministic: identical inputs give bit-identical
results. The engine is reentrant; concurrent fits on separate data are safe.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import steady
from .units import ParameterError, SystemParams, from_two_pi_mhz

RABI_G_UPPER_BOUND = from_two_pi_mhz(50.0)
TOLERANCE = 1e-10  # relative: cost change, scaled gradient, predicted reduction


class FitError(RuntimeError):
    """The fit cannot give a meaningful estimate: the model or its Jacobian
    returned non-finite values, or the data do not show the assumed decay."""


@dataclass(frozen=True)
class Spectrum:
    """Sampled (detuning, normalized transmission, optional sigma) triples."""

    deltas: np.ndarray
    values: np.ndarray
    sigmas: np.ndarray | None = None

    def __post_init__(self):
        deltas = np.asarray(self.deltas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if deltas.ndim != 1 or deltas.shape != values.shape:
            raise ParameterError("deltas and values must be 1-d and equal length")
        sigmas = self.sigmas
        if sigmas is not None:
            sigmas = np.asarray(sigmas, dtype=float)
            if sigmas.shape != deltas.shape:
                raise ParameterError("sigmas must match deltas in length")
            if np.any(sigmas <= 0.0):
                raise ParameterError("sigmas must be positive where present")
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sigmas", sigmas)

    def __len__(self) -> int:
        return self.deltas.size


@dataclass(frozen=True)
class FitResult:
    """Estimates with 1-sigma uncertainties from the linearized problem."""

    names: tuple
    estimates: np.ndarray
    uncertainties: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int

    def as_dict(self) -> dict:
        return {
            "names": list(self.names),
            "estimates": [float(v) for v in self.estimates],
            # JSON has no Infinity: an unbounded uncertainty is written as null
            "uncertainties": [float(v) if math.isfinite(v) else None for v in self.uncertainties],
            "residual_norm": float(self.residual_norm),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
        }

    def __getitem__(self, name: str) -> float:
        return float(self.estimates[self.names.index(name)])

    def uncertainty(self, name: str) -> float:
        return float(self.uncertainties[self.names.index(name)])


# A model, Jacobian or cost that overflows is refused (a trial step whose cost
# is not finite fails), so numpy need not warn about it, nor about normal
# equations or a covariance that overflow.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_least_squares(
    model,
    x,
    y,
    initial,
    *,
    jac,
    bounds,
    names,
    sigmas=None,
) -> FitResult:
    """Minimize the weighted squared residuals of ``model(x, params) - y``.

    Parameters
    ----------
    model : callable
        ``model(x, params) -> values``; must broadcast over the x grid.
    x, y : array_like
        Sample points and observed values.
    initial : array_like
        Starting parameters; must lie within ``bounds``.
    jac : callable
        Analytic Jacobian ``jac(x, params) -> (npoints, nparams)``.
    bounds : sequence of (lo, hi)
        One box per parameter; a ``None`` lo or hi means unbounded.
    names : sequence of str
        One name per parameter, for the FitResult.
    sigmas : array_like, optional
        Per-point 1-sigma uncertainties; weights become 1/sigma^2.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    params = np.array(initial, dtype=float).ravel()
    n_par = params.size
    names = tuple(names)
    if x.ndim != 1 or y.shape != x.shape:
        raise ParameterError("x and y must be 1-d and equal length")
    if y.size < n_par:
        raise ParameterError("need at least as many points as parameters")
    if len(names) != n_par:
        raise ParameterError("names must give one name per parameter")
    if len(bounds) != n_par:
        raise ParameterError("bounds must give one (lo, hi) pair per parameter")

    lo = np.array([-np.inf if b_lo is None else float(b_lo) for b_lo, _ in bounds])
    hi = np.array([np.inf if b_hi is None else float(b_hi) for _, b_hi in bounds])
    if np.any(params < lo) or np.any(params > hi):
        raise ParameterError("initial parameters must lie within bounds")

    if sigmas is not None:
        sigmas = np.asarray(sigmas, dtype=float)
        if sigmas.shape != y.shape:
            raise ParameterError("sigmas must match y in length")
        if np.any(sigmas <= 0.0):
            raise ParameterError("sigmas must be positive")
        sqrt_w = 1.0 / sigmas
    else:
        sqrt_w = np.ones_like(y)

    def jacobian(p):
        j = np.asarray(jac(x, p), dtype=float)
        if not np.all(np.isfinite(j)):
            raise FitError("analytic Jacobian returned non-finite values")
        return j

    def weighted_residual(p):
        """The weighted residual at p and the cost, its squared sum."""
        r = (np.asarray(model(x, p), dtype=float) - y) * sqrt_w
        return r, float(r @ r)

    residual, cost = weighted_residual(params)
    if not np.all(np.isfinite(residual)):
        raise FitError("model returned non-finite values at the initial point")
    if not math.isfinite(cost):
        raise FitError("squared-residual sum overflows at the initial point")

    damping = 1e-3
    iterations = 0
    converged = False
    jw = None  # the weighted Jacobian at params; None once a step moves them
    for _ in range(200):
        jw = jacobian(params) * sqrt_w[:, None]
        gradient = jw.T @ residual
        jtj = jw.T @ jw
        # Column scaling keeps the normal equations well conditioned when
        # parameter magnitudes differ by many orders (rates vs amplitudes);
        # the gradient criterion is tested in the same scale-free space.
        scale = np.sqrt(np.diag(jtj))
        scale[scale <= 0.0] = 1.0
        jtj_scaled = jtj / np.outer(scale, scale)
        gradient_scaled = gradient / scale
        if cost == 0.0 or float(np.max(np.abs(gradient_scaled))) <= TOLERANCE:
            converged = True
            break
        stepped = False
        while damping <= 1e12:
            lhs = jtj_scaled + damping * np.eye(n_par)
            try:
                step = np.linalg.solve(lhs, gradient_scaled) / scale
            except np.linalg.LinAlgError:
                # lhs is positive definite, but the Gram matrix's rounding grows with
                # the point count past the 1e-15 damping floor: a zero pivot can occur
                damping *= 10.0
                continue
            trial = np.clip(params - step, lo, hi)
            trial_residual, trial_cost = weighted_residual(trial)
            if trial_cost < cost:  # False for a cost that is not finite
                params, residual, jw = trial, trial_residual, None
                previous_cost, cost = cost, trial_cost
                damping = max(damping / 10.0, 1e-15)
                stepped = True
                break
            damping *= 10.0
        iterations += 1
        if not stepped:
            # Damping exhausted: no step lowers the cost. That is the optimum
            # when the undamped Gauss-Newton step itself predicts a relative
            # reduction within TOLERANCE (MINPACK's ftol test on prered).
            jw_scaled = jw / scale
            gn_step = np.linalg.lstsq(jw_scaled, residual, rcond=None)[0]
            predicted = float(np.sum((jw_scaled @ gn_step) ** 2))
            converged = predicted <= TOLERANCE * cost
            break
        if previous_cost - cost <= TOLERANCE * max(previous_cost, 1e-300):
            converged = True
            break

    if jw is None:
        jw = jacobian(params) * sqrt_w[:, None]
    uncertainties = _covariance_uncertainties(jw, cost, y.size, n_par, sigmas)
    return FitResult(
        names=names,
        estimates=params,
        uncertainties=uncertainties,
        residual_norm=math.sqrt(cost),
        converged=converged,
        iterations=iterations,
    )


def _covariance_uncertainties(jw, cost, n_points, n_par, sigmas):
    """1-sigma uncertainties from the linearized covariance (J^T W J)^-1.

    A parameter the model does not respond to (zero Jacobian column) has a
    zero singular value in the information matrix, i.e. infinite variance.
    So does every parameter of an unweighted fit with no spare degree of
    freedom, and of one whose information matrix overflows.
    """
    jtj = jw.T @ jw
    if (sigmas is None and n_points <= n_par) or not np.all(np.isfinite(jtj)):
        return np.full(n_par, np.inf)
    col = np.sqrt(np.diag(jtj))
    insensitive = col <= 0.0
    col[insensitive] = 1.0
    cov_scaled = np.linalg.pinv(jtj / np.outer(col, col), hermitian=True)
    cov = cov_scaled / np.outer(col, col)
    if sigmas is None:
        cov = cov * (cost / (n_points - n_par))
    variances = np.diag(cov).copy()
    variances[variances < 0.0] = np.inf
    variances[insensitive] = np.inf
    return np.sqrt(variances)


# ---------------------------------------------------------------------------
# Built-in models and their analytic Jacobians


def lorentzian_model(delta, params):
    amp, kappa = params[0], params[1]
    c = params[2] if len(params) > 2 else 0.0
    return amp * kappa**2 / ((delta - c) ** 2 + kappa**2)


def lorentzian_jacobian(delta, params):
    amp, kappa = params[0], params[1]
    c = params[2] if len(params) > 2 else 0.0
    d2 = (delta - c) ** 2
    den = d2 + kappa**2
    cols = [kappa**2 / den, amp * 2.0 * kappa * d2 / den**2]
    if len(params) > 2:
        cols.append(amp * kappa**2 * 2.0 * (delta - c) / den**2)
    return np.stack(cols, axis=1)


def rabi_model_factory(fixed: SystemParams):
    """Single-parameter model g -> normalized transmission, with its Jacobian."""
    reference = steady.empty_cavity_reference(fixed)  # normalized_transmission's divisor

    def model(delta, params):
        return steady.transmission(fixed, delta, g=abs(params[0])) / reference

    def jacobian(delta, params):
        g = np.atleast_1d(abs(params[0]))
        z = steady._response_denominator(fixed, delta, g)
        t = steady.transmission(fixed, delta, g=g) / reference
        sign = 1.0 if params[0] >= 0.0 else -1.0
        col = -t * 4.0 * g * np.real(z) / np.abs(z) ** 2 * sign
        return col[:, None]

    return model, jacobian


def exponential_recovery_model(tau, params):
    baseline, amplitude, lifetime = params
    return baseline - amplitude * np.exp(-tau / lifetime)


def exponential_recovery_jacobian(tau, params):
    _, amplitude, lifetime = params
    decay = np.exp(-tau / lifetime)
    # decay underflows to 0 before tau/lifetime^2 overflows; the product's
    # limit is 0, so mask instead of evaluating 0 * inf
    with np.errstate(over="ignore", invalid="ignore"):
        slope = np.where(decay > 0.0, decay * (tau / lifetime**2), 0.0)
    return np.stack([np.ones_like(tau), -decay, -amplitude * slope], axis=1)


# ---------------------------------------------------------------------------
# Fit recipes


def fit_empty_cavity(spectrum: Spectrum, *, float_center: bool = False) -> FitResult:
    """Fit the empty-cavity Lorentzian amplitude * kappa^2 / (Delta^2 + kappa^2).

    Amplitude and kappa are free; the center is fixed at zero unless
    ``float_center`` is set. Returns kappa in rad/s under the name "kappa".
    The fit is unweighted even when the spectrum carries per-point errors.
    """
    deltas, values = spectrum.deltas, spectrum.values
    if not len(spectrum):
        raise ParameterError("spectrum holds no points")
    amp0 = max(float(np.max(values)), 0.0)  # the start must lie in the amplitude bound
    above = deltas[values >= 0.5 * amp0]
    if above.size >= 2 and above.max() > above.min():
        kappa0 = 0.5 * float(above.max() - above.min())
    else:
        kappa0 = 0.25 * float(deltas.max() - deltas.min())
    kappa0 = max(kappa0, 1e-6 * max(abs(deltas).max(), 1.0))

    names = ("amplitude", "kappa") + (("center",) if float_center else ())
    bounds = [(0.0, None), (1e-30, None)] + ([(None, None)] if float_center else [])
    result = fit_least_squares(
        lorentzian_model,
        deltas,
        values,
        [amp0, kappa0] + ([0.0] if float_center else []),
        bounds=bounds,
        jac=lorentzian_jacobian,
        names=names,
    )
    # A half width beyond the sampled span is not constrained by the data;
    # the linearized covariance is meaningless on that ridge, so flag it.
    span = float(np.max(np.abs(deltas)))
    if result["kappa"] > 2.0 * span:
        uncertainties = result.uncertainties.copy()
        uncertainties[names.index("kappa")] = math.inf
        result = dataclasses.replace(result, uncertainties=uncertainties)
    return result


def fit_rabi_g(
    spectrum: Spectrum,
    fixed: SystemParams,
    *,
    initial: float | None = None,
) -> FitResult:
    """Fit the normalized transmission with g as the only free parameter.

    kappa1, kappa2, kappa_loss and gamma are held fixed (independently
    characterized); g is bounded to [0, 2pi x 50 MHz]. The fit is unweighted
    even when the spectrum carries per-point errors.
    """
    model, jacobian = rabi_model_factory(fixed)
    if initial is None:
        # Coarse deterministic scan over the bounded g range; the 1-d cost
        # landscape has plateaus at large g where a bad start would stall.
        candidates = np.linspace(0.0, RABI_G_UPPER_BOUND, 201)
        step = steady.rows_per_block(len(spectrum))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            costs = np.concatenate([
                np.sum((model(spectrum.deltas, [block[:, None]]) - spectrum.values) ** 2, axis=1)
                for block in np.split(candidates, range(step, candidates.size, step))
            ])
        initial = float(candidates[int(np.argmin(costs))])
    return fit_least_squares(
        model,
        spectrum.deltas,
        spectrum.values,
        [initial],
        bounds=[(0.0, RABI_G_UPPER_BOUND)],
        jac=jacobian,
        names=("g",),
    )


def fit_exponential_recovery(times, values) -> FitResult:
    """Fit v(tau) = baseline - amplitude * exp(-tau / lifetime)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 4:
        raise ParameterError("exponential recovery needs at least 4 points")
    baseline0 = float(values[-1])
    amplitude0 = baseline0 - float(values[0])
    span = float(times.max() - times.min())
    lifetime0 = span / 3.0 if span > 0 else 1.0
    if amplitude0 != 0.0:
        # time at which the recovery has covered (1 - 1/e) of its range; a
        # start that overflows is refused by the engine
        with np.errstate(over="ignore", invalid="ignore"):
            crossed = np.nonzero((values - values[0]) / amplitude0 >= 1.0 - math.exp(-1.0))[0]
        if crossed.size and times[crossed[0]] > times[0]:
            lifetime0 = float(times[crossed[0]] - times[0])
    return fit_least_squares(
        exponential_recovery_model,
        times,
        values,
        [baseline0, amplitude0, lifetime0],
        bounds=[(None, None), (None, None), (1e-30, None)],
        jac=exponential_recovery_jacobian,
        names=("baseline", "amplitude", "lifetime"),
    )


def fit_ringdown_tail(trace, tail_start: float) -> FitResult:
    """Log-linear fit of the ring-down tail: intensity = amplitude e^{-rate t}.

    Only samples with t >= tail_start enter; they must be positive. The
    intensity decay rate equals 2 kappa, so the photon lifetime is 1/rate.
    Pick tail_start at or beyond ~5/(kappa_s - kappa) so the switch-off
    transient has died. Raises FitError if the fitted rate is not positive.
    """
    times = np.asarray(trace.times, dtype=float)
    intensities = np.asarray(trace.intensities, dtype=float)
    mask = times >= float(tail_start)
    t = times[mask]
    intensity = intensities[mask]
    if t.size < 2:
        raise ParameterError("tail window holds fewer than 2 samples")
    if np.any(intensity <= 0.0):
        raise ParameterError("non-positive intensities in tail window")

    log_i = np.log(intensity)
    design = np.stack([np.ones_like(t), t], axis=1)
    coef, rss, *_ = np.linalg.lstsq(design, log_i, rcond=None)
    intercept, slope = coef
    if not slope < 0.0:
        raise FitError(
            f"tail does not decay: log-intensity slope {slope:.6g} /s is not negative"
        )
    fitted = design @ coef
    residuals = log_i - fitted
    rss = float(residuals @ residuals)
    dof = t.size - 2
    with np.errstate(over="ignore", invalid="ignore"):  # t^2 overflows from t ~ 1e154 s on
        xtx = design.T @ design
    if dof > 0 and np.all(np.isfinite(xtx)):
        xtx_inv = np.linalg.inv(xtx)
        sigma2 = rss / dof
        se_intercept = math.sqrt(sigma2 * xtx_inv[0, 0])
        se_slope = math.sqrt(sigma2 * xtx_inv[1, 1])
    else:
        se_intercept = se_slope = np.inf

    amplitude = math.exp(intercept)
    return FitResult(
        names=("amplitude", "rate"),
        estimates=np.array([amplitude, -slope]),
        uncertainties=np.array([amplitude * se_intercept, se_slope]),
        residual_norm=math.sqrt(rss),
        converged=True,
        iterations=0,
    )
