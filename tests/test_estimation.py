import numpy as np
import pytest

from fibercavity import (
    ParameterError,
    RingdownParams,
    RingdownTrace,
    analytic_trace,
    from_two_pi_mhz,
    normalized_transmission,
    steady,
)
from fibercavity import estimation
from fibercavity.estimation import (
    FitResult,
    Spectrum,
    exponential_recovery_jacobian,
    exponential_recovery_model,
    fit_empty_cavity,
    fit_exponential_recovery,
    fit_least_squares,
    fit_rabi_g,
    fit_ringdown_tail,
    lorentzian_jacobian,
    lorentzian_model,
    rabi_model_factory,
)

TWO_PI_MHZ = from_two_pi_mhz(1.0)


def lorentzian_spectrum(kappa_mhz=6.4, amp=1.0, points=41, span=25.0):
    deltas = np.linspace(-span, span, points) * TWO_PI_MHZ
    kappa = kappa_mhz * TWO_PI_MHZ
    return Spectrum(deltas, amp * kappa**2 / (deltas**2 + kappa**2))


def test_spectrum_validation():
    with pytest.raises(ParameterError):
        Spectrum(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ParameterError):
        Spectrum(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([1.0, 0.0]))


def test_initial_point_already_optimal():
    spectrum = lorentzian_spectrum()
    result = fit_least_squares(
        lorentzian_model,
        spectrum.deltas,
        spectrum.values,
        [1.0, 6.4 * TWO_PI_MHZ],
        jac=lorentzian_jacobian,
        bounds=[(None, None), (None, None)],
        names=("amplitude", "kappa"),
    )
    assert result.converged
    assert result.iterations == 0
    assert result.residual_norm < 1e-14


def test_linear_model_matches_weighted_regression():
    rng = np.random.default_rng(11)
    x = np.linspace(0.5, 9.5, 25)
    y = 3.7 * x + rng.normal(0.0, 0.4, x.size)
    sigmas = rng.uniform(0.2, 1.5, x.size)
    result = fit_least_squares(
        lambda xx, p: p[0] * xx,
        x,
        y,
        [1.0],
        sigmas=sigmas,
        jac=lambda xx, p: xx[:, None],
        bounds=[(None, None)],
        names=("slope",),
    )
    w = 1.0 / sigmas**2
    closed_form = float(np.sum(w * x * y) / np.sum(w * x * x))
    assert result.estimates[0] == pytest.approx(closed_form, rel=1e-10, abs=1e-12)
    # closed-form 1-sigma from the normal equations
    assert result.uncertainties[0] == pytest.approx(
        1.0 / np.sqrt(np.sum(w * x * x)), rel=1e-10
    )


def test_single_parameter_recovery_from_offset_start():
    x = np.linspace(0.0, 4.0, 30)
    true = 1.37
    y = np.exp(-true * x)
    result = fit_least_squares(
        lambda xx, p: np.exp(-p[0] * xx),
        x,
        y,
        [true * 1.5],
        jac=lambda xx, p: (-xx * np.exp(-p[0] * xx))[:, None],
        bounds=[(None, None)],
        names=("rate",),
    )
    assert result.converged
    assert result.estimates[0] == pytest.approx(true, rel=1e-6)


def test_engine_input_validation():
    spectrum = lorentzian_spectrum()
    with pytest.raises(ParameterError, match="bounds"):
        fit_least_squares(
            lorentzian_model,
            spectrum.deltas,
            spectrum.values,
            [1.0, 1.0],
            bounds=[(0.0, None), (2.0, None)],
            jac=lorentzian_jacobian,
            names=("amplitude", "kappa"),
        )
    with pytest.raises(ParameterError, match="points"):
        fit_least_squares(
            lorentzian_model,
            spectrum.deltas[:1],
            spectrum.values[:1],
            [1.0, 1.0],
            jac=lorentzian_jacobian,
            bounds=[(None, None), (None, None)],
            names=("amplitude", "kappa"),
        )


def test_names_and_bounds_give_one_entry_per_parameter():
    spectrum = lorentzian_spectrum()
    unbounded = [(None, None), (None, None)]
    for names, bounds, match in [
        (("kappa",), unbounded, "names"),
        (("amplitude", "kappa", "center"), unbounded, "names"),
        (("amplitude", "kappa"), unbounded[:1], "bounds"),
        (("amplitude", "kappa"), unbounded * 2, "bounds"),
    ]:
        with pytest.raises(ParameterError, match=match):
            fit_least_squares(
                lorentzian_model,
                spectrum.deltas,
                spectrum.values,
                [1.0, 6.4 * TWO_PI_MHZ],
                jac=lorentzian_jacobian,
                bounds=bounds,
                names=names,
            )


def test_rabi_g_fit_computes_the_empty_cavity_reference_once(measured_params, monkeypatch):
    deltas = np.linspace(-25.0, 25.0, 41) * TWO_PI_MHZ
    spectrum = Spectrum(deltas, normalized_transmission(measured_params, deltas))
    calls = []
    reference = steady.empty_cavity_reference

    def counted(params):
        calls.append(params)
        return reference(params)

    monkeypatch.setattr(steady, "empty_cavity_reference", counted)
    result = fit_rabi_g(spectrum, measured_params)
    assert result.converged and result.iterations > 0
    assert calls == [measured_params]


@pytest.mark.parametrize(
    "case, evaluations",
    [("optimal start", 1), ("offset start", 5), ("damping exhausted", 4)],
)
def test_the_jacobian_is_not_evaluated_twice_at_the_same_parameters(
    case, evaluations, monkeypatch
):
    # Fits that end on the gradient test, at the start or after steps, or with
    # no damped step lowering the cost (test_fit_stalled_at_optimum_is_converged)
    # end where the loop last evaluated the Jacobian.
    calls = []

    def counted(x, params):
        calls.append(params.tobytes())
        return lorentzian_jacobian(x, params)

    monkeypatch.setattr(estimation, "lorentzian_jacobian", counted)
    if case == "damping exhausted":
        result = _noisy_lorentzian(146)
    else:
        spectrum = lorentzian_spectrum()
        amplitude, kappa_mhz = (1.0, 6.4) if case == "optimal start" else (0.9, 5.0)
        result = fit_least_squares(
            lorentzian_model,
            spectrum.deltas,
            spectrum.values,
            [amplitude, kappa_mhz * TWO_PI_MHZ],
            jac=counted,
            bounds=[(0.0, None), (0.0, None)],
            names=("amplitude", "kappa"),
        )
    assert result.converged
    assert len(set(calls)) == len(calls) == evaluations


def central_difference(model, x, params, i, rel=1e-7):
    h = rel * max(abs(params[i]), 1e-30)
    plus = params.copy()
    minus = params.copy()
    plus[i] += h
    minus[i] -= h
    return (model(x, plus) - model(x, minus)) / (2.0 * h)


@pytest.mark.parametrize("n_params", [2, 3])
def test_lorentzian_jacobian_matches_finite_differences(n_params):
    rng = np.random.default_rng(3)
    x = np.linspace(-2e8, 2e8, 17)
    for _ in range(5):
        params = np.array(
            [rng.uniform(0.5, 2.0), rng.uniform(1e7, 1e8), rng.uniform(-1e7, 1e7)]
        )[:n_params]
        analytic = lorentzian_jacobian(x, params)
        for i in range(n_params):
            fd = central_difference(lorentzian_model, x, params, i)
            scale = np.max(np.abs(fd)) + 1e-300
            assert np.max(np.abs(analytic[:, i] - fd)) / scale < 1e-5


def test_rabi_jacobian_matches_finite_differences(measured_params):
    model, jacobian = rabi_model_factory(measured_params)
    x = np.linspace(-2e8, 2e8, 21)
    rng = np.random.default_rng(4)
    for _ in range(5):
        params = np.array([rng.uniform(0.3, 12.0) * TWO_PI_MHZ])
        fd = central_difference(model, x, params, 0)
        analytic = jacobian(x, params)[:, 0]
        assert np.max(np.abs(analytic - fd)) / (np.max(np.abs(fd)) + 1e-300) < 1e-5


def test_exponential_jacobian_matches_finite_differences():
    x = np.linspace(0.0, 0.05, 15)
    rng = np.random.default_rng(5)
    for _ in range(5):
        params = np.array(
            [rng.uniform(0.5, 1.5), rng.uniform(0.1, 1.0), rng.uniform(3e-3, 3e-2)]
        )
        analytic = exponential_recovery_jacobian(x, params)
        for i in range(3):
            fd = central_difference(exponential_recovery_model, x, params, i)
            scale = np.max(np.abs(fd)) + 1e-300
            assert np.max(np.abs(analytic[:, i] - fd)) / scale < 1e-5


def test_forward_invert_round_trips(measured_params):
    rng = np.random.default_rng(99)
    deltas = np.linspace(-25.0, 25.0, 41) * TWO_PI_MHZ
    for _ in range(100):
        kind = rng.integers(0, 3)
        if kind == 0:
            amp, kappa = rng.uniform(0.5, 2.0), rng.uniform(2.0, 15.0) * TWO_PI_MHZ
            spectrum = Spectrum(deltas, amp * kappa**2 / (deltas**2 + kappa**2))
            result = fit_empty_cavity(spectrum)
            assert result.converged
            assert result["kappa"] == pytest.approx(kappa, rel=1e-6)
            assert result["amplitude"] == pytest.approx(amp, rel=1e-6)
        elif kind == 1:
            g = rng.uniform(0.5, 12.0) * TWO_PI_MHZ
            values = normalized_transmission(measured_params.with_g(g), deltas)
            result = fit_rabi_g(
                Spectrum(deltas, values), measured_params, initial=g * 1.5
            )
            assert result.converged
            assert result["g"] == pytest.approx(g, rel=1e-6)
        else:
            baseline = rng.uniform(0.8, 1.2)
            amplitude = rng.uniform(0.3, 1.0)
            lifetime = rng.uniform(5e-3, 20e-3)
            times = np.linspace(0.0, 0.05, 20)
            values = baseline - amplitude * np.exp(-times / lifetime)
            result = fit_exponential_recovery(times, values)
            assert result.converged
            assert result["lifetime"] == pytest.approx(lifetime, rel=1e-6)


def test_fit_is_deterministic(measured_params):
    rng = np.random.default_rng(17)
    deltas = np.linspace(-25.0, 25.0, 41) * TWO_PI_MHZ
    values = normalized_transmission(measured_params, deltas) + rng.normal(
        0.0, 0.02, deltas.size
    )
    spectrum = Spectrum(deltas, values)
    a = fit_rabi_g(spectrum, measured_params)
    b = fit_rabi_g(spectrum, measured_params)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.uncertainties, b.uncertainties)
    assert a.residual_norm == b.residual_norm
    assert a.iterations == b.iterations


def test_estimator_consistency_scaling():
    # Poisson-equivalent noise sigma ~ 1/sqrt(N): recovered-parameter error
    # must shrink with slope -0.5 +- 0.1 on a log-log regression.
    kappa = 6.4 * TWO_PI_MHZ
    deltas = np.linspace(-25.0, 25.0, 41) * TWO_PI_MHZ
    clean = kappa**2 / (deltas**2 + kappa**2)
    rng = np.random.default_rng(123)
    photon_counts = np.array([1e2, 1e3, 1e4])
    rms_errors = []
    for n in photon_counts:
        errors = []
        for _ in range(40):
            noisy = clean + rng.normal(0.0, np.sqrt(np.maximum(clean, 1e-9) / n))
            result = fit_empty_cavity(Spectrum(deltas, noisy))
            errors.append((result["kappa"] - kappa) / kappa)
        rms_errors.append(float(np.sqrt(np.mean(np.square(errors)))))
    slope = np.polyfit(np.log(photon_counts), np.log(rms_errors), 1)[0]
    assert abs(slope + 0.5) < 0.1


def _noisy_lorentzian(seed):
    deltas = np.linspace(-25.0, 25.0, 201) * TWO_PI_MHZ
    kappa = 6.4 * TWO_PI_MHZ
    noise = np.random.default_rng(seed).normal(0.0, 0.02, deltas.size)
    return fit_empty_cavity(Spectrum(deltas, kappa**2 / (deltas**2 + kappa**2) + noise))


def _noisy_recovery(seed):
    times = np.linspace(0.0, 60e-3, 61)
    noise = np.random.default_rng(seed).normal(0.0, 0.01, times.size)
    return fit_exponential_recovery(times, 0.9 - 0.6 * np.exp(-times / 11e-3) + noise)


@pytest.mark.parametrize("fit, seed", [(_noisy_lorentzian, 146), (_noisy_recovery, 83)])
def test_fit_stalled_at_optimum_is_converged(fit, seed):
    # On these draws no damped step lowers the cost after 4 iterations; the
    # point is the optimum, since the Gauss-Newton step predicts no reduction.
    result = fit(seed)
    assert result.iterations == 4
    assert result.converged


def test_fit_empty_cavity_flat_spectrum_flagged():
    deltas = np.linspace(-25.0, 25.0, 41) * TWO_PI_MHZ
    result = fit_empty_cavity(Spectrum(deltas, np.full(deltas.size, 0.5)))
    degenerate = (not result.converged) or (
        result.uncertainty("kappa") > abs(result["kappa"])
    )
    assert degenerate


def test_fit_rabi_g_zero_coupling(measured_params):
    rng = np.random.default_rng(8)
    deltas = np.linspace(-25.0, 25.0, 41) * TWO_PI_MHZ
    empty = measured_params.with_g(0.0)
    values = normalized_transmission(empty, deltas) + rng.normal(0.0, 0.01, deltas.size)
    result = fit_rabi_g(Spectrum(deltas, values), measured_params)
    assert result["g"] < result.uncertainty("g")


def test_fit_rabi_g_bounds(measured_params):
    deltas = np.linspace(-25.0, 25.0, 41) * TWO_PI_MHZ
    values = normalized_transmission(measured_params, deltas)
    with pytest.raises(ParameterError, match="bounds"):
        fit_rabi_g(Spectrum(deltas, values), measured_params, initial=from_two_pi_mhz(60.0))


def test_fit_exponential_recovery_cases():
    times = np.linspace(0.0, 0.05, 12)
    values = 1.0 - 0.9 * np.exp(-times / 11e-3)
    result = fit_exponential_recovery(times, values)
    assert result.converged
    assert result["lifetime"] == pytest.approx(11e-3, rel=1e-8)

    flat = np.full(times.size, 0.7)
    degenerate = fit_exponential_recovery(times, flat)
    assert (not degenerate.converged) or (
        degenerate.uncertainty("lifetime") > abs(degenerate["lifetime"])
    ) or degenerate["amplitude"] == pytest.approx(0.0, abs=1e-12)

    with pytest.raises(ParameterError, match="4 points"):
        fit_exponential_recovery(times[:3], values[:3])


def test_fit_ringdown_tail_pure_exponential():
    t = np.linspace(0.0, 100e-9, 200)
    rate = 8.0e7
    trace = RingdownTrace(t, 2.5 * np.exp(-rate * t))
    result = fit_ringdown_tail(trace, 0.0)
    assert result["rate"] == pytest.approx(rate, rel=1e-12)
    assert result["amplitude"] == pytest.approx(2.5, rel=1e-12)


def test_fit_ringdown_tail_analytic_trace():
    kappa2 = from_two_pi_mhz(3.08)
    params = RingdownParams(
        kappa1=from_two_pi_mhz(0.12),
        kappa2=kappa2,
        kappa_loss=from_two_pi_mhz(3.2),
        kappa_s=from_two_pi_mhz(50.0),
    )
    tail_start = 5.0 / (params.kappa_s - params.kappa)
    t = np.linspace(tail_start, 10.0 / params.kappa, 400)
    result = fit_ringdown_tail(analytic_trace(params, t), tail_start)
    lifetime_ns = 1e9 / result["rate"]
    assert lifetime_ns == pytest.approx(1e9 / (2.0 * params.kappa), rel=1e-3)
    assert lifetime_ns == pytest.approx(12.43, abs=0.05)


def test_fit_ringdown_tail_rejects_nonpositive():
    t = np.linspace(0.0, 1e-7, 50)
    trace = RingdownTrace(t, np.maximum(1.0 - t * 2e7, 0.0))
    with pytest.raises(ParameterError, match="non-positive"):
        fit_ringdown_tail(trace, 0.0)


def test_fit_result_accessors():
    result = FitResult(
        names=("a", "b"),
        estimates=np.array([1.0, 2.0]),
        uncertainties=np.array([0.1, 0.2]),
        residual_norm=0.0,
        converged=True,
        iterations=1,
    )
    assert result["b"] == 2.0
    assert result.uncertainty("a") == 0.1
    doc = result.as_dict()
    assert doc["names"] == ["a", "b"] and doc["converged"] is True
