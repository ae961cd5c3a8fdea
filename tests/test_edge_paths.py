"""Paths that only unusual inputs reach.

Where the CLI can get there, the test runs ``main()`` and pins the exit code
and the stderr line; a library check that the CLI's own data always pass is
pinned through the library call.
"""

import json
import math
import warnings

import numpy as np
import pytest

from fibercavity import (
    CavityGeometry,
    FiberSpec,
    ParameterError,
    RingdownParams,
    RingdownTrace,
    SystemParams,
    fit_least_squares,
    from_two_pi_mhz,
    integrate_ringdown,
    rate_to_mirror,
    solve_fundamental_mode,
    transmission,
)
from fibercavity import fibermode, svgplot
from fibercavity.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from fibercavity.estimation import Spectrum
from fibercavity.units import rate_to_json

SPECTRUM_HEADER = "delta_two_pi_mhz,transmission_normalized"


def run(tmp_path, *argv, config=None) -> int:
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = (*argv, "--config", str(path))
    return main([*argv, "--out", str(tmp_path / "out")])


def fit(tmp_path, recipe, csv_text, *flags) -> int:
    data = tmp_path / "data.csv"
    data.write_text(csv_text)
    return run(tmp_path, "fit", "--recipe", recipe, "--data", str(data), *flags)


def test_a_boolean_field_given_a_number_is_refused_at_its_pointer(tmp_path, capsys):
    config = {"sequence": {"poisson_loading": 1}}
    assert run(tmp_path, "experiment", config=config) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: /sequence/poisson_loading: expected true or false, got 1\n"
    )
    assert not (tmp_path / "out").exists()


def test_a_level_fit_that_fails_is_recorded_and_the_run_goes_on(tmp_path, capsys):
    # A background of 1e20 counts/s over a signal of ~1e-78 counts/s leaves
    # normalized values near 1e90; over detunings of 1e75 rad/s the Lorentzian
    # Jacobian of level 1 overflows at its first point.
    config = {
        "sequence": {
            "load_probability": 0.0, "background_rate_cps": 1e20, "detector_efficiency": 1e-83,
        },
        "detunings": {
            "min": {"value": -1e75, "unit": "rad_per_s"},
            "max": {"value": 1e75, "unit": "rad_per_s"},
            "points": 3,
        },
        "sequences": 40,
        "seed": 2,
    }
    assert run(tmp_path, "experiment", config=config) == EXIT_OK
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["level_occupancy"]["1"] >= 5
    assert summary["fits"]["1"] == {"error": "analytic Jacobian returned non-finite values"}


def test_a_wavelength_whose_quotient_misses_by_an_ulp_resolves_exactly(tmp_path, capsys):
    # 2**-20 m in nm: the quotient 2**-20 / 1e-9 is one ulp below the double
    # that multiplies back to 2**-20, since that is a power of two
    wavelength_nm = 953.67431640625
    assert wavelength_nm * 1e-9 == 2.0**-20 and 2.0**-20 / 1e-9 != wavelength_nm
    config = {"fiber": {"wavelength_nm": wavelength_nm}}
    assert run(tmp_path, "mode-solve", "--dump-config", config=config) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["fiber"]["wavelength_nm"] == wavelength_nm


def test_blank_lines_in_a_data_csv_are_skipped(tmp_path, capsys):
    rows = [f"{d!r},{1.0 / (1.0 + d * d)!r}" for d in np.linspace(-5.0, 5.0, 11).tolist()]
    plain = "\n".join([SPECTRUM_HEADER, *rows]) + "\n"
    assert fit(tmp_path, "lorentzian", plain) == EXIT_OK
    expected = capsys.readouterr().out
    spaced = "\n\n".join([SPECTRUM_HEADER, *rows]) + "\n\n"
    assert fit(tmp_path, "lorentzian", spaced) == EXIT_OK
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "csv_text, message",
    [
        # a sigma column misnamed would be fitted unweighted
        (
            f"{SPECTRUM_HEADER},sigmas\n-2,0.5,0.1\n0,1.0,0.1\n2,0.5,0.1\n",
            "line 1: unknown column 'sigmas' after " + SPECTRUM_HEADER,
        ),
        # the third cell would be dropped
        (
            f"{SPECTRUM_HEADER}\n-2,0.5,9\n0,1.0\n2,0.5\n",
            "line 2: expected 2 finite numbers, got ['-2', '0.5', '9']",
        ),
    ],
    ids=["header", "row"],
)
def test_a_data_csv_cell_beyond_its_columns_is_refused(tmp_path, capsys, csv_text, message):
    assert fit(tmp_path, "lorentzian", csv_text) == EXIT_CONFIG
    assert capsys.readouterr().err == f"data format error: spectrum CSV {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "recipe, what, header",
    [
        ("lorentzian", "spectrum", SPECTRUM_HEADER),
        ("ringdown-tail", "trace", "t_ns,intensity_normalized"),
    ],
    ids=["spectrum", "trace"],
)
def test_a_data_csv_that_is_not_utf8_is_refused(tmp_path, capsys, recipe, what, header):
    data = tmp_path / "data.csv"
    data.write_bytes(f"{header}\n0,1.0\n".encode() + b"\xff,0.5\n")
    assert run(tmp_path, "fit", "--recipe", recipe, "--data", str(data)) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"data format error: {what} CSV {data} is not UTF-8: 'utf-8' codec can't decode "
        f"byte 0xff in position {len(header) + 7}: invalid start byte\n"
    )
    assert not (tmp_path / "out").exists()


UNREADABLE_JSON = {
    "not-utf8": (
        b'{"seed": 1}\xff',
        "'utf-8' codec can't decode byte 0xff in position 11: invalid start byte",
    ),
    "long-integer": (
        b'{"seed": ' + b"1" * 4301 + b"}",
        "Exceeds the limit (4300 digits) for integer string conversion: value has 4301 "
        "digits; use sys.set_int_max_str_digits() to increase the limit",
    ),
    "deep-array": (
        b"[" * 100000 + b"]" * 100000,
        "maximum recursion depth exceeded while decoding a JSON array from a unicode string",
    ),
    "repeated-key": (b'{"seed": 1, "seed": 2}', "duplicate key 'seed'"),
    "repeated-nested-key": (
        b'{"g": {"value": 7.8, "unit": "two_pi_mhz", "value": 3.9}}', "duplicate key 'value'"
    ),
}


@pytest.mark.parametrize("flag", ["--config", "--fixed"])
@pytest.mark.parametrize("kind", UNREADABLE_JSON)
def test_a_config_file_that_json_cannot_read_is_refused(tmp_path, capsys, flag, kind):
    content, reason = UNREADABLE_JSON[kind]
    path = tmp_path / "config.json"
    path.write_bytes(content)
    if flag == "--config":
        argv = ("spectrum", "--config", str(path))
    else:  # the data file is read only after the config
        absent = tmp_path / "absent.csv"
        argv = ("fit", "--recipe", "rabi-g", "--data", str(absent), "--fixed", str(path))
    assert run(tmp_path, *argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: /: invalid JSON in {path}: {reason}\n"
    assert not (tmp_path / "out").exists()


def test_a_model_that_is_not_finite_at_the_start_is_a_numerical_failure(tmp_path, capsys):
    # the start's half width is half the span, 6e306 rad/s, whose square overflows
    csv_text = f"{SPECTRUM_HEADER}\n-1e300,1.0\n0.0,1.0\n1e300,1.0\n"
    assert fit(tmp_path, "lorentzian", csv_text) == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numerical failure: model returned non-finite values at the initial point\n"
    )
    assert not (tmp_path / "out").exists()


def lorentzian_csv(column, cell, row=3) -> str:
    """An 11-point Lorentzian of half width 3.2 at Delta = -25..25 in steps of 5 (2pi x MHz)
    whose row ``row`` has ``cell`` in ``column``: 0 the detuning, 1 the value."""
    rows = [[float(delta), 1.0 / (1.0 + (delta / 3.2) ** 2)] for delta in range(-25, 30, 5)]
    rows[row][column] = cell
    return SPECTRUM_HEADER + "\n" + "".join(f"{delta!r},{value!r}\n" for delta, value in rows)


@pytest.mark.parametrize(
    ("recipe", "column", "cell"),
    [
        ("lorentzian", 1, -1e300),
        ("lorentzian", 1, 1e154),
        ("rabi-g", 1, 1e300),
        ("rabi-g", 1, -1e300),
        ("exponential", 1, 1e300),
        ("exponential", 1, -1e300),
        # the model overflows in the rabi-g start scan first, which must not warn
        ("rabi-g", 0, 1e300),
    ],
)
def test_data_that_overflow_the_fit_at_its_start_are_a_numerical_failure(
    tmp_path, capsys, recipe, column, cell
):
    # finite residuals whose squared sum overflows, or a model that overflows
    reason = "squared-residual sum overflows" if column else "model returned non-finite values"
    assert fit(tmp_path, recipe, lorentzian_csv(column, cell)) == EXIT_NUMERIC
    assert capsys.readouterr().err == f"numerical failure: {reason} at the initial point\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("recipe", ["rabi-g", "exponential"])
def test_a_data_csv_detuning_that_overflows_in_rad_per_s_is_refused(tmp_path, capsys, recipe):
    # 1e302 is finite in 2pi x MHz, but not once multiplied by 2pi x 1e6
    assert fit(tmp_path, recipe, lorentzian_csv(0, 1e302)) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "data format error: spectrum CSV line 5: delta_two_pi_mhz 1e+302 overflows in SI units\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("recipe", "csv_text", "flags", "code", "uncertainties"),
    [
        # the covariance's residual-variance factor overflows for the width
        ("lorentzian", lorentzian_csv(1, -1e154, row=5), (), EXIT_NUMERIC,
         [3.282971841475745e153, None]),
        # the gradient and the normal equations overflow: no spread is known
        ("exponential", lorentzian_csv(1, 1e154, row=10), (), EXIT_NUMERIC, [None, None, None]),
        # t^2 overflows in the tail fit's normal matrix
        ("ringdown-tail", "t_ns,intensity_normalized\n0.0,1.0\n10.0,0.5\n20.0,0.25\n1e300,0.1\n",
         ("--tail-start-ns", "10"), EXIT_OK, [None, None]),
        # the recovery's range, -1.7e308 - 1.7e308, overflows in the start's crossing search
        ("exponential", f"{SPECTRUM_HEADER}\n0.0,1.7e308\n1.0,0.5\n2.0,0.25\n3.0,-1.7e308\n",
         (), EXIT_NUMERIC, None),
    ],
    ids=["lorentzian-value-1e154-middle", "exponential-value-1e154-last", "ringdown-tail-1e300ns",
         "exponential-range-overflow"],
)
def test_a_fit_that_overflows_does_not_warn(tmp_path, capsys, recipe, csv_text, flags, code,
                                            uncertainties):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert fit(tmp_path, recipe, csv_text, *flags) == code
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    result = tmp_path / "out" / "fit_result.json"
    if uncertainties is None:  # refused at the start: one line, no result
        assert err == "numerical failure: model returned non-finite values at the initial point\n"
        assert not result.exists()
    else:  # a fit that ends, converged or not, writes its result, and an overflow is no spread
        assert err == ""
        assert json.loads(result.read_text(encoding="utf-8"))["uncertainties"] == uncertainties


def test_a_jacobian_that_is_not_finite_is_a_numerical_failure(tmp_path, capsys):
    # the outer detunings' squares overflow: the model is 0 there, its slope inf / inf
    csv_text = f"{SPECTRUM_HEADER}\n-4e147,0.0\n-1.0,0.5\n0.0,1.0\n1.0,0.5\n4e147,0.0\n"
    assert fit(tmp_path, "lorentzian", csv_text) == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numerical failure: analytic Jacobian returned non-finite values\n"
    )
    assert not (tmp_path / "out").exists()


def test_a_ringdown_tail_of_two_samples_has_unbounded_uncertainties(tmp_path, capsys):
    csv_text = "t_ns,intensity_normalized\n0.0,1.0\n10.0,0.5\n20.0,0.25\n"
    assert fit(tmp_path, "ringdown-tail", csv_text, "--tail-start-ns", "10") == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert result["uncertainties"] == [None, None]
    assert result["estimates"][1] == pytest.approx(math.log(2.0) / 10e-9, rel=1e-12)


def test_a_wide_spectrum_plot_labels_its_ticks_in_exponent_form(tmp_path, capsys):
    argv = ("spectrum", "--plot", "--delta-min-mhz", "-20000", "--delta-max-mhz", "20000",
            "--points", "11")
    assert run(tmp_path, *argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert "e+04</text>" in (tmp_path / "out" / "spectrum.svg").read_text()


def test_a_one_point_detuning_grid_plots_on_padded_axes(tmp_path, capsys):
    config = {"detunings": {"points": 1}, "sequences": 20, "seed": 1}
    assert run(tmp_path, "experiment", "--plot", config=config) == EXIT_OK
    assert capsys.readouterr().err == ""
    svg = (tmp_path / "out" / "spectra_by_level.svg").read_text()
    assert "<polyline" in svg and "nan" not in svg


def test_a_cavity_detuning_far_beyond_kappa_is_refused_by_the_mean_count_bound(tmp_path, capsys):
    # T(0) is 4e-310 > 0, but (cavity_detuning / kappa)^2 = (5e154)^2 overflows
    tiny, zero = {"value": 1e-100, "unit": "rad_per_s"}, {"value": 0.0, "unit": "rad_per_s"}
    config = {
        "system": {"kappa1": tiny, "kappa2": tiny, "kappa_loss": zero,
                   "cavity_detuning": {"value": 1e55, "unit": "rad_per_s"}},
        "sequences": 10,
    }
    assert run(tmp_path, "experiment", config=config) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: /sequence/detection: mean count up to inf exceeds 9.2e+18, "
        "the largest Poisson mean that can be drawn\n"
    )
    assert not (tmp_path / "out").exists()


def test_library_refusals_of_mismatched_or_empty_arrays():
    with pytest.raises(ParameterError, match="^sigmas must match deltas in length$"):
        Spectrum(deltas=[0.0, 1.0], values=[1.0, 1.0], sigmas=[1.0])
    with pytest.raises(ParameterError, match="^times and intensities must be 1-d and equal"):
        RingdownTrace([0.0, 1.0], [1.0])
    params = RingdownParams(1e6, 2e6, 1e6, kappa_s=1e8)
    with pytest.raises(ParameterError, match="^t_grid must be a non-empty 1-d array$"):
        integrate_ringdown(params, [])


@pytest.mark.parametrize(
    "x, sigmas, message",
    [
        ([0.0, 1.0], None, "x and y must be 1-d and equal length"),
        ([0.0, 1.0, 2.0], [1.0, 1.0], "sigmas must match y in length"),
        ([0.0, 1.0, 2.0], [1.0, 0.0, 1.0], "sigmas must be positive"),
    ],
)
def test_fit_least_squares_refuses_inconsistent_data(x, sigmas, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        fit_least_squares(
            lambda xx, p: p[0] * xx, x, [1.0, 2.0, 3.0], [1.0], sigmas=sigmas,
            jac=lambda xx, p: xx[:, None], bounds=[(None, None)], names=("slope",),
        )


def test_rate_to_mirror_refuses_a_negative_rate():
    geom = CavityGeometry(length=0.33, effective_index=1.45)
    with pytest.raises(ParameterError, match="^decay rate must be non-negative$"):
        rate_to_mirror(-from_two_pi_mhz(1.0), geom)


def test_rate_to_json_refuses_an_unknown_unit():
    with pytest.raises(ParameterError, match="^unknown rate unit 'hz'$"):
        rate_to_json(1.0, "hz")


@pytest.mark.parametrize("g", [math.nan, -1.0, [0.0, math.inf]], ids=["nan", "negative", "inf"])
def test_transmission_refuses_a_coupling_that_is_not_finite_and_non_negative(g):
    params = SystemParams(kappa1=1.0, kappa2=1.0, kappa_loss=0.0, gamma=1.0, g=0.0)
    with pytest.raises(ParameterError, match="^g must be finite and non-negative$"):
        transmission(params, 0.0, g=g)


def test_solve_fundamental_mode_refuses_an_even_sample_count():
    with pytest.raises(ParameterError, match=r"^samples_per_region must be odd and >= 3$"):
        solve_fundamental_mode(FiberSpec(2.0e-6, 1.455, 1.45, 852e-9), samples_per_region=4096)


@pytest.mark.parametrize(
    "bracket, evaluations",
    [((1.0, 2.0), 2), ((0.0, 1.0), 2), ((0.0, 2.0), 3)],
    ids=["root-at-a", "root-at-b", "root-at-midpoint"],
)
def test_bisect_stops_at_the_exact_zero_it_meets(bracket, evaluations):
    points = []

    def f(x):
        points.append(x)
        return x - 1.0

    assert fibermode._bisect(f, *bracket) == 1.0
    assert len(points) == evaluations


def test_a_plot_series_with_nan_is_refused():
    with pytest.raises(svgplot.PlotError, match="^series 'a' contains NaN or Inf$"):
        svgplot.line_chart([("a", [0.0, 1.0], [0.0, math.nan])])
