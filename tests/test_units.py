import dataclasses
import math

import pytest

from fibercavity import (
    AngularRate,
    CavityGeometry,
    ParameterError,
    SystemParams,
    format_rate,
    from_two_pi_mhz,
    fsr,
    parse_rate,
    two_pi_mhz,
    validate,
)
from fibercavity.constants import C
from fibercavity.units import rate_from_json, rate_to_json


def test_validate_accepts_all_positive():
    p = SystemParams(kappa1=1.0, kappa2=1.0, kappa_loss=0.0, gamma=1.0, g=1.0)
    assert validate(p) is p


def test_validate_rejects_zero_gamma():
    with pytest.raises(ParameterError, match="gamma must be positive"):
        SystemParams(kappa1=1.0, kappa2=1.0, kappa_loss=0.0, gamma=0.0, g=1.0)


def test_validate_rejects_negative_decay_rate():
    with pytest.raises(ParameterError, match="decay rates non-negative"):
        SystemParams(kappa1=-1.0, kappa2=1.0, kappa_loss=0.0, gamma=1.0, g=1.0)


def test_validate_rejects_zero_kappa():
    with pytest.raises(ParameterError, match="kappa"):
        SystemParams(kappa1=0.0, kappa2=0.0, kappa_loss=0.0, gamma=1.0, g=1.0)


def test_every_construction_validates(measured_params):
    with pytest.raises(ParameterError, match="gamma must be positive"):
        dataclasses.replace(measured_params, gamma=0.0)
    with pytest.raises(ParameterError, match="decay rates non-negative: g"):
        measured_params.with_g(-1.0)
    with pytest.raises(ParameterError, match="kappa1 must be finite"):
        SystemParams(kappa1=math.nan, kappa2=1.0, kappa_loss=0.0, gamma=1.0, g=1.0)
    doc = measured_params.to_json_dict()
    doc["kappa_loss"] = {"value": -1.0, "unit": "two_pi_mhz"}
    with pytest.raises(ParameterError, match="decay rates non-negative: kappa_loss"):
        SystemParams.from_json_dict(doc)


def test_validate_idempotent(measured_params):
    once = validate(measured_params)
    twice = validate(once)
    assert twice == measured_params


def test_fsr_33cm_cavity():
    geom = CavityGeometry(length=0.33, effective_index=1.45)
    expected = 2 * math.pi * C / (2 * 1.45 * 0.33)  # direct c/(2 n L)
    value = fsr(geom)
    assert value == pytest.approx(expected, rel=1e-12)
    # order 100 MHz, approx 2pi x 313 MHz
    assert 100.0 < two_pi_mhz(value) < 1000.0
    assert round(two_pi_mhz(value)) == 313


def test_fsr_inverse_in_length():
    geom = CavityGeometry(length=0.33, effective_index=1.45)
    doubled = CavityGeometry(length=0.66, effective_index=1.45)
    assert fsr(doubled) == pytest.approx(fsr(geom) / 2.0, rel=1e-12)


def test_fsr_unit_sanity():
    # n L = c/2 gives an FSR of exactly 2pi x 1 Hz
    geom = CavityGeometry(length=C / 3.0, effective_index=1.5)
    assert fsr(geom) == pytest.approx(2 * math.pi, rel=1e-12)


def test_geometry_invariants():
    with pytest.raises(ParameterError):
        CavityGeometry(length=0.0, effective_index=1.45)
    with pytest.raises(ParameterError):
        CavityGeometry(length=0.33, effective_index=1.0)
    with pytest.raises(ParameterError):
        CavityGeometry(length=0.33, effective_index=2.5)


def test_rate_string_round_trip():
    rate = parse_rate("2π×6.4 MHz")
    assert format_rate(rate) == "2π×6.400 MHz"
    assert two_pi_mhz(rate) == pytest.approx(6.4, rel=1e-15)


def test_rate_string_ascii_variants():
    assert parse_rate("2pi*6.4 MHz") == parse_rate("2π×6.4 MHz")
    assert parse_rate("2pi x 6.4 MHz") == parse_rate("2pi*6.4 MHz")
    assert parse_rate("4.02e7 rad/s") == pytest.approx(4.02e7)
    with pytest.raises(ParameterError):
        parse_rate("6.4 MHz")  # bare MHz is ambiguous by design


def test_angular_rate_rejects_non_finite():
    with pytest.raises(ParameterError):
        AngularRate(float("nan"))
    with pytest.raises(ParameterError):
        AngularRate(float("inf"))


def test_angular_rate_behaves_as_float():
    rate = AngularRate.from_two_pi_mhz(6.4)
    assert rate.two_pi_mhz == pytest.approx(6.4)
    assert rate + 1.0 == float(rate) + 1.0


def test_rate_json_round_trip():
    rate = from_two_pi_mhz(6.4)
    for unit in ("two_pi_mhz", "rad_per_s"):
        doc = rate_to_json(rate, unit)
        assert doc["unit"] == unit
        assert rate_from_json(doc) == pytest.approx(rate, rel=1e-15)
    with pytest.raises(ParameterError):
        rate_from_json({"value": 1.0, "unit": "mhz"})
    with pytest.raises(ParameterError):
        rate_from_json({"value": 1.0})


def test_system_params_json_round_trip(measured_params):
    doc = measured_params.to_json_dict()
    assert set(doc) == {
        "kappa1",
        "kappa2",
        "kappa_loss",
        "gamma",
        "g",
        "cavity_detuning",
    }
    back = SystemParams.from_json_dict(doc)
    for name in ("kappa1", "kappa2", "kappa_loss", "gamma", "g"):
        assert getattr(back, name) == pytest.approx(
            getattr(measured_params, name), rel=1e-15
        )


def test_system_params_json_missing_field():
    with pytest.raises(ParameterError, match="kappa2"):
        SystemParams.from_json_dict({"kappa1": {"value": 1.0, "unit": "rad_per_s"}})
