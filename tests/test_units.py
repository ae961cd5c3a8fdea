import dataclasses
import math

import pytest

from fibercavity import (
    CavityGeometry,
    ParameterError,
    SystemParams,
    from_two_pi_mhz,
    two_pi_mhz,
    validate,
)
from fibercavity.units import rate_from_json, rate_to_json


def test_validate_accepts_all_positive():
    p = SystemParams(kappa1=1.0, kappa2=1.0, kappa_loss=0.0, gamma=1.0, g=1.0)
    assert validate(p) is p


def test_validate_rejects_zero_gamma():
    with pytest.raises(ParameterError, match=r"^gamma must lie in \(0\.0, 1e\+75\]$"):
        SystemParams(kappa1=1.0, kappa2=1.0, kappa_loss=0.0, gamma=0.0, g=1.0)


def test_validate_rejects_negative_decay_rate():
    with pytest.raises(ParameterError, match=r"^kappa1 must lie in \[0\.0, 1e\+75\]$"):
        SystemParams(kappa1=-1.0, kappa2=1.0, kappa_loss=0.0, gamma=1.0, g=1.0)


def test_validate_rejects_zero_kappa():
    with pytest.raises(ParameterError, match="kappa"):
        SystemParams(kappa1=0.0, kappa2=0.0, kappa_loss=0.0, gamma=1.0, g=1.0)


def test_every_construction_validates(measured_params):
    with pytest.raises(ParameterError, match=r"^gamma must lie in \(0\.0, 1e\+75\]$"):
        dataclasses.replace(measured_params, gamma=0.0)
    with pytest.raises(ParameterError, match=r"^g must lie in \[0\.0, 1e\+75\]$"):
        measured_params.with_g(-1.0)
    with pytest.raises(ParameterError, match=r"^kappa1 must lie in \[0\.0, 1e\+75\]$"):
        SystemParams(kappa1=math.nan, kappa2=1.0, kappa_loss=0.0, gamma=1.0, g=1.0)
    kappa_loss = rate_from_json({"value": -1.0, "unit": "two_pi_mhz"})
    with pytest.raises(ParameterError, match=r"^kappa_loss must lie in \[0\.0, 1e\+75\]$"):
        dataclasses.replace(measured_params, kappa_loss=kappa_loss)


def test_validate_idempotent(measured_params):
    once = validate(measured_params)
    twice = validate(once)
    assert twice == measured_params


def test_geometry_invariants():
    with pytest.raises(ParameterError):
        CavityGeometry(length=0.0, effective_index=1.45)
    with pytest.raises(ParameterError):
        CavityGeometry(length=0.33, effective_index=1.0)
    with pytest.raises(ParameterError):
        CavityGeometry(length=0.33, effective_index=2.5)


def test_rate_from_json_refuses_non_finite_rates():
    with pytest.raises(ParameterError, match="^angular rate must be finite, got nan$"):
        rate_from_json({"value": float("nan"), "unit": "rad_per_s"})
    with pytest.raises(ParameterError, match="^angular rate must be finite, got inf$"):
        rate_from_json({"value": 1e308, "unit": "two_pi_mhz"})


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
    fields = [field.name for field in dataclasses.fields(SystemParams)]
    doc = {name: rate_to_json(getattr(measured_params, name)) for name in fields}
    back = SystemParams(**{name: rate_from_json(rate) for name, rate in doc.items()})
    for name in fields:
        assert getattr(back, name) == pytest.approx(getattr(measured_params, name), rel=1e-15)
