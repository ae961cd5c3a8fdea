"""Shared unit conventions, parameter types, and validation.

All rates, detunings, and frequencies are stored internally as angular
frequencies in rad/s; lengths in meters; times in seconds. The lab-notebook
"2pi x MHz" convention appears only at I/O boundaries (JSON documents, CSV
columns). Keeping a single internal unit eliminates stray factors of 2*pi,
the classic failure mode in this domain.

All types here are immutable values and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

TWO_PI_MHZ = 2.0 * math.pi * 1e6  # rad/s per (2pi x 1 MHz)

_RATE_JSON_UNITS = ("rad_per_s", "two_pi_mhz")


class ParameterError(ValueError):
    """A physical parameter violates one of its invariants.

    ``field``, when given, is the path of the offending field below the
    object that was checked (e.g. ``"spectroscopy/detuning"``).
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class AngularRate(float):
    """An angular frequency in rad/s.

    Behaves as a plain float in arithmetic; the class only adds the
    finiteness check. Decay rates must be non-negative; detunings may be
    negative.
    """

    def __new__(cls, value):
        value = float(value)
        if not math.isfinite(value):
            raise ParameterError(f"angular rate must be finite, got {value!r}")
        return super().__new__(cls, value)


def two_pi_mhz(rate_rad_s: float) -> float:
    """Convert rad/s to the 2pi x MHz convention."""
    return float(rate_rad_s) / TWO_PI_MHZ


def from_two_pi_mhz(value_mhz: float) -> float:
    """Convert 2pi x MHz to rad/s."""
    return float(value_mhz) * TWO_PI_MHZ


def rate_to_json(rate_rad_s: float, unit: str = "two_pi_mhz") -> dict:
    if unit not in _RATE_JSON_UNITS:
        raise ParameterError(f"unknown rate unit {unit!r}")
    value = two_pi_mhz(rate_rad_s) if unit == "two_pi_mhz" else float(rate_rad_s)
    return {"value": value, "unit": unit}


def rate_from_json(doc: dict) -> AngularRate:
    if not isinstance(doc, dict) or "value" not in doc or "unit" not in doc:
        raise ParameterError(f"rate must be {{value, unit}}, got {doc!r}")
    unit = doc["unit"]
    if unit not in _RATE_JSON_UNITS:
        raise ParameterError(f"unknown rate unit {unit!r}")
    value = float(doc["value"])
    if unit == "two_pi_mhz":
        return AngularRate(from_two_pi_mhz(value))
    return AngularRate(value)


@dataclass(frozen=True)
class SystemParams:
    """Physical rates of the atom-cavity system, all in rad/s.

    kappa1, kappa2 are the field decay rates through the two mirrors,
    kappa_loss the intracavity round-trip loss rate; the total field decay
    rate is kappa = kappa1 + kappa2 + kappa_loss. gamma is the atomic
    polarization decay rate and g the atom-cavity coupling rate.
    cavity_detuning is omega_C - omega_A; probe detunings are measured from
    the atomic resonance, so no absolute optical frequency is needed.
    Construction validates (see ``validate``), so every instance is valid.
    """

    kappa1: float
    kappa2: float
    kappa_loss: float
    gamma: float
    g: float
    cavity_detuning: float = 0.0

    def __post_init__(self):
        validate(self)

    @property
    def kappa(self) -> float:
        return self.kappa1 + self.kappa2 + self.kappa_loss

    def with_g(self, g: float) -> "SystemParams":
        return replace(self, g=g)


def validate(params: SystemParams) -> SystemParams:
    """Check all SystemParams invariants; return the params unchanged.

    Idempotent. Raises ParameterError naming the first violated invariant.
    """
    for name in ("kappa1", "kappa2", "kappa_loss", "gamma", "g"):
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite")
        if value < 0.0:
            raise ParameterError(f"decay rates non-negative: {name} is {value!r}")
    if params.gamma <= 0.0:
        raise ParameterError("gamma must be positive")
    if params.kappa <= 0.0:
        raise ParameterError("kappa = kappa1 + kappa2 + kappa_loss must be positive")
    if not math.isfinite(params.cavity_detuning):
        raise ParameterError("cavity_detuning must be finite")
    return params


@dataclass(frozen=True)
class CavityGeometry:
    """Cavity length (m) and effective refractive index of the guided mode."""

    length: float
    effective_index: float

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ParameterError("cavity length must be positive")
        if not 1.0 < self.effective_index < 2.0:
            raise ParameterError("effective_index must lie in (1, 2)")
