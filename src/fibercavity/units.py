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
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

TWO_PI_MHZ = 2.0 * math.pi * 1e6  # rad/s per (2pi x 1 MHz)

_RATE_JSON_UNITS = ("rad_per_s", "two_pi_mhz")


class ParameterError(ValueError):
    """A physical parameter violates one of its invariants.

    ``field``, when given, is the path of the offending attribute below the
    object that was checked (e.g. ``"spectroscopy/detuning"``); a check that
    relates several attributes of the object names none of them.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class Bound(NamedTuple):
    """The interval from ``low`` to ``high`` that a parameter must lie in;
    ``ends`` are its brackets, "[" or "]" where the end belongs to it.

    A class's ``BOUNDS`` maps each bounded constructor argument to its Bound
    (see ``Bounded``). That is the one declaration: the constructor checks it,
    and the CLI reads it. NaN lies in no interval; [0.0, inf) reads "non-negative".
    """

    low: float
    high: float = math.inf
    ends: str = "[)"

    def check(self, name: str, value: float):
        """Raise ParameterError, with ``name`` as its field, unless value lies in the interval."""
        low, high, (left, right) = self
        if not (
            (value > low if left == "(" else value >= low)
            and (value < high if right == ")" else value <= high)
        ):
            interval = f"lie in {left}{low!r}, {high!r}{right}"
            rule = "be non-negative" if self == NON_NEGATIVE else interval
            raise ParameterError(f"{name} must {rule}", field=name)


POSITIVE, NON_NEGATIVE = Bound(0.0, ends="()"), Bound(0.0)
WAVELENGTH = Bound(1e-9)  # m

# The largest rate or detuning L (rad/s) the transmission kernel evaluates
# finitely: it squares |z|, z = (i (Delta - Delta_C) + kappa)(i Delta + gamma) + g^2.
# With every rate and |Delta| at most L, |Re z| <= 6 L^2 and |Im z| <= 5 L^2, so
# |z|^2 <= 61 L^4 is finite for L < (DBL_MAX / 61)^(1/4) = 4.1e76. A factor 40 below
# that, sqrt(n) g_max of n <= 13000 atoms (poisson_loading) stays in range too.
RATE_LIMIT = 1e75
RATE, DETUNING = Bound(0.0, RATE_LIMIT, "[]"), Bound(-RATE_LIMIT, RATE_LIMIT, "[]")


class Bounded:
    """Base of a dataclass that checks, on construction, each field that its
    ``BOUNDS`` names; a constructor classmethod checks its own arguments."""

    def __post_init__(self):
        for f in fields(self):
            if f.name in self.BOUNDS:
                self.BOUNDS[f.name].check(f.name, getattr(self, f.name))


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


def rate_from_json(doc: dict) -> float:
    """The rate in rad/s of a ``{value, unit}`` document; it must be finite in rad/s."""
    if not isinstance(doc, dict) or "value" not in doc or "unit" not in doc:
        raise ParameterError(f"rate must be {{value, unit}}, got {doc!r}")
    unit = doc["unit"]
    if unit not in _RATE_JSON_UNITS:
        raise ParameterError(f"unknown rate unit {unit!r}")
    value = float(doc["value"])
    if unit == "two_pi_mhz":
        value = from_two_pi_mhz(value)
    if not math.isfinite(value):
        raise ParameterError(f"angular rate must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class SystemParams(Bounded):
    """Physical rates of the atom-cavity system, all in rad/s.

    kappa1, kappa2 are the field decay rates through the two mirrors,
    kappa_loss the intracavity round-trip loss rate; the total field decay
    rate is kappa = kappa1 + kappa2 + kappa_loss. gamma is the atomic
    polarization decay rate and g the atom-cavity coupling rate.
    cavity_detuning is omega_C - omega_A; probe detunings are measured from
    the atomic resonance, so no absolute optical frequency is needed.
    Construction checks each rate's bound (within RATE_LIMIT) and kappa > 0,
    so every instance is valid.
    """

    kappa1: float
    kappa2: float
    kappa_loss: float
    gamma: float
    g: float
    cavity_detuning: float = 0.0

    BOUNDS = {"kappa1": RATE, "kappa2": RATE, "kappa_loss": RATE, "g": RATE,
              "gamma": Bound(0.0, RATE_LIMIT, "(]"), "cavity_detuning": DETUNING}

    def __post_init__(self):
        super().__post_init__()
        if self.kappa <= 0.0:
            raise ParameterError("kappa = kappa1 + kappa2 + kappa_loss must be positive")

    @property
    def kappa(self) -> float:
        return self.kappa1 + self.kappa2 + self.kappa_loss

    def with_g(self, g: float) -> "SystemParams":
        return replace(self, g=g)


def validate(params: SystemParams) -> SystemParams:
    """Check all SystemParams invariants again (idempotent); return the params unchanged."""
    params.__post_init__()
    return params


@dataclass(frozen=True)
class CavityGeometry(Bounded):
    """Cavity length (m), at least a micrometre, and effective refractive
    index of the guided mode."""

    length: float
    effective_index: float

    BOUNDS = {"length": Bound(1e-6), "effective_index": Bound(1.0, 2.0, "()")}
