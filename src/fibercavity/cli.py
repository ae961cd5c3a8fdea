"""Command-line surface: forward simulation, fitting, mode solving, pipeline.

Subcommands: spectrum | ringdown | fit | mode-solve | experiment. Every
subcommand reads one JSON config document (all fields optional, defaults
documented by ``--dump-config``) and lets flags override config fields. One
field table per subcommand declares each field's kind, unit and flag; where a
library class builds the field, its default and bounds are the library's (see
``_owned``), and the class's constructor checks them. ``_resolve`` turns the
document plus flags into the resolved document, which ``--dump-config``
prints, the manifest records and the subcommand runs from. Each subcommand is
a prepare step, which resolves and checks its config before anything runs and
returns it with a job; ``_run`` owns the rest: the clock, the
``--dump-config`` exit, the ``Outputs`` the job writes atomically, and the
``<first output>.manifest.json`` holding the resolved config, seed and tool
version, so re-running with a manifest's config reproduces the outputs
byte-identically. ``SUBCOMMANDS`` builds the parser, one entry per subcommand.

Exit codes: 0 success, 2 config/schema error, 3 numerical failure
(non-convergence, no root, integration failure, a numpy whose seeding the
ensemble does not replay, a refused allocation), 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import dataio, estimation, experiment, fibermode, ringdown, steady, svgplot
from .dataio import unit_exact_value
from .constants import CS_D2_CYCLING_DIPOLE, CS_D2_WAVELENGTH
from .ringdown import IntegrationError, RingdownParams
from .units import (
    RATE_LIMIT,
    CavityGeometry,
    ParameterError,
    SystemParams,
    from_two_pi_mhz,
    rate_from_json,
    rate_to_json,
    two_pi_mhz,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(Exception):
    """Bad config document; message carries a JSON pointer to the field."""


class NumericalFailure(Exception):
    """A fault in a valid config that only the run can reveal (exit 3)."""


def _fail(pointer: str, message: str):
    raise ConfigError(f"{pointer}: {message}")


# ---------------------------------------------------------------------------
# config schema

NUMBER, INTEGER, RATE, BOOL, CHOICE, NUMBERS, PATH = (
    "number", "integer", "rate", "boolean", "choice", "list of numbers", "path"
)
REQUIRED = object()
NM, UM = 1e-9, 1e-6
# The default of every wavelength field: 852.34727582 nm, whose SI value is
# one ulp above the library's CS_D2_WAVELENGTH. No nm double multiplies back
# to that constant, and the goldens and pins were taken with this value.
D2_NM = CS_D2_WAVELENGTH * 1e9


class Field(NamedTuple):
    """One config field, named by its key in the block that holds it.

    ``default`` applies when neither the document nor ``flag`` (an argparse
    destination) gives a value; a callable default is called, ``None`` leaves
    the field out and ``REQUIRED`` rejects its absence. A rate is a
    ``{value, unit}`` object and resolves to rad/s, which survives the JSON
    round trip bit-exactly. A number with a ``scale`` (its SI factor)
    resolves to the double that multiplies back to the same SI value.
    ``attr`` names the library attribute the field builds (see ``_build``).
    ``_read`` checks the ``minimum`` and ``maximum`` of a field no library class owns.
    An ``owned`` field (see ``_owned``) takes its default and bounds from the
    library, which checks them when ``_build`` runs.
    """

    kind: str
    default: object = None
    minimum: float | None = None
    maximum: float | None = None
    scale: float | None = None
    flag: str | None = None
    choices: tuple = ()
    attr: str | None = None
    owned: bool = False


def _owned(owner, attr: str, kind: str = NUMBER, default=None, scale=None, flag=None) -> Field:
    """The field of argument ``attr`` of ``owner``, a library class or a
    classmethod constructor of one. It carries the class's ``BOUNDS`` entry
    for ``attr`` and, unless ``default`` is given, ``owner``'s default, both
    in the field's units."""
    if default is None:
        default = inspect.signature(owner).parameters[attr].default
        if kind == RATE:
            default = {"value": default, "unit": "rad_per_s"}
        elif kind == NUMBERS:
            default = list(default)
        elif scale is not None:
            default = unit_exact_value(default, scale)
    bound = getattr(owner, "__self__", owner).BOUNDS.get(attr, (-math.inf, math.inf))
    limits = [v / (scale or 1.0) if math.isfinite(v) else None for v in bound[:2]]
    return Field(kind, default, *limits, scale, flag, attr=attr, owned=True)


def _rates(limits: tuple, **defaults_two_pi_mhz) -> dict:
    return {
        name: Field(RATE, {"value": value, "unit": "two_pi_mhz"}, *limits)
        for name, value in defaults_two_pi_mhz.items()
    }


def _probe(power_w: float, duration_s: float) -> dict:
    probe = experiment.ProbeConfig
    return {
        "power_w": _owned(probe, "power", default=power_w),
        "duration_s": _owned(probe, "duration", default=duration_s),
        "detuning": _owned(probe, "detuning", RATE),
        "wavelength_nm": _owned(probe, "wavelength", default=D2_NM, scale=NM),
    }


LIMIT_MHZ = two_pi_mhz(RATE_LIMIT)  # the transmission kernel's range, in 2pi x MHz
# os.urandom, as secrets.randbits draws, without the hashlib/OpenSSL import of secrets
SEED = Field(INTEGER, lambda: int.from_bytes(os.urandom(4), "little"), minimum=0, flag="seed")
SYSTEM = _rates((None, None), kappa1=0.12, kappa2=3.08, kappa_loss=3.2, gamma=2.6, g=7.8,
                cavity_detuning=0.0)
SPECTRUM = {
    "system": SYSTEM,
    "grid": {
        "delta_min_mhz": Field(NUMBER, -25.0, -LIMIT_MHZ, LIMIT_MHZ, flag="delta_min_mhz"),
        "delta_max_mhz": Field(NUMBER, 25.0, -LIMIT_MHZ, LIMIT_MHZ, flag="delta_max_mhz"),
        "points": Field(INTEGER, 501, minimum=2, flag="points"),
    },
    "g_list_two_pi_mhz": Field(NUMBERS, minimum=0.0, maximum=LIMIT_MHZ, flag="g_list_mhz"),
    "seed": SEED,
}
RINGDOWN = {
    "ringdown": {
        **{name: SYSTEM[name] for name in ("kappa1", "kappa2", "kappa_loss")},
        "kappa_s": _owned(RingdownParams, "kappa_s", RATE),
        "s0": _owned(RingdownParams, "s0"),
    },
    "grid": {
        "t_min_ns": Field(NUMBER, -20.0, flag="t_min_ns"),
        "t_max_ns": Field(NUMBER, 250.0, flag="t_max_ns"),
        "points": Field(INTEGER, 541, minimum=2, flag="points"),
    },
    "method": Field(CHOICE, "both", flag="method", choices=("analytic", "integrate", "both")),
    "seed": SEED,
}
FIT = {
    "recipe": Field(
        CHOICE, REQUIRED, flag="recipe",
        choices=("lorentzian", "rabi-g", "exponential", "ringdown-tail"),
    ),
    "data": Field(PATH, REQUIRED, flag="data"),
    "seed": SEED,
}
FIT_RECIPE_FIELDS = {
    "lorentzian": {"float_center": Field(BOOL, False, flag="float_center")},
    "rabi-g": {"fixed": SYSTEM},
    "exponential": {},
    "ringdown-tail": {"tail_start_ns": Field(NUMBER, 0.0, flag="tail_start_ns")},
}
FIBER, ATOM = fibermode.FiberSpec.from_numerical_aperture, fibermode.AtomSpec
MODE_SOLVE = {
    "fiber": {
        "core_radius_um": _owned(FIBER, "core_radius", scale=UM),
        "wavelength_nm": _owned(FIBER, "wavelength", default=D2_NM, scale=NM),
        # read only when n_core and n_clad are absent; resolves into them
        "numerical_aperture": _owned(FIBER, "numerical_aperture"),
        "n_core": Field(NUMBER),
        "n_clad": Field(NUMBER),
    },
    "cavity": {
        "length_m": _owned(CavityGeometry, "length", default=0.33),
        "effective_index": _owned(CavityGeometry, "effective_index", default=1.45),
    },
    "atom": {
        "dipole_moment_cm": _owned(ATOM, "dipole_moment", default=CS_D2_CYCLING_DIPOLE),
        "transition_wavelength_nm": _owned(ATOM, "transition_wavelength", default=D2_NM, scale=NM),
    },
    "seed": SEED,
}
SEQUENCE = experiment.SequenceConfig
EXPERIMENT = {
    "system": SYSTEM,
    "sequence": {
        "load_probability": _owned(SEQUENCE, "load_probability", default=0.3,
                                   flag="load_probability"),
        "g_max": _owned(SEQUENCE, "g_max", RATE, default=SYSTEM["g"].default),
        "detection": _probe(0.8e-12, 2e-3),
        "spectroscopy": _probe(0.4e-12, 5e-3),
        "background_rate_cps": _owned(SEQUENCE, "background_rate"),
        "detector_efficiency": _owned(SEQUENCE, "detector_efficiency"),
        "trap_lifetime_s": _owned(SEQUENCE, "trap_lifetime"),
        "hold_time_s": _owned(SEQUENCE, "hold_time"),
        "bin_edges": _owned(SEQUENCE, "bin_edges", NUMBERS),
        "poisson_loading": _owned(SEQUENCE, "poisson_loading", BOOL),
        "normalization_drift": _owned(SEQUENCE, "normalization_drift"),
    },
    "detunings": {**_rates((-RATE_LIMIT, RATE_LIMIT), min=-25.0, max=25.0),
                  "points": Field(INTEGER, 21, minimum=1)},
    "sequences": Field(INTEGER, 1000, minimum=0, flag="sequences"),
    "seed": SEED,
}


def _number(value, where: str) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            if math.isfinite(value):
                return float(value)
    _fail(where, f"expected a finite number, got {value!r}")


def _read(field: Field, value, where: str):
    """Check one value against its field; return its resolved form."""
    if field.kind == RATE:
        if isinstance(value, dict):
            _number(value.get("value"), f"{where}/value")
            for key in value.keys() - {"value", "unit"}:
                _fail(f"{where}/{key}", "unknown field")
        try:
            value = rate_from_json(value)
        except ParameterError as exc:
            _fail(where, str(exc))
    if field.kind == BOOL:
        if not isinstance(value, bool):
            _fail(where, f"expected true or false, got {value!r}")
        return value
    if field.kind == CHOICE:
        if value not in field.choices:
            _fail(where, "must be " + " | ".join(field.choices))
        return value
    if field.kind == PATH:
        if not isinstance(value, str) or not value:
            _fail(where, f"expected a file path, got {value!r}")
        return value
    if field.kind == NUMBERS:
        if not isinstance(value, list):
            _fail(where, f"expected a list of numbers, got {value!r}")
        element = field._replace(kind=NUMBER)
        return [_read(element, v, f"{where}/{i}") for i, v in enumerate(value)]
    if field.kind == INTEGER:
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(where, f"expected integer, got {value!r}")
    else:
        value = _number(value, where)
    if not field.owned:
        if field.minimum is not None and value < field.minimum:
            _fail(where, f"must be >= {field.minimum}")
        if field.maximum is not None and value > field.maximum:
            _fail(where, f"must be <= {field.maximum}")
    if field.scale is not None:
        value = unit_exact_value(value * field.scale, field.scale)
    return rate_to_json(value, "rad_per_s") if field.kind == RATE else value


def _resolve(schema: dict, doc, args, pointer: str = "") -> dict:
    """The resolved document: every field of ``schema`` read from ``doc``, or
    from its flag in ``args`` when given, checked, with defaults filled in.
    A key of ``doc`` that ``schema`` does not declare is an error."""
    if not isinstance(doc, dict):
        _fail(pointer, "expected a JSON object")
    resolved = {}
    for key, field in schema.items():
        where = f"{pointer}/{key}"
        if isinstance(field, dict):
            resolved[key] = _resolve(field, doc.get(key, {}), args, where)
            continue
        if field.flag and getattr(args, field.flag) is not None:
            value = getattr(args, field.flag)
        elif key in doc:
            value = doc[key]
        elif field.default is REQUIRED:
            _fail(where, "required field missing")
        elif field.default is None:
            continue
        else:
            value = field.default() if callable(field.default) else field.default
        resolved[key] = _read(field, value, where)
    for key in doc:
        if key not in schema:
            _fail(f"{pointer}/{key}", "unknown field")
    return resolved


@contextlib.contextmanager
def _at(pointer: str, schema: dict | None = None):
    """Report a ParameterError or DataFormatError from a resolved block at its
    pointer, or below it at the error's ``field``: the key whose ``attr`` in
    the block's ``schema`` is that library attribute, or the field itself."""
    try:
        yield
    except (ParameterError, dataio.DataFormatError) as exc:
        field = getattr(exc, "field", None)
        keys = {f.attr: key for key, f in (schema or {}).items() if isinstance(f, Field)}
        where = pointer if field is None else f"{pointer}/{keys.get(field, field)}"
        raise ConfigError(f"{where}: {exc}") from exc


def _build(cls, schema: dict, block: dict, pointer: str, **sub_objects):
    """``cls`` called with each field of the resolved ``block`` under its
    ``attr`` (or key): a rate in rad/s, a number with a ``scale`` in SI units.
    Nested blocks are skipped; ``sub_objects`` passes them already built. A
    refusal is reported at the block's ``pointer`` (see ``_at``)."""
    kwargs = {}
    for key, value in block.items():
        field = schema[key]
        if isinstance(field, Field):
            if field.kind == RATE:
                value = value["value"]
            elif field.scale is not None:
                value = value * field.scale
            kwargs[field.attr or key] = value
    with _at(pointer, schema):
        return cls(**kwargs, **sub_objects)


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key that it names twice is refused."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge ints, deep nesting
            raise ConfigError(f"/: invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("/: config document must be a JSON object")
    return doc


class Outputs:
    """The files a run writes in its output directory (created on the first
    one), recorded in the order they are named."""

    def __init__(self, directory: str):
        self.directory, self.paths = directory, []

    def path(self, name: str) -> str:
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, name)
        self.paths.append(path)
        return path

    def text(self, name: str, text: str):
        dataio.atomic_write_text(self.path(name), text)

    def report(self, name: str, doc: dict):
        """Write doc as the JSON output ``name`` and echo it to stdout."""
        text = dataio.json_text(doc)
        self.text(name, text)
        print(text, end="")


def _check_size(pointer: str, count: int, itemsize: int = 8):
    """Refuse ``count`` entries of ``itemsize`` bytes: no numpy array holds 2**63 bytes."""
    if count * itemsize >= 2**63:
        _fail(pointer, f"{count} x {itemsize} bytes is 2**63 or more, beyond any numpy array")


def _detuning_grid(low: float, high: float, points: int) -> np.ndarray:
    """Detunings (rad/s) spaced on the 2pi-MHz lattice, so CSVs round-trip exactly."""
    return np.linspace(two_pi_mhz(low), two_pi_mhz(high), points) * from_two_pi_mhz(1.0)


def _transmission_chart(series, title: str) -> str:
    return svgplot.line_chart(
        [(label, deltas / from_two_pi_mhz(1.0), values) for label, deltas, values in series],
        title=title,
        x_label="detuning (2π×MHz)",
        y_label="T / T_empty(0)",
    )


# ---------------------------------------------------------------------------
# spectrum


def _spectrum(args):
    config = _resolve(SPECTRUM, _load_config(args.config), args)
    system = _build(SystemParams, SYSTEM, config["system"], "/system")
    with _at("/system"):
        steady.empty_cavity_reference(system)
    grid = config["grid"]
    _check_size("/grid/points", grid["points"])
    if not grid["delta_max_mhz"] > grid["delta_min_mhz"]:
        raise ConfigError("/grid/delta_max_mhz: must exceed delta_min_mhz")
    g_values = [from_two_pi_mhz(v) for v in config.get("g_list_two_pi_mhz", [])]
    names = [f"spectrum_g{two_pi_mhz(g):.3f}.csv" for g in g_values]
    if len(names) < 2:
        g_values, names = g_values or [system.g], ["spectrum.csv"]
    if len(set(names)) < len(names):
        _fail("/g_list_two_pi_mhz", f"values that agree to 3 decimals share a file: {names}")

    def job(out: Outputs):
        deltas = _detuning_grid(
            from_two_pi_mhz(grid["delta_min_mhz"]), from_two_pi_mhz(grid["delta_max_mhz"]),
            grid["points"],
        )
        series = []
        for g, name in zip(g_values, names):
            values = steady.normalized_transmission(system.with_g(g), deltas)
            spectrum = estimation.Spectrum(deltas=deltas, values=values)
            out.text(name, dataio.spectrum_to_csv(spectrum))
            series.append((f"g = 2π×{two_pi_mhz(g):.1f} MHz", deltas, values))
        if args.plot:
            out.text("spectrum.svg", _transmission_chart(series, "Normalized transmission"))
        return EXIT_OK, []

    return config, job


# ---------------------------------------------------------------------------
# ringdown


def _ringdown(args):
    config = _resolve(RINGDOWN, _load_config(args.config), args)
    params = _build(RingdownParams, RINGDOWN["ringdown"], config["ringdown"], "/ringdown")
    with _at("/ringdown"):
        # --triptych panels: kappa2 under, at and over critical coupling
        other = params.kappa1 + params.kappa_loss
        panels = [
            (title, dataclasses.replace(params, kappa2=scale * other))
            for title, scale in (("undercoupled", 0.5), ("critical", 1.0), ("overcoupled", 2.0))
        ] if args.triptych else []
    grid = config["grid"]
    _check_size("/grid/points", grid["points"])
    if not grid["t_max_ns"] > grid["t_min_ns"]:
        raise ConfigError("/grid/t_max_ns: must exceed t_min_ns")
    method = config["method"]
    if args.compare and method != "both":
        raise ConfigError("/method: --compare needs method = both")
    if method != "analytic":
        with _at("/grid/t_max_ns"):
            ringdown.check_integration_span(params, grid["t_max_ns"] * 1e-9)

    def job(out: Outputs):
        t_grid = np.linspace(grid["t_min_ns"], grid["t_max_ns"], grid["points"]) * 1e-9
        traces = {}
        if method in ("analytic", "both"):
            traces["analytic"] = ringdown.analytic_trace(params, t_grid)
        if method in ("integrate", "both"):
            traces["integrated"] = ringdown.integrate_ringdown(params, t_grid)
        for name, trace in traces.items():
            out.text(f"ringdown_{name}.csv", dataio.trace_to_csv(trace))

        summary = {}
        if args.compare:
            reference = traces["analytic"].intensities
            summary["max_relative_deviation"] = float(
                np.max(np.abs(traces["integrated"].intensities - reference))
                / max(float(np.max(reference)), np.finfo(float).tiny)
            )
            print(json.dumps(summary, sort_keys=True))

        axes = {"x_label": "t (ns)", "y_label": "|s_out|^2 / s0^2"}
        if args.plot:
            series = [(name, t.times * 1e9, t.intensities) for name, t in traces.items()]
            chart = svgplot.line_chart(series, title="Reflected intensity", **axes)
            out.text("ringdown.svg", chart)
        if panels:
            charts = []
            for title, panel in panels:
                trace = ringdown.analytic_trace(panel, t_grid)
                charts.append((title, [("analytic", trace.times * 1e9, trace.intensities)]))
            out.text("ringdown_triptych.svg", svgplot.triptych(charts, **axes))
        if summary:
            out.text("ringdown_summary.json", dataio.json_text(summary))
        return EXIT_OK, []

    return config, job


# ---------------------------------------------------------------------------
# fit


def _fit(args):
    user = _load_config(args.config)
    if args.fixed:
        user["fixed"] = _load_config(args.fixed)
    recipe = user.get("recipe") if args.recipe is None else args.recipe
    recipe_fields = FIT_RECIPE_FIELDS.get(recipe, {}) if isinstance(recipe, str) else {}
    schema = {**FIT, **recipe_fields}
    config = _resolve(schema, user, args)
    recipe, data_path = config["recipe"], config["data"]
    for fields in FIT_RECIPE_FIELDS.values():  # another recipe's flags are errors
        for key, field in fields.items():
            if key not in schema and isinstance(field, Field) and field.flag:
                if getattr(args, field.flag) is not None:
                    _fail(f"/{key}", f"not a field of recipe {recipe}")
    if recipe == "rabi-g":
        fixed = _build(SystemParams, SYSTEM, config["fixed"], "/fixed")
        with _at("/fixed"):
            steady.empty_cavity_reference(fixed)

    def job(out: Outputs):
        if recipe == "ringdown-tail":
            trace = dataio.read_trace_csv(data_path)
            result = estimation.fit_ringdown_tail(trace, config["tail_start_ns"] * 1e-9)
            rate = result["rate"]
            derived = {"photon_lifetime_ns": 1e9 / rate, "kappa": rate_to_json(rate / 2.0)}
        elif recipe == "exponential":
            spectrum = dataio.read_spectrum_csv(data_path)
            # x column is interpreted as time in ms for this recipe
            times = spectrum.deltas / from_two_pi_mhz(1.0) * 1e-3
            result = estimation.fit_exponential_recovery(times, spectrum.values)
            derived = {"lifetime_ms": result["lifetime"] * 1e3}
        else:
            spectrum = dataio.read_spectrum_csv(data_path)
            if recipe == "lorentzian":
                result = estimation.fit_empty_cavity(
                    spectrum, float_center=config["float_center"]
                )
                derived = {"kappa": rate_to_json(result["kappa"])}
            else:
                result = estimation.fit_rabi_g(spectrum, fixed)
                derived = {"g": rate_to_json(result["g"])}
        out.report("fit_result.json", {**result.as_dict(), "derived": derived})
        return (EXIT_OK if result.converged else EXIT_NUMERIC), [data_path]

    return config, job


# ---------------------------------------------------------------------------
# mode-solve


def _mode_solve(args):
    config = _resolve(MODE_SOLVE, _load_config(args.config), args)
    fiber_doc, fiber_schema = config["fiber"], MODE_SOLVE["fiber"]
    numerical_aperture = fiber_doc.pop("numerical_aperture")
    if "n_core" in fiber_doc or "n_clad" in fiber_doc:
        for key in ("n_core", "n_clad"):
            if key not in fiber_doc:
                _fail(f"/fiber/{key}", "required with the other index")
        fiber = _build(fibermode.FiberSpec, fiber_schema, fiber_doc, "/fiber")
    else:
        fiber = _build(FIBER, fiber_schema, fiber_doc, "/fiber",
                       numerical_aperture=numerical_aperture)
        fiber_doc.update(n_core=fiber.n_core, n_clad=fiber.n_clad)
    geom = _build(CavityGeometry, MODE_SOLVE["cavity"], config["cavity"], "/cavity")
    atom = _build(ATOM, MODE_SOLVE["atom"], config["atom"], "/atom")

    def job(out: Outputs):
        mode = fibermode.solve_fundamental_mode(fiber)
        lp01 = fibermode.solve_lp01(fiber)
        # the volume comes from the solve, so only the run can see these faults
        volume = fibermode.mode_volume(mode, geom)
        if not math.isfinite(volume * 1e18):
            raise NumericalFailure(f"mode volume {volume:.4g} m^3 overflows in um^3")
        try:
            g_est = fibermode.coupling_rate(atom, volume, 1.0)
        except ParameterError as exc:
            raise NumericalFailure(f"{exc} at the solved mode volume {volume:.4g} m^3") from None
        v = fiber.v_number
        single_mode = v < fibermode.J0_FIRST_ZERO
        out.report("mode_solution.json", {
            "n_eff": mode.n_eff,
            "lp01_n_eff": lp01,
            "lp01_relative_difference": abs(mode.n_eff - lp01) / lp01,
            "v_number": v,
            "single_mode": single_mode,
            "effective_area_um2": mode.effective_area * 1e12,
            "mode_volume_um3": volume * 1e18,
            "g_est": rate_to_json(g_est),
            "tail_truncation_area_um2": mode.tail_truncation_error * 1e12,
            "warnings": [] if single_mode else [
                f"V = {v:.3f} >= {fibermode.J0_FIRST_ZERO:.3f}: fiber is not single-mode "
                "at this wavelength; returning the fundamental mode"
            ],
        })
        return EXIT_OK, []

    return config, job


# ---------------------------------------------------------------------------
# experiment


def _experiment(args):
    config = _resolve(EXPERIMENT, _load_config(args.config), args)
    system = _build(SystemParams, SYSTEM, config["system"], "/system")
    with _at("/system"):
        steady.empty_cavity_reference(system)
    doc, schema = config["sequence"], EXPERIMENT["sequence"]
    n_sequences, seed = config["sequences"], config["seed"]
    probes = {
        key: _build(experiment.ProbeConfig, schema[key], doc[key], f"/sequence/{key}")
        for key in ("detection", "spectroscopy")
    }
    sequence = _build(SEQUENCE, schema, doc, "/sequence", **probes)
    with _at("/sequence"):
        mean_bound = experiment.check_ensemble(system, sequence, n_sequences)
    d_min, d_max = (config["detunings"][k]["value"] for k in ("min", "max"))
    if not d_max >= d_min:
        raise ConfigError("/detunings/max: must be >= min")
    points = config["detunings"]["points"]
    _check_size("/detunings/points", points)
    detunings = _detuning_grid(d_min, d_max, points)
    with _at("/detunings/points"):
        dataio.detuning_keys(detunings)
    # a row of the count table, or a float per sequence where that is more
    count_bytes = np.dtype(experiment.count_dtype(mean_bound)).itemsize
    _check_size("/sequences", n_sequences, max(points * count_bytes, 8))

    def job(out: Outputs):
        ensemble = experiment.run_ensemble(
            system, sequence, detunings, n_sequences, base_seed=seed
        )
        dataio.write_events_jsonl(out.path("events.jsonl"), ensemble)

        occupancy = experiment.level_occupancy(ensemble)
        summary = {
            "sequences": n_sequences,
            "seed": seed,
            "level_occupancy": {str(k): v for k, v in occupancy.items()},
            "level_probability": {
                str(k): (v / n_sequences if n_sequences else 0.0)
                for k, v in occupancy.items()
            },
            "fits": {},
        }
        series = []
        spectra = experiment.accumulate_spectra(ensemble, system, sequence)
        # nothing reads the ensemble any more: the fits below page in LAPACK
        # without the count table still held
        del ensemble
        for level, spectrum in sorted(spectra.items()):
            out.text(f"spectrum_level_{level}.csv", dataio.spectrum_to_csv(spectrum))
            series.append((f"level {level}", spectrum.deltas, spectrum.values))
            if len(spectrum) >= 3 and occupancy[level] >= 5:
                # level 1 is the empty cavity; higher levels fit g
                try:
                    if level == 1:
                        name, fit = "kappa", estimation.fit_empty_cavity(spectrum)
                    else:
                        name, fit = "g", estimation.fit_rabi_g(spectrum, system)
                    summary["fits"][str(level)] = {
                        **fit.as_dict(), "derived": {name: rate_to_json(fit[name])}
                    }
                except (ParameterError, estimation.FitError) as exc:
                    summary["fits"][str(level)] = {"error": str(exc)}
        if not n_sequences:
            summary["note"] = "no sequences requested; outputs are empty"

        if args.plot and series:
            svg = _transmission_chart(series, "Per-level normalized spectra")
            out.text("spectra_by_level.svg", svg)
        out.text("summary.json", dataio.json_text(summary))
        return EXIT_OK, []

    return config, job


# ---------------------------------------------------------------------------
# the runner


def _run(args) -> int:
    """Run one subcommand: its prepare step resolves and checks the config and
    returns it with a job; ``--dump-config`` prints the config instead of
    running the job. The job writes the outputs and returns (exit code,
    inputs); a ``<first output>.manifest.json`` then records the run."""
    started = time.monotonic()
    config, job = args.prepare(args)
    if args.dump_config:
        print(dataio.json_text(config), end="")
        return EXIT_OK
    out = Outputs(args.out)
    code, inputs = job(out)
    manifest = {
        "subcommand": args.subcommand, "config": config, "seed": config["seed"],
        "inputs": [str(p) for p in inputs], "outputs": out.paths, "tool_version": __version__,
        "numpy_version": np.__version__, "python_version": "%d.%d.%d" % sys.version_info[:3],
        "duration_s": time.monotonic() - started,
    }
    dataio.atomic_write_text(out.paths[0] + ".manifest.json", dataio.json_text(manifest))
    return code


def _comma_floats(text: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


FLAG_TYPES = {NUMBER: float, INTEGER: int, NUMBERS: _comma_floats, PATH: str}


def _add_flags(parser, schema: dict, pointer: str = ""):
    """Add the overriding flag of every field in schema that names one."""
    for key, field in schema.items():
        where = f"{pointer}/{key}"
        if isinstance(field, dict):
            _add_flags(parser, field, where)
        elif field.flag:
            if field.kind == BOOL:
                options = {"action": "store_true", "default": None}
            elif field.kind == CHOICE:
                options = {"choices": field.choices}
            else:
                options = {"type": FLAG_TYPES[field.kind]}
            flag = "--" + field.flag.replace("_", "-")
            parser.add_argument(flag, help=f"overrides {where}", **options)


class Subcommand(NamedTuple):
    """One subcommand's parser entry: its help line, its prepare step (see
    ``_run``), the field tables whose flags it takes, whether it takes
    ``--plot``, and its other flags as (flag, action, help)."""

    help: str
    prepare: Callable
    schemas: tuple
    plot: bool = False
    flags: tuple = ()


SUBCOMMANDS = {
    "spectrum": Subcommand("steady-state transmission spectrum", _spectrum, (SPECTRUM,), True),
    "ringdown": Subcommand("reflection ring-down traces", _ringdown, (RINGDOWN,), True, (
        ("--triptych", "store_true", "three-panel under/critical/over comparison SVG"),
        ("--compare", "store_true", "report max deviation between analytic and integrated"),
    )),
    "fit": Subcommand("run a fit recipe on a CSV file", _fit, (FIT, *FIT_RECIPE_FIELDS.values()),
                      flags=(("--fixed", "store", "JSON file with fixed parameters (rabi-g)"),)),
    "mode-solve": Subcommand(
        "fiber fundamental mode and coupling estimate", _mode_solve, (MODE_SOLVE,)
    ),
    "experiment": Subcommand("Monte Carlo measurement pipeline", _experiment, (EXPERIMENT,), True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibercavity",
        description="Fiber-cavity QED simulation and parameter estimation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--out", default=".", help="output directory")
        if command.plot:
            p.add_argument("--plot", action="store_true", help="emit SVG plot(s)")
        p.add_argument("--dump-config", action="store_true",
                       help="print the fully resolved config and exit")
        for schema in command.schemas:
            _add_flags(p, schema)
        for flag, action, text in command.flags:
            p.add_argument(flag, action=action, help=text)
        p.set_defaults(prepare=command.prepare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except dataio.DataFormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        IntegrationError,
        fibermode.NoGuidedModeError,
        estimation.FitError,
        svgplot.PlotError,
        experiment.SeedReplayError,
        NumericalFailure,
        MemoryError,  # an allocation this machine refuses
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
