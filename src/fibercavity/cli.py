"""Command-line surface: forward simulation, fitting, mode solving, pipeline.

Subcommands: spectrum | ringdown | fit | mode-solve | experiment. Every
subcommand reads one JSON config document (all fields optional, defaults
documented by ``--dump-config``) and lets flags override config fields. One
field table per subcommand declares each field's kind, default, bounds, unit
and overriding flag; ``_resolve`` turns the document plus flags into the
resolved document, which ``--dump-config`` prints, the manifest records and
the subcommand then runs from. Outputs are written atomically, next to a
``<primary output>.manifest.json`` holding the resolved config, seed and tool
version, so re-running with a manifest's config reproduces the outputs
byte-identically.

Exit codes: 0 success, 2 config/schema error, 3 numerical failure
(non-convergence, no root, integration failure), 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import time
import warnings
from typing import NamedTuple

import numpy as np

from . import __version__
from . import dataio, estimation, experiment, fibermode, ringdown, steady, svgplot
from .dataio import unit_exact_value
from .constants import C, CS_D2_CYCLING_DIPOLE, CS_D2_WAVELENGTH
from .ringdown import IntegrationError, RingdownParams
from .units import (
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


def _fail(pointer: str, message: str):
    raise ConfigError(f"{pointer}: {message}")


# ---------------------------------------------------------------------------
# config schema

NUMBER, INTEGER, RATE, BOOL, CHOICE, NUMBERS, PATH = (
    "number", "integer", "rate", "boolean", "choice", "list of numbers", "path"
)
REQUIRED = object()
NM, UM = 1e-9, 1e-6
D2_NM = CS_D2_WAVELENGTH * 1e9


class Field(NamedTuple):
    """One config field, named by its key in the block that holds it.

    ``default`` applies when neither the document nor ``flag`` (an argparse
    destination) gives a value; a callable default is called, ``None`` leaves
    the field out and ``REQUIRED`` rejects its absence. A rate is a
    ``{value, unit}`` object and resolves to rad/s, which survives the JSON
    round trip bit-exactly. A number with a ``scale`` (its SI factor)
    resolves to the double that multiplies back to the same SI value.
    ``attr`` names the library attribute the field builds (see ``_build``)
    where that differs from its key.
    """

    kind: str
    default: object = None
    minimum: float | None = None
    maximum: float | None = None
    scale: float | None = None
    flag: str | None = None
    choices: tuple = ()
    attr: str | None = None


def _rates(**defaults_two_pi_mhz) -> dict:
    return {
        name: Field(RATE, {"value": value, "unit": "two_pi_mhz"})
        for name, value in defaults_two_pi_mhz.items()
    }


def _probe(power_w: float, duration_s: float) -> dict:
    return {
        "power_w": Field(NUMBER, power_w, minimum=0.0, attr="power"),
        "duration_s": Field(NUMBER, duration_s, minimum=0.0, attr="duration"),
        **_rates(detuning=0.0),
        "wavelength_nm": Field(NUMBER, D2_NM, scale=NM, attr="wavelength"),
    }


# os.urandom, as secrets.randbits draws, without the hashlib/OpenSSL import of secrets
SEED = Field(INTEGER, lambda: int.from_bytes(os.urandom(4), "little"), minimum=0, flag="seed")
SYSTEM = _rates(kappa1=0.12, kappa2=3.08, kappa_loss=3.2, gamma=2.6, g=7.8, cavity_detuning=0.0)
SPECTRUM = {
    "system": SYSTEM,
    "grid": {
        "delta_min_mhz": Field(NUMBER, -25.0, flag="delta_min_mhz"),
        "delta_max_mhz": Field(NUMBER, 25.0, flag="delta_max_mhz"),
        "points": Field(INTEGER, 501, minimum=2, flag="points"),
    },
    "g_list_two_pi_mhz": Field(NUMBERS, minimum=0.0, flag="g_list_mhz"),
    "seed": SEED,
}
RINGDOWN = {
    "ringdown": {
        **_rates(kappa1=0.12, kappa2=3.08, kappa_loss=3.2, kappa_s=50.0),
        "s0": Field(NUMBER, 1.0),
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
MODE_SOLVE = {
    "fiber": {
        "core_radius_um": Field(NUMBER, 2.8, minimum=0.0, scale=UM, attr="core_radius"),
        "wavelength_nm": Field(NUMBER, D2_NM, minimum=1.0, scale=NM, attr="wavelength"),
        # read only when n_core and n_clad are absent; resolves into them
        "numerical_aperture": Field(NUMBER, 0.12, minimum=0.0),
        "n_core": Field(NUMBER),
        "n_clad": Field(NUMBER),
    },
    "cavity": {
        "length_m": Field(NUMBER, 0.33, minimum=1e-6, attr="length"),  # ~ one wavelength
        "effective_index": Field(NUMBER, 1.45),
    },
    "atom": {
        "dipole_moment_cm": Field(NUMBER, CS_D2_CYCLING_DIPOLE),
        "transition_wavelength_nm": Field(NUMBER, D2_NM, minimum=1.0, scale=NM),
    },
    "seed": SEED,
}
EXPERIMENT = {
    "system": SYSTEM,
    "sequence": {
        "load_probability": Field(
            NUMBER, 0.3, minimum=0.0, maximum=1.0, flag="load_probability"
        ),
        **_rates(g_max=7.8),
        "detection": _probe(0.8e-12, 2e-3),
        "spectroscopy": _probe(0.4e-12, 5e-3),
        "background_rate_cps": Field(NUMBER, 1e4, minimum=0.0, attr="background_rate"),
        "detector_efficiency": Field(NUMBER, 0.5, minimum=0.0, maximum=1.0),
        "trap_lifetime_s": Field(NUMBER, 11e-3, minimum=0.0, attr="trap_lifetime"),
        "hold_time_s": Field(NUMBER, 0.0, minimum=0.0, attr="hold_time"),
        "bin_edges": Field(NUMBERS, list(experiment.DEFAULT_BIN_EDGES)),
        "poisson_loading": Field(BOOL, False),
        "normalization_drift": Field(NUMBER, 0.0),
    },
    "detunings": {**_rates(min=-25.0, max=25.0), "points": Field(INTEGER, 21, minimum=1)},
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
            return rate_to_json(rate_from_json(value), "rad_per_s")
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
    if field.minimum is not None and value < field.minimum:
        _fail(where, f"must be >= {field.minimum}")
    if field.maximum is not None and value > field.maximum:
        _fail(where, f"must be <= {field.maximum}")
    if field.scale is not None:
        value = unit_exact_value(value * field.scale, field.scale)
    return value


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
def _at(pointer: str):
    """Report a ParameterError or DataFormatError from a resolved block at its
    pointer, or below it at the error's ``field``."""
    try:
        yield
    except (ParameterError, dataio.DataFormatError) as exc:
        field = getattr(exc, "field", None)
        where = pointer if field is None else f"{pointer}/{field}"
        raise ConfigError(f"{where}: {exc}") from exc


def _build(cls, schema: dict, block: dict, **sub_objects):
    """``cls`` called with each field of the resolved ``block`` under its
    ``attr`` (or key): a rate in rad/s, a number with a ``scale`` in SI units.
    Nested blocks are skipped; ``sub_objects`` passes them already built."""
    kwargs = {}
    for key, value in block.items():
        field = schema[key]
        if isinstance(field, Field):
            if field.kind == RATE:
                value = value["value"]
            elif field.scale is not None:
                value = value * field.scale
            kwargs[field.attr or key] = value
    return cls(**kwargs, **sub_objects)


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"/: invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("/: config document must be a JSON object")
    return doc


def _write_manifest(subcommand, config, inputs, outputs, started):
    manifest = dataio.RunManifest(
        subcommand=subcommand,
        config=config,
        inputs=[str(p) for p in inputs],
        outputs=[str(p) for p in outputs],
        seed=config["seed"],
        tool_version=__version__,
        duration_s=time.monotonic() - started,
    )
    dataio.write_manifest(str(outputs[0]) + ".manifest.json", manifest)


def _output(outputs: list, directory: str, name: str) -> str:
    """Path of output ``name`` in directory (created), recorded in outputs."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    outputs.append(path)
    return path


def _report(outputs: list, directory: str, name: str, doc: dict):
    """Write doc as the JSON output ``name`` and echo it to stdout."""
    text = dataio.json_text(doc)
    dataio.atomic_write_text(_output(outputs, directory, name), text)
    print(text, end="")


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


def _dump_config_and_exit(resolved: dict):
    print(dataio.json_text(resolved), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectrum


def _cmd_spectrum(args) -> int:
    started = time.monotonic()
    config = _resolve(SPECTRUM, _load_config(args.config), args)
    with _at("/system"):
        system = _build(SystemParams, SYSTEM, config["system"])
        steady.empty_cavity_reference(system)
    grid = config["grid"]
    if not grid["delta_max_mhz"] > grid["delta_min_mhz"]:
        raise ConfigError("/grid/delta_max_mhz: must exceed delta_min_mhz")
    g_values = [from_two_pi_mhz(v) for v in config.get("g_list_two_pi_mhz", [])]
    names = [f"spectrum_g{two_pi_mhz(g):.3f}.csv" for g in g_values]
    if len(names) < 2:
        g_values, names = g_values or [system.g], ["spectrum.csv"]
    if len(set(names)) < len(names):
        _fail("/g_list_two_pi_mhz", f"values that agree to 3 decimals share a file: {names}")
    if args.dump_config:
        return _dump_config_and_exit(config)

    deltas = _detuning_grid(
        from_two_pi_mhz(grid["delta_min_mhz"]), from_two_pi_mhz(grid["delta_max_mhz"]),
        grid["points"],
    )

    outputs, series = [], []
    for g, name in zip(g_values, names):
        values = steady.normalized_transmission(system.with_g(g), deltas)
        spectrum = estimation.Spectrum(deltas=deltas, values=values)
        dataio.write_spectrum_csv(_output(outputs, args.out, name), spectrum)
        series.append((f"g = 2π×{two_pi_mhz(g):.1f} MHz", deltas, values))
    if args.plot:
        svg = _transmission_chart(series, "Normalized transmission")
        dataio.atomic_write_text(_output(outputs, args.out, "spectrum.svg"), svg)

    _write_manifest("spectrum", config, [], outputs, started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# ringdown


def _cmd_ringdown(args) -> int:
    started = time.monotonic()
    config = _resolve(RINGDOWN, _load_config(args.config), args)
    with _at("/ringdown"):
        params = _build(RingdownParams, RINGDOWN["ringdown"], config["ringdown"])
        # --triptych panels: kappa2 under, at and over critical coupling
        other = params.kappa1 + params.kappa_loss
        panels = [
            (title, dataclasses.replace(params, kappa2=scale * other))
            for title, scale in (("undercoupled", 0.5), ("critical", 1.0), ("overcoupled", 2.0))
        ] if args.triptych else []
    grid = config["grid"]
    if not grid["t_max_ns"] > grid["t_min_ns"]:
        raise ConfigError("/grid/t_max_ns: must exceed t_min_ns")
    method = config["method"]
    if args.compare and method != "both":
        raise ConfigError("/method: --compare needs method = both")
    if method != "analytic":
        with _at("/grid/t_max_ns"):
            ringdown.check_integration_span(params, grid["t_max_ns"] * 1e-9)
    if args.dump_config:
        return _dump_config_and_exit(config)

    t_grid = np.linspace(grid["t_min_ns"], grid["t_max_ns"], grid["points"]) * 1e-9
    outputs, traces = [], {}
    if method in ("analytic", "both"):
        traces["analytic"] = ringdown.analytic_trace(params, t_grid)
    if method in ("integrate", "both"):
        traces["integrated"] = ringdown.integrate_ringdown(params, t_grid)
    for name, trace in traces.items():
        dataio.write_trace_csv(_output(outputs, args.out, f"ringdown_{name}.csv"), trace)

    summary = {}
    if args.compare:
        reference = traces["analytic"].intensities
        deviation = float(
            np.max(np.abs(traces["integrated"].intensities - reference))
            / max(float(np.max(reference)), np.finfo(float).tiny)
        )
        summary["max_relative_deviation"] = deviation
        print(json.dumps(summary, sort_keys=True))

    if args.plot:
        series = [
            (name, trace.times * 1e9, trace.intensities)
            for name, trace in traces.items()
        ]
        dataio.atomic_write_text(
            _output(outputs, args.out, "ringdown.svg"),
            svgplot.line_chart(
                series,
                title="Reflected intensity",
                x_label="t (ns)",
                y_label="|s_out|^2 / s0^2",
            ),
        )

    if panels:
        charts = []
        for title, panel in panels:
            trace = ringdown.analytic_trace(panel, t_grid)
            charts.append((title, [("analytic", trace.times * 1e9, trace.intensities)]))
        dataio.atomic_write_text(
            _output(outputs, args.out, "ringdown_triptych.svg"),
            svgplot.triptych(charts, x_label="t (ns)", y_label="|s_out|^2 / s0^2"),
        )

    if summary:
        dataio.atomic_write_text(
            _output(outputs, args.out, "ringdown_summary.json"), dataio.json_text(summary)
        )

    _write_manifest("ringdown", config, [], outputs, started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit


def _cmd_fit(args) -> int:
    started = time.monotonic()
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
        with _at("/fixed"):
            fixed = _build(SystemParams, SYSTEM, config["fixed"])
            steady.empty_cavity_reference(fixed)
    if args.dump_config:
        return _dump_config_and_exit(config)

    derived = {}
    if recipe == "ringdown-tail":
        trace = dataio.read_trace_csv(data_path)
        result = estimation.fit_ringdown_tail(trace, config["tail_start_ns"] * 1e-9)
        rate = result["rate"]
        derived = {
            "photon_lifetime_ns": 1e9 / rate,
            "kappa": rate_to_json(rate / 2.0),
        }
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

    outputs = []
    _report(outputs, args.out, "fit_result.json", {**result.as_dict(), "derived": derived})
    _write_manifest("fit", config, [data_path], outputs, started)
    return EXIT_OK if result.converged else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# mode-solve


def _cmd_mode_solve(args) -> int:
    started = time.monotonic()
    config = _resolve(MODE_SOLVE, _load_config(args.config), args)
    fiber_doc, fiber_schema = config["fiber"], MODE_SOLVE["fiber"]
    numerical_aperture = fiber_doc.pop("numerical_aperture")
    with _at("/fiber"):
        if "n_core" in fiber_doc or "n_clad" in fiber_doc:
            for key in ("n_core", "n_clad"):
                if key not in fiber_doc:
                    _fail(f"/fiber/{key}", "required with the other index")
            fiber = _build(fibermode.FiberSpec, fiber_schema, fiber_doc)
        else:
            fiber = _build(
                fibermode.FiberSpec.from_numerical_aperture, fiber_schema, fiber_doc,
                numerical_aperture=numerical_aperture,
            )
            fiber_doc.update(n_core=fiber.n_core, n_clad=fiber.n_clad)
    with _at("/cavity"):
        geom = _build(CavityGeometry, MODE_SOLVE["cavity"], config["cavity"])
    atom_doc = config["atom"]
    with _at("/atom"):
        atom = fibermode.AtomSpec(
            dipole_moment=atom_doc["dipole_moment_cm"],
            transition_angular_frequency=(
                2.0 * np.pi * C / (atom_doc["transition_wavelength_nm"] * NM)
            ),
        )
    if args.dump_config:
        return _dump_config_and_exit(config)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mode = fibermode.solve_fundamental_mode(fiber)
    lp01 = fibermode.solve_lp01(fiber)
    volume = fibermode.mode_volume(mode, geom)
    g_est = fibermode.coupling_rate(atom, volume, 1.0)
    report = {
        "n_eff": mode.n_eff,
        "lp01_n_eff": lp01,
        "lp01_relative_difference": abs(mode.n_eff - lp01) / lp01,
        "v_number": fiber.v_number,
        "single_mode": fiber.v_number < fibermode.SINGLE_MODE_V_LIMIT,
        "effective_area_um2": mode.effective_area * 1e12,
        "mode_volume_um3": volume * 1e18,
        "g_est": rate_to_json(g_est),
        "tail_truncation_area_um2": mode.tail_truncation_error * 1e12,
        "warnings": [str(w.message) for w in caught],
    }
    outputs = []
    _report(outputs, args.out, "mode_solution.json", report)
    _write_manifest("mode-solve", config, [], outputs, started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment


def _cmd_experiment(args) -> int:
    started = time.monotonic()
    config = _resolve(EXPERIMENT, _load_config(args.config), args)
    with _at("/system"):
        system = _build(SystemParams, SYSTEM, config["system"])
        steady.empty_cavity_reference(system)
    doc, schema = config["sequence"], EXPERIMENT["sequence"]
    n_sequences = config["sequences"]
    with _at("/sequence"):
        probes = {
            key: _build(experiment.ProbeConfig, schema[key], doc[key])
            for key in ("detection", "spectroscopy")
        }
        sequence = _build(experiment.SequenceConfig, schema, doc, **probes)
        experiment.check_ensemble(system, sequence, n_sequences)
    d_min, d_max = (config["detunings"][k]["value"] for k in ("min", "max"))
    if not d_max >= d_min:
        raise ConfigError("/detunings/max: must be >= min")
    detunings = _detuning_grid(d_min, d_max, config["detunings"]["points"])
    with _at("/detunings/points"):
        dataio.detuning_keys(detunings)
    if args.dump_config:
        return _dump_config_and_exit(config)

    seed = config["seed"]
    ensemble = experiment.run_ensemble(
        system, sequence, detunings, n_sequences, base_seed=seed
    )
    outputs = []
    dataio.write_events_jsonl(_output(outputs, args.out, "events.jsonl"), ensemble)

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
    for level, spectrum in sorted(spectra.items()):
        dataio.write_spectrum_csv(
            _output(outputs, args.out, f"spectrum_level_{level}.csv"), spectrum
        )
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
        dataio.atomic_write_text(_output(outputs, args.out, "spectra_by_level.svg"), svg)
    dataio.atomic_write_text(_output(outputs, args.out, "summary.json"), dataio.json_text(summary))
    _write_manifest("experiment", config, [], outputs, started)
    return EXIT_OK


# ---------------------------------------------------------------------------


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


def _add_common(parser, *schemas, plot=False):
    parser.add_argument("--config", help="JSON config document")
    parser.add_argument("--out", default=".", help="output directory")
    if plot:
        parser.add_argument("--plot", action="store_true", help="emit SVG plot(s)")
    parser.add_argument(
        "--dump-config",
        action="store_true",
        help="print the fully resolved config and exit",
    )
    for schema in schemas:
        _add_flags(parser, schema)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibercavity",
        description="Fiber-cavity QED simulation and parameter estimation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectrum", help="steady-state transmission spectrum")
    _add_common(p, SPECTRUM, plot=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("ringdown", help="reflection ring-down traces")
    _add_common(p, RINGDOWN, plot=True)
    p.add_argument("--triptych", action="store_true",
                   help="three-panel under/critical/over comparison SVG")
    p.add_argument("--compare", action="store_true",
                   help="report max deviation between analytic and integrated")
    p.set_defaults(func=_cmd_ringdown)

    p = sub.add_parser("fit", help="run a fit recipe on a CSV file")
    _add_common(p, FIT, *FIT_RECIPE_FIELDS.values())
    p.add_argument("--fixed", help="JSON file with fixed parameters (rabi-g)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("mode-solve", help="fiber fundamental mode and coupling estimate")
    _add_common(p, MODE_SOLVE)
    p.set_defaults(func=_cmd_mode_solve)

    p = sub.add_parser("experiment", help="Monte Carlo measurement pipeline")
    _add_common(p, EXPERIMENT, plot=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
