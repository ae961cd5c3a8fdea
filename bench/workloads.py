"""Workload definitions: seeded inputs, the CLI calls of one pass, output checks.

Everything here is stdlib only, so the benchmark process itself imports
neither numpy nor the package: its inputs are written as config documents and
CSV/JSON files, and the program only ever sees those files.

A workload pass is a list of ``Call``s. Each call is one ``fibercavity``
subcommand with its arguments (without ``--out``) and a check that inspects
the files the call wrote. A check returns a list of failure messages; an
empty list means the outputs are correct.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

# Rates of the characterized system, 2pi x MHz (the CLI defaults).
KAPPA1, KAPPA2, KAPPA_LOSS, GAMMA, G_MAX = 0.12, 3.08, 3.2, 2.6, 7.8
KAPPA = KAPPA1 + KAPPA2 + KAPPA_LOSS

# Tolerances of the output checks (stated here, not tuned per run).
SPECTRUM_REL_TOL = 1e-9  # CLI spectrum vs the closed form below
RINGDOWN_MAX_DEVIATION = 1e-6  # analytic vs integrated trace, relative to peak
FIT_REL_TOL = {"lorentzian": 0.03, "rabi-g": 0.03, "exponential": 0.15, "ringdown-tail": 0.02}
# Noise of the synthetic fit inputs: additive for spectra and the recovery
# curve, multiplicative (log-normal) for the ring-down trace.
NOISE = {"lorentzian": 0.01, "rabi-g": 0.01, "exponential": 0.01, "ringdown-tail": 0.02}

NAMES = ("ensemble-narrow", "ensemble-wide", "toolkit-session")

# Sizes per scale. "full" is what the benchmark measures; "smoke" keeps the
# same calls and checks at tiny sizes for the benchmark's own test. The
# level-1 kappa tolerance (2pi x MHz) is wider where fewer empty-trap
# sequences enter the level-1 spectrum.
SIZES = {
    "full": {
        "ensemble-narrow": {"sequences": 20000, "points": 21, "kappa_tol": 0.1},
        "ensemble-wide": {"sequences": 2000, "points": 1001, "kappa_tol": 0.1},
        "toolkit-session": {"sequences": 500, "points": 21, "kappa_tol": 0.3},
    },
    "smoke": {
        "ensemble-narrow": {"sequences": 300, "points": 21, "kappa_tol": 0.4},
        "ensemble-wide": {"sequences": 40, "points": 1001, "kappa_tol": 0.4},
        "toolkit-session": {"sequences": 300, "points": 21, "kappa_tol": 0.4},
    },
}


@dataclass
class Call:
    """One CLI invocation of a pass."""

    label: str
    argv: list
    check: object  # callable(out_dir) -> list[str]
    sequences: int = 0  # simulated sequences, for experiment calls
    warnings: object = None  # callable(out_dir) -> list[str], warnings in outputs

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def dirname(self) -> str:
        return self.label.replace(":", "-")


@dataclass
class Workload:
    name: str
    seed: int  # the --seed every call receives
    calls: list
    inputs: dict = field(default_factory=dict)  # generating parameters


def rate(value_mhz: float) -> dict:
    return {"value": value_mhz, "unit": "two_pi_mhz"}


def system_doc() -> dict:
    return {
        "kappa1": rate(KAPPA1),
        "kappa2": rate(KAPPA2),
        "kappa_loss": rate(KAPPA_LOSS),
        "gamma": rate(GAMMA),
        "g": rate(G_MAX),
    }


def normalized_transmission(delta: float, g: float) -> float:
    """T(delta) / T_empty(0) in the weak-driving limit; rates in 2pi x MHz.

    Written out independently of the package so the spectrum check and the
    synthetic rabi-g data do not rest on the code under test.
    """
    num = abs(2.0 * math.sqrt(KAPPA1 * KAPPA2) * complex(GAMMA, delta)) ** 2
    den = abs(complex(KAPPA, delta) * complex(GAMMA, delta) + g * g) ** 2
    return num / den / (4.0 * KAPPA1 * KAPPA2 / KAPPA**2)


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _write_json(path: str, doc):
    _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header: str, rows):
    _write(path, header + "\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _grid(lo: float, hi: float, points: int):
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]


# ---------------------------------------------------------------------------
# output checks


class Ops:
    """Operations attempted and failed, with the reasons and warnings seen."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.warnings = []

    def record(self, label: str, reasons):
        self.attempted += 1
        if reasons:
            self.failures.append({"op": label, "reasons": list(reasons)})

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_checks(call, out_dir: str) -> list:
    try:
        return call.check(out_dir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"output check raised {type(exc).__name__}: {exc}"]



def check_experiment(out_dir, sequences, points, kappa_tol):
    """events.jsonl line and key counts, occupancy sum, level-1 kappa."""
    failures = []
    levels = {}
    lines = 0
    with open(os.path.join(out_dir, "events.jsonl"), "r", encoding="utf-8") as handle:
        for line in handle:
            lines += 1
            record = json.loads(line)
            keys = len(record["spectroscopy_counts"])
            if keys != points and not failures:
                failures.append(f"events.jsonl line {lines}: {keys} detuning keys, expected {points}")
            levels[record["level"]] = levels.get(record["level"], 0) + 1
    if lines != sequences:
        failures.append(f"events.jsonl has {lines} lines, expected {sequences}")
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    occupancy = {int(k): v for k, v in summary["level_occupancy"].items()}
    if sum(occupancy.values()) != sequences:
        failures.append(f"level occupancy sums to {sum(occupancy.values())}, expected {sequences}")
    if {k: v for k, v in occupancy.items() if v} != levels:
        failures.append("summary level occupancy disagrees with events.jsonl")
    fit = summary["fits"].get("1", {})
    if not fit.get("converged"):
        failures.append(f"level-1 fit missing or not converged: {fit}")
    else:
        kappa = fit["derived"]["kappa"]["value"]
        if abs(kappa - KAPPA) > kappa_tol:
            failures.append(f"level-1 kappa {kappa:.4f} not within {kappa_tol} of {KAPPA}")
    return failures


def check_spectrum(out_dir, g_list, points):
    failures = []
    for g in g_list:
        path = os.path.join(out_dir, f"spectrum_g{g:.3f}.csv")
        with open(path, "r", encoding="utf-8") as handle:
            rows = [line.split(",") for line in handle.read().splitlines()[1:]]
        if len(rows) != points:
            failures.append(f"{os.path.basename(path)}: {len(rows)} rows, expected {points}")
            continue
        for delta, value in rows:
            expected = normalized_transmission(float(delta), g)
            if abs(float(value) - expected) > SPECTRUM_REL_TOL * expected:
                failures.append(f"{os.path.basename(path)}: T({delta}) = {value}, expected {expected!r}")
                break
    if not os.path.getsize(os.path.join(out_dir, "spectrum.svg")):
        failures.append("spectrum.svg is empty")
    return failures


def check_ringdown(out_dir):
    failures = []
    deviation = _read_json(os.path.join(out_dir, "ringdown_summary.json"))["max_relative_deviation"]
    if not deviation <= RINGDOWN_MAX_DEVIATION:
        failures.append(f"analytic vs integrated deviation {deviation!r} > {RINGDOWN_MAX_DEVIATION}")
    for name in ("ringdown_analytic.csv", "ringdown_integrated.csv", "ringdown.svg", "ringdown_triptych.svg"):
        if not os.path.getsize(os.path.join(out_dir, name)):
            failures.append(f"{name} is empty")
    return failures


def check_fit(out_dir, recipe, derived_key, truth):
    doc = _read_json(os.path.join(out_dir, "fit_result.json"))
    if not doc["converged"]:
        return [f"{recipe} fit did not converge"]
    value = doc["derived"][derived_key]
    value = value["value"] if isinstance(value, dict) else value
    if abs(value - truth) > FIT_REL_TOL[recipe] * truth:
        return [f"{recipe}: {derived_key} = {value!r}, generated {truth!r} (tol {FIT_REL_TOL[recipe]})"]
    return []


def check_mode(out_dir):
    doc = _read_json(os.path.join(out_dir, "mode_solution.json"))
    failures = []
    if not doc["lp01_relative_difference"] < 1e-3:
        failures.append(f"HE11 vs LP01 n_eff differ by {doc['lp01_relative_difference']!r}")
    if not doc["g_est"]["value"] > 0.0:
        failures.append("non-positive coupling estimate")
    return failures


# ---------------------------------------------------------------------------
# workloads


def _experiment_call(label, inputs_dir, cfg_name, doc, sizes, seed):
    path = os.path.join(inputs_dir, cfg_name)
    _write_json(path, doc)
    n, points, tol = sizes["sequences"], sizes["points"], sizes["kappa_tol"]
    return Call(
        label=label,
        argv=["experiment", "--config", path, "--seed", str(seed)],
        check=lambda out: check_experiment(out, n, points, tol),
        sequences=n,
    )


def _experiment_doc(sizes, sequence):
    return {
        "system": system_doc(),
        "sequence": sequence,
        "detunings": {"min": rate(-25.0), "max": rate(25.0), "points": sizes["points"]},
        "sequences": sizes["sequences"],
    }


def build(name: str, seed: int, inputs_dir: str, scale: str = "full") -> Workload:
    """Write the workload's inputs for ``seed`` into inputs_dir; return its calls."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(f"{name}/{seed}")
    cli_seed = rng.randrange(2**31)
    sizes = SIZES[scale][name]
    os.makedirs(inputs_dir, exist_ok=True)

    if name == "ensemble-narrow":
        doc = _experiment_doc(sizes, {"hold_time_s": 0.005})
        calls = [_experiment_call("experiment", inputs_dir, "narrow.json", doc, sizes, cli_seed)]
        return Workload(name, cli_seed, calls)

    if name == "ensemble-wide":
        doc = _experiment_doc(
            sizes, {"hold_time_s": 0.005, "poisson_loading": True, "load_probability": 0.5}
        )
        calls = [_experiment_call("experiment", inputs_dir, "wide.json", doc, sizes, cli_seed)]
        return Workload(name, cli_seed, calls)

    return _toolkit_session(rng, cli_seed, inputs_dir, sizes)


def _toolkit_session(rng, seed, inputs_dir, sizes) -> Workload:
    seed_args = ["--seed", str(seed)]
    calls = []
    inputs = {}

    def path(name):
        return os.path.join(inputs_dir, name)

    # spectrum: a family of five distinct coupling rates, 501 points, plot
    g_list = sorted(rng.sample(range(100, 900), 5))
    g_list = [g / 100.0 for g in g_list]
    _write_json(path("spectrum.json"), {
        "system": system_doc(),
        "grid": {"delta_min_mhz": -25.0, "delta_max_mhz": 25.0, "points": 501},
    })
    inputs["g_list"] = g_list
    calls.append(Call(
        "spectrum",
        ["spectrum", "--config", path("spectrum.json"),
         "--g-list-mhz", ",".join(repr(g) for g in g_list), "--plot", *seed_args],
        lambda out: check_spectrum(out, g_list, 501),
    ))

    # ringdown: analytic + integrated traces, deviation report, both plots
    kappa2 = round(rng.uniform(2.5, 3.5), 3)
    _write_json(path("ringdown.json"), {"ringdown": {
        "kappa1": rate(KAPPA1), "kappa2": rate(kappa2), "kappa_loss": rate(KAPPA_LOSS),
        "kappa_s": rate(50.0), "s0": 1.0,
    }})
    inputs["ringdown_kappa2"] = kappa2
    calls.append(Call(
        "ringdown",
        ["ringdown", "--config", path("ringdown.json"), "--compare", "--triptych", "--plot",
         *seed_args],
        check_ringdown,
    ))

    # fit recipes on seeded noisy synthetic data
    deltas = _grid(-25.0, 25.0, 201)
    header = "delta_two_pi_mhz,transmission_normalized"

    amp, kappa = rng.uniform(0.8, 1.2), rng.uniform(5.5, 7.5)
    _write_csv(path("lorentzian.csv"), header, [
        (d, amp * kappa**2 / (d * d + kappa**2) + rng.gauss(0.0, NOISE["lorentzian"]))
        for d in deltas
    ])
    inputs["lorentzian_kappa"] = kappa

    g_true = rng.uniform(4.0, 9.0)
    _write_csv(path("rabi.csv"), header, [
        (d, normalized_transmission(d, g_true) + rng.gauss(0.0, NOISE["rabi-g"]))
        for d in deltas
    ])
    _write_json(path("fixed.json"), system_doc())
    inputs["rabi_g"] = g_true

    # exponential recovery: the x column is read as time in ms
    baseline, lifetime = rng.uniform(0.8, 1.0), rng.uniform(8.0, 14.0)
    depth = rng.uniform(0.5, 0.7) * baseline
    _write_csv(path("recovery.csv"), header, [
        (t, baseline - depth * math.exp(-t / lifetime) + rng.gauss(0.0, NOISE["exponential"]))
        for t in _grid(0.0, 60.0, 61)
    ])
    inputs["recovery_lifetime_ms"] = lifetime

    # ring-down tail: intensity decays at 2 kappa after switch-off at t = 0
    kappa_rd = rng.uniform(5.5, 7.5)
    decay_per_ns = 2.0 * 2.0 * math.pi * kappa_rd * 1e-3
    _write_csv(path("trace.csv"), "t_ns,intensity_normalized", [
        (t, math.exp(-decay_per_ns * max(t, 0.0) + rng.gauss(0.0, NOISE["ringdown-tail"])))
        for t in _grid(-20.0, 250.0, 541)
    ])
    inputs["ringdown_tail_kappa"] = kappa_rd

    for recipe, data, extra, key, truth in (
        ("lorentzian", "lorentzian.csv", [], "kappa", kappa),
        ("rabi-g", "rabi.csv", ["--fixed", path("fixed.json")], "g", g_true),
        ("exponential", "recovery.csv", [], "lifetime_ms", lifetime),
        ("ringdown-tail", "trace.csv", ["--tail-start-ns", "25"], "kappa", kappa_rd),
    ):
        calls.append(Call(
            f"fit:{recipe}",
            ["fit", "--recipe", recipe, "--data", path(data), *extra, *seed_args],
            lambda out, r=recipe, k=key, v=truth: check_fit(out, r, k, v),
        ))

    # mode-solve with the default fiber (it warns "not single-mode")
    calls.append(Call(
        "mode-solve", ["mode-solve", *seed_args], check_mode,
        warnings=lambda out: _read_json(os.path.join(out, "mode_solution.json"))["warnings"],
    ))

    # a small pipeline check closes the session; it is dominated by import
    doc = _experiment_doc(sizes, {})
    calls.append(_experiment_call("experiment", inputs_dir, "session.json", doc, sizes, seed))
    return Workload("toolkit-session", seed, calls, inputs)
