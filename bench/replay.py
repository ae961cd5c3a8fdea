"""Traced in-process run of a workload, and the per-layer metrics.

The traced run calls ``fibercavity.cli.main`` in-process with each CLI call's
arguments, so the program makes its own layer calls, in its own order, with
its own inputs. For the length of a pass the layer modules in cli's
namespace are swapped for proxies that put a span around every public
function called through them (see ``Tracer.patched``). Return values are
untouched, so a change of a layer's return type still flows through.

Span names are ``<layer>.<function>``, where the layer is a module of the
package; fit recipes are ``estimation.<recipe>``. ``call.<label>`` spans hold
one CLI call each, and their self time is CLI glue. A layer call that raises
TypeError or AttributeError, which is how a changed signature shows, is
recorded as unavailable and the run goes on with the next CLI call.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import os
import re
import shutil
import statistics
import sys
import time
import types

import workloads

# Per-layer metrics reported by --trace 1, with their units.
PER_LAYER_UNITS = {
    "import.fibercavity_s": "s",
    "import.scipy_s": "s",
    "cli.resolve_s": "s",
    "experiment.run_ensemble.us_per_seq": "us",
    "experiment.sequence_rng.us_per_call": "us",
    "units.validate.us_per_call": "us",
    "dataio.write_events_jsonl.s": "s",
    "dataio.write_events_jsonl.bytes": "bytes",
    "dataio.write_events_jsonl.mb_per_s": "MB/s",
    "experiment.accumulate_spectra.s": "s",
    "estimation.lorentzian.s": "s",
    "estimation.lorentzian.iterations": "count",
    "estimation.rabi-g.s": "s",
    "estimation.rabi-g.iterations": "count",
    "estimation.exponential.s": "s",
    "estimation.exponential.iterations": "count",
    "estimation.ringdown-tail.s": "s",
    "estimation.converged_ratio": "ratio",
    "steady.transmission.ns_per_point_501": "ns",
    "steady.transmission.ns_per_point_1001": "ns",
    "steady.transmission.flops_per_point": "flop",
    "steady.transmission.bytes_per_point": "bytes",
    "ringdown.integrate_ringdown.s": "s",
    "ringdown.analytic_trace.s": "s",
    "fibermode.solve_fundamental_mode.s": "s",
    "svgplot.line_chart.s": "s",
    "svgplot.triptych.s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}

# Span-derived metrics: metric -> span name, read as the median duration.
SPAN_SECONDS = {
    "dataio.write_events_jsonl.s": "dataio.write_events_jsonl",
    "experiment.accumulate_spectra.s": "experiment.accumulate_spectra",
    "estimation.lorentzian.s": "estimation.lorentzian",
    "estimation.rabi-g.s": "estimation.rabi-g",
    "estimation.exponential.s": "estimation.exponential",
    "estimation.ringdown-tail.s": "estimation.ringdown-tail",
    "ringdown.integrate_ringdown.s": "ringdown.integrate_ringdown",
    "ringdown.analytic_trace.s": "ringdown.analytic_trace",
    "fibermode.solve_fundamental_mode.s": "fibermode.solve_fundamental_mode",
    "svgplot.line_chart.s": "svgplot.line_chart",
    "svgplot.triptych.s": "svgplot.triptych",
}
# The ringdown-tail recipe is a closed-form log-linear fit with no
# iterations; its count stays in the report's "fits" list only.
ITERATIVE_RECIPES = ("lorentzian", "rabi-g", "exponential")

# Minimal arithmetic of steady.transmission per detuning point, counted from
# its closed form (real operations): numerator 6, denominator 11, divide 1.
# Compulsory traffic is one float64 read and one written; numpy's complex
# temporaries add more, which this computed figure leaves out.
TRANSMISSION_FLOPS_PER_POINT = 18
TRANSMISSION_BYTES_PER_POINT = 16

PROBE_REPEATS = {"full": 7, "smoke": 1}
IMPORT_SAMPLES = {"full": 3, "smoke": 1}
SIGNATURE_ERRORS = (TypeError, AttributeError)


class Unavailable(Exception):
    """A layer call failed in the way a changed signature fails."""


# Span names of the fit recipes, by the estimation function the CLI calls.
FIT_RECIPES = {
    "fit_empty_cavity": "lorentzian",
    "fit_rabi_g": "rabi-g",
    "fit_exponential_recovery": "exponential",
    "fit_ringdown_tail": "ringdown-tail",
}


class Tracer:
    """In-memory spans: id, name, parent id, run id, start and end (s).

    A span whose call raised also carries the error; its time is not used.
    """

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans = []
        self.fits = []  # (recipe, converged, iterations)
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        except Exception as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, layer: str, name: str, function):
        """function, called inside a span named <layer>.<name>.

        Fit recipes are named estimation.<recipe> and also record the
        result's converged flag and iteration count.
        """
        recipe = FIT_RECIPES.get(name) if layer == "estimation" else None
        span_name = f"{layer}.{recipe or name}"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(span_name):
                try:
                    result = function(*args, **kwargs)
                except SIGNATURE_ERRORS as exc:
                    raise Unavailable(f"{span_name}: {type(exc).__name__}: {exc}") from exc
            if recipe:
                try:
                    self.fits.append((recipe, bool(result.converged), int(result.iterations)))
                except SIGNATURE_ERRORS as exc:
                    raise Unavailable(f"{span_name} result: {type(exc).__name__}: {exc}") from exc
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, cli):
        """Route every layer call cli.py makes through a span, for a pass.

        cli.py calls the layers through the modules it imports
        (``experiment.run_ensemble``, ``dataio.write_events_jsonl`` ...).
        Those names in cli's namespace are swapped for proxies whose public
        functions are traced; classes, constants and exceptions pass
        through. Calls inside a layer do not go through cli's namespace, so
        only the CLI's own calls get spans.
        """
        if not self.enabled:
            yield
            return
        originals = {
            name: value
            for name, value in vars(cli).items()
            if isinstance(value, types.ModuleType) and value.__name__.startswith("fibercavity.")
        }
        for name, module in originals.items():
            setattr(cli, name, LayerProxy(module, self))
        try:
            yield
        finally:
            for name, module in originals.items():
                setattr(cli, name, module)


class LayerProxy:
    """A package module whose public functions are traced on access."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._layer = module.__name__.rpartition(".")[2]
        self._tracer = tracer
        self._wrapped = {}

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if name.startswith("_") or not inspect.isfunction(value):
            return value
        if name not in self._wrapped:
            self._wrapped[name] = self._tracer.wrap(self._layer, name, value)
        return self._wrapped[name]


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def run_cli(argv) -> tuple:
    """cli.main(argv) in-process: (exit code, stdout, stderr)."""
    from fibercavity import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def dump_config(argv):
    """The CLI's resolved config for argv, from --dump-config in-process."""
    code, out, err = run_cli(list(argv) + ["--dump-config"])
    if code != 0:
        raise RuntimeError(f"--dump-config exited {code}: {err.strip()[-400:]}")
    return json.loads(out)


def replay_pass(wl, t, out_root):
    """Run every CLI call of a pass in-process; return (wall_s, {label: error}).

    Each call is ``cli.main(argv + ["--out", dir])`` inside a span
    ``call.<label>``; with the tracer enabled, the layer calls it makes are
    spans under it. The time a call span does not spend in layer spans is
    CLI glue: argument parsing, config resolution, unit conversions.
    """
    from fibercavity import cli

    errors = {}
    start = time.perf_counter()
    with t.patched(cli):
        for call in wl.calls:
            out = os.path.join(out_root, call.dirname)
            try:
                with t.span(f"call.{call.label}"):
                    code, _, err = run_cli(call.argv + ["--out", out])
            except (Unavailable, *SIGNATURE_ERRORS) as exc:
                errors[call.label] = f"unavailable: {exc}"
            except Exception as exc:  # a failed operation; keep running the others
                errors[call.label] = f"{type(exc).__name__}: {exc}"
            else:
                if code != 0:
                    errors[call.label] = f"exit code {code}: {err.strip()[-400:]}"
    return time.perf_counter() - start, errors


# ---------------------------------------------------------------------------
# layer probes


def import_probe(spawn, env, work, samples):
    """Fresh-interpreter import times (s) from -X importtime: package, scipy."""
    package, scipy = [], []
    for i in range(samples):
        proc = spawn([sys.executable, "-X", "importtime", "-c", "import fibercavity"],
                     os.path.join(work, f"importtime-{i}"), env)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-400:]}")
        total, scipy_total = parse_importtime(proc.stderr)
        package.append(total)
        scipy.append(scipy_total)
    return package, scipy


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


def parse_importtime(text):
    """(fibercavity cumulative s, sum of outermost scipy module cumulative s)."""
    rows = [m.groups() for m in map(_IMPORTTIME.match, text.splitlines()) if m]
    package = scipy = 0.0
    stack = []  # (depth, name); -X importtime prints children before parents
    for _, cumulative, indent, name in reversed(rows):
        depth = len(indent)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name == "fibercavity":
            package = int(cumulative) * 1e-6
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy += int(cumulative) * 1e-6
        stack.append((depth, name))
    return package, scipy


def per_call(function, calls: int, repeats: int) -> list:
    """Mean time of one call (s), once per repeat."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for i in range(calls):
            function(i)
        times.append((time.perf_counter() - start) / calls)
    return times


def kernel_probes(repeats):
    """Samples of the probe loops, and the sizes of the transmission arrays."""
    import numpy as np
    from fibercavity import experiment, steady, units

    system = units.SystemParams(
        kappa1=units.from_two_pi_mhz(workloads.KAPPA1),
        kappa2=units.from_two_pi_mhz(workloads.KAPPA2),
        kappa_loss=units.from_two_pi_mhz(workloads.KAPPA_LOSS),
        gamma=units.from_two_pi_mhz(workloads.GAMMA),
        g=units.from_two_pi_mhz(workloads.G_MAX),
    )
    samples = {
        "experiment.sequence_rng.us_per_call": [
            1e6 * t for t in per_call(lambda i: experiment.sequence_rng(12345, i), 2000, repeats)
        ],
        "units.validate.us_per_call": [
            1e6 * t for t in per_call(lambda i: units.validate(system), 20000, repeats)
        ],
        "steady.transmission.flops_per_point": [TRANSMISSION_FLOPS_PER_POINT],
        "steady.transmission.bytes_per_point": [TRANSMISSION_BYTES_PER_POINT],
    }
    sizes = {}
    for points in (501, 1001):
        deltas = np.linspace(-25.0, 25.0, points) * units.from_two_pi_mhz(1.0)
        seconds = per_call(lambda i: steady.transmission(system, deltas), 500, repeats)
        samples[f"steady.transmission.ns_per_point_{points}"] = [1e9 * t / points for t in seconds]
        sizes[points] = {"input_bytes": deltas.nbytes, "output_bytes": deltas.nbytes}
    return samples, sizes


def resolve_probe(wl, repeats) -> list:
    """In-process --dump-config times over the workload's calls."""
    times = []
    for _ in range(repeats):
        for call in wl.calls:
            start = time.perf_counter()
            dump_config(call.argv)
            times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------------------


def span_samples(tracers, wl) -> dict:
    """Per-layer metric samples read from the spans of traced passes."""
    durations = {}
    for t in tracers:
        for s in t.spans:
            if "error" not in s:
                durations.setdefault(s["name"], []).append(s["end"] - s["start"])
    samples = {
        metric: durations[name] for metric, name in SPAN_SECONDS.items() if name in durations
    }
    sequences = sum(call.sequences for call in wl.calls)
    if sequences and "experiment.run_ensemble" in durations:
        samples["experiment.run_ensemble.us_per_seq"] = [
            1e6 * d / sequences for d in durations["experiment.run_ensemble"]
        ]
    fits = [f for t in tracers for f in t.fits]
    for recipe in ITERATIVE_RECIPES:
        iterations = [it for r, _, it in fits if r == recipe]
        if iterations:
            samples[f"estimation.{recipe}.iterations"] = iterations
    return samples


def layer_time(spans):
    """Time in the spans directly under each CLI call: the rest is glue."""
    return sum(
        s["end"] - s["start"]
        for s in spans
        if s["parent"] is not None and spans[s["parent"]]["name"].startswith("call.")
    )


def self_time_by_name(spans):
    """[name, total self time] pairs, largest first."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
    return sorted(([name, seconds] for name, seconds in totals.items()), key=lambda item: -item[1])


def measure_traced(wl, args, work, spawn, env):
    """Traced run: probes, then passes; returns metrics, counts, details, ops."""
    ops = workloads.Ops()
    started = time.perf_counter()
    first = Tracer("import")
    with first.span("import.fibercavity"):
        import fibercavity  # noqa: F401

    repeats = PROBE_REPEATS[args.scale]
    samples, transmission_sizes = kernel_probes(repeats)
    samples["cli.resolve_s"] = resolve_probe(wl, repeats)
    try:
        samples["import.fibercavity_s"], samples["import.scipy_s"] = import_probe(
            spawn, env, work, IMPORT_SAMPLES[args.scale])
        ops.record("import probe", [])
    except RuntimeError as exc:
        ops.record("import probe", [str(exc)])

    # An untimed first pass lets lazy imports and the allocator's heap
    # settle, which would otherwise count against whichever pass runs first.
    replay_pass(wl, Tracer("warmup", enabled=False), os.path.join(work, "warmup"))
    shutil.rmtree(os.path.join(work, "warmup"), ignore_errors=True)

    walls = {False: [], True: []}
    traced, unavailable, events_bytes = [], {}, 0
    while not traced or (
        time.perf_counter() - started + walls[False][-1] + walls[True][-1] <= args.seconds
    ):
        run = len(traced)
        for enabled in (False, True) if run % 2 == 0 else (True, False):
            tracer = Tracer(f"replay-{run}" if enabled else f"replay-{run}-untraced", enabled)
            out_root = os.path.join(work, tracer.run_id)
            wall, errors = replay_pass(wl, tracer, out_root)
            walls[enabled].append(wall)
            for call in wl.calls:
                error = errors.get(call.label)
                if error and error.startswith("unavailable"):
                    unavailable[call.label] = error
                    continue
                reasons = [error] if error else []
                out = os.path.join(out_root, call.dirname)
                if enabled and run == 0 and not error:
                    reasons += workloads.run_checks(call, out)
                    if call.sequences:
                        events_bytes = os.path.getsize(os.path.join(out, "events.jsonl"))
                ops.record(f"replay {call.label}", reasons)
            if enabled:
                traced.append(tracer)
            shutil.rmtree(out_root, ignore_errors=True)

    samples.update(span_samples(traced, wl))
    fits = [f for t in traced for f in t.fits]
    if fits:
        samples["estimation.converged_ratio"] = [sum(ok for _, ok, _ in fits) / len(fits)]
    if events_bytes:
        samples["dataio.write_events_jsonl.bytes"] = [events_bytes]
        samples["dataio.write_events_jsonl.mb_per_s"] = [
            events_bytes / 1e6 / d for d in samples["dataio.write_events_jsonl.s"]
        ]
    samples["trace.unaccounted_s"] = [
        wall - layer_time(t.spans) for wall, t in zip(walls[True], traced)
    ]

    # Layers this workload does not call are measured on the toolkit-session
    # inputs of the same seed, so every traced result carries every metric.
    probe_sources = {}
    probe = None
    if wl.name != "toolkit-session":
        session = workloads.build("toolkit-session", args.seed,
                                  os.path.join(work, "probe-inputs"), args.scale)
        probe = Tracer("probe-toolkit-session")
        _, errors = replay_pass(session, probe, os.path.join(work, "probe"))
        unavailable.update({f"probe {label}": error for label, error in errors.items()})
        for name, values in span_samples([probe], session).items():
            if name not in samples:
                samples[name] = values
                probe_sources[name] = "toolkit-session pass"

    metrics = {name: statistics.median(values) for name, values in samples.items() if values}
    counts = {name: len(values) for name, values in samples.items()}
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    counts["trace.overhead_s"] = len(traced)

    main_spans = traced[0].spans
    by_name = self_time_by_name(main_spans)
    layers = {}
    for name, seconds in by_name:
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + seconds
    call_spans = {s["name"][5:]: s["end"] - s["start"] for s in main_spans if s["name"].startswith("call.")}
    import_s = metrics.get("import.fibercavity_s")
    details = {
        "replays": {"untraced_wall_s": walls[False], "traced_wall_s": walls[True]},
        "self_time_by_span": by_name,
        "self_time_by_layer": sorted(([k, v] for k, v in layers.items()), key=lambda item: -item[1]),
        "largest_self_span": by_name[0][0],
        "import_share_by_call": (
            {label: import_s / (import_s + seconds) for label, seconds in call_spans.items()}
            if import_s else None
        ),
        "in_process_import_s": first.spans[0]["end"] - first.spans[0]["start"],
        "unavailable": unavailable,
        "probe_sources": probe_sources,
        "transmission_arrays": transmission_sizes,
        "fits": [{"recipe": r, "converged": ok, "iterations": it} for r, ok, it in fits],
        # spans of the import, the first traced pass and the probe pass
        "spans": [s for t in (first, traced[0], probe) if t for s in t.spans],
    }
    return metrics, counts, details, ops
