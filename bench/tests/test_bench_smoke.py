"""Smoke test of the benchmark at tiny sizes (``--scale smoke``).

Every workload must run end to end and traced, pass its output checks and
report the metrics BENCHMARK.json declares. No timing is checked. The
in-process tests pin the traced run to the CLI: it must write what the CLI
writes, record the layer calls under each CLI call, and mark a call whose
layer signature changed as unavailable instead of aborting.

The benchmark's modules are importable only inside the tests that ask for
them (the ``bench_modules`` fixture), so collecting this file does not
change how other tests find their modules.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SEED = 3

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--seed", str(SEED), "--seconds", "1", *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def bench_modules(monkeypatch):
    """(run, replay, workloads), removed from sys.path and sys.modules after."""
    monkeypatch.syspath_prepend(SRC)
    monkeypatch.syspath_prepend(BENCH)
    names = ("run", "replay", "workloads")
    yield tuple(importlib.import_module(name) for name in names)
    for name in names:
        module = sys.modules.get(name)
        if module is not None and getattr(module, "__file__", "").startswith(BENCH):
            del sys.modules[name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_runs_and_checks_pass(workload):
    result = result_of(bench("--workload", workload, "--trace", "0", "--scale", "smoke"))
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result = result_of(bench("--workload", workload, "--trace", "1", "--scale", "smoke"))
    assert result["correct"] and result["failed"] == 0, result
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}


def test_traced_run_writes_what_the_cli_writes(tmp_path, bench_modules):
    run, replay, workloads = bench_modules
    wl = workloads.build("toolkit-session", SEED, str(tmp_path / "inputs"), "smoke")
    tracer = replay.Tracer("test")
    _, errors = replay.replay_pass(wl, tracer, str(tmp_path / "traced"))
    assert errors == {}

    env = run.child_env()
    for call in wl.calls:
        name = call.dirname
        proc = run.cli(call.argv, str(tmp_path / "cli" / name), env, str(tmp_path / "log" / name))
        assert proc.failure is None, proc.failure
        assert run.output_digests(str(tmp_path / "cli" / name)) == run.output_digests(
            str(tmp_path / "traced" / name)
        ), call.label

    calls = {s["id"]: s["name"] for s in tracer.spans if s["parent"] is None}
    assert sorted(calls.values()) == sorted(f"call.{c.label}" for c in wl.calls)
    children = {}
    for s in tracer.spans:
        if s["parent"] is not None:
            children.setdefault(calls[s["parent"]], set()).add(s["name"])
    assert "experiment.run_ensemble" in children["call.experiment"]
    assert "dataio.write_events_jsonl" in children["call.experiment"]
    assert "estimation.lorentzian" in children["call.fit:lorentzian"]
    assert "fibermode.solve_fundamental_mode" in children["call.mode-solve"]
    assert {"ringdown.integrate_ringdown", "svgplot.triptych"} <= children["call.ringdown"]


def test_changed_layer_signature_is_unavailable(tmp_path, monkeypatch, bench_modules):
    _, replay, workloads = bench_modules
    from fibercavity import fibermode

    monkeypatch.setattr(fibermode, "solve_lp01", lambda: None)
    wl = workloads.build("toolkit-session", SEED, str(tmp_path / "inputs"), "smoke")
    _, errors = replay.replay_pass(wl, replay.Tracer("test"), str(tmp_path / "traced"))
    assert list(errors) == ["mode-solve"]
    assert errors["mode-solve"].startswith("unavailable: fibermode.solve_lp01: TypeError")


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "ensemble-narrow", "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
