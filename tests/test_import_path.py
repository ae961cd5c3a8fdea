"""scipy stays off the import path of the CLI and of every subcommand,
``mode-solve`` included. numpy.random stays off the import path of the CLI,
numpy.ma off every step of SCIPY_FREE_STEPS, and hashlib (which loads
OpenSSL) off the CLI import and the steps that do not load numpy.random.

Each check runs in a fresh interpreter, because other test modules import
scipy into this one. The child calls ``fibercavity.cli.main`` step by step
and appends, after each step, its exit code and the scipy, numpy.random,
numpy.ma and hashlib modules loaded so far to ``steps.jsonl``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fibercavity
from fibercavity import from_two_pi_mhz
from fibercavity.dataio import spectrum_to_csv
from fibercavity.estimation import Spectrum

CHILD = """
import json, sys

def loaded(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

def record(name, code):
    step = {"step": name, "exit": code, "scipy": loaded("scipy"),
            "numpy.random": loaded("numpy.random"), "numpy.ma": loaded("numpy.ma"),
            "hashlib": loaded("hashlib")}
    with open("steps.jsonl", "a") as handle:
        handle.write(json.dumps(step) + "\\n")

from fibercavity.cli import main
record("import fibercavity.cli", 0)
for argv in json.loads(sys.argv[1]):
    record(" ".join(argv), main(argv))
"""

SCIPY_FREE_STEPS = [
    ["spectrum", "--out", "spec", "--seed", "1", "--points", "201",
     "--g-list-mhz", "0,7.8", "--plot"],
    ["ringdown", "--out", "rd", "--seed", "1", "--method", "analytic",
     "--t-min-ns", "20", "--t-max-ns", "250", "--points", "301"],
    ["ringdown", "--out", "rd-compare", "--seed", "1", "--compare", "--triptych", "--plot"],
    ["fit", "--recipe", "lorentzian", "--data", "spec/spectrum_g0.000.csv",
     "--out", "fit-lorentzian", "--seed", "1"],
    ["fit", "--recipe", "rabi-g", "--data", "spec/spectrum_g7.800.csv",
     "--fixed", "fixed.json", "--out", "fit-rabi-g", "--seed", "1"],
    ["fit", "--recipe", "exponential", "--data", "recovery.csv",
     "--out", "fit-exponential", "--seed", "1"],
    ["fit", "--recipe", "ringdown-tail", "--data", "rd/ringdown_analytic.csv",
     "--tail-start-ns", "25", "--out", "fit-ringdown-tail", "--seed", "1"],
    ["experiment", "--sequences", "300", "--out", "exp", "--seed", "1"],
]


def run_steps(workdir, steps):
    """Run ``steps`` through ``main`` in a fresh interpreter; return the
    records it wrote, the import record first."""
    src = str(Path(fibercavity.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(steps)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = (workdir / "steps.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == len(steps) + 1, proc.stderr
    return records


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """The records of the CLI import and SCIPY_FREE_STEPS."""
    work = tmp_path_factory.mktemp("session")
    (work / "fixed.json").write_text(json.dumps({"g": {"value": 0.0, "unit": "two_pi_mhz"}}))
    times_ms = np.linspace(0.0, 50.0, 12)
    recovery = Spectrum(times_ms * from_two_pi_mhz(1.0), 1.0 - 0.85 * np.exp(-times_ms / 11.0))
    (work / "recovery.csv").write_text(spectrum_to_csv(recovery))
    return run_steps(work, SCIPY_FREE_STEPS)


def test_no_subcommand_imports_scipy(session, tmp_path):
    for record in session:
        assert record["exit"] == 0, record["step"]
        assert record["scipy"] == [], f"{record['step']} loaded {record['scipy'][:5]}"

    [imported, solved] = run_steps(tmp_path, [["mode-solve", "--out", "ms", "--seed", "1"]])
    assert imported["scipy"] == []
    assert solved["exit"] == 0
    assert solved["scipy"] == [], f"mode-solve loaded {solved['scipy'][:5]}"


def test_numpy_random_loads_on_the_first_ensemble_not_on_import(tmp_path):
    [imported, experiment] = run_steps(tmp_path, [SCIPY_FREE_STEPS[-1]])
    assert imported["numpy.random"] == []
    assert experiment["exit"] == 0
    assert "numpy.random" in experiment["numpy.random"]


def test_numpy_ma_and_hashlib_stay_off_the_scipy_free_steps(session):
    # the CLI import, then SCIPY_FREE_STEPS
    assert [record["step"] for record in session[1:]] == [" ".join(a) for a in SCIPY_FREE_STEPS]
    for record in session:
        assert record["numpy.ma"] == [], record["step"]
    # the experiment step loads hashlib: numpy.random imports secrets
    *no_hashlib, experiment = session
    assert experiment["step"].startswith("experiment")
    for record in no_hashlib:
        assert record["hashlib"] == [], record["step"]
