"""--dump-config output pinned against golden text for every subcommand.

The resolved document is what the manifest records and what a replay runs
from, so any change to it changes what old manifests reproduce. Each case
runs in a directory holding the config documents it names.
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from fibercavity.cli import EXIT_OK, main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "dump_config"


def mhz(value):
    return {"value": value, "unit": "two_pi_mhz"}


CONFIGS = {
    "spectrum.json": {
        "system": {"g": mhz(4.3), "cavity_detuning": {"value": -1.5e6, "unit": "rad_per_s"}},
        "grid": {"delta_min_mhz": -12.5, "delta_max_mhz": 30, "points": 9},
    },
    "ringdown.json": {
        "ringdown": {"kappa2": mhz(3.32), "kappa_s": mhz(80.0), "s0": 2},
        "grid": {"t_min_ns": -5, "points": 101},
        "method": "integrate",
    },
    "fixed.json": {"g": mhz(0.0), "gamma": mhz(2.5)},
    "fit.json": {"recipe": "ringdown-tail", "data": "trace.csv", "tail_start_ns": 30, "seed": 3},
    "mode_indices.json": {
        "fiber": {"core_radius_um": 0.35, "n_core": 1.46, "n_clad": 1.45, "wavelength_nm": 780.241},
        "cavity": {"length_m": 1.2, "effective_index": 1.44},
        "atom": {"transition_wavelength_nm": 780.241, "dipole_moment_cm": 2.5e-29},
    },
    "mode_na.json": {"fiber": {"numerical_aperture": 0.2, "core_radius_um": 1.9}},
    "experiment.json": {
        "system": {"kappa2": mhz(2.9)},
        "sequence": {
            "load_probability": 0.4,
            "g_max": mhz(6.0),
            "detection": {"power_w": 1e-12, "detuning": mhz(0.5), "wavelength_nm": 852.3},
            "spectroscopy": {"duration_s": 0.004},
            "bin_edges": [0.1, 0.3, 0.5, 0.7, 0.9],
            "poisson_loading": True,
            "normalization_drift": 1e-5,
            "hold_time_s": 0.002,
        },
        "detunings": {"min": mhz(-10.0), "max": mhz(10.0), "points": 11},
    },
}

SEED = ["--seed", "7"]
CASES = {
    "spectrum": ["spectrum", *SEED],
    "spectrum-grid": [
        "spectrum", "--config", "spectrum.json", "--delta-min-mhz", "-10", "--points", "5",
        "--g-list-mhz", "1.3,7.8", *SEED,
    ],
    "ringdown": ["ringdown", *SEED],
    "ringdown-config": ["ringdown", "--config", "ringdown.json", "--t-max-ns", "120", *SEED],
    "fit-lorentzian": ["fit", "--recipe", "lorentzian", "--data", "data.csv", *SEED],
    "fit-lorentzian-float": [
        "fit", "--recipe", "lorentzian", "--data", "data.csv", "--float-center", *SEED,
    ],
    "fit-rabi-g": ["fit", "--recipe", "rabi-g", "--data", "data.csv", *SEED],
    "fit-rabi-g-fixed": [
        "fit", "--recipe", "rabi-g", "--data", "data.csv", "--fixed", "fixed.json", *SEED,
    ],
    "fit-exponential": ["fit", "--recipe", "exponential", "--data", "data.csv", *SEED],
    "fit-ringdown-tail": [
        "fit", "--recipe", "ringdown-tail", "--data", "data.csv", "--tail-start-ns", "25", *SEED,
    ],
    "fit-config": ["fit", "--config", "fit.json"],
    "mode-solve": ["mode-solve", *SEED],
    "mode-solve-indices": ["mode-solve", "--config", "mode_indices.json", *SEED],
    "mode-solve-na": ["mode-solve", "--config", "mode_na.json", *SEED],
    "experiment": ["experiment", *SEED],
    "experiment-config": [
        "experiment", "--config", "experiment.json", "--sequences", "50",
        "--load-probability", "0.25", *SEED,
    ],
}


def dump_config(case: str, directory: pathlib.Path) -> str:
    """Run CASES[case] with --dump-config in directory; return what it prints."""
    for name, doc in CONFIGS.items():
        (directory / name).write_text(json.dumps(doc))
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out):
            assert main(CASES[case] + ["--dump-config"]) == EXIT_OK
    finally:
        os.chdir(cwd)
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_dump_config_matches_golden(case, tmp_path):
    assert dump_config(case, tmp_path) == (GOLDEN / f"{case}.json").read_text()


@pytest.mark.parametrize(
    "argv, primary",
    [
        (["spectrum", "--points", "7", "--g-list-mhz", "2.9,7.8"], "spectrum_g2.900.csv"),
        (["ringdown", "--points", "11", "--method", "analytic"], "ringdown_analytic.csv"),
        (["mode-solve"], "mode_solution.json"),
        (["experiment", "--sequences", "20"], "events.jsonl"),
    ],
)
def test_manifest_records_the_dumped_config(argv, primary, tmp_path, capsys):
    assert main(argv + ["--seed", "3", "--dump-config"]) == EXIT_OK
    dumped = json.loads(capsys.readouterr().out)
    assert main(argv + ["--seed", "3", "--out", str(tmp_path)]) == EXIT_OK
    manifest = json.loads((tmp_path / f"{primary}.manifest.json").read_text())
    assert manifest["config"] == dumped
