import importlib.util
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

from fibercavity import (
    SystemParams, estimation, experiment, from_two_pi_mhz, normalized_transmission,
)
from fibercavity.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from fibercavity.dataio import (
    DataFormatError,
    read_spectrum_csv,
    read_trace_csv,
    spectrum_to_csv,
    trace_to_csv,
)
from fibercavity.estimation import Spectrum
from fibercavity.fibermode import J0_FIRST_ZERO
from fibercavity.ringdown import RingdownTrace

TW = from_two_pi_mhz(1.0)


def run_cli(*args) -> int:
    return main(list(args))


def load_manifest(output) -> dict:
    """The manifest written beside ``output``; it holds the nine manifest keys."""
    with open(str(output) + ".manifest.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    assert set(doc) == {
        "subcommand", "config", "inputs", "outputs", "seed", "tool_version", "numpy_version",
        "python_version", "duration_s",
    }
    return doc


def test_spectrum_matches_library(tmp_path):
    out = tmp_path / "spec"
    assert run_cli("spectrum", "--out", str(out), "--seed", "1", "--points", "101") == EXIT_OK
    spectrum = read_spectrum_csv(out / "spectrum.csv")
    params = SystemParams(
        kappa1=0.12 * TW, kappa2=3.08 * TW, kappa_loss=3.2 * TW,
        gamma=2.6 * TW, g=7.8 * TW,
    )
    np.testing.assert_allclose(
        spectrum.values,
        normalized_transmission(params, spectrum.deltas),
        rtol=1e-12,
    )
    manifest = load_manifest(out / "spectrum.csv")
    assert manifest["subcommand"] == "spectrum"
    assert manifest["seed"] == 1


def test_manifest_records_the_numpy_and_python_versions(tmp_path):
    out = tmp_path / "sp"
    assert run_cli("spectrum", "--out", str(out), "--seed", "1") == EXIT_OK
    doc = load_manifest(out / "spectrum.csv")
    assert doc["numpy_version"] == np.__version__
    assert platform.python_version().startswith(doc["python_version"])


def test_spectrum_zero_coupling_is_lorentzian(tmp_path):
    out = tmp_path / "spec"
    config = {"system": {"g": {"value": 0.0, "unit": "two_pi_mhz"}}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli(
        "spectrum", "--config", str(path), "--out", str(out), "--seed", "1", "--plot"
    ) == EXIT_OK
    spectrum = read_spectrum_csv(out / "spectrum.csv")
    kappa = (0.12 + 3.08 + 3.2) * TW
    lorentzian = kappa**2 / (spectrum.deltas**2 + kappa**2)
    np.testing.assert_allclose(spectrum.values, lorentzian, rtol=1e-12)
    svg = (out / "spectrum.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_spectrum_overlay_family(tmp_path):
    out = tmp_path / "spec"
    assert run_cli(
        "spectrum", "--out", str(out), "--seed", "1",
        "--g-list-mhz", "1.3,1.9,2.9,4.3,7.8", "--points", "51",
    ) == EXIT_OK
    names = sorted(p.name for p in out.glob("spectrum_g*.csv"))
    assert names == [
        "spectrum_g1.300.csv",
        "spectrum_g1.900.csv",
        "spectrum_g2.900.csv",
        "spectrum_g4.300.csv",
        "spectrum_g7.800.csv",
    ]


def test_ringdown_critical_null_and_compare(tmp_path, capsys):
    out = tmp_path / "rd"
    config = {
        "ringdown": {
            "kappa2": {"value": 3.32, "unit": "two_pi_mhz"},  # kappa1 + kappa_loss
        }
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli(
        "ringdown", "--config", str(path), "--out", str(out), "--seed", "2",
        "--compare", "--triptych",
    ) == EXIT_OK
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["max_relative_deviation"] < 1e-6
    trace = read_trace_csv(out / "ringdown_analytic.csv")
    pre_switch = trace.intensities[trace.times < 0.0]
    assert np.all(pre_switch < 1e-20)
    assert (out / "ringdown_triptych.svg").exists()


def test_trace_csv_bit_exact_round_trip(tmp_path):
    out = tmp_path / "rd"
    assert run_cli("ringdown", "--out", str(out), "--seed", "2", "--method", "analytic") == EXIT_OK
    with open(out / "ringdown_analytic.csv", newline="") as handle:
        raw = handle.read()
    trace = read_trace_csv(out / "ringdown_analytic.csv")
    assert trace_to_csv(trace) == raw
    again = trace_to_csv(read_trace_csv(out / "ringdown_analytic.csv"))
    assert again == raw


def test_fit_lorentzian_round_trip(tmp_path):
    spec_out = tmp_path / "spec"
    config = {"system": {"g": {"value": 0.0, "unit": "two_pi_mhz"}}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert run_cli("spectrum", "--config", str(cfg), "--out", str(spec_out), "--seed", "1") == EXIT_OK
    fit_out = tmp_path / "fit"
    assert run_cli(
        "fit", "--recipe", "lorentzian", "--data", str(spec_out / "spectrum.csv"),
        "--out", str(fit_out), "--seed", "1",
    ) == EXIT_OK
    doc = json.loads((fit_out / "fit_result.json").read_text())
    assert doc["converged"] is True
    assert doc["derived"]["kappa"]["value"] == pytest.approx(6.4, rel=1e-6)


def test_fit_rabi_g_round_trip(tmp_path):
    spec_out = tmp_path / "spec"
    assert run_cli("spectrum", "--out", str(spec_out), "--seed", "1") == EXIT_OK
    fixed = tmp_path / "fixed.json"
    fixed.write_text(json.dumps({"g": {"value": 0.0, "unit": "two_pi_mhz"}}))
    fit_out = tmp_path / "fit"
    assert run_cli(
        "fit", "--recipe", "rabi-g", "--data", str(spec_out / "spectrum.csv"),
        "--fixed", str(fixed), "--out", str(fit_out), "--seed", "1",
    ) == EXIT_OK
    doc = json.loads((fit_out / "fit_result.json").read_text())
    assert doc["derived"]["g"]["value"] == pytest.approx(7.8, rel=1e-6)


def test_fit_ringdown_tail_round_trip(tmp_path):
    rd_out = tmp_path / "rd"
    assert run_cli(
        "ringdown", "--out", str(rd_out), "--seed", "1", "--method", "analytic",
        "--t-min-ns", "20", "--t-max-ns", "250", "--points", "301",
    ) == EXIT_OK
    fit_out = tmp_path / "fit"
    assert run_cli(
        "fit", "--recipe", "ringdown-tail", "--data", str(rd_out / "ringdown_analytic.csv"),
        "--tail-start-ns", "25", "--out", str(fit_out), "--seed", "1",
    ) == EXIT_OK
    doc = json.loads((fit_out / "fit_result.json").read_text())
    assert doc["derived"]["photon_lifetime_ns"] == pytest.approx(12.43, abs=0.05)
    assert doc["derived"]["kappa"]["value"] == pytest.approx(6.4, rel=1e-2)


@pytest.mark.parametrize(
    "rows", ["0,1\n10,1\n20,1\n30,1\n", "0,1\n10,2\n20,4\n30,8\n"], ids=["flat", "rising"]
)
def test_fit_ringdown_tail_that_does_not_decay_is_numeric_failure(tmp_path, capsys, rows):
    data = tmp_path / "trace.csv"
    data.write_text("t_ns,intensity_normalized\n" + rows)
    fit_out = tmp_path / "fit"
    assert run_cli(
        "fit", "--recipe", "ringdown-tail", "--data", str(data), "--tail-start-ns", "0",
        "--out", str(fit_out), "--seed", "1",
    ) == EXIT_NUMERIC
    assert "tail does not decay" in capsys.readouterr().err
    assert not (fit_out / "fit_result.json").exists()


def test_fit_exponential_round_trip(tmp_path):
    # exponential recipe reads the x column as time in ms
    times_ms = np.linspace(0.0, 50.0, 12)
    values = 1.0 - 0.85 * np.exp(-times_ms / 11.0)
    spectrum = Spectrum(times_ms * TW, values)
    data = tmp_path / "recovery.csv"
    data.write_text(spectrum_to_csv(spectrum))
    fit_out = tmp_path / "fit"
    assert run_cli(
        "fit", "--recipe", "exponential", "--data", str(data),
        "--out", str(fit_out), "--seed", "1",
    ) == EXIT_OK
    doc = json.loads((fit_out / "fit_result.json").read_text())
    assert doc["derived"]["lifetime_ms"] == pytest.approx(11.0, rel=1e-6)


def test_mode_solve_report(tmp_path, capsys):
    out = tmp_path / "mode"
    assert run_cli("mode-solve", "--out", str(out), "--seed", "1") == EXIT_OK
    doc = json.loads((out / "mode_solution.json").read_text())
    assert doc["g_est"]["value"] == pytest.approx(2.098, abs=0.02)
    assert doc["single_mode"] is False
    assert doc["warnings"]
    assert doc["lp01_relative_difference"] < 1e-4
    assert 1.4525 < doc["n_eff"] < 1.4575


def test_mode_solve_invalid_indices(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"fiber": {"n_core": 1.44, "n_clad": 1.45}}))
    assert run_cli("mode-solve", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_CONFIG


def test_mode_solve_degenerate_fiber_is_numeric_failure(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {"fiber": {"core_radius_um": 0.01, "numerical_aperture": 0.12}}
        )
    )
    assert run_cli("mode-solve", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_NUMERIC


@pytest.mark.parametrize("numerical_aperture", [18.0, 34.0])
def test_mode_solve_far_past_cutoff_solves(tmp_path, capsys, numerical_aperture):
    # V = 372 and 702: K1(w)^2 underflows, but the cladding intensity
    # J1(u)^2 (K(wR) / K1(w))^2 does not
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"fiber": {"numerical_aperture": numerical_aperture}}))
    out = tmp_path / "mode"
    assert run_cli("mode-solve", "--config", str(cfg), "--out", str(out)) == EXIT_OK
    assert capsys.readouterr().err == ""
    doc = json.loads((out / "mode_solution.json").read_text(encoding="utf-8"))
    fiber = load_manifest(out / "mode_solution.json")["config"]["fiber"]
    assert 0.0 < doc["effective_area_um2"] < math.inf
    k0a = 2.0 * math.pi * fiber["core_radius_um"] / (fiber["wavelength_nm"] * 1e-3)
    u = k0a * math.sqrt(fiber["n_core"] ** 2 - doc["n_eff"] ** 2)
    assert 0.0 < u < J0_FIRST_ZERO


def test_mode_solve_takes_the_largest_n_eff_root_at_high_index_contrast(tmp_path, capsys):
    # n_core/n_clad = 64 at V = 2.385: the HE11 residual has two more roots
    # near cutoff, at smaller n_eff, so the whole u span is no bracket
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"fiber": {
        "core_radius_um": 1.0530096350483442e-30, "n_core": 1.018258642951334e28,
        "n_clad": 1.5960413390949184e26, "wavelength_nm": 28.243777588214685,
    }}))
    out = tmp_path / "mode"
    assert run_cli("mode-solve", "--config", str(cfg), "--out", str(out)) == EXIT_OK
    assert capsys.readouterr().err == ""
    doc = json.loads((out / "mode_solution.json").read_text(encoding="utf-8"))
    assert doc["n_eff"] == 2.966411545290785e27


@pytest.mark.parametrize(
    "fiber",
    [
        # V = 1238: K1(w) underflows to 0, so the HE11 residual is NaN
        {"numerical_aperture": 60.0},
        # V = 2e-184: V^2 underflows, and the HE11 residual divided by zero
        {"core_radius_um": 2.5e-189},
    ],
)
def test_mode_solve_beyond_double_precision_is_numeric_failure(tmp_path, capsys, fiber):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"fiber": fiber}))
    out = tmp_path / "mode"
    assert run_cli("mode-solve", "--config", str(cfg), "--out", str(out)) == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not out.exists()


def test_mode_solve_whose_n_eff_rounds_onto_n_clad_is_numeric_failure(tmp_path, capsys):
    # a relative index step of 7.4e-15: the root's n_eff rounds to n_clad, so w = 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"fiber": {
        "core_radius_um": 1340.229393233965, "n_core": 1.0018949902522247,
        "n_clad": 1.0018949902522172, "wavelength_nm": 2.402276266194462,
    }}))
    out = tmp_path / "mode"
    assert run_cli("mode-solve", "--config", str(cfg), "--out", str(out)) == EXIT_NUMERIC
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["numerical failure: HE11 n_eff rounds onto n_clad = 1.0018949902522172, so w = 0"]
    assert not out.exists()


@pytest.mark.parametrize("doc, message", [
    # the solved volume, 7.7e292 m^3, is finite, but not in um^3
    ({"fiber": {"core_radius_um": 300}, "cavity": {"length_m": 1e300}},
     "mode volume 7.678e+292 m^3 overflows in um^3"),
    # g overflows only at the solved volume, which the dump does not know
    ({"atom": {"dipole_moment_cm": 1e154}}, "coupling rate overflows at the solved mode volume "),
])
def test_mode_solve_fault_that_only_the_solve_reveals_is_numeric_failure(
    tmp_path, capsys, doc, message
):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "mode"
    argv = ("mode-solve", "--config", str(cfg), "--out", str(out))
    assert run_cli(*argv, "--dump-config") == EXIT_OK
    capsys.readouterr()
    assert run_cli(*argv) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.err.startswith(f"numerical failure: {message}")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("length_m", [2.2250738585072014e-308, 9.99e-7])
@pytest.mark.parametrize("extra", [[], ["--dump-config"]])
def test_mode_solve_rejects_a_cavity_shorter_than_a_micrometre(tmp_path, capsys, length_m, extra):
    # at 2.2e-308 m, 2 hbar eps0 V underflows to 0 in coupling_rate
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"cavity": {"length_m": length_m}}))
    out = tmp_path / "mode"
    assert run_cli("mode-solve", "--config", str(cfg), "--out", str(out), *extra) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: /cavity/length_m: ")
    assert not out.exists()


def test_mode_solve_accepts_a_one_micrometre_cavity(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"cavity": {"length_m": 1e-6}}))
    out = tmp_path / "mode"
    assert run_cli("mode-solve", "--config", str(cfg), "--out", str(out)) == EXIT_OK
    assert json.loads((out / "mode_solution.json").read_text())["g_est"]["value"] > 0.0


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's workload builder, loaded from bench/ for one test."""
    path = pathlib.Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_toolkit_session_fits_converge_at_bench_seed_84(tmp_path, workloads):
    # on these inputs the engine once stopped unconverged at the optimum
    # ("damping exhausted"); the MINPACK ftol test at exhausted damping fixed it
    session = workloads.build("toolkit-session", 84, str(tmp_path / "inputs"))
    fits = [call for call in session.calls if call.subcommand == "fit"]
    assert len(fits) == 4
    for call in fits:
        out = tmp_path / call.dirname
        assert run_cli(*call.argv, "--out", str(out)) == EXIT_OK, call.label
        assert json.loads((out / "fit_result.json").read_text())["converged"] is True
        assert call.check(str(out)) == [], call.label


def test_experiment_outputs_and_replay(tmp_path):
    out1 = tmp_path / "e1"
    assert run_cli(
        "experiment", "--out", str(out1), "--seed", "11", "--sequences", "200"
    ) == EXIT_OK
    events = (out1 / "events.jsonl").read_text().splitlines()
    assert len(events) == 200
    summary = json.loads((out1 / "summary.json").read_text())
    assert sum(summary["level_occupancy"].values()) == 200

    manifest = load_manifest(out1 / "events.jsonl")
    replay_cfg = tmp_path / "replay.json"
    replay_cfg.write_text(json.dumps(manifest["config"]))
    out2 = tmp_path / "e2"
    assert run_cli(
        "experiment", "--config", str(replay_cfg), "--out", str(out2),
        "--seed", str(manifest["seed"]),
    ) == EXIT_OK
    for name in sorted(os.listdir(out1)):
        if name.endswith(".manifest.json"):
            continue
        assert (out2 / name).read_bytes() == (out1 / name).read_bytes(), name


def test_the_experiment_job_frees_the_ensemble_before_the_first_fit(tmp_path, monkeypatch):
    # the fits page in LAPACK; the count table must not be held under them
    run_ensemble, fit_empty_cavity = experiment.run_ensemble, estimation.fit_empty_cavity
    ensembles, alive = [], []

    def tracked(*args, **kwargs):
        ensemble = run_ensemble(*args, **kwargs)
        ensembles.append(weakref.ref(ensemble))
        return ensemble

    def first_fit(spectrum):
        alive.append(ensembles[0]() is not None)
        return fit_empty_cavity(spectrum)

    monkeypatch.setattr(experiment, "run_ensemble", tracked)
    monkeypatch.setattr(estimation, "fit_empty_cavity", first_fit)
    out = tmp_path / "e"
    assert run_cli("experiment", "--out", str(out), "--seed", "11", "--sequences", "200") == EXIT_OK
    assert len(ensembles) == 1 and alive == [False]


def test_a_numpy_whose_seeding_the_replay_misses_fails_before_writing(
    tmp_path, monkeypatch, capsys
):
    # a changed hash constant stands in for a numpy that seeds otherwise
    monkeypatch.setattr(experiment, "_INIT_A", experiment._INIT_A ^ 1)
    out = tmp_path / "out"
    argv = ("experiment", "--out", str(out), "--seed", "3", "--sequences", "20")
    assert run_cli(*argv) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.err.startswith(f"numerical failure: numpy {np.__version__} seeds ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()
    monkeypatch.undo()
    assert run_cli(*argv) == EXIT_OK


def test_spectrum_manifest_replays_byte_identically(tmp_path):
    out1 = tmp_path / "s1"
    assert run_cli(
        "spectrum", "--out", str(out1), "--delta-min-mhz", "-10", "--delta-max-mhz", "10",
        "--points", "5", "--g-list-mhz", "1.3,7.8",
    ) == EXIT_OK
    manifest = load_manifest(out1 / "spectrum_g1.300.csv")
    replay_cfg = tmp_path / "replay.json"
    replay_cfg.write_text(json.dumps(manifest["config"]))
    out2 = tmp_path / "s2"
    assert run_cli("spectrum", "--config", str(replay_cfg), "--out", str(out2)) == EXIT_OK
    names = sorted(p.name for p in out1.glob("*.csv"))
    assert names == ["spectrum_g1.300.csv", "spectrum_g7.800.csv"]
    for name in names:
        assert (out2 / name).read_bytes() == (out1 / name).read_bytes(), name


def test_experiment_zero_sequences(tmp_path):
    out = tmp_path / "e0"
    assert run_cli(
        "experiment", "--out", str(out), "--seed", "1", "--sequences", "0"
    ) == EXIT_OK
    assert (out / "events.jsonl").read_text() == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sequences"] == 0
    assert "note" in summary


def test_seed_omission_is_recorded_and_replayable(tmp_path):
    out1 = tmp_path / "a"
    assert run_cli("experiment", "--out", str(out1), "--sequences", "50") == EXIT_OK
    manifest = load_manifest(out1 / "events.jsonl")
    out2 = tmp_path / "b"
    assert run_cli(
        "experiment", "--out", str(out2), "--sequences", "50",
        "--seed", str(manifest["seed"]),
    ) == EXIT_OK
    assert (out1 / "events.jsonl").read_bytes() == (out2 / "events.jsonl").read_bytes()


def test_dump_config_prints_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "x"
    assert run_cli("spectrum", "--out", str(out), "--seed", "5", "--dump-config") == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 5
    assert doc["grid"]["points"] == 501
    assert not out.exists()
    for argv in (
        ["ringdown", "--compare", "--triptych", "--plot"],
        ["fit", "--recipe", "rabi-g", "--data", str(tmp_path / "absent.csv")],
        ["mode-solve"],
        ["experiment", "--plot"],
    ):
        assert run_cli(*argv, "--out", str(out), "--seed", "5", "--dump-config") == EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out)["seed"] == 5, argv
        assert captured.err == ""
        assert not out.exists()


def test_the_manifest_lists_every_output_in_the_order_written(tmp_path, monkeypatch):
    deltas = np.linspace(-25.0, 25.0, 101) * TW
    params = SystemParams(
        kappa1=0.12 * TW, kappa2=3.08 * TW, kappa_loss=3.2 * TW, gamma=2.6 * TW, g=7.8 * TW,
    )
    data = {"empty": tmp_path / "empty.csv", "rabi": tmp_path / "rabi.csv",
            "recovery": tmp_path / "recovery.csv", "trace": tmp_path / "trace.csv"}
    data["empty"].write_text(spectrum_to_csv(
        Spectrum(deltas, normalized_transmission(params.with_g(0.0), deltas))
    ))
    data["rabi"].write_text(spectrum_to_csv(
        Spectrum(deltas, normalized_transmission(params, deltas))
    ))
    times_ms = np.linspace(0.0, 50.0, 12)
    data["recovery"].write_text(spectrum_to_csv(
        Spectrum(times_ms * TW, 1.0 - 0.85 * np.exp(-times_ms / 11.0))
    ))
    times = np.linspace(20e-9, 250e-9, 301)
    data["trace"].write_text(trace_to_csv(RingdownTrace(times, np.exp(-2 * 6.4 * TW * times))))
    calls = [
        (["spectrum", "--plot", "--g-list-mhz", "1.3,4.3,7.8"], None),
        (["ringdown", "--compare", "--triptych", "--plot"], None),
        (["fit", "--recipe", "lorentzian"], "empty"),
        (["fit", "--recipe", "rabi-g"], "rabi"),
        (["fit", "--recipe", "exponential"], "recovery"),
        (["fit", "--recipe", "ringdown-tail", "--tail-start-ns", "25"], "trace"),
        (["mode-solve"], None),
        (["experiment", "--plot", "--sequences", "200"], None),
    ]
    # every output is written to a temporary file and renamed onto its path
    written, replace = [], os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: (written.append(dst), replace(src, dst)))
    for i, (argv, name) in enumerate(calls):
        out = tmp_path / f"out{i}"
        inputs = [] if name is None else ["--data", str(data[name])]
        written.clear()
        assert run_cli(*argv, *inputs, "--out", str(out), "--seed", "1") == EXIT_OK, argv
        *outputs, manifest_path = written
        assert manifest_path == outputs[0] + ".manifest.json", argv
        manifest = load_manifest(outputs[0])
        assert manifest["outputs"] == outputs, argv
        assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in written), argv
        assert manifest["inputs"] == inputs[1:], argv


def test_bad_config_reports_json_pointer(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"grid": {"points": "many"}}))
    assert run_cli("spectrum", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_CONFIG
    message = capsys.readouterr().err
    assert "/grid/points" in message


def test_invalid_rate_config(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"system": {"gamma": {"value": 0.0, "unit": "two_pi_mhz"}}}))
    assert run_cli("spectrum", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_CONFIG
    assert "gamma" in capsys.readouterr().err


def test_missing_data_file_is_io_error(tmp_path):
    assert run_cli(
        "fit", "--recipe", "lorentzian", "--data", str(tmp_path / "absent.csv"),
        "--out", str(tmp_path),
    ) == EXIT_IO


def test_ringdown_kappa_s_below_kappa_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps({"ringdown": {"kappa_s": {"value": 1.0, "unit": "two_pi_mhz"}}})
    )
    assert run_cli("ringdown", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_CONFIG
    assert "kappa_s" in capsys.readouterr().err


def test_writers_refuse_non_finite():
    # each refusal names the column by its header cell
    deltas = np.array([0.0, 1.0])
    with pytest.raises(DataFormatError, match="column transmission_normalized$"):
        spectrum_to_csv(Spectrum(deltas, np.array([1.0, math.nan])))
    with pytest.raises(DataFormatError, match="column sigma$"):
        spectrum_to_csv(Spectrum(deltas, np.array([1.0, 0.5]), np.array([0.1, math.nan])))
    trace = RingdownTrace(np.array([0.0, 1e-9]), np.array([1.0, 0.5]))
    object.__setattr__(trace, "intensities", np.array([1.0, math.inf]))
    with pytest.raises(DataFormatError, match="column intensity_normalized$"):
        trace_to_csv(trace)
    # 1e300 s is finite, but not in ns
    with pytest.raises(DataFormatError, match="column t_ns$"):
        trace_to_csv(RingdownTrace([0.0, 1e300], [1.0, 0.5]))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_fit_fixed_malformed_json_is_config_error(tmp_path, capsys):
    fixed = tmp_path / "fixed.json"
    fixed.write_text('{"g": {"value": 0.0, ')
    assert run_cli(
        "fit", "--recipe", "rabi-g", "--data", str(tmp_path / "absent.csv"),
        "--fixed", str(fixed), "--out", str(tmp_path / "fit"),
    ) == EXIT_CONFIG
    assert "invalid JSON in" in capsys.readouterr().err


@pytest.mark.parametrize(
    "recipe, header",
    [("lorentzian", "delta_two_pi_mhz,transmission_normalized"),
     ("ringdown-tail", "t_ns,intensity_normalized")],
)
@pytest.mark.parametrize("cell", ["abc", "inf"])
def test_csv_bad_cell_is_data_format_error(tmp_path, capsys, recipe, header, cell):
    data = tmp_path / "data.csv"
    data.write_text(f"{header}\n1.0,0.5\n2.0,{cell}\n3.0,0.25\n")
    assert run_cli(
        "fit", "--recipe", recipe, "--data", str(data), "--out", str(tmp_path / "fit"),
    ) == EXIT_CONFIG
    assert "line 3" in capsys.readouterr().err


def test_fit_on_a_csv_without_rows_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("delta_two_pi_mhz,transmission_normalized\n")
    out = tmp_path / "fit"
    assert run_cli("fit", "--recipe", "lorentzian", "--data", str(data), "--out", str(out)) == (
        EXIT_CONFIG
    )
    assert "spectrum holds no points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--float-center"]], ids=["fixed-center", "float-center"])
def test_lorentzian_fit_of_a_spectrum_with_no_positive_value_starts_in_its_bounds(
    tmp_path, capsys, extra
):
    # The amplitude bound is [0, inf): the recipe's start is not the config's
    # fault, so this is a numerical outcome, not a config error.
    data = tmp_path / "data.csv"
    data.write_text("delta_two_pi_mhz,transmission_normalized\n-1,-0.5\n0,-1\n1,-0.5\n")
    out = tmp_path / "fit"
    assert run_cli(
        "fit", "--recipe", "lorentzian", "--data", str(data), *extra, "--out", str(out),
        "--seed", "1",
    ) == EXIT_NUMERIC
    assert "parameter error" not in capsys.readouterr().err
    doc = json.loads((out / "fit_result.json").read_text())
    assert doc["converged"] is False
    assert doc["estimates"][0] >= 0.0


@pytest.mark.parametrize(
    "subcommand, config, pointer",
    [
        ("experiment", {"sequence": {"bin_edges": [math.nan, 0.3, 0.5, 0.7, 0.9]}},
         "/sequence/bin_edges/0"),
        ("experiment", {"sequence": {"hold_time_s": math.nan}}, "/sequence/hold_time_s"),
        ("experiment", {"sequence": {"background_rate_cps": math.inf}},
         "/sequence/background_rate_cps"),
        ("ringdown", {"ringdown": {"s0": math.inf}}, "/ringdown/s0"),
        ("spectrum", {"g_list_two_pi_mhz": [1.3, -math.inf]}, "/g_list_two_pi_mhz/1"),
        ("spectrum", {"grid": {"delta_max_mhz": 10**400}}, "/grid/delta_max_mhz"),
        ("experiment", {"sequence": {"normalization_drift": -0.01}, "sequences": 300},
         "/sequence/normalization_drift"),
        # no empty-cavity transmission to normalize by
        ("spectrum", {"system": {"kappa1": {"value": 0, "unit": "two_pi_mhz"}}}, "/system"),
        ("experiment", {"system": {"kappa2": {"value": 0, "unit": "rad_per_s"}}}, "/system"),
        # gamma * kappa underflows: T(0) = 0/0
        ("spectrum", {"system": {"gamma": {"value": 1e-200, "unit": "rad_per_s"}}}, "/system"),
        ("experiment", {"system": {"gamma": {"value": 1e-200, "unit": "rad_per_s"}},
                        "sequences": 5, "detunings": {"points": 5}}, "/system"),
        # mean counts beyond what numpy's Poisson sampler draws
        ("experiment", {"sequence": {"detection": {"power_w": 1000, "duration_s": 1000}},
                        "sequences": 3, "detunings": {"points": 3}}, "/sequence/detection"),
        ("experiment", {"sequence": {"spectroscopy": {"power_w": 1e-3, "duration_s": 1e9},
                                     "normalization_drift": 1.0},
                        "sequences": 3, "detunings": {"points": 3}}, "/sequence/spectroscopy"),
        # an empty-cavity signal so small that normalized counts, or their
        # squared deviations in the standard errors, overflow
        ("experiment", {"system": {"kappa1": {"value": 1e-300, "unit": "rad_per_s"}},
                        "sequences": 3, "detunings": {"points": 3}}, "/sequence/detection"),
        ("experiment", {"system": {"kappa1": {"value": 2e-164, "unit": "rad_per_s"}},
                        "sequences": 50, "detunings": {"points": 21}}, "/sequence/detection"),
        # 1e8 lifetimes: the explicit integrator would step for hours
        ("ringdown", {"grid": {"t_max_ns": 2.5e9}}, "/grid/t_max_ns"),
        ("fit", {"recipe": "rabi-g", "data": "data.csv",
                 "fixed": {"kappa1": {"value": 0.0, "unit": "two_pi_mhz"}}}, "/fixed"),
    ],
)
def test_bad_numbers_rejected_before_running(tmp_path, capsys, subcommand, config, pointer):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = (subcommand, "--config", str(cfg), "--out", str(out), "--seed", "1")
    assert run_cli(*argv, "--dump-config") == EXIT_CONFIG
    assert pointer + ": " in capsys.readouterr().err
    assert run_cli(*argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: " + pointer + ": ")
    assert captured.out == ""
    assert not out.exists()


def cli_process(*argv) -> subprocess.CompletedProcess:
    """The CLI run in a fresh interpreter that shows every warning on stderr."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONWARNINGS="default")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fibercavity.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_vanishing_rates_print_only_the_config_error(tmp_path):
    # T(0) is 0/0 here; numpy's warning about it must not reach stderr
    tiny = {"value": 1e-300, "unit": "rad_per_s"}
    system = {name: tiny for name in ("kappa1", "kappa2", "gamma", "kappa_loss")}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"system": system}))
    proc = cli_process("spectrum", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: /system: "), proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dump", [[], ["--dump-config"]], ids=["run", "dump-config"])
@pytest.mark.parametrize("method", ["analytic", "integrate", "both"])
@pytest.mark.parametrize("s0", [1e300, 1e305])
def test_a_ringdown_drive_whose_intensity_overflows_is_refused_before_running(
    tmp_path, s0, method, dump
):
    # numpy's overflow warnings used to come first, then a data format error
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"ringdown": {"s0": s0}}))
    out = tmp_path / "out"
    proc = cli_process(
        "ringdown", "--config", str(cfg), "--method", method, "--out", str(out), *dump
    )
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"config error: /ringdown/s0: s0 = {s0:.4g} overflows ")
    assert not out.exists()


def test_non_finite_flag_and_negative_seed_are_config_errors(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("spectrum", "--delta-min-mhz", "nan", "--out", str(out)) == EXIT_CONFIG
    assert "/grid/delta_min_mhz" in capsys.readouterr().err
    assert run_cli("experiment", "--seed", "-1", "--sequences", "3", "--out", str(out)) == EXIT_CONFIG
    assert "/seed" in capsys.readouterr().err
    assert not out.exists()


def _two_pi_mhz(value):
    return {"value": value, "unit": "two_pi_mhz"}


@pytest.mark.parametrize(
    "detunings",
    [
        {"min": _two_pi_mhz(-1.0), "max": _two_pi_mhz(1.0), "points": 5001},
        {"min": _two_pi_mhz(2.0), "max": _two_pi_mhz(2.0), "points": 3},
    ],
)
def test_grid_with_colliding_event_keys_is_rejected(tmp_path, capsys, detunings):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"detunings": detunings}))
    out = tmp_path / "out"
    assert run_cli(
        "experiment", "--config", str(cfg), "--out", str(out), "--seed", "1",
        "--sequences", "2",
    ) == EXIT_CONFIG
    message = capsys.readouterr().err
    assert "/detunings/points" in message and "events.jsonl key" in message
    assert not out.exists()


@pytest.mark.parametrize(
    "ringdown",
    [
        {"kappa1": _two_pi_mhz(0.0), "kappa_loss": _two_pi_mhz(0.0)},  # every panel has kappa 0
        {"kappa_loss": _two_pi_mhz(20.0)},  # the overcoupled panel's kappa exceeds kappa_s
    ],
)
def test_triptych_panels_are_checked_before_running(tmp_path, capsys, ringdown):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"ringdown": ringdown}))
    out = tmp_path / "out"
    argv = ("ringdown", "--config", str(cfg), "--triptych", "--out", str(out))
    for extra in (("--dump-config",), ()):
        assert run_cli(*argv, *extra) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: /ringdown: ")
    assert not out.exists()


def test_single_point_grid_keeps_its_one_key(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"detunings": {"min": _two_pi_mhz(2.0), "max": _two_pi_mhz(2.0),
                                             "points": 1}}))
    out = tmp_path / "out"
    assert run_cli(
        "experiment", "--config", str(cfg), "--out", str(out), "--seed", "1",
        "--sequences", "3",
    ) == EXIT_OK
    lines = (out / "events.jsonl").read_text().splitlines()
    assert [list(json.loads(line)["spectroscopy_counts"]) for line in lines] == [["2.000"]] * 3


def test_overlay_names_that_collide_are_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(
        "spectrum", "--g-list-mhz", "7.8001,7.8004", "--out", str(out), "--seed", "1"
    ) == EXIT_CONFIG
    message = capsys.readouterr().err
    assert "/g_list_two_pi_mhz" in message and "spectrum_g7.800.csv" in message
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--sequences", "0"], ["--dump-config"]])
def test_poisson_loading_with_certain_loading_is_rejected(tmp_path, capsys, extra):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"sequence": {"poisson_loading": True, "load_probability": 1.0}}))
    out = tmp_path / "out"
    assert run_cli(
        "experiment", "--config", str(cfg), "--out", str(out), "--seed", "1", *extra
    ) == EXIT_CONFIG
    message = capsys.readouterr()
    assert "/sequence" in message.err and "poisson_loading" in message.err
    assert message.out == "" and not out.exists()


@pytest.mark.parametrize(
    "argv, config, pointer",
    [
        (["experiment"], {"sequnces": 5, "sequence": {"hold_time_s": 0.5}}, "/sequnces"),
        (["experiment"], {"sequence": {"hold_time": 0.5}}, "/sequence/hold_time"),
        (["fit", "--recipe", "lorentzian", "--data", "absent.csv"], {"tail_start_ns": 5.0},
         "/tail_start_ns"),
        # /seed is the only seed of experiment
        (["experiment"], {"sequence": {"rng_seed": 4}}, "/sequence/rng_seed"),
    ],
)
def test_unknown_config_keys_are_rejected(tmp_path, capsys, argv, config, pointer):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli(*argv, "--config", str(cfg), "--out", str(out), "--seed", "1") == EXIT_CONFIG
    assert f"{pointer}: unknown field" in capsys.readouterr().err
    assert not out.exists()


def test_fit_recipe_that_is_not_a_string_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"recipe": ["rabi-g"], "data": "absent.csv"}))
    out = tmp_path / "out"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == EXIT_CONFIG
    assert "/recipe: must be" in capsys.readouterr().err
    assert not out.exists()


def test_spectroscopy_detuning_other_than_zero_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"sequence": {"spectroscopy": {"detuning": _two_pi_mhz(10.0)}}}))
    out = tmp_path / "out"
    assert run_cli(
        "experiment", "--config", str(cfg), "--out", str(out), "--seed", "1", "--sequences", "3"
    ) == EXIT_CONFIG
    assert "/sequence/spectroscopy/detuning" in capsys.readouterr().err
    assert not out.exists()


def test_negative_overlay_coupling_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(
        "spectrum", "--g-list-mhz", "1,-1", "--out", str(out), "--seed", "1"
    ) == EXIT_CONFIG
    assert "/g_list_two_pi_mhz/1: must be >= 0.0" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_rate_object_with_an_extra_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"system": {"g": {**_two_pi_mhz(3.0), "scale": 2}}}))
    out = tmp_path / "out"
    assert run_cli(
        "spectrum", "--config", str(cfg), "--out", str(out), "--seed", "1"
    ) == EXIT_CONFIG
    assert "/system/g/scale: unknown field" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "recipe, flag, pointer",
    [
        ("lorentzian", ["--tail-start-ns", "5"], "/tail_start_ns"),
        ("exponential", ["--float-center"], "/float_center"),
        ("rabi-g", ["--tail-start-ns", "0"], "/tail_start_ns"),
    ],
)
def test_fit_rejects_the_flag_of_another_recipe(tmp_path, capsys, recipe, flag, pointer):
    data = tmp_path / "spectrum.csv"
    deltas = np.linspace(-20.0, 20.0, 41) * TW
    data.write_text(spectrum_to_csv(Spectrum(deltas, 1.0 / (1.0 + (deltas / (6.4 * TW)) ** 2))))
    out = tmp_path / "out"
    argv = ["fit", "--recipe", recipe, *flag, "--data", str(data), "--seed", "1"]
    assert run_cli(*argv, "--out", str(out)) == EXIT_CONFIG
    assert f"{pointer}: not a field of recipe {recipe}" in capsys.readouterr().err
    assert not out.exists()


def _strict(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def test_exact_fit_writes_unbounded_uncertainties_as_null(tmp_path, capsys):
    # three points, three parameters: no spare degree of freedom for the scale
    data = tmp_path / "three.csv"
    data.write_text("delta_two_pi_mhz,transmission_normalized\n-1,0.5\n0,1\n1,0.5\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(
            "fit", "--recipe", "lorentzian", "--float-center", "--data", str(data),
            "--out", str(out), "--seed", "1",
        ) == EXIT_OK
    written = json.loads((out / "fit_result.json").read_text(), parse_constant=_strict)
    assert written == json.loads(capsys.readouterr().out, parse_constant=_strict)
    assert written["uncertainties"] == [None, None, None]
    assert written["estimates"][1] == pytest.approx(1.0 * TW)


# The library constructors own these bounds: each refusal is one check, named at its field.
@pytest.mark.parametrize("dump", [[], ["--dump-config"]], ids=["run", "dump-config"])
@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize(
    "keys, line",
    [
        (("detection", "power_w"), "power must lie in (0.0, inf)"),
        (("spectroscopy", "power_w"), "power must lie in (0.0, inf)"),
        (("detection", "duration_s"), "duration must lie in (0.0, inf)"),
        (("spectroscopy", "duration_s"), "duration must lie in (0.0, inf)"),
        (("trap_lifetime_s",), "trap_lifetime must lie in (0.0, inf)"),
        (("detector_efficiency",), "detector_efficiency must lie in (0.0, 1.0]"),
    ],
)
def test_a_library_bound_is_refused_once_at_its_field(tmp_path, capsys, keys, line, value, dump):
    sequence = {keys[-1]: value}
    for key in reversed(keys[:-1]):
        sequence = {key: sequence}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"sequence": sequence}))
    out = tmp_path / "out"
    argv = ("experiment", "--config", str(cfg), "--out", str(out), "--sequences", "3", *dump)
    assert run_cli(*argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    pointer = "/sequence/" + "/".join(keys)
    assert captured.err.splitlines() == [f"config error: {pointer}: {line}"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("dump", [[], ["--dump-config"]], ids=["run", "dump-config"])
@pytest.mark.parametrize(
    "subcommand, doc, pointer",
    [
        ("experiment", {"sequence": {"detection": {"wavelength_nm": 0.5}}},
         "/sequence/detection/wavelength_nm"),
        ("experiment", {"sequence": {"spectroscopy": {"wavelength_nm": 0.5}}},
         "/sequence/spectroscopy/wavelength_nm"),
        ("mode-solve", {"fiber": {"wavelength_nm": 0.5}}, "/fiber/wavelength_nm"),
        ("mode-solve", {"fiber": {"wavelength_nm": 0.5, "n_core": 1.46, "n_clad": 1.45}},
         "/fiber/wavelength_nm"),
        ("mode-solve", {"atom": {"transition_wavelength_nm": 0.5}},
         "/atom/transition_wavelength_nm"),
        ("mode-solve", {"cavity": {"length_m": 9.99e-7}}, "/cavity/length_m"),
    ],
)
def test_the_stricter_bounds_the_schema_held_are_the_librarys(
    tmp_path, capsys, subcommand, doc, pointer, dump
):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli(subcommand, "--config", str(cfg), "--out", str(out), *dump) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"config error: {pointer}: ")
    assert not out.exists()


def test_a_config_document_that_is_not_an_object_is_refused(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("[1, 2]")
    assert run_cli("spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: /: config document must be a JSON object\n"


def test_detunings_whose_max_is_below_min_are_refused(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"detunings": {"min": _two_pi_mhz(5.0), "max": _two_pi_mhz(1.0)}}))
    out = tmp_path / "out"
    assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: /detunings/max: must be >= min\n"
    assert not out.exists()


def test_a_g_list_flag_that_is_not_numbers_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as caught:
        main(["spectrum", "--g-list-mhz", "1,x", "--out", str(tmp_path / "out")])
    assert caught.value.code == EXIT_CONFIG
    assert "expected comma-separated numbers, got '1,x'" in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "out").exists()


def test_a_write_that_fails_exits_4_and_leaves_no_temp_file(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "spectrum.csv").mkdir(parents=True)
    (out / "spectrum.csv" / "keep").write_text("x")  # os.replace cannot replace it
    assert run_cli("spectrum", "--out", str(out), "--points", "5") == EXIT_IO
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("i/o error: ")
    assert sorted(p.name for p in out.iterdir()) == ["spectrum.csv"]
    assert list(out.glob("*.tmp")) == []


def config_at(tmp_path, doc: dict, pointer: str, value) -> str:
    """A config file of ``doc`` with the field at ``pointer`` set to ``value``."""
    *blocks, key = pointer.strip("/").split("/")
    block = doc
    for name in blocks:
        block = block.setdefault(name, {})
    block[key] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


def assert_refused(tmp_path, capsys, argv, code, prefix):
    """The run exits ``code`` with one stderr line that starts with ``prefix``,
    and writes nothing; a config error is refused by the dump as well."""
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), lines
    assert not out.exists()
    if code == EXIT_CONFIG:
        assert run_cli(*argv, "--out", str(out), "--dump-config") == EXIT_CONFIG
        assert len(capsys.readouterr().err.splitlines()) == 1


# 10**18 float64 entries, 8e18 bytes, fit a numpy array but no 57-bit address space, so
# the allocation fails at once; 10**30 entries fit no numpy array. No run touches memory.
@pytest.mark.parametrize("subcommand, pointer, value, code", [
    ("spectrum", "/grid/points", 10**18, EXIT_NUMERIC),
    ("spectrum", "/grid/points", 10**30, EXIT_CONFIG),
    ("ringdown", "/grid/points", 10**18, EXIT_NUMERIC),
    ("ringdown", "/grid/points", 10**30, EXIT_CONFIG),
    ("experiment", "/detunings/points", 10**18, EXIT_NUMERIC),
    ("experiment", "/detunings/points", 10**30, EXIT_CONFIG),
    # 21 uint16 counts a sequence: 4.2e19 bytes
    ("experiment", "/sequences", 10**18, EXIT_CONFIG),
    ("experiment", "/sequences", 10**30, EXIT_CONFIG),
])
def test_a_size_beyond_this_machine_exits_3_and_beyond_any_array_exits_2(
    tmp_path, capsys, subcommand, pointer, value, code
):
    cfg = config_at(tmp_path, {}, pointer, value)
    prefix = f"config error: {pointer}: " if code == EXIT_CONFIG else "numerical failure: "
    assert_refused(tmp_path, capsys, (subcommand, "--config", cfg), code, prefix)


@pytest.mark.parametrize("sequences, points, power_w, code", [
    (2**60 - 1, 1, 0.4e-12, EXIT_NUMERIC),  # a float per sequence: 2**63 - 8 bytes
    (2**60, 1, 0.4e-12, EXIT_CONFIG),
    (10**18, 4, 0.4e-12, EXIT_NUMERIC),  # 4 uint16 counts take no more than the float
    (10**18, 5, 0.4e-12, EXIT_CONFIG),
    (10**18, 2, 0.4e-12, EXIT_NUMERIC),
    (10**18, 2, 1e-10, EXIT_CONFIG),  # a spectroscopy mean beyond 2**14 makes the counts int64
])
def test_the_ensemble_size_check_takes_the_larger_of_a_float_and_a_count_row(
    tmp_path, capsys, sequences, points, power_w, code
):
    doc = {"sequences": sequences, "sequence": {"spectroscopy": {"power_w": power_w}}}
    cfg = config_at(tmp_path, doc, "/detunings/points", points)
    prefix = "config error: /sequences: " if code == EXIT_CONFIG else "numerical failure: "
    assert_refused(tmp_path, capsys, ("experiment", "--config", cfg), code, prefix)
