"""Byte-level pins of the `experiment`, `spectrum`, `ringdown` and `fit` outputs.

Each case runs ``main()`` and compares the sha256 of every non-manifest
output (``events.jsonl``, ``summary.json``, each ``spectrum_level_*.csv``,
the overlay spectra, the ring-down traces, ``fit_result.json`` and the SVG
plots) with the digest recorded when the case was pinned. A refactor of the
ensemble, its accumulation, the JSONL writer, the transmission kernel, the
ring-down, the fit recipes or the SVG markup must leave these unchanged.
The fitted values depend on numpy's floating-point kernels; the digests were
taken with numpy 2.4 on x86-64 with AVX-512.
"""

import hashlib
import json

import pytest

from fibercavity.cli import EXIT_OK, main

CASES = {
    "single-atom-hold": (
        {"sequence": {"hold_time_s": 0.005}},
        ["--sequences", "300", "--seed", "5", "--plot"],
        {
            "events.jsonl": "3c8b30c4fdd67894cf6f4cb3087abe85341f9f3117bdca3e9d6cfebf50659b2a",
            "spectra_by_level.svg": "4b1ece9c9dc5de89bc3c08d82074a78d9267deec17c7797922dd0dfb53c1a0ea",
            "spectrum_level_1.csv": "9d7123cec0c5cc0b2ba1d38ff504e9fc76c333d097596f8c9895e9e6bcdc55f6",
            "spectrum_level_2.csv": "e0728da2d5d452d841226b60e6531146b3a195d33a57f097c9df9d1f28ca9a7a",
            "spectrum_level_3.csv": "6203d14829a6f633d95514c63ef6ddfaaa4a3adb2264474792fd8f6e5d5e0f6d",
            "spectrum_level_4.csv": "4655bcb111847dd202c9982dd3ed7049c836b9654934044a389c897702f63a06",
            "spectrum_level_5.csv": "09097a16c8bc4687db10ed8252bfe1fc137305981c3675d8bed8fa039f36f0d5",
            "spectrum_level_6.csv": "62b24dc92743bd8168254a31710da9f7cce509052d7305d02d4181baecf00628",
            "summary.json": "ea57eab402ea40055f6000917193778dd71325f24ea782e3f4be8041286f0125",
        },
    ),
    "poisson-wide-grid": (
        {
            "sequence": {"poisson_loading": True, "load_probability": 0.5, "hold_time_s": 0.005},
            "detunings": {"points": 1001},
        },
        ["--sequences", "40", "--seed", "6"],
        {
            "events.jsonl": "d5455ce4f1035d2ed4cd7ea525b07221de442e26311d2dce11e12db6eed9e8a5",
            "spectrum_level_1.csv": "a8eea1b9fbf2deeff977fde34dd9297ca768cdc7fcc710ee1c1c39e9b33d9ef1",
            "spectrum_level_2.csv": "c51855610c2029ea08431045ea6ed5b8ed81063820466781c2f3739daa2cb89a",
            "spectrum_level_4.csv": "9d8f56494077f83d76529e89e306bf8d63bdf9bc97d8cfcc1736cfa63e4d1bf0",
            "spectrum_level_5.csv": "c4832f519bf01226739e80b56b7a133ebe86714019f4d9e5d7834c84029fb4df",
            "spectrum_level_6.csv": "f9d6ab9fb637405ad06245c23ff5ff80ade5c3a046a15d19dfa775b88d4ed76d",
            "summary.json": "7d20383f962fce31a4e7880574e50d787afb995d2c4aeea2625e2a6133a4c15a",
        },
    ),
    "drift-detuned-detection": (
        {
            "sequence": {
                "normalization_drift": 2e-4,
                "detection": {"detuning": {"value": 2.0, "unit": "two_pi_mhz"}},
            },
        },
        ["--sequences", "300", "--seed", "7"],
        {
            "events.jsonl": "f1ad9275ec0cfc3323a2e960ee5a0a28c55f36c8f06b95115b4a9994c4dc3887",
            "spectrum_level_1.csv": "1404784fb720bf363fce5a9c82061cee15e4f77ed70edc10725db0d840eaf45e",
            "spectrum_level_2.csv": "0f293931934a5bdb5b9910a39ccafa9d207800a63e5fbc1afeac32f601253a7d",
            "spectrum_level_3.csv": "3e285771d9f61d4aa10516525d15f7af2e5f8faa620e53a953264adff77aa3a1",
            "spectrum_level_4.csv": "08dd606394495b8b97ae5018ed31110a14fc3ca09de7135b9a5c5ae03cc7d85c",
            "spectrum_level_5.csv": "a66d3f66dc3e141b0b47e0cbad626932f06257054c845e4c65e0a1e946f894b9",
            "spectrum_level_6.csv": "64191b2401c2ee8ffb5c28e00522ddb6662e27a9f5912376c3715d3f7029746a",
            "summary.json": "2ba907cc7eced8109b9b7a54f791878a6bcd08d3cc8acc1ba38cb59c53cac6d6",
        },
    ),
    "zero-sequences": (
        {},
        ["--sequences", "0", "--seed", "1"],
        {
            "events.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "summary.json": "4f3d50155bbc9d0dd38bf7989f66e33aea1818b752b5ff739d2d02a1a9eafe33",
        },
    ),
}


def output_digests(directory) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if not path.name.endswith(".manifest.json")
    }


SPECTRUM_OVERLAY = {
    "spectrum.svg": "65b6d08210f10ffff2792fe11aae702ef98cb23391b1d8b4f42c33cbb79a85bd",
    "spectrum_g0.000.csv": "002a81ce73344bc2a466cf5b41badd4270b74a4e5f959fa8f570c27e29da5628",
    "spectrum_g3.900.csv": "34e7e4ee6486defc7d1adc90e56acd13a80fd3b04b6baa79b5720db180cdd282",
    "spectrum_g7.800.csv": "f65719fbd5e8d17b3f733ec64b91c889521c9e8d8ff02bb0bf6d9735b14b3a50",
}

RINGDOWN_COMPARE = {
    "ringdown.svg": "97d54e2f7c103e99e2d6fffc79407eb10d8987f7aa9eade79beed2795f8b01cf",
    "ringdown_analytic.csv": "046a10dc940e1110299c16f8e75d0175ca301f8da28d980aed2b786b7b4047ea",
    "ringdown_integrated.csv": "68a28c2a88f84defb355ca6e5307ec2aedb4207f3515439c69b8b37fd7c4afd6",
    "ringdown_summary.json": "ff7efcd2a055feb6b858974d6224910e5f1ea248d5891b6707da8af22a1c9589",
    "ringdown_triptych.svg": "1aa19e47e885f6b1db02c3633f6092a1536c9787afee3110483f559126351308",
}

# recipe -> (spectrum of the "single-atom-hold" case it fits, fit_result.json digest)
FITS = {
    "lorentzian": (
        "spectrum_level_1.csv",
        "b3faec3307b388d5db5fee1c847c3e6b68914557883c243d5ae16bc3764fbc39",
    ),
    "rabi-g": (
        "spectrum_level_6.csv",
        "d184789f4d64310b0133629c30bf8464dcb6bd3ca0b9caeb83fdfbcab951f18a",
    ),
}


def run_experiment_case(case, tmp_path):
    config, flags, _ = CASES[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out), *flags]) == EXIT_OK
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_experiment_outputs_are_pinned(case, tmp_path):
    out = run_experiment_case(case, tmp_path)
    assert output_digests(out) == CASES[case][2]


def test_spectrum_overlay_is_pinned(tmp_path):
    argv = ["spectrum", "--g-list-mhz", "0,3.9,7.8", "--seed", "1", "--plot"]
    argv += ["--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    assert output_digests(tmp_path) == SPECTRUM_OVERLAY


def test_ringdown_compare_is_pinned(tmp_path):
    argv = ["ringdown", "--compare", "--triptych", "--plot", "--seed", "1", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    assert output_digests(tmp_path) == RINGDOWN_COMPARE


@pytest.mark.parametrize("recipe", sorted(FITS))
def test_fit_result_is_pinned(recipe, tmp_path):
    data, digest = FITS[recipe]
    spectra = run_experiment_case("single-atom-hold", tmp_path)
    out = tmp_path / "fit"
    argv = ["fit", "--recipe", recipe, "--data", str(spectra / data), "--seed", "1"]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert output_digests(out) == {"fit_result.json": digest}
