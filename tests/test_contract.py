"""The exit-code contract on the extreme documents that used to break it.

Each of CASES sets one NUMBER or RATE field of a subcommand to an extreme
value, the rest left at its default (``tools/contract.py`` builds and runs
all 235 such documents and its fixed DOCUMENTS, multi-field ones and fit runs
on a data CSV; its CI step runs them all). These 42 used to end in a
traceback, exit 0 with numpy warnings, or print warnings before their one
error line; the fixed documents used to end in a traceback, exit 0 with a
numpy warning, print warnings before their one error line, or exit 2 on a
config whose dump exits 0. Each is run in a fresh interpreter that shows every warning,
and must exit 0, 2 or 3 without a traceback, print nothing on exit 0 and one
line otherwise, write no file unless it exits 0, and exit 2 only if its
``--dump-config`` does.
"""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "contract.py"
_spec = importlib.util.spec_from_file_location("contract", TOOL)
contract = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(contract)

CASES = [
    ('spectrum', '/system/kappa1', 1e+300),
    ('spectrum', '/system/kappa1', 1e+154),
    ('spectrum', '/system/kappa2', 1e+300),
    ('spectrum', '/system/kappa2', 1e+154),
    ('spectrum', '/system/kappa_loss', 1e+300),
    ('spectrum', '/system/kappa_loss', 1e+154),
    ('spectrum', '/system/gamma', 1e+300),
    ('spectrum', '/system/gamma', 1e+154),
    ('spectrum', '/system/g', 1e+300),
    ('spectrum', '/system/g', 1e+154),
    ('spectrum', '/system/cavity_detuning', 1e+300),
    ('spectrum', '/system/cavity_detuning', -1e+300),
    ('spectrum', '/system/cavity_detuning', 1e+154),
    ('spectrum', '/grid/delta_min_mhz', -1e+300),
    ('spectrum', '/grid/delta_max_mhz', 1e+300),
    ('spectrum', '/grid/delta_max_mhz', 1e+154),
    ('ringdown', '/ringdown/s0', 5e-324),
    ('mode-solve', '/fiber/core_radius_um', 1e+300),
    ('mode-solve', '/fiber/numerical_aperture', 1e+300),
    ('mode-solve', '/fiber/numerical_aperture', 1e+154),
    ('mode-solve', '/fiber/n_core', 1e+300),
    ('mode-solve', '/fiber/n_core', 1e+154),
    ('mode-solve', '/atom/dipole_moment_cm', 1e+300),
    ('experiment', '/system/kappa1', 1e+300),
    ('experiment', '/system/kappa1', 1e+154),
    ('experiment', '/system/kappa2', 1e+300),
    ('experiment', '/system/kappa2', 1e+154),
    ('experiment', '/system/kappa_loss', 1e+300),
    ('experiment', '/system/kappa_loss', 1e+154),
    ('experiment', '/system/gamma', 1e+300),
    ('experiment', '/system/gamma', 1e+154),
    ('experiment', '/system/cavity_detuning', 1e+300),
    ('experiment', '/system/cavity_detuning', -1e+300),
    ('experiment', '/system/cavity_detuning', 1e+154),
    ('experiment', '/sequence/g_max', 1e+300),
    ('experiment', '/sequence/g_max', 1e+154),
    ('experiment', '/sequence/detection/detuning', 1e+300),
    ('experiment', '/sequence/detection/detuning', -1e+300),
    ('experiment', '/sequence/detection/detuning', 1e+154),
    ('experiment', '/detunings/min', -1e+300),
    ('experiment', '/detunings/max', 1e+300),
    ('experiment', '/detunings/max', 1e+154),
]


@pytest.mark.parametrize(
    "subcommand, pointer, value", CASES, ids=[f"{s}{p}={v!r}" for s, p, v in CASES]
)
def test_an_extreme_value_keeps_the_exit_code_contract(tmp_path, subcommand, pointer, value):
    doc = contract.document(subcommand, pointer, value)
    code, err, broken = contract.check(subcommand, doc, str(tmp_path))
    assert broken is None, f"exit {code}: {err}"


@pytest.mark.parametrize(
    "subcommand, doc, data", contract.DOCUMENTS,
    ids=[json.dumps(d) for _, d, _ in contract.DOCUMENTS],
)
def test_a_fixed_document_keeps_the_exit_code_contract(tmp_path, subcommand, doc, data):
    code, err, broken = contract.check(subcommand, doc, str(tmp_path), data)
    assert broken is None, f"exit {code}: {err}"
