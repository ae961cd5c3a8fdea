"""Run the CLI on extreme values, one field at a time, and check its exit-code contract.

Usage: python tools/contract.py

Every NUMBER or RATE field of ``spectrum``, ``ringdown``, ``mode-solve`` and
``experiment`` (40 sequences) is set alone to each of VALUES (a rate in
rad/s), in a document that otherwise holds the defaults; each of the fixed
DOCUMENTS, faults that no one-field document shows, runs as well. A DOCUMENTS
entry may carry a data CSV, which is written next to ``config.json`` under
the name its ``data`` field gives. Each runs in its own interpreter, with
its work directory as the cwd: ``spectrum`` and ``experiment`` with
``--plot``, ``ringdown`` with ``--plot --compare --triptych``. A run keeps
the contract when

- it exits 0, 2 or 3, and prints no traceback;
- its stderr is empty on exit 0, and one line otherwise;
- it writes no file unless it exits 0;
- it exits 2 only if its ``--dump-config`` does, since a bad config is
  refused before anything runs.

Prints every run that breaks it and a count, and exits 1 if any run breaks it.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from fibercavity import cli  # noqa: E402  (the field tables of the checkout's src/)

VALUES = (1e300, -1e300, 1e-300, 5e-324, 1e154)
JOBS = 2  # runs at once, each in its own interpreter
SCHEMAS = {
    "spectrum": cli.SPECTRUM, "ringdown": cli.RINGDOWN,
    "mode-solve": cli.MODE_SOLVE, "experiment": cli.EXPERIMENT,
}
FLAGS = {
    "spectrum": ("--plot",),
    "ringdown": ("--plot", "--compare", "--triptych"),
    "mode-solve": (),
    "experiment": ("--plot",),
    "fit": (),
}


def lorentzian_csv(column: int, cell: float) -> str:
    """An 11-point Lorentzian of half width 3.2 at Delta = -25..25 in steps of 5 (2pi x MHz)
    whose fourth row has ``cell`` in ``column``: 0 the detuning, 1 the value."""
    rows = [[float(delta), 1.0 / (1.0 + (delta / 3.2) ** 2)] for delta in range(-25, 30, 5)]
    rows[3][column] = cell
    return "delta_two_pi_mhz,transmission_normalized\n" + "".join(
        f"{delta!r},{value!r}\n" for delta, value in rows
    )


# fixed (subcommand, document, data CSV or None) runs, for faults found outside
# the one-field runs
DOCUMENTS = (
    # the solved mode volume is finite in m^3, but not in um^3
    ("mode-solve", {"fiber": {"core_radius_um": 300}, "cavity": {"length_m": 1e300}}, None),
    # g overflows only at the solved mode volume, which the dump cannot see
    ("mode-solve", {"atom": {"dipole_moment_cm": 1e154}}, None),
    # V = 372, where K1(w)^2 underflows, solves; at V = 1238 K1(w) itself underflows
    ("mode-solve", {"fiber": {"numerical_aperture": 18}}, None),
    ("mode-solve", {"fiber": {"numerical_aperture": 60}}, None),
    # n_core/n_clad = 64 at V = 2.385: two more residual roots lie near cutoff
    ("mode-solve", {"fiber": {"core_radius_um": 1.0530096350483442e-30, "n_core": 1.018258642951334e28,
                              "n_clad": 1.5960413390949184e26,
                              "wavelength_nm": 28.243777588214685}}, None),
    # a 1e300 rad/s switch-off on a grid that ends at a subnormal 1e-309 s
    ("ringdown", {"seed": 0, "ringdown": {"kappa_s": {"value": 1e300, "unit": "rad_per_s"}},
                  "grid": {"t_max_ns": 1e-300}}, None),
    # finite residuals whose squared sum overflows at the start
    ("fit", {"recipe": "lorentzian", "data": "value_-1e300.csv"}, lorentzian_csv(1, -1e300)),
    ("fit", {"recipe": "lorentzian", "data": "value_1e154.csv"}, lorentzian_csv(1, 1e154)),
    ("fit", {"recipe": "exponential", "data": "value_1e300.csv"}, lorentzian_csv(1, 1e300)),
    # a detuning whose model overflows, in the rabi-g start scan first
    ("fit", {"recipe": "rabi-g", "data": "detuning_1e300.csv"}, lorentzian_csv(0, 1e300)),
    # the recovery's range overflows in the exponential start's crossing search
    ("fit", {"recipe": "exponential", "data": "range_overflow.csv"},
     "delta_two_pi_mhz,transmission_normalized\n0.0,1.7e308\n1.0,0.5\n2.0,0.25\n3.0,-1.7e308\n"),
    # t^2 overflows in the tail fit's normal matrix
    ("fit", {"recipe": "ringdown-tail", "data": "time_1e300.csv", "tail_start_ns": 10},
     "t_ns,intensity_normalized\n0.0,1.0\n10.0,0.5\n20.0,0.25\n1e300,0.125\n"),
)
# the other value of a document that sets one of the two fiber indices
PARTNER = {"/fiber/n_core": ("n_clad", 1.45), "/fiber/n_clad": ("n_core", 1.46)}


def fields(schema: dict, pointer: str = ""):
    """(pointer, kind) of every NUMBER or RATE field of a cli field table."""
    for key, field in schema.items():
        where = f"{pointer}/{key}"
        if isinstance(field, dict):
            yield from fields(field, where)
        elif field.kind in (cli.NUMBER, cli.RATE):
            yield where, field.kind


def runs() -> list:
    """(subcommand, label, document, data) of every single-fault run, then of DOCUMENTS."""
    single = [
        (subcommand, f"{pointer} = {value!r}", document(subcommand, pointer, value), None)
        for subcommand, schema in SCHEMAS.items()
        for pointer, _ in fields(schema)
        for value in VALUES
    ]
    fixed = [(subcommand, json.dumps(doc), doc, data) for subcommand, doc, data in DOCUMENTS]
    return single + fixed


def document(subcommand: str, pointer: str, value: float) -> dict:
    """The config document with the field at ``pointer`` set to ``value``."""
    kind = dict(fields(SCHEMAS[subcommand]))[pointer]
    doc = {"seed": 0, **({"sequences": 40} if subcommand == "experiment" else {})}
    *blocks, key = pointer.strip("/").split("/")
    block = doc
    for name in blocks:
        block = block.setdefault(name, {})
    block[key] = {"value": value, "unit": "rad_per_s"} if kind == cli.RATE else value
    if pointer in PARTNER:
        other, index = PARTNER[pointer]
        block[other] = index
    return doc


def check(subcommand: str, doc: dict, workdir: str, data: str | None = None) -> tuple:
    """Run one document in ``workdir``, with ``data`` as its data file if given:
    (exit code, stderr, what breaks the contract or None)."""
    config, out = os.path.join(workdir, "config.json"), os.path.join(workdir, "out")
    with open(config, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    if data is not None:
        with open(os.path.join(workdir, doc["data"]), "w", encoding="utf-8") as handle:
            handle.write(data)
    env = dict(os.environ, PYTHONWARNINGS="default")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "fibercavity.cli", subcommand, "--config", config,
            "--out", out, *FLAGS[subcommand]]
    try:
        proc = subprocess.run(
            argv, env=env, cwd=workdir, capture_output=True, text=True, timeout=300
        )
        # a dump that exits 2 refuses the config as the run does, so only an exit 2 needs one
        dumped = subprocess.run(
            argv + ["--dump-config"], env=env, cwd=workdir, capture_output=True, timeout=300
        ).returncode if proc.returncode == 2 else None
    except subprocess.TimeoutExpired:
        return None, "", "no exit within 300 s"
    code, err = proc.returncode, proc.stderr
    lines = len(err.splitlines())
    written = sorted(name for _, _, names in os.walk(out) for name in names)
    if code not in (0, 2, 3):
        broken = f"exit {code}"
    elif "Traceback" in err:
        broken = "traceback"
    elif code == 0 and err:
        broken = "stderr on exit 0"
    elif code and lines != 1:
        broken = f"{lines} stderr lines"
    elif code and written:
        broken = f"wrote {written}"
    elif dumped not in (None, 2):
        broken = f"exit 2, but its dump exits {dumped}"
    else:
        broken = None
    return code, err, broken


def _run_one(run):
    subcommand, label, doc, data = run
    with tempfile.TemporaryDirectory() as workdir:
        code, err, broken = check(subcommand, doc, workdir, data)
    return {"run": f"{subcommand} {label}", "exit": code, "broken": broken, "stderr": err}


def main() -> int:
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        results = list(pool.map(_run_one, runs()))
    broken = [r for r in results if r["broken"]]
    for r in broken:
        last = r["stderr"].strip().splitlines()[-1:] or [""]
        print(f"{r['run']}: exit {r['exit']}, {r['broken']}: {last[0]}")
    print(f"{len(broken)} of {len(results)} runs break the contract")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
