#!/usr/bin/env python3
"""Benchmark of the fibercavity toolkit, run from the root of a checkout.

    python3 bench/run.py --workload ensemble-narrow --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics: every operation is a fresh
``fibercavity`` CLI process (closed loop, one client, one process at a time).
``--trace 1`` runs the same CLI calls in-process through ``cli.main``, with
a span around each layer call, and reports the per-layer metrics instead.
Both print a readable report, then, as the last line of stdout, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

import workloads  # noqa: E402  (beside this script, so on sys.path when it runs)

# The console script declared for the package: fibercavity = fibercavity.cli:main
ENTRY = "import sys; from fibercavity.cli import main; sys.exit(main())"
CALL_TIMEOUT_S = 120.0
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Fresh-interpreter --dump-config runs per round, and the fewest rounds of a
# measurement (two passes are needed for the same-seed check).
SETUP_PER_ROUND = {"full": 2, "smoke": 1}
MIN_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sequences_per_s": "1/s",
    "call_p50_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Proc:
    """One finished child process."""

    returncode: int
    wall_s: float
    maxrss_kb: int
    stdout: str
    stderr: str

    @property
    def failure(self) -> str | None:
        if self.returncode != 0:
            return f"exit code {self.returncode}: {self.stderr.strip()[-400:]}"
        if "Traceback (most recent call last)" in self.stderr:
            return f"traceback: {self.stderr.strip()[-400:]}"
        return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd: list, log_dir: str, env: dict) -> Proc:
    """Run cmd to exit; wall time from spawn to reap, peak RSS from wait4."""
    os.makedirs(log_dir, exist_ok=True)
    out_path = os.path.join(log_dir, "stdout.txt")
    err_path = os.path.join(log_dir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as out, open(
        err_path, encoding="utf-8", errors="replace"
    ) as err:
        return Proc(proc.returncode, wall, usage.ru_maxrss, out.read(), err.read())


def cli(argv: list, out_dir: str, env: dict, log_dir: str) -> Proc:
    cmd = [sys.executable, "-c", ENTRY, *argv]
    if out_dir is not None:
        cmd += ["--out", out_dir]
    return spawn(cmd, log_dir, env)


def output_digests(out_dir: str) -> dict:
    """sha256 of every output except manifests (they carry durations)."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".manifest.json"):
            continue
        with open(os.path.join(out_dir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def stderr_warnings(text: str) -> list:
    return [line.strip() for line in text.splitlines() if "Warning" in line]


# ---------------------------------------------------------------------------
# end-to-end measurement


def measure_end_to_end(wl, args, work: str):
    env = child_env()
    ops = workloads.Ops()
    children = []
    dumps = [call.argv + ["--dump-config"] for call in wl.calls]

    # Untimed warm-up: fills the page cache and, unless PYTHONDONTWRITEBYTECODE
    # is set, the bytecode cache; users do not pay either on every run.
    children.append(cli(dumps[0], None, env, os.path.join(work, "warmup")))

    setup, pass_walls, call_walls, rates, round_walls = [], [], [], [], []
    reference = {}
    started = time.perf_counter()
    # Rounds of a few --dump-config runs and one pass, until the next round
    # would overrun the budget. Spreading the set-up samples over the run
    # keeps one burst of load on the machine from setting their median.
    while len(pass_walls) < MIN_PASSES or (
        time.perf_counter() - started + statistics.median(round_walls) <= args.seconds
    ):
        round_start = time.perf_counter()
        for _ in range(SETUP_PER_ROUND[args.scale]):
            argv = dumps[len(setup) % len(dumps)]
            proc = cli(argv, None, env, os.path.join(work, "setup"))
            children.append(proc)
            reasons = [proc.failure] if proc.failure else []
            if not reasons:
                try:
                    json.loads(proc.stdout)
                except ValueError:
                    reasons.append("--dump-config did not print a JSON document")
            ops.record(f"{argv[0]} --dump-config", reasons)
            setup.append(proc.wall_s)

        index = len(pass_walls)
        pass_dir = os.path.join(work, f"pass-{index}")
        procs = []
        start = time.perf_counter()
        for call in wl.calls:
            out = os.path.join(pass_dir, call.dirname)
            procs.append(cli(call.argv, out, env, os.path.join(out, ".log")))
        pass_walls.append(time.perf_counter() - start)
        # Simulated sequences per second of pass wall time. On the ensembles
        # the pass is the one experiment call; on toolkit-session the whole
        # session, so the value there follows the session's import cost.
        rates.append(sum(call.sequences for call in wl.calls) / pass_walls[-1])

        for call, proc in zip(wl.calls, procs):
            children.append(proc)
            call_walls.append(proc.wall_s)
            out = os.path.join(pass_dir, call.dirname)
            reasons = [proc.failure] if proc.failure else []
            if not reasons:
                shutil.rmtree(os.path.join(out, ".log"))
                digests = output_digests(out)
                if index == 0:
                    reasons += workloads.run_checks(call, out)
                    reference[call.label] = digests
                    ops.warnings += [f"{call.label}: {w}" for w in stderr_warnings(proc.stderr)]
                    if call.warnings:
                        ops.warnings += [f"{call.label}: {w}" for w in call.warnings(out)]
                elif digests != reference.get(call.label):
                    reasons.append(f"outputs differ from pass 1 with the same seed ({call.label})")
            ops.record(call.label, reasons)
        shutil.rmtree(pass_dir)
        round_walls.append(time.perf_counter() - round_start)

    samples = {
        "setup_s": setup,
        "wall_s": pass_walls,
        "sequences_per_s": rates,
        "call_p50_s": call_walls,
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = max(p.maxrss_kb for p in children) / 1024.0
    counts = {name: len(values) for name, values in samples.items()}
    counts["peak_rss_mb"] = len(children)
    details = {
        "samples": samples,
        "passes": len(pass_walls),
        "error_rate": ops.failed / ops.attempted,
    }
    return metrics, counts, details, ops


# ---------------------------------------------------------------------------
# environment record


def llc_bytes():
    """Size of the highest-level cache of cpu0, from sysfs (None if absent)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, None)
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return None
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as handle:
                level = int(handle.read())
            with open(os.path.join(base, entry, "size")) as handle:
                text = handle.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if level >= best[0]:
            best = (level, size)
    return best[1]


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc_bytes(),
        "git_sha": git_sha(),
        "child_thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        # when set, every CLI process compiles the package anew, inside setup_s
        "child_dont_write_bytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'smoke' is for the benchmark's own test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fibercavity", "cli.py")):
        print(f"bench: no fibercavity sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = workloads.build(args.workload, args.seed, os.path.join(work, "inputs"), args.scale)
        if args.trace:
            sys.path.insert(0, SRC)
            import replay

            metrics, counts, details, ops = replay.measure_traced(wl, args, work, spawn, child_env())
            units = replay.PER_LAYER_UNITS
        else:
            metrics, counts, details, ops = measure_end_to_end(wl, args, work)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "cli_seed": wl.seed,
        "scale": args.scale,
        "trace": args.trace,
        "generated_inputs": wl.inputs,
        "metrics": {
            name: {"value": metrics.get(name), "unit": unit, "samples": counts.get(name)}
            for name, unit in units.items()
        },
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "warnings": sorted(set(ops.warnings)),
        "environment": environment(),
        **details,
    }
    print(f"# {args.workload} seed={args.seed} trace={args.trace} scale={args.scale}")
    for name, entry in report["metrics"].items():
        value = "n/a" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{name:44s} {value:>14s} {entry['unit']:8s} n={entry['samples']}")
    if not args.trace:
        print(f"{'error_rate':44s} {details['error_rate']:>14.6g} {'ratio':8s} n={ops.attempted}")
    for failure in ops.failures:
        print(f"FAILED {failure['op']}: {'; '.join(failure['reasons'])}")
    print(json.dumps(report, sort_keys=True))

    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if metrics.get(name) is not None
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
