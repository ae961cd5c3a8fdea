"""List the executable lines of src/fibercavity that the tier-1 suite never runs.

Usage: python tools/line_reach.py [pytest arguments]

Runs the tier-1 command (``python -m pytest -q --continue-on-collection-errors``
plus the given arguments) with a generated ``sitecustomize.py`` first on
PYTHONPATH. It records, through ``sys.settrace`` and ``threading.settrace``,
every line that runs in a file under src/fibercavity, and writes them out when
the interpreter exits; the tests hand PYTHONPATH on to the CLI processes they
start, so those are counted too. The executable lines of a file are the
``co_lines()`` of every code object ``compile()`` makes of it, less line 0.

Prints every unreached line and the count, and exits with pytest's code. The
tracer roughly doubles the suite's time, so nothing gates on the count; coverage.py
is not needed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fibercavity")

SITECUSTOMIZE = '''
import atexit, os, sys, threading

_package, _out = os.environ["LINE_REACH_PACKAGE"], os.environ["LINE_REACH_OUT"]
_seen = set()


def _local(frame, event, arg):
    _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_package):
        return _local(frame, event, arg)
    return None


def _dump():
    sys.settrace(None)
    with open(os.path.join(_out, "%d.lines" % os.getpid()), "a", encoding="utf-8") as handle:
        handle.writelines("%s\\t%d\\n" % line for line in _seen)


sys.settrace(_global)
threading.settrace(_global)
atexit.register(_dump)
'''


def executable_lines(path: str) -> set:
    """Line numbers of every code object compiled from the file at path, less 0."""
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as hook, tempfile.TemporaryDirectory() as out:
        with open(os.path.join(hook, "sitecustomize.py"), "w", encoding="utf-8") as handle:
            handle.write(SITECUSTOMIZE)
        env = dict(os.environ, LINE_REACH_PACKAGE=PACKAGE + os.sep, LINE_REACH_OUT=out)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [hook, os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
        )
        code = subprocess.call(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", *argv],
            cwd=ROOT, env=env,
        )
        seen = set()
        for name in os.listdir(out):
            with open(os.path.join(out, name), encoding="utf-8") as handle:
                for record in handle:
                    path, line = record.rsplit("\t", 1)
                    seen.add((path, int(line)))

    total = unreached = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            lines = executable_lines(path)
            missed = sorted(line for line in lines if (path, line) not in seen)
            total, unreached = total + len(lines), unreached + len(missed)
            if missed:
                print(f"{name}: {', '.join(map(str, missed))}")
    print(f"{unreached} of {total} executable lines in src/fibercavity never run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
