"""The package exports only names that the program, the benchmark or the
acceptance tests use, so the public surface cannot grow dead entries."""

import io
import tokenize
from pathlib import Path

import fibercavity

PACKAGE = Path(fibercavity.__file__).resolve().parent
ROOT = PACKAGE.parents[1]


def code_names(path: Path) -> set:
    """Identifiers in the code of ``path`` (not its strings or comments),
    leaving out the name that each ``def`` or ``class`` statement defines."""
    names, previous = set(), None
    for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if token.type == tokenize.NAME and previous not in ("def", "class"):
            names.add(token.string)
        previous = token.string
    return names


def test_every_exported_name_has_a_caller():
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += sorted((ROOT / "bench").rglob("*.py"))
    users.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*map(code_names, users))
    unused = sorted(set(fibercavity.__all__) - used)
    assert unused == [], f"exported but never used: {', '.join(unused)}"
