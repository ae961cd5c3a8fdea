"""Fuzz guard of the config error contract.

Documents are drawn from the field tables in ``cli``: each field gets a valid
value, a value of the wrong JSON type, an out-of-range number or nothing, and
any block may gain an unknown key. Every subcommand runs them with
``--dump-config`` through ``main()``, which must exit 0 with strict JSON on
stdout or exit 2 with a config message, and never raise. Generated sizes
(``points``, ``sequences``) stay at or below 10**4, since ``experiment``
builds its detuning grid before the dump.

The same kind of documents, with sizes at or below 50, are then run for real:
the exit code must be 0, 2, 3 or 4, an exit 2 must leave no output behind,
and a run must exit 2 exactly when its ``--dump-config`` does, since a bad
config is rejected before anything runs. ``fit`` reads generated CSV text,
whose faults only the run can see. Derandomized: every run checks the same
examples.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercavity import cli

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=80)
RUN = settings(FUZZ, max_examples=60)
SIZE, RUN_SIZE = 10**4, 50

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


def valid(field: cli.Field, size: int = SIZE):
    if field.kind == cli.NUMBER:
        low = -1e3 if field.minimum is None else field.minimum
        high = low + 1e3 if field.maximum is None else field.maximum
        return st.floats(low, high)
    if field.kind == cli.INTEGER:
        return st.integers(0 if field.minimum is None else field.minimum, size)
    if field.kind == cli.RATE:
        return st.fixed_dictionaries({
            "value": st.floats(-1e3, 1e3),
            "unit": st.sampled_from(("two_pi_mhz", "rad_per_s")),
        })
    if field.kind == cli.BOOL:
        return st.booleans()
    if field.kind == cli.CHOICE:
        return st.sampled_from(field.choices)
    if field.kind == cli.NUMBERS:
        return st.lists(valid(field._replace(kind=cli.NUMBER)), max_size=6)
    return st.text(min_size=1, max_size=8)


def out_of_range(field: cli.Field):
    if field.kind == cli.INTEGER:
        return st.integers(-SIZE, -1)
    if field.kind == cli.RATE:
        return st.fixed_dictionaries({
            "value": st.floats() | st.just(10**400),
            "unit": st.sampled_from(("two_pi_mhz", "rad_per_s", "mhz")),
        })
    if field.kind in (cli.NUMBER, cli.NUMBERS):
        number = st.floats() | st.just(10**400)
        return number if field.kind == cli.NUMBER else st.lists(number, min_size=1, max_size=3)
    return junk


def valid_blocks(schema: dict, size: int):
    """Each field of schema absent or valid, each block nested alike."""
    entries = {
        key: valid_blocks(field, size) if isinstance(field, dict) else valid(field, size)
        for key, field in schema.items()
    }
    return st.fixed_dictionaries({}, optional=entries)


@st.composite
def documents(draw, schema: dict, size: int = SIZE):
    """A valid document with up to two faults, each at a random depth: a
    value of the wrong JSON type, an out-of-range number or an unknown key."""
    doc = draw(valid_blocks(schema, size))
    for _ in range(draw(st.integers(0, 2))):
        block, fields = doc, schema
        key = draw(st.sampled_from(sorted(fields)))
        while (
            isinstance(fields[key], dict)
            and isinstance(block.get(key, {}), dict)
            and draw(st.booleans())
        ):
            block, fields = block.setdefault(key, {}), fields[key]
            key = draw(st.sampled_from(sorted(fields)))
        fault = draw(st.sampled_from(("type", "range", "unknown")))
        if fault == "unknown":
            block[draw(st.sampled_from(("bogus", "rng_seed", "scale")))] = draw(junk)
        elif fault == "type" or isinstance(fields[key], dict):
            block[key] = draw(junk)
        else:
            block[key] = draw(out_of_range(fields[key]))
    return doc


def fit_documents(size: int = SIZE, run: bool = False):
    """Documents of one recipe each; for a run, recipe and data are present
    unless a fault replaced them."""

    def for_recipe(recipe):
        only = cli.Field(cli.CHOICE, cli.REQUIRED, flag="recipe", choices=(recipe,))
        schema = {**cli.FIT, "recipe": only, **cli.FIT_RECIPE_FIELDS[recipe]}
        if run:
            return documents(schema, size).map(
                lambda doc: {"recipe": recipe, "data": "data.csv", **doc}
            )
        return documents(schema, size)

    return st.sampled_from(sorted(cli.FIT_RECIPE_FIELDS)).flatmap(for_recipe)


def all_documents(size: int = SIZE, run: bool = False) -> dict:
    return {
        "spectrum": documents(cli.SPECTRUM, size),
        "ringdown": documents(cli.RINGDOWN, size),
        "fit": fit_documents(size, run),
        "mode-solve": documents(cli.MODE_SOLVE, size),
        "experiment": documents(cli.EXPERIMENT, size),
    }


DOCUMENTS, RUN_DOCUMENTS = all_documents(), all_documents(RUN_SIZE, run=True)
# flags that change what a run does; the dump sees the same ones
RUN_FLAGS = {"spectrum": ["--plot"], "ringdown": ["--plot", "--compare", "--triptych"],
             "experiment": ["--plot"]}


def strict(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.mark.parametrize("subcommand", sorted(DOCUMENTS))
@FUZZ
@given(data=st.data())
def test_dump_config_exits_0_or_2_on_any_document(subcommand, data):
    doc = data.draw(DOCUMENTS[subcommand])
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        argv = [subcommand, "--config", path, "--out", directory, "--dump-config"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert os.listdir(directory) == ["config.json"]
    if code == cli.EXIT_OK:
        json.loads(out.getvalue(), parse_constant=strict)
        assert err.getvalue() == ""
    else:
        assert code == cli.EXIT_CONFIG
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("config error: ", "parameter error: "))


@st.composite
def csv_texts(draw, recipe):
    """CSV text for ``fit``: mostly the header of the recipe's format over
    rows of positive numbers with increasing first cells, with up to two
    faulty rows (a junk cell, NaN, Inf, a short row); or a wrong header, or
    nothing at all."""
    right = "t_ns,intensity_normalized" if recipe == "ringdown-tail" else (
        "delta_two_pi_mhz,transmission_normalized"
    )
    header = draw(st.sampled_from((right, right, right + ",sigma", "t_ns,intensity")))
    width = header.count(",") + 1
    count = draw(st.integers(0, 30))
    firsts = sorted(draw(st.lists(st.floats(-50.0, 50.0), min_size=count, max_size=count,
                                  unique=True)))
    number = st.floats(1e-3, 2.0)
    rows = [[repr(x)] + [repr(draw(number)) for _ in range(width - 1)] for x in firsts]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        row = [repr(draw(number)) for _ in range(width)]
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(("abc", "nan", "inf", "")))
        rows.insert(draw(st.integers(0, len(rows))), row[: draw(st.integers(1, width))])
    lines = [header] + [",".join(row) for row in rows]
    return draw(st.sampled_from(("\n".join(lines) + "\n",) * 3 + ("",)))


def run_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("subcommand", sorted(RUN_DOCUMENTS))
@RUN
@given(data=st.data())
def test_run_exits_2_exactly_when_its_dump_does(subcommand, data):
    doc = data.draw(RUN_DOCUMENTS[subcommand])
    flags = [f for f in RUN_FLAGS.get(subcommand, []) if data.draw(st.booleans())]
    with tempfile.TemporaryDirectory() as directory:
        if subcommand == "fit" and isinstance(doc.get("data"), str):
            doc["data"] = os.path.join(directory, "data.csv")
            with open(doc["data"], "w", encoding="utf-8") as handle:
                handle.write(data.draw(csv_texts(doc.get("recipe"))))
        path = os.path.join(directory, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out = os.path.join(directory, "out")
        argv = [subcommand, "--config", path, "--out", out, *flags]
        dumped = run_main(argv + ["--dump-config"])
        code = run_main(argv)
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC, cli.EXIT_IO)
        if code == cli.EXIT_CONFIG:
            assert not os.path.exists(out)
    if subcommand != "fit":
        assert (code == cli.EXIT_CONFIG) == (dumped == cli.EXIT_CONFIG)
