"""Fuzz guard of the config error contract.

Documents are drawn from the field tables in ``cli``: each field gets a valid
value, a value of the wrong JSON type, an out-of-range number or nothing, and
any block may gain an unknown key. Every subcommand runs them with
``--dump-config`` through ``main()``, which must exit 0 with strict JSON on
stdout or exit 2 with a config message, and never raise. Generated sizes
(``points``, ``sequences``) stay at or below 10**4, since ``experiment``
builds its detuning grid before the dump. Derandomized: every run checks the
same examples.
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
SIZE = 10**4

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


def valid(field: cli.Field):
    if field.kind == cli.NUMBER:
        low = -1e3 if field.minimum is None else field.minimum
        high = low + 1e3 if field.maximum is None else field.maximum
        return st.floats(low, high)
    if field.kind == cli.INTEGER:
        return st.integers(0 if field.minimum is None else field.minimum, SIZE)
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


def valid_blocks(schema: dict):
    """Each field of schema absent or valid, each block nested alike."""
    entries = {
        key: valid_blocks(field) if isinstance(field, dict) else valid(field)
        for key, field in schema.items()
    }
    return st.fixed_dictionaries({}, optional=entries)


@st.composite
def documents(draw, schema: dict):
    """A valid document with up to two faults, each at a random depth: a
    value of the wrong JSON type, an out-of-range number or an unknown key."""
    doc = draw(valid_blocks(schema))
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


def fit_documents():
    def for_recipe(recipe):
        only = cli.Field(cli.CHOICE, cli.REQUIRED, flag="recipe", choices=(recipe,))
        schema = {**cli.FIT, "recipe": only, **cli.FIT_RECIPE_FIELDS[recipe]}
        return documents(schema)

    return st.sampled_from(sorted(cli.FIT_RECIPE_FIELDS)).flatmap(for_recipe)


DOCUMENTS = {
    "spectrum": documents(cli.SPECTRUM),
    "ringdown": documents(cli.RINGDOWN),
    "fit": fit_documents(),
    "mode-solve": documents(cli.MODE_SOLVE),
    "experiment": documents(cli.EXPERIMENT),
}


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
