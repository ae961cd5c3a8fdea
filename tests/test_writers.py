"""The events.jsonl and CSV writers against row-by-row references.

``events.jsonl`` must hold what ``json.dumps(..., sort_keys=True)`` writes
for each record, whatever the dtypes of its int columns, the digits of their
values and where the blocks end. Each CSV must hold what ``csv.writer``
writes from the ``repr`` of each cell, the first column taken through the
scalar ``unit_exact_value``, or be refused when a cell is not finite there.
"""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_properties import PROPERTY, json_dumps_events

from fibercavity import Ensemble, RingdownTrace, Spectrum, from_two_pi_mhz
from fibercavity.dataio import (
    NS,
    SPECTRUM_HEADER,
    TRACE_HEADER,
    DataFormatError,
    spectrum_to_csv,
    trace_to_csv,
    unit_exact_value,
    write_events_jsonl,
)
from fibercavity.steady import rows_per_block
from fibercavity.units import TWO_PI_MHZ

TW = from_two_pi_mhz(1.0)


def hand_built(counts, detection_counts=None, level=None, seed=0) -> Ensemble:
    """An ensemble around the (n x k) count table ``counts`` on k detunings
    over +-2pi x 25 MHz, with drawn flags, floats and, unless given,
    detection counts and levels."""
    n, k = counts.shape
    rng = np.random.default_rng(seed)
    return Ensemble(
        detunings=np.linspace(-25.0, 25.0, k) * TW,
        atom_present=rng.random(n) < 0.5,
        local_g=rng.uniform(0.0, 7.8, n) * TW,
        detection_counts=(
            rng.integers(0, 100, n) if detection_counts is None else np.array(detection_counts)
        ),
        normalized_detection=rng.normal(1.0, 0.3, n),
        level=rng.integers(1, 7, n) if level is None else np.array(level),
        survived_hold=rng.random(n) < 0.5,
        spectroscopy_counts=counts,
    )


def written(tmp_path, ensemble) -> str:
    path = tmp_path / "events.jsonl"
    write_events_jsonl(path, ensemble)
    return path.read_bytes().decode("utf-8")


@pytest.mark.parametrize(
    "dtype, values",
    [
        (np.uint16, [0, 9, 10, 99, 100, 65535]),
        (np.int32, [0, 9, 10, 99, 100, 2**31 - 1]),
        (np.int64, [0, 9, 10, 99, 100, 2**63 - 1]),
    ],
)
def test_counts_of_every_digit_count_are_what_json_dumps_writes(tmp_path, dtype, values):
    # every value in every column, and a row of zeros under the widest slot
    rows = [np.roll(values, shift) for shift in range(len(values))] + [[0] * len(values)]
    ensemble = hand_built(np.array(rows, dtype=dtype))
    assert written(tmp_path, ensemble) == json_dumps_events(ensemble)


@pytest.mark.parametrize(
    "detection_counts",
    [
        [0] * 6,
        [0, 9, 10, 99, 100, 65535],
        [65536, 2**31 - 1, 2**32, 10**18 - 1, 10**18, 2**63 - 1],
    ],
)
def test_detection_counts_and_every_level_are_what_json_dumps_writes(tmp_path, detection_counts):
    counts = np.full((6, 3), 7, dtype=np.uint16)
    ensemble = hand_built(counts, detection_counts, level=[1, 2, 3, 4, 5, 6])
    assert written(tmp_path, ensemble) == json_dumps_events(ensemble)


def test_events_bytes_do_not_depend_on_the_int_dtypes(tmp_path):
    counts = np.random.default_rng(5).poisson(200.0, size=(7, 21))
    counts[0, :4] = [0, 9, 10, 255]
    detection_counts, level = [0, 9, 10, 99, 100, 255, 7], [1, 2, 3, 4, 5, 6, 3]
    texts = set()
    for count_dtype in (np.uint16, np.int32, np.int64):
        for dtype in (np.uint8, np.int64):
            ensemble = hand_built(
                counts.astype(count_dtype), np.array(detection_counts, dtype=dtype),
                np.array(level, dtype=dtype),
            )
            texts.add(written(tmp_path, ensemble))
    assert texts == {json_dumps_events(ensemble)}


@pytest.mark.parametrize("points", [1, 21, 1001])
def test_every_line_is_written_on_both_sides_of_a_block_edge(tmp_path, points):
    step = rows_per_block(points)
    rng = np.random.default_rng(points)
    for n in (0, 1, step - 1, step, step + 1):
        counts = rng.poisson(200.0, size=(n, points)).astype(np.uint16)
        ensemble = hand_built(counts, seed=n)
        assert written(tmp_path, ensemble) == json_dumps_events(ensemble), n


@pytest.mark.parametrize("name", ["spectroscopy_counts", "detection_counts", "level"])
def test_a_negative_int_is_refused_before_anything_is_written(tmp_path, name):
    ensemble = hand_built(np.full((3, 2), 5, dtype=np.int64))
    values = getattr(ensemble, name).astype(np.int64)
    values.flat[-1] = -1
    broken = dataclasses.replace(ensemble, **{name: values})
    with pytest.raises(DataFormatError, match=f"negative values in event {name}"):
        write_events_jsonl(tmp_path / "events.jsonl", broken)
    assert list(tmp_path.iterdir()) == []


def csv_writer_reference(header, x, factor, columns) -> str:
    """The CSV text ``csv.writer`` writes, one row at a time."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for first, *rest in zip(x.tolist(), *(column.tolist() for column in columns)):
        writer.writerow([repr(unit_exact_value(first, factor)), *map(repr, rest)])
    return buffer.getvalue()


def float_unit_exact_value(value: float, factor: float) -> float:
    """unit_exact_value in Python float arithmetic."""
    x = value / factor
    if x * factor == value:
        return x
    up = math.nextafter(x, math.inf)
    return up if up * factor == value else x


def powers_of_two(factor=1.0, top=1023):
    return st.integers(-1074, top).map(lambda e: math.ldexp(1.0, e) * factor).filter(math.isfinite)


TINY = 2.2250738585072014e-308
cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
    st.floats(-TINY, TINY),  # subnormals
    powers_of_two(),
    powers_of_two(TWO_PI_MHZ),
    powers_of_two(NS),
)
positive = cells.map(abs).filter(lambda value: value > 0.0)


def test_a_power_of_two_seconds_in_ns_takes_the_next_double_up():
    # 2**-20 s over 1 ns rounds one ulp below the double that multiplies back
    assert unit_exact_value(2.0**-20, NS) == math.nextafter(2.0**-20 / NS, math.inf)
    assert unit_exact_value(np.array([2.0**-20]), NS).tolist() == [unit_exact_value(2.0**-20, NS)]


@PROPERTY
@given(rows=st.lists(st.tuples(cells, cells, positive), max_size=8), with_sigmas=st.booleans())
@example(rows=[(-0.0, 5e-324, 5e-324), (TINY, -TINY, 1e308), (2.0**-20, 2.0**-20, 1.0)],
         with_sigmas=True)
def test_spectrum_csv_is_what_csv_writer_writes(rows, with_sigmas):
    deltas, values, sigmas = np.array(rows, dtype=float).reshape(-1, 3).T
    spectrum = Spectrum(deltas, values, sigmas if with_sigmas else None)
    header, columns = SPECTRUM_HEADER, [spectrum.values]
    if with_sigmas:
        header, columns = header + ("sigma",), columns + [spectrum.sigmas]
    assert spectrum_to_csv(spectrum) == csv_writer_reference(
        header, spectrum.deltas, TWO_PI_MHZ, columns
    )
    for delta in deltas.tolist():
        assert repr(unit_exact_value(delta, TWO_PI_MHZ)) == repr(
            float_unit_exact_value(delta, TWO_PI_MHZ)
        )


# times stay below 1e300, so that the trace's check of their steps cannot overflow
times = st.one_of(
    st.floats(-1e300, 1e300), st.just(-0.0), st.floats(-TINY, TINY), powers_of_two(top=990),
    powers_of_two(NS, 990),
)


@PROPERTY
@given(rows=st.lists(st.tuples(times, cells.map(abs)), max_size=8, unique_by=lambda row: row[0]))
@example(rows=[(-0.0, 0.0), (5e-324, 5e-324), (2.0**-20, 1e308), (2.0**-1021, 1.0)])
@example(rows=[(0.0, 1.0), (1e300, 0.5)])
def test_trace_csv_is_what_csv_writer_writes(rows):
    times, intensities = np.array(sorted(rows), dtype=float).reshape(-1, 2).T
    trace = RingdownTrace(times, intensities)
    if not all(math.isfinite(float_unit_exact_value(time, NS)) for time in times.tolist()):
        # a time past about 1.8e299 s overflows in ns
        with pytest.raises(DataFormatError, match="column t_ns$"):
            trace_to_csv(trace)
    else:
        assert trace_to_csv(trace) == csv_writer_reference(
            TRACE_HEADER, trace.times, NS, [trace.intensities]
        )
    for time in times.tolist():
        assert repr(unit_exact_value(time, NS)) == repr(float_unit_exact_value(time, NS))
