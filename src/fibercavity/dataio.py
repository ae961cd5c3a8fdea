"""File formats: spectrum/trace CSV, event JSON-lines, run manifests.

Floats are written with ``repr``, which round-trips bit-exactly through
``float()`` in Python 3. Writers refuse NaN/Inf; readers raise DataFormatError,
naming the line, on a cell that is not a finite number. All files are written
atomically (temp file in the target directory, then rename).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import tempfile

import numpy as np

from .estimation import Spectrum
from .ringdown import RingdownTrace
from .steady import rows_per_block
from .units import TWO_PI_MHZ

SPECTRUM_HEADER = ("delta_two_pi_mhz", "transmission_normalized")
TRACE_HEADER = ("t_ns", "intensity_normalized")

NS = 1e-9


class DataFormatError(ValueError):
    """A data file does not match its expected format."""


def unit_exact_value(value: float, factor: float) -> float:
    """A double x with x * factor == value when one exists, else value/factor.

    Readers recover values as ``parsed * factor``; the naive quotient does
    not always survive that round trip. If some double y has y * factor ==
    value, the quotient x, being nearest to value/factor, puts x * factor no
    farther from value than y * factor, so it rounds to value too, unless
    value is a power of two: then the doubles just below it lie half as far
    apart, and x * factor may round down while y lies one ulp above x. So x
    or the next double up is exact; a foreign value falls back to x.
    """
    x = value / factor
    if x * factor == value:
        return x
    up = math.nextafter(x, math.inf)
    return up if up * factor == value else x


def _unit_exact_repr(value: float, factor: float) -> str:
    """Decimal string form of unit_exact_value; exact for lattice values,
    which makes read -> write a byte-level fixed point for our own files."""
    return repr(unit_exact_value(value, factor))


def _require_finite(array, what: str):
    array = np.asarray(array, dtype=float)
    if not np.all(np.isfinite(array)):
        raise DataFormatError(f"refusing to write non-finite values in {what}")
    return array


@contextlib.contextmanager
def _atomic_open(path):
    """A text handle on a temp file next to path, renamed onto path (atomic
    on POSIX) when the block ends; the temp file is removed on error."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_text(doc) -> str:
    """The text of every JSON document written here: sorted keys, two-space
    indent, no NaN or Infinity, one closing newline."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def atomic_write_text(path, text: str):
    """Write text to path via a temp file and rename (atomic on POSIX)."""
    with _atomic_open(path) as handle:
        handle.write(text)


def _rows_to_csv(header: tuple, x, factor: float, columns) -> str:
    """CSV text: ``header``, then one row per entry of x, written in units of
    ``factor`` (unit-exact), followed by that entry of each column."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for first, *rest in zip(x.tolist(), *(column.tolist() for column in columns)):
        writer.writerow([_unit_exact_repr(first, factor), *map(repr, rest)])
    return buffer.getvalue()


def spectrum_to_csv(spectrum: Spectrum) -> str:
    """Render a spectrum as CSV with detunings in the 2pi x MHz convention."""
    deltas = _require_finite(spectrum.deltas, "spectrum detunings")
    columns, header = [_require_finite(spectrum.values, "spectrum values")], SPECTRUM_HEADER
    if spectrum.sigmas is not None:
        columns.append(_require_finite(spectrum.sigmas, "spectrum sigmas"))
        header += ("sigma",)
    return _rows_to_csv(header, deltas, TWO_PI_MHZ, columns)


def _csv_columns(text: str, header: tuple, what: str, optional: str | None = None):
    """Numeric columns of a CSV document that starts with ``header``, plus the
    ``optional`` column when the header names it; errors name the line."""
    reader = csv.reader(io.StringIO(text))
    first = next((row for row in reader if row), None)
    if first is None or tuple(first[: len(header)]) != header:
        raise DataFormatError(f"{what} CSV must start with header {','.join(header)}")
    has_optional = len(first) > len(header) and first[len(header)] == optional
    width = len(header) + has_optional
    rows = []
    for row in reader:
        if not row:
            continue
        try:
            values = [float(cell) for cell in row[:width]]
        except ValueError:
            values = [math.nan]
        if len(values) < width or not all(map(math.isfinite, values)):
            raise DataFormatError(
                f"{what} CSV line {reader.line_num}: expected {width} finite numbers, "
                f"got {row!r}"
            )
        rows.append(values)
    return np.array(rows, dtype=float).reshape(-1, width).T.copy()


def write_spectrum_csv(path, spectrum: Spectrum):
    atomic_write_text(path, spectrum_to_csv(spectrum))


def read_spectrum_csv(path) -> Spectrum:
    with open(path, "r", encoding="utf-8") as handle:
        columns = _csv_columns(handle.read(), SPECTRUM_HEADER, "spectrum", optional="sigma")
    return Spectrum(
        deltas=columns[0] * TWO_PI_MHZ,
        values=columns[1],
        sigmas=columns[2] if len(columns) > 2 else None,
    )


def trace_to_csv(trace: RingdownTrace) -> str:
    """Render a ring-down trace as CSV with times in ns."""
    times = _require_finite(trace.times, "trace times")
    intensities = _require_finite(trace.intensities, "trace intensities")
    return _rows_to_csv(TRACE_HEADER, times, NS, [intensities])


def write_trace_csv(path, trace: RingdownTrace):
    atomic_write_text(path, trace_to_csv(trace))


def read_trace_csv(path) -> RingdownTrace:
    with open(path, "r", encoding="utf-8") as handle:
        times, intensities = _csv_columns(handle.read(), TRACE_HEADER, "trace")
    return RingdownTrace(times=times * NS, intensities=intensities)


def detuning_keys(detunings) -> list:
    """The events.jsonl key of each detuning: its 2pi x MHz value to 3 decimals.

    Raises DataFormatError when two detunings share a key, which would
    silently drop one of their counts from every line.
    """
    keys = {}
    for d in np.asarray(detunings, dtype=float).tolist():
        key = f"{d / TWO_PI_MHZ:.3f}"
        if key in keys:
            raise DataFormatError(
                f"detunings {keys[key] / TWO_PI_MHZ!r} and {d / TWO_PI_MHZ!r} "
                f"(2pi x MHz) share the events.jsonl key {key!r}"
            )
        keys[key] = d
    return list(keys)


def _event_blocks(ensemble):
    """The events.jsonl text of each block of ``rows_per_block`` sequences, in order.

    Each line is what ``json.dumps(..., sort_keys=True)`` writes for the
    sequence's record: one %-template per grid holds the sorted keys, with
    the count columns in key order, ``%d`` for ints and ``%r`` (the
    ``float.__repr__`` json uses) for floats. Non-finite floats are refused
    before anything is yielded.
    """
    keys = detuning_keys(ensemble.detunings)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    local_g = _require_finite(ensemble.local_g / TWO_PI_MHZ, "event local_g")
    normalized = _require_finite(ensemble.normalized_detection, "event normalized_detection")
    counts = ", ".join(f"{json.dumps(keys[j])}: %d" for j in order)
    template = (
        '{"atom_present": %s, "detection_counts": %d, "level": %d, '
        '"local_g": {"unit": "two_pi_mhz", "value": %r}, "normalized_detection": %r, '
        '"spectroscopy_counts": {' + counts + '}, "survived_hold": %s}\n'
    )

    def block(rows):
        columns = zip(
            np.where(ensemble.atom_present[rows], "true", "false").tolist(),
            ensemble.detection_counts[rows].tolist(),
            ensemble.level[rows].tolist(),
            local_g[rows].tolist(),
            normalized[rows].tolist(),
            ensemble.spectroscopy_counts[rows, order].tolist(),
            np.where(ensemble.survived_hold[rows], "true", "false").tolist(),
        )
        return "".join(
            template % (present, detection, level, g, value, *row, survived)
            for present, detection, level, g, value, row, survived in columns
        )

    step = rows_per_block(len(keys))
    return (block(slice(i, i + step)) for i in range(0, len(ensemble), step))


def write_events_jsonl(path, ensemble):
    """Write events.jsonl atomically, one block of sequences at a time."""
    blocks = _event_blocks(ensemble)
    with _atomic_open(path) as handle:
        handle.writelines(blocks)


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one CLI run bit-identically."""

    subcommand: str
    config: dict
    inputs: list
    outputs: list
    seed: int
    tool_version: str
    numpy_version: str
    python_version: str
    duration_s: float

    def to_json(self) -> str:
        return json_text(dataclasses.asdict(self))


def write_manifest(path, manifest: RunManifest):
    atomic_write_text(path, manifest.to_json())
