"""File formats: spectrum/trace CSV, event JSON-lines, the JSON text of every document.

Floats are written with ``repr``, which round-trips bit-exactly through
``float()`` in Python 3. The CSV writers refuse a column that holds NaN/Inf
in its file unit, naming its header cell; the events writer refuses NaN/Inf
floats and negative ints. Readers raise DataFormatError, naming the line, on
a cell that is not a finite number, on a header cell past the declared and
optional columns and on a row whose cells do not match the header, and, naming
the file, on a file that is not UTF-8. All files are written atomically
(temp file in the target directory, then rename).

The CSV writers convert a whole column to its file unit with numpy and join
the ``repr`` of each cell. ``events.jsonl`` is built a block of sequences at
a time in one reusable uint8 frame, whose constant text is filled in once;
each block writes only its NUL-padded value slots, ints as digits computed
in their column's own dtype, and the padding is dropped with one
``bytes.translate``.
"""

from __future__ import annotations

import contextlib
import csv
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


def unit_exact_value(value, factor: float):
    """A double x with x * factor == value when one exists, else value/factor;
    elementwise on an array, a float for a scalar.

    Readers recover values as ``parsed * factor``; the naive quotient does
    not always survive that round trip. If some double y has y * factor ==
    value, the quotient x, being nearest to value/factor, puts x * factor no
    farther from value than y * factor, so it rounds to value too, unless
    value is a power of two: then the doubles just below it lie half as far
    apart, and x * factor may round down while y lies one ulp above x. So x
    or the next double up is exact; a foreign value falls back to x.
    """
    value = np.asarray(value, dtype=float)
    with np.errstate(over="ignore"):  # an overflow is inf, as in float arithmetic
        x = value / factor
        up = np.nextafter(x, math.inf)
        exact = np.where((x * factor != value) & (up * factor == value), up, x)
    return exact if exact.ndim else float(exact)


def _require_finite(array, what: str):
    array = np.asarray(array, dtype=float)
    if not np.all(np.isfinite(array)):
        raise DataFormatError(f"refusing to write non-finite values in {what}")
    return array


@contextlib.contextmanager
def _atomic_open(path):
    """A binary handle on a temp file next to path, renamed onto path (atomic
    on POSIX) when the block ends; the temp file is removed on error."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
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
        handle.write(text.encode("utf-8"))


def _rows_to_csv(header: tuple, x, factor: float, columns) -> str:
    """CSV text: ``header``, then one row per entry of x, written in units of
    ``factor`` (unit-exact, which makes read -> write a byte-level fixed point
    for our own files), followed by that entry of each column. A column with
    a cell that is not finite in its file unit is refused, named by its
    header cell. No cell needs CSV quoting: the header's names and the
    ``repr`` of finite floats hold no comma, quote or line break."""
    columns = [
        _require_finite(column, f"column {name}")
        for name, column in zip(header, (unit_exact_value(x, factor), *columns))
    ]
    cells = (map(repr, column.tolist()) for column in columns)
    return "".join(",".join(row) + "\n" for row in (header, *zip(*cells)))


def spectrum_to_csv(spectrum: Spectrum) -> str:
    """Render a spectrum as CSV with detunings in the 2pi x MHz convention."""
    columns, header = [spectrum.values], SPECTRUM_HEADER
    if spectrum.sigmas is not None:
        columns.append(spectrum.sigmas)
        header += ("sigma",)
    return _rows_to_csv(header, spectrum.deltas, TWO_PI_MHZ, columns)


def _csv_columns(path, header: tuple, what: str, x_unit: float, optional: str | None = None):
    """Numeric columns of the UTF-8 CSV file ``path`` that starts with ``header``,
    plus the ``optional`` column when the header names it, the first column in
    SI units (times ``x_unit``); errors name the line."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            reader = csv.reader(io.StringIO(handle.read()))
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{what} CSV {path} is not UTF-8: {exc}") from exc
    first = next((row for row in reader if row), None)
    if first is None or tuple(first[: len(header)]) != header:
        raise DataFormatError(f"{what} CSV must start with header {','.join(header)}")
    has_optional = len(first) > len(header) and first[len(header)] == optional
    width = len(header) + has_optional
    if len(first) > width:
        raise DataFormatError(
            f"{what} CSV line {reader.line_num}: unknown column {first[width]!r} "
            f"after {','.join(first[:width])}"
        )
    rows = []
    for row in reader:
        if not row:
            continue
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            values = [math.nan]
        if len(values) != width or not all(map(math.isfinite, values)):
            raise DataFormatError(
                f"{what} CSV line {reader.line_num}: expected {width} finite numbers, "
                f"got {row!r}"
            )
        values[0] *= x_unit
        if not math.isfinite(values[0]):
            raise DataFormatError(
                f"{what} CSV line {reader.line_num}: {header[0]} {row[0]} overflows in SI units"
            )
        rows.append(values)
    return np.array(rows, dtype=float).reshape(-1, width).T.copy()


def read_spectrum_csv(path) -> Spectrum:
    columns = _csv_columns(path, SPECTRUM_HEADER, "spectrum", TWO_PI_MHZ, optional="sigma")
    return Spectrum(
        deltas=columns[0],
        values=columns[1],
        sigmas=columns[2] if len(columns) > 2 else None,
    )


def trace_to_csv(trace: RingdownTrace) -> str:
    """Render a ring-down trace as CSV with times in ns."""
    return _rows_to_csv(TRACE_HEADER, trace.times, NS, [trace.intensities])


def read_trace_csv(path) -> RingdownTrace:
    times, intensities = _csv_columns(path, TRACE_HEADER, "trace", NS)
    return RingdownTrace(times=times, intensities=intensities)


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


# The longest repr of a finite double, e.g. -2.2250738585072014e-308
FLOAT_REPR_WIDTH = 24


def _require_digits(values, what: str) -> int:
    """The number of digits of the largest of the ints ``values``; negative
    values are refused."""
    if values.size and values.min() < 0:
        raise DataFormatError(f"refusing to write negative values in {what}")
    return len(str(int(values.max()) if values.size else 0))


def _put_digits(slots, values):
    """Write the non-negative ints ``values``, in their own dtype, into the
    uint8 ``slots``, one digit a byte along their last axis: ASCII digits at
    the end, NUL before."""
    units = slots.shape[-1] - 1
    for i in range(units, -1, -1):
        quotient = values // 10
        digit = values - quotient * 10
        # '0' + digit, or NUL once nothing is left of the value; the units always show
        digit += 48 * np.minimum(values, 1) if i < units else 48
        slots[..., i] = digit
        values = quotient


def _put_strings(slots, strings):
    """Write the ASCII ``strings``, NUL-padded, into the rows of the uint8 ``slots``."""
    slots[...] = np.asarray(strings, dtype=f"S{slots.shape[-1]}").view(np.uint8).reshape(slots.shape)


def _event_blocks(ensemble):
    """The events.jsonl bytes of each block of ``rows_per_block`` sequences, in order.

    Each line is what ``json.dumps(..., sort_keys=True)`` writes for the
    sequence's record. A block is one uint8 frame, a row per line, that holds
    the constant text (the field names and every sorted ``"key": ``) and a
    fixed-width slot per value, NUL-padded: ints as ASCII digits, floats as
    their ``repr`` (the ``float.__repr__`` json uses), flags as ``true`` or
    ``false``. Each block overwrites only the slots, and dropping the NULs
    leaves its lines. Non-finite floats and negative ints are refused before
    anything is yielded.
    """
    keys = detuning_keys(ensemble.detunings)
    order = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp)
    # a finite rate stays finite in 2pi x MHz; each block converts its own rows
    local_g = _require_finite(ensemble.local_g, "event local_g")
    normalized = _require_finite(ensemble.normalized_detection, "event normalized_detection")
    digits = {
        name: _require_digits(getattr(ensemble, name), f"event {name}")
        for name in ("detection_counts", "level", "spectroscopy_counts")
    }

    line, slots = bytearray(), {}

    def slot(name, width):
        slots[name] = slice(len(line), len(line) + width)
        line.extend(bytes(width))

    line += b'{"atom_present": '
    slot("atom_present", 5)
    line += b', "detection_counts": '
    slot("detection_counts", digits["detection_counts"])
    line += b', "level": '
    slot("level", digits["level"])
    line += b', "local_g": {"unit": "two_pi_mhz", "value": '
    slot("local_g", FLOAT_REPR_WIDTH)
    line += b'}, "normalized_detection": '
    slot("normalized_detection", FLOAT_REPR_WIDTH)
    line += b', "spectroscopy_counts": {'
    # the counts form a grid: each cell is a separator, a key padded to the
    # longest and a count slot
    count_width = digits["spectroscopy_counts"]
    cells = [(", " if i else "") + f"{json.dumps(keys[j])}: " for i, j in enumerate(order)]
    cell_width = max(map(len, cells), default=0) + count_width
    grid = slice(len(line), len(line) + len(cells) * cell_width)
    line += b"".join(cell.encode().ljust(cell_width, b"\0") for cell in cells)
    line += b'}, "survived_hold": '
    slot("survived_hold", 5)
    line += b"}\n"

    step = rows_per_block(len(keys))
    text = line * step
    frame = np.frombuffer(text, dtype=np.uint8).reshape(step, len(line))
    count_slots = frame[:, grid].reshape(step, len(cells), cell_width)[:, :, -count_width:]

    def block(start):
        rows = slice(start, start + step)
        part = frame[: min(step, len(ensemble) - start)]
        for name in ("atom_present", "survived_hold"):
            _put_strings(part[:, slots[name]], np.where(getattr(ensemble, name)[rows], b"true", b"false"))
        for name, values in (
            ("local_g", local_g[rows] / TWO_PI_MHZ), ("normalized_detection", normalized[rows])
        ):
            _put_strings(part[:, slots[name]], list(map(repr, values.tolist())))
        for name in ("detection_counts", "level"):
            _put_digits(part[:, slots[name]], getattr(ensemble, name)[rows])
        _put_digits(count_slots[: len(part)], ensemble.spectroscopy_counts[rows, order])
        return (text if len(part) == step else text[: part.nbytes]).translate(None, b"\0")

    return (block(start) for start in range(0, len(ensemble), step))


def write_events_jsonl(path, ensemble):
    """Write events.jsonl atomically, one block of sequences at a time."""
    blocks = _event_blocks(ensemble)
    with _atomic_open(path) as handle:
        handle.writelines(blocks)
