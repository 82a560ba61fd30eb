"""Data panel representation, CSV ingestion, imputation, and demeaning.

A panel is a T x N matrix of observations: rows are time points, columns are
series, and a NaN cell is missing. Every estimator in this package consumes a
complete :class:`DataPanel` (impute first) and row-demeans it once, itself.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._errors import _check_flags
from ._helper import _beside

__all__ = ["DataPanel", "ingest_csv", "impute_column_mean", "double_demean"]

# Tokens treated as missing cells in CSV input (case-insensitive).
_MISSING_TOKENS = {"", "na", "nan"}


def _fromstring_raises() -> bool:
    """Whether np.fromstring raises ValueError at a cell it cannot read, as numpy 2
    does; older numpy warns and returns the cells before it."""
    try:
        np.fromstring("1,x", dtype=np.longdouble, sep=",")
    except ValueError:
        return True
    except DeprecationWarning:  # older numpy's warning, where a filter makes it an error
        pass
    return False


# _read_long needs the x87 80-bit long double: a 64-bit significand word, then
# the sign and 15-bit exponent, in 16 little-endian bytes; and an np.fromstring
# that raises where it stops.
_LONG_READER = (
    np.finfo(np.longdouble).nmant == 63
    and np.dtype(np.longdouble).itemsize == 16
    and sys.byteorder == "little"
    and _fromstring_raises()
)
# The biased long-double exponent of the least normal double, 2**-1022.
_LONG_DOUBLE_MIN_NORMAL_DOUBLE = 16383 - 1022
# Data lines per np.fromstring call; one joined chunk per thread is live at a time.
_CHUNK_ROWS = 64


@dataclass(frozen=True, eq=False)  # array fields: equality and hash are identity
class DataPanel:
    """T x N observation matrix with optional time labels; a NaN cell is missing.

    Parameters
    ----------
    values : np.ndarray
        T x N float matrix; rows are time points, columns are series. NaN
        marks a missing cell; an infinite cell is rejected.
    time_labels : list of str, optional
        One label per row; opaque strings, never parsed.
    """

    values: np.ndarray
    time_labels: list[str] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("panel values must be a 2-d matrix")
        T, N = values.shape
        if T < 2 or N < 2:
            raise ValueError(f"panel must be at least 2 x 2, got {T} x {N}")
        if np.isinf(values).any():
            raise ValueError("non-missing panel cells must be finite")
        if self.time_labels is not None and len(self.time_labels) != T:
            raise ValueError("time_labels length must equal row count")
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def missing_mask(self) -> np.ndarray:
        """T x N boolean array, True where a cell is missing (NaN)."""
        return np.isnan(self.values)

    @property
    def has_missing(self) -> bool:
        return bool(self.missing_mask.any())


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return np.nan


def _check_cell(cell: str, path, lineno: int, colno: int) -> float:
    """Value of a cell whose plain float() failed or was not finite.

    Missing tokens give NaN; anything else that is not a finite number raises
    with the cell's 1-based row and column.
    """
    token = cell.strip()
    if token.lower() in _MISSING_TOKENS:
        return np.nan
    try:
        x = float(token)
    except ValueError:
        raise ValueError(
            f"{path}: cannot parse cell at row {lineno}, column {colno}: {cell!r}"
        ) from None
    if not math.isfinite(x):
        raise ValueError(f"{path}: non-finite value at row {lineno}, column {colno}")
    return x


def ingest_csv(path, has_header: bool = True, has_time_column: bool = False) -> DataPanel:
    """Read a panel from a CSV file.

    Parameters
    ----------
    path : str or os.PathLike
        UTF-8, comma-separated file; cells may be quoted, and a leading
        byte-order mark is dropped. A cell that is empty, "NA" or "NaN" (any
        case, surrounding whitespace allowed) is missing. Every other cell
        must be a finite number: "inf", "+nan" and overflowing literals such
        as "1e999" are rejected, and so is a byte that is not UTF-8 or a cell
        over csv.field_size_limit(). Error messages give 1-based rows that
        count the header.
    has_header : bool
        Skip the first row. True or False, as a Python or numpy bool.
    has_time_column : bool
        Treat the first column as opaque time labels. True or False.

    Returns
    -------
    DataPanel
        Missing cells hold NaN; column order is preserved.

    Notes
    -----
    A plain file (no quotes, carriage returns, NUL characters, blank lines or
    cells over the field size limit; the same number of commas on every data
    line) is read by numpy's C readers unless they reject it, it holds an
    infinite value, or a data cell has an "n" and is not a missing token. If
    a cell of the first data row has more than 15 significant digits,
    np.fromstring reads the cells as x87 long doubles, which are rounded to
    doubles, and the few cells where that rounding can part from float() are
    read again; on such cells this is faster than np.loadtxt, which reads
    every other plain file. Past 64 data lines that parse is shared with the
    package's one helper thread (see :mod:`robustfactors._helper`). Every
    other file is read cell by cell; only that parser raises on a cell, and
    all readers give the same value bytes, labels and messages.
    """
    _check_flags(has_header=has_header, has_time_column=has_time_column)
    with open(path, "rb") as fh:
        try:
            text = fh.read().decode("utf-8-sig")
        except UnicodeDecodeError as exc:  # exc.object is the input after any byte-order mark
            row = exc.object.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"{path}: row {row} is not valid UTF-8") from None
    panel = _read_plain(text, has_header, has_time_column)
    if panel is None:
        panel = _read_cells(text, path, has_header, has_time_column)
    return panel


def _read_plain(text: str, has_header: bool, has_time_column: bool) -> DataPanel | None:
    """The panel of a plain file, read by numpy; None sends the file to _read_cells.

    Here csv.reader would split each line at its commas and nothing else, so
    the labels are the text before the first comma and the values are what
    numpy reads once every empty cell is spelled "nan". When the first data
    row has a cell with more than 15 significant digits, as repr, pandas and
    np.savetxt write them, _read_long reads the cells; otherwise, or when it
    declines the file, np.loadtxt does. Either way each value is the correctly
    rounded double that float() gives. NUL and cells over csv's field size
    limit go to csv.reader, which may raise on them; only a line longer than
    that limit is split to find its longest cell.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    skip = 1 if has_header else 0
    if len(lines) - skip < 2 or "" in lines:
        return None
    limit = csv.field_size_limit()
    if any(len(line) > limit and max(map(len, line.split(","))) > limit for line in lines):
        return None
    del lines[:skip]
    labels = [] if has_time_column else None
    # Each line is replaced by its filled data cells, so one copy of the text is live.
    for i, line in enumerate(lines):
        if has_time_column:
            label, _, line = line.partition(",")
            if not line:  # no data cell, which loadtxt would skip
                return None
            labels.append(label)
        # Only nan, inf and infinity hold an "n" and parse as floats.
        if ("n" in line or "N" in line) and any(
            "n" in cell and cell.strip() not in _MISSING_TOKENS for cell in line.lower().split(",")
        ):
            return None
        if ",," in line or line[0] == "," or line[-1] == ",":
            line = line.replace(",,", ",nan,").replace(",,", ",nan,")
            line = ("nan" if line[0] == "," else "") + line + ("nan" if line[-1] == "," else "")
        lines[i] = line
    values = _read_long(lines) if _LONG_READER and _has_long_cells(lines[0]) else None
    if values is None:
        # loadtxt rejects a line whose cell count differs from the first line's.
        try:
            values = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            return None
    if values.shape[1] < 2 or np.isinf(values).any():
        return None
    return DataPanel(values, time_labels=labels)


def _has_long_cells(line: str) -> bool:
    """Whether a cell of the line has more than 15 significant digits.

    Past 15 digits Gay's strtod, behind float() and np.loadtxt, leaves its
    exact fast path for a bignum correction step, and strtold is faster.
    """
    return any(
        len(cell.partition("e")[0].partition("E")[0].lstrip("+-0.").replace(".", "")) > 15
        for cell in line.split(",")
    )


def _read_long(lines: list[str]) -> np.ndarray | None:
    """Filled data lines read by glibc's strtold and rounded to doubles; None declines them.

    A long double holds the correctly rounded 64-bit significand of the
    decimal, and rounding it to 53 bits gives float()'s double unless it lies
    exactly halfway between two doubles (its 11 dropped bits are 0x400) or
    below the normal double range, where a double has fewer bits. Only those
    cells are read again with float(). np.fromstring also reads hex and
    reads a blank cell as 0, so a chunk with whitespace or an "x" is
    declined, as is any line whose comma count differs from the first's; it
    raises on any other cell that float() rejects. Where numpy only warns
    there and returns the cells before it, _LONG_READER keeps every file from
    this reader, which sets no warning filter: those are process-wide.

    The odd chunks go to the thread of :mod:`._helper` and the even ones are
    read here, each writing only its own rows; np.fromstring runs strtold
    without the GIL, and a cell goes through the same calls on either thread.
    A file of one chunk is read here alone. The helper's exception is raised here.
    """
    commas = lines[0].count(",")
    if any(line.count(",") != commas for line in lines):
        return None
    width = commas + 1
    values = np.empty((len(lines), width))
    redo = np.empty((len(lines), width), dtype=bool)
    starts = range(0, len(lines), _CHUNK_ROWS)
    stopped = []  # a chunk declined; both threads then stop

    def read(chunk_starts):
        with np.errstate(over="ignore"):  # 1e999 rounds to inf, which _read_plain declines
            for start in chunk_starts:
                if stopped:
                    return
                stop = min(start + _CHUNK_ROWS, len(lines))
                chunk = ",".join(lines[start:stop])
                if not chunk.isascii() or any(ch in chunk for ch in " \t\v\fxX"):
                    stopped.append(None)
                    return
                try:
                    wide = np.fromstring(chunk, dtype=np.longdouble, sep=",")
                except ValueError:
                    stopped.append(None)
                    return
                del chunk  # before the next join
                words = wide.view(np.uint64).reshape(stop - start, width, 2)
                significand, exponent = words[..., 0], words[..., 1] & 0x7FFF  # drops the sign bit
                redo[start:stop] = ((significand & 0x7FF) == 0x400) | (
                    (exponent < _LONG_DOUBLE_MIN_NORMAL_DOUBLE) & (significand != 0)
                )
                values[start:stop] = wide.reshape(stop - start, width)  # rounds; 1e999 becomes inf

    helped = _beside(partial(read, starts[1::2])) if len(starts) > 1 else lambda: (None, None)
    try:
        read(starts[::2])
    finally:
        _, error = helped()
    if error is not None:
        raise error
    if stopped:
        return None
    row = -1
    for r, c in zip(*np.nonzero(redo)):
        if r != row:
            row, cells = r, lines[r].split(",")
        values[r, c] = float(cells[c])
    return values


def _read_cells(text: str, path, has_header: bool, has_time_column: bool) -> DataPanel:
    """The exact parser: csv.reader records, checked cell by cell; raises every input error."""
    # A well-formed cell costs one float() call. Only a row whose sum is not
    # finite is looked at cell by cell, and there only the non-finite cells.
    rows: list[list[float]] = []
    labels: list[str] = []
    width = None
    for lineno, record in _records(text, path):
        if has_header and lineno == 1:
            continue
        if has_time_column:
            if not record:
                raise ValueError(f"{path}: row {lineno} is empty")
            labels.append(record.pop(0))
        if width is None:
            if not record:  # the first data row would set a width of 0
                raise ValueError(f"{path}: row {lineno} has no data cell")
            width = len(record)
        elif len(record) != width:
            raise ValueError(
                f"{path}: row {lineno} has {len(record)} columns, expected {width}"
            )
        row = list(map(_float_or_nan, record))
        if not math.isfinite(sum(row)):
            row = [
                x if math.isfinite(x) else _check_cell(cell, path, lineno, colno)
                for colno, (x, cell) in enumerate(zip(row, record), start=1)
            ]
        rows.append(row)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(rows)}")
    if width is None or width < 2:
        raise ValueError(f"{path}: need at least 2 columns, got {width or 0}")
    return DataPanel(np.array(rows, dtype=np.float64), labels if has_time_column else None)


def _records(text: str, path):
    """(1-based row, record) of each csv.reader record of the text; a csv.Error,
    such as a cell over the field size limit, becomes a ValueError naming the row."""
    row = 0
    try:
        for row, record in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
            yield row, record
    except csv.Error as exc:
        raise ValueError(f"{path}: cannot read row {row + 1}: {exc}") from None


def impute_column_mean(panel: DataPanel) -> DataPanel:
    """Replace missing (NaN) cells with the mean of the non-missing cells of their column.

    Non-missing cells are unchanged; the returned panel has no missing cell.
    Raises ValueError if some column is entirely missing.
    """
    values = panel.values.copy()
    mask = panel.missing_mask
    for j in np.flatnonzero(mask.any(axis=0)):
        col_missing = mask[:, j]
        if col_missing.all():
            raise ValueError(f"column {j} is entirely missing; cannot impute")
        values[col_missing, j] = values[~col_missing, j].mean()
    return DataPanel(values, panel.time_labels)


def double_demean(panel: DataPanel) -> DataPanel:
    """Subtract the row (time) means, then the column (series) means of the result.

    This is the panel ER, GR and TCR read. Rows and columns each sum to zero
    up to rounding. Idempotent. Raises ValueError when missing values are present.
    """
    if panel.has_missing:
        raise ValueError("cannot demean a panel with missing values; impute first")
    rows = panel.values - panel.values.mean(axis=1, keepdims=True)
    return DataPanel(rows - rows.mean(axis=0), panel.time_labels)
