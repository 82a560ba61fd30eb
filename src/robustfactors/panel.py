"""Data panel representation, CSV ingestion, imputation, and demeaning.

A panel is a T x N matrix of observations: rows are time points, columns are
series. Every estimator in this package consumes a :class:`DataPanel`, usually
after :func:`double_demean`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["DataPanel", "ingest_csv", "impute_column_mean", "double_demean"]

# Tokens treated as missing cells in CSV input (case-insensitive).
_MISSING_TOKENS = {"", "na", "nan"}


@dataclass(frozen=True)
class DataPanel:
    """T x N observation matrix with optional time labels and missing mask.

    Parameters
    ----------
    values : np.ndarray
        T x N float matrix; rows are time points, columns are series.
    time_labels : list of str, optional
        One label per row; opaque strings, never parsed.
    missing_mask : np.ndarray, optional
        T x N boolean mask, True where the value is missing. Defaults to
        all-False.
    """

    values: np.ndarray
    time_labels: list[str] | None = None
    missing_mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("panel values must be a 2-d matrix")
        T, N = values.shape
        if T < 2 or N < 2:
            raise ValueError(f"panel must be at least 2 x 2, got {T} x {N}")
        mask = self.missing_mask
        if mask is None:
            mask = np.zeros((T, N), dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (T, N):
                raise ValueError("missing_mask shape must match values")
        if not (np.isfinite(values) | mask).all():
            raise ValueError("non-missing panel cells must be finite")
        if self.time_labels is not None and len(self.time_labels) != T:
            raise ValueError("time_labels length must equal row count")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "missing_mask", mask)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

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
        UTF-8, comma-separated file; cells may be quoted. A cell that is
        empty, "NA" or "NaN" (any case, surrounding whitespace allowed) is
        missing. Every other cell must be a finite number: "inf", "+nan" and
        overflowing literals such as "1e999" are rejected. Error messages give
        1-based rows that count the header.
    has_header : bool
        Skip the first row.
    has_time_column : bool
        Treat the first column as opaque time labels.

    Returns
    -------
    DataPanel
        Missing cells are flagged in the mask and hold NaN; column order is
        preserved.
    """
    # A well-formed cell costs one float() call. Only a row whose sum is not
    # finite is looked at cell by cell, and there only the non-finite cells.
    rows: list[list[float]] = []
    labels: list[str] = []
    width = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, record in enumerate(reader, start=1):
            if has_header and lineno == 1:
                continue
            if has_time_column:
                if not record:
                    raise ValueError(f"{path}: row {lineno} is empty")
                labels.append(record.pop(0))
            if width is None:
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
    values = np.array(rows, dtype=np.float64)
    return DataPanel(
        values,
        time_labels=labels if has_time_column else None,
        missing_mask=np.isnan(values),
    )


def impute_column_mean(panel: DataPanel) -> DataPanel:
    """Replace missing cells with the mean of the non-missing cells of their column.

    Non-missing cells are unchanged; the returned panel has an all-false mask.
    Raises ValueError if some column is entirely missing.
    """
    if not panel.has_missing:
        return DataPanel(panel.values.copy(), panel.time_labels)
    values = panel.values.copy()
    mask = panel.missing_mask
    for j in np.flatnonzero(mask.any(axis=0)):
        col_missing = mask[:, j]
        if col_missing.all():
            raise ValueError(f"column {j} is entirely missing; cannot impute")
        values[col_missing, j] = values[~col_missing, j].mean()
    return DataPanel(values, panel.time_labels)


def double_demean(panel: DataPanel) -> DataPanel:
    """Subtract series means and time means, adding back the grand mean.

    Output rows and columns each sum to zero up to rounding. Idempotent.
    Raises ValueError when missing values are present.
    """
    if panel.has_missing:
        raise ValueError("cannot demean a panel with missing values; impute first")
    return DataPanel(_double_demean(panel.values), panel.time_labels)


def _double_demean(y: np.ndarray) -> np.ndarray:
    """y minus its time means (row means) and series means (column means), plus its grand mean."""
    return y - y.mean(axis=1, keepdims=True) - y.mean(axis=0, keepdims=True) + y.mean()
