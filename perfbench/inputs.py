"""Seeded inputs of the benchmark workloads.

This module imports numpy only, never robustfactors: the inputs are made by
the benchmark, before any timing starts, and the program receives only the
files written here. The same seed always gives the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from worker import CSV_FILE, PANEL_FILE

# FRED-MD shape: 708 monthly observations of 128 transformed series. The real
# file is not shipped with the repository, so a synthetic panel of that shape
# stands in for it.
FRED_T, FRED_N = 708, 128
FACTORS = 4
# estimate_csv: this many trailing columns start late, between rows
# LATE_START[0] and LATE_START[1] - 1. FRED-MD has a few late-starting series,
# which is why the CSV has missing leading cells at all, but these numbers are
# arbitrary: they copy no series' start date. They fix how many cells the
# imputation fills, so panel.cells_imputed and panel.impute_ms are guards
# against a change in that cost, not a measure of FRED-MD's.
LATE_COLUMNS = 16
LATE_START = (24, 180)


def factor_panel(rng: np.random.Generator, T: int, N: int, r: int, nu: float) -> np.ndarray:
    """T x N multivariate-t factor panel with ``r`` factors and ``nu`` degrees of freedom.

    Each row (F_t, e_t) is Gaussian scaled by one radial draw
    sqrt(nu / chi2_nu), so the rows are jointly elliptical; nu = 1 gives the
    multivariate Cauchy.
    """
    F = rng.standard_normal((T, r))
    loadings = rng.standard_normal((N, r))
    E = rng.standard_normal((T, N))
    radial = np.sqrt(nu / rng.chisquare(nu, size=(T, 1)))
    return (F @ loadings.T + E) * radial


def rolling_panel(seed: int) -> np.ndarray:
    """The rolling_fred input: a 708 x 128 t3 factor panel."""
    return factor_panel(np.random.default_rng([seed, 1]), FRED_T, FRED_N, FACTORS, 3.0)


def csv_panel(seed: int) -> np.ndarray:
    """The estimate_csv input: a 708 x 128 Cauchy factor panel, NaN where missing.

    The last LATE_COLUMNS series start late, at seeded rows in LATE_START.
    """
    rng = np.random.default_rng([seed, 2])
    Y = factor_panel(rng, FRED_T, FRED_N, FACTORS, 1.0)
    starts = rng.integers(*LATE_START, size=LATE_COLUMNS)
    for j, start in zip(range(FRED_N - LATE_COLUMNS, FRED_N), starts):
        Y[:start, j] = np.nan
    return Y


def write_csv(Y: np.ndarray, path: Path) -> None:
    """Dated CSV with a header; missing cells are empty, values keep every digit."""
    T, N = Y.shape
    lines = ["date," + ",".join(f"x{j + 1}" for j in range(N))]
    for t in range(T):
        cells = ("" if np.isnan(v) else repr(float(v)) for v in Y[t])
        lines.append(f"{1959 + t // 12}-{t % 12 + 1:02d}," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_inputs(workload: str, seed: int, directory: Path) -> None:
    """Write the input files of one workload; sim_c1 needs none (its input is the seed)."""
    if workload == "rolling_fred":
        np.save(directory / PANEL_FILE, rolling_panel(seed))
    elif workload == "estimate_csv":
        write_csv(csv_panel(seed), directory / CSV_FILE)
