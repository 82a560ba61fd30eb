"""Rolling-window factor-count estimation over a time-indexed panel."""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass

from .estimators import KENDALL_METHODS, _estimate_many
from .kendall import pair_weight_band, window_kendall_tau
from .panel import DataPanel

__all__ = ["RollingResult", "rolling_estimate", "write_rolling_csv"]


@dataclass(frozen=True)
class RollingResult:
    """Per-window estimates: series holds (time_label, method, r_hat) rows."""

    series: list[tuple[str, str, int]]
    window: int
    start_index: int
    methods: tuple[str, ...]

    def by_method(self, method: str) -> list[tuple[str, int]]:
        """The (time_label, r_hat) path of one method."""
        return [(label, r) for label, m, r in self.series if m == method]

    def rows(self) -> Iterator[tuple]:
        """One (time_label, r_hat of each of ``methods``, in order) row per window."""
        step = len(self.methods)
        for i in range(0, len(self.series), step):
            chunk = self.series[i : i + step]
            values = {m: r for _, m, r in chunk}
            yield (chunk[0][0], *(values[m] for m in self.methods))


def rolling_estimate(panel: DataPanel, window: int, configs, progress=None) -> RollingResult:
    """Estimate the factor count on every length-``window`` trailing window.

    The panel must be complete (impute first). Windows end at observations
    window, window + 1, ..., T (1-based), giving T - window + 1 entries per
    method; each window is demeaned on its own per the configs. start_index
    is the 1-based time index of the first full window's endpoint.

    The Kendall matrices of all windows come from one
    :func:`~robustfactors.kendall.pair_weight_band` per demeaning mode; see
    :func:`~robustfactors.kendall.window_kendall_tau`.
    """
    if panel.has_missing:
        raise ValueError("panel has missing entries; impute before rolling estimation")
    T = panel.shape[0]
    if window < 2:
        raise ValueError("window must be >= 2")
    if window > T:
        raise ValueError(f"window {window} exceeds panel length {T}")
    need = max(cfg.k_max for cfg in configs.values()) + 2
    if window < need:
        raise ValueError(f"window {window} too small for k_max; need at least {need}")

    # One band of pair weights per demeaning mode serves every window. Double
    # demeaning a window subtracts each row's mean, which does not depend on
    # the window, and then a column shift, which cancels in every row
    # difference; so the row-demeaned panel stands in for it.
    values = panel.values
    modes = {cfg.demean for cfg in configs.values() if cfg.method in KENDALL_METHODS}
    bands = {
        mode: pair_weight_band(
            values - values.mean(axis=1, keepdims=True) if mode == "double" else values,
            window,
        )
        for mode in sorted(modes)
    }
    labels = panel.time_labels
    series: list[tuple[str, str, int]] = []
    n_windows = T - window + 1
    for start in range(n_windows):
        end = start + window - 1
        results = _estimate_many(
            DataPanel(values[start : end + 1]),
            configs,
            # None sends a window the shared weights cannot represent to sample_kendall_tau
            kendall=lambda mode: (
                window_kendall_tau(bands[mode], start) if bands[mode].covers(start) else None
            ),
        )
        label = labels[end] if labels is not None else str(end + 1)
        for name, res in results.items():
            series.append((label, name, res.r_hat))
        if progress is not None:
            progress(start + 1, n_windows)
    return RollingResult(
        series=series, window=window, start_index=window, methods=tuple(configs)
    )


def write_rolling_csv(result: RollingResult, path) -> None:
    """CSV with a time_label column and one integer column per method."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_label", *result.methods])
        writer.writerows(result.rows())
