"""Rolling-window factor-count estimation over a time-indexed panel."""

from __future__ import annotations

from dataclasses import dataclass, field

from ._errors import _check_integers
from .estimators import _check_size, _decide, _window_band
from .panel import DataPanel

__all__ = ["RollingResult", "rolling_estimate"]


@dataclass(frozen=True)
class RollingResult:
    """One (time_label, r_hat of each of ``methods``) row per window; ``rows`` is not hashed."""

    rows: list[tuple] = field(hash=False)
    window: int
    methods: tuple[str, ...]

    def by_method(self, method: str) -> list[tuple[str, int]]:
        """The (time_label, r_hat) path of one method."""
        if method not in self.methods:
            raise ValueError(f"unknown method {method!r}; this result holds {self.methods}")
        col = 1 + self.methods.index(method)
        return [(row[0], row[col]) for row in self.rows]


def rolling_estimate(panel: DataPanel, window: int, configs, progress=None) -> RollingResult:
    """Estimate the factor count on every length-``window`` trailing window.

    The panel must be complete (impute first). Windows end at observations
    window, window + 1, ..., T (1-based), giving T - window + 1 rows, each
    with one r_hat per config; each window is demeaned on its own, as by
    :func:`~robustfactors.estimators.estimate_many`.

    The panel and configs are validated once per call, not per window. The
    decision core builds one band of pair weights for the call, only when
    some config is a Kendall method, and reads every window's Kendall matrix
    from it, at any scale; see :func:`~robustfactors.estimators._window_band`.
    """
    if panel.has_missing:
        raise ValueError("panel has missing entries; impute before rolling estimation")
    T = panel.shape[0]
    _check_integers(least=2, window=window)
    if window > T:
        raise ValueError(f"window {window} exceeds panel length {T}")
    # with no configs the window needs only 2 rows and _check_size names the fault
    need = max((cfg.k_max for cfg in configs.values()), default=0) + 2
    if window < need:
        raise ValueError(f"window {window} too small for k_max; need at least {need}")
    _check_size((window, panel.shape[1]), configs)

    values = panel.values
    band = _window_band(values, window, configs)
    labels = panel.time_labels
    rows: list[tuple] = []
    n_windows = T - window + 1
    for start in range(n_windows):
        end = start + window - 1
        results = _decide(values[start : end + 1], configs, band, start)
        label = labels[end] if labels is not None else str(end + 1)
        rows.append((label, *(res.r_hat for res in results.values())))
        if progress is not None:
            progress(start + 1, n_windows)
    return RollingResult(rows=rows, window=window, methods=tuple(configs))
