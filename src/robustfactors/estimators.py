"""The five factor-number criteria.

MKER and MKTCR read the Kendall's tau spectrum; ER, GR and TCR are the
covariance-spectrum baselines. All five consume a regularized
:class:`~robustfactors.spectrum.EigenSpectrum` and return the argmax of a
ratio series over j = 1..k_max (j = 0 included when zero factors are
allowed, via the mock eigenvalue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kendall import sample_kendall_tau
from .panel import DataPanel, double_demean
from .spectrum import EigenSpectrum, build_spectrum, eigenvalues_sym, gram_eigenvalues

__all__ = [
    "EstimatorConfig",
    "EstimationResult",
    "mker",
    "mktcr",
    "er_baseline",
    "gr_baseline",
    "tcr_baseline",
    "estimate",
    "estimate_many",
    "KENDALL_METHODS",
    "COVARIANCE_METHODS",
    "ALL_METHODS",
]

KENDALL_METHODS = ("mker", "mktcr")
COVARIANCE_METHODS = ("er", "gr", "tcr")
ALL_METHODS = KENDALL_METHODS + COVARIANCE_METHODS


@dataclass(frozen=True)
class EstimatorConfig:
    """Method selector plus the shared tuning knobs.

    Attributes
    ----------
    method : str
        One of "mker", "mktcr", "er", "gr", "tcr".
    k_max : int
        Predetermined upper bound for the factor number, default 8.
    c : float
        Regularizer constant, default 0.01. Kept small because on a
        unit-trace spectrum the tail sums carry L c-terms; large c drowns
        the signal of secondary factors next to a dominant one.
    allow_zero : bool
        Include j = 0 using the mock eigenvalue, enabling a zero-factor
        estimate.
    demean : str
        "double" (default) or "none"; applied by :func:`estimate` before the
        matrix is built.
    """

    method: str
    k_max: int = 8
    c: float = 0.01
    allow_zero: bool = False
    demean: str = "double"

    def __post_init__(self):
        if self.method not in ALL_METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {ALL_METHODS}")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not self.c > 0:
            raise ValueError("c must be positive")
        if self.demean not in ("none", "double"):
            raise ValueError("demean must be 'none' or 'double'")


@dataclass(frozen=True)
class EstimationResult:
    """Chosen factor number plus the criterion series that produced it.

    ratio_series[i] is the criterion at j = j_start + i, where j_start is 0
    when zero factors are allowed and 1 otherwise. r_hat is the argmax with
    ties broken toward the smallest j.
    """

    r_hat: int
    ratio_series: np.ndarray
    spectrum: EigenSpectrum
    method: str
    j_start: int


def _criterion_value(spec: EigenSpectrum, method: str, j: int) -> float:
    lam_j = spec.lam(j)
    lam_next = spec.lam(j + 1)
    if method in ("mker", "er"):
        return lam_j / lam_next
    if method in ("mktcr", "tcr"):
        return math.log1p(lam_j / spec.tail(j - 1)) / math.log1p(lam_next / spec.tail(j))
    # growth ratio
    return math.log1p(lam_j / spec.tail(j)) / math.log1p(lam_next / spec.tail(j + 1))


def _evaluate(spec: EigenSpectrum, config: EstimatorConfig) -> EstimationResult:
    L = spec.size
    method = config.method
    # gr reads V_{k_max+1}; the others stop at V_{k_max} / lambda_{k_max+1}
    limit = L - 2 if method == "gr" else L - 1
    if config.k_max > limit:
        raise ValueError(
            f"k_max = {config.k_max} too large for spectrum of length {L} (method {method})"
        )
    j_start = 0 if config.allow_zero else 1
    series = np.array(
        [_criterion_value(spec, method, j) for j in range(j_start, config.k_max + 1)]
    )
    r_hat = j_start + int(np.argmax(series))  # first max wins ties
    return EstimationResult(
        r_hat=r_hat, ratio_series=series, spectrum=spec, method=method, j_start=j_start
    )


def mker(spectrum: EigenSpectrum, config: EstimatorConfig) -> EstimationResult:
    """Eigenvalue-ratio criterion on the Kendall's tau spectrum."""
    return _evaluate(spectrum, replace(config, method="mker"))


def mktcr(spectrum: EigenSpectrum, config: EstimatorConfig) -> EstimationResult:
    """Transformed contribution ratio on the Kendall's tau spectrum."""
    return _evaluate(spectrum, replace(config, method="mktcr"))


def er_baseline(spectrum: EigenSpectrum, config: EstimatorConfig) -> EstimationResult:
    """Eigenvalue-ratio baseline on the covariance-path spectrum."""
    return _evaluate(spectrum, replace(config, method="er"))


def gr_baseline(spectrum: EigenSpectrum, config: EstimatorConfig) -> EstimationResult:
    """Growth-ratio baseline on the covariance-path spectrum."""
    return _evaluate(spectrum, replace(config, method="gr"))


def tcr_baseline(spectrum: EigenSpectrum, config: EstimatorConfig) -> EstimationResult:
    """Transformed contribution ratio baseline on the covariance-path spectrum."""
    return _evaluate(spectrum, replace(config, method="tcr"))


def _demeaned_values(panel: DataPanel, mode: str) -> np.ndarray:
    if mode == "double":
        return double_demean(panel).values
    return panel.values


def estimate_many(
    panel: DataPanel,
    configs: dict[str, EstimatorConfig],
) -> dict[str, EstimationResult]:
    """Run several configurations on one panel, sharing matrix work.

    The Kendall's tau matrix and the covariance Gram matrix are each built at
    most once per demeaning mode, and each regularized spectrum once per
    (matrix, c); configs that differ only in k_max, allow_zero or the
    criterion share them, which makes k_max sweeps nearly free.
    """
    return _estimate_many(panel, configs, kendall=lambda demean: None)


def _estimate_many(panel: DataPanel, configs, kendall) -> dict[str, EstimationResult]:
    """:func:`estimate_many`, taking the Kendall's tau matrix of each demeaning mode
    from ``kendall(demean)``; where that returns None, the matrix is
    :func:`sample_kendall_tau` of the demeaned panel."""
    if panel.has_missing:
        raise ValueError("panel has missing values; impute first")
    T, N = panel.shape
    values_cache: dict[str, np.ndarray] = {}
    raw_cache: dict[tuple[str, str], np.ndarray] = {}
    spectra: dict[tuple[str, str, float], EigenSpectrum] = {}
    results: dict[str, EstimationResult] = {}

    def demeaned(mode: str) -> np.ndarray:
        if mode not in values_cache:
            values_cache[mode] = _demeaned_values(panel, mode)
        return values_cache[mode]

    for name, config in configs.items():
        if min(N, T) < config.k_max + 2:
            raise ValueError(
                f"panel too small: min(N, T) = {min(N, T)} < k_max + 2 = {config.k_max + 2}"
            )
        path = "kendall" if config.method in KENDALL_METHODS else "covariance"
        key = (path, config.demean)
        if key not in raw_cache:
            if path == "kendall":
                kt = kendall(config.demean)
                if kt is None:
                    kt = sample_kendall_tau(demeaned(config.demean))
                raw_cache[key] = eigenvalues_sym(kt.matrix)
            else:
                raw_cache[key] = gram_eigenvalues(demeaned(config.demean))
        skey = (*key, config.c)
        if skey not in spectra:
            spectra[skey] = build_spectrum(raw_cache[key], N=N, T=T, c=config.c)
        results[name] = _evaluate(spectra[skey], config)
    return results


def estimate(panel: DataPanel, config: EstimatorConfig) -> EstimationResult:
    """End to end: demean, build the method's matrix, extract the spectrum, decide.

    MKER/MKTCR run on the sample multivariate Kendall's tau matrix of the
    (optionally double-demeaned) panel; ER/GR/TCR run on the covariance-path
    Gram spectrum.
    """
    return estimate_many(panel, {config.method: config})[config.method]
