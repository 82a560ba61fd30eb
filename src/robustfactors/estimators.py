"""The five factor-number criteria.

MKER and MKTCR read the Kendall's tau spectrum; ER, GR and TCR are the
covariance-spectrum baselines. All five consume a regularized
:class:`~robustfactors.spectrum.EigenSpectrum` and return the argmax of a
ratio series over j = 1..k_max (j = 0 included when zero factors are
allowed, via the mock eigenvalue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kendall import sample_kendall_tau
from .panel import DataPanel, _double_demean
from .spectrum import EigenSpectrum, build_spectrum, eigenvalues_sym, gram_eigenvalues

__all__ = [
    "EstimatorConfig",
    "EstimationResult",
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


def _evaluate(spec: EigenSpectrum, config: EstimatorConfig) -> EstimationResult:
    """The criterion at j is terms[j] / terms[j + 1] for j = j_start..k_max, where
    terms[j] is lambda_j (mker, er), log1p(lambda_j / V_{j-1}) (mktcr, tcr) or
    log1p(lambda_j / V_j) (gr), with lambda_0 the mock eigenvalue and
    V_{-1} = V_0 + lambda_0."""
    L = spec.size
    method = config.method
    # gr reads V_{k_max+1}; the others stop at V_{k_max} / lambda_{k_max+1}
    limit = L - 2 if method == "gr" else L - 1
    if config.k_max > limit:
        raise ValueError(
            f"k_max = {config.k_max} too large for spectrum of length {L} (method {method})"
        )
    j_start = 0 if config.allow_zero else 1
    stop = config.k_max + 2
    lam = np.concatenate(([spec.mock_zero], spec.regularized[: stop - 1]))
    if method in ("mktcr", "tcr"):
        tails = np.concatenate(([spec.tail_sums[0] + spec.mock_zero], spec.tail_sums[: stop - 1]))
    elif method == "gr":
        tails = spec.tail_sums[:stop]
    else:
        tails = None
    # math.log1p, not np.log1p: numpy's vectorized log1p can differ from libm in
    # the last bit, which would change the criterion bytes
    terms = lam if tails is None else np.array([math.log1p(x) for x in lam / tails])
    series = terms[j_start:-1] / terms[j_start + 1 :]
    r_hat = j_start + int(np.argmax(series))  # first max wins ties
    return EstimationResult(
        r_hat=r_hat, ratio_series=series, spectrum=spec, method=method, j_start=j_start
    )


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
    if panel.has_missing:
        raise ValueError("panel has missing values; impute first")
    _check_size(panel.shape, configs)
    return _decide(panel.values, configs, {})


def _check_size(shape: tuple[int, int], configs) -> None:
    """Reject empty configs, then the first config whose k_max + 2 exceeds min(N, T)."""
    if not configs:
        raise ValueError("no methods given")
    m = min(shape)
    for config in configs.values():
        if m < config.k_max + 2:
            raise ValueError(f"panel too small: min(N, T) = {m} < k_max + 2 = {config.k_max + 2}")


def _decide(Y: np.ndarray, configs, kendall: dict[str, np.ndarray]) -> dict[str, EstimationResult]:
    """The decision shared by :func:`estimate_many` and every rolling window.

    ``Y`` is a complete T x N array and ``configs`` passed :func:`_check_size`
    on its shape; neither is checked again. ``kendall`` maps a demeaning mode
    to the Kendall's tau matrix of ``Y`` in that mode, where the caller has
    it; any other mode's matrix is :func:`sample_kendall_tau` of the
    demeaned ``Y``.
    """
    T, N = Y.shape
    values_cache: dict[str, np.ndarray] = {}
    raw_cache: dict[tuple[str, str], np.ndarray] = {}
    spectra: dict[tuple[str, str, float], EigenSpectrum] = {}
    results: dict[str, EstimationResult] = {}

    def demeaned(mode: str) -> np.ndarray:
        if mode not in values_cache:
            values_cache[mode] = _double_demean(Y) if mode == "double" else Y
        return values_cache[mode]

    for name, config in configs.items():
        mode = config.demean
        path = "kendall" if config.method in KENDALL_METHODS else "covariance"
        key = (path, mode)
        if key not in raw_cache:
            if path == "covariance":
                raw_cache[key] = gram_eigenvalues(demeaned(mode))
            else:
                matrix = kendall.get(mode)
                if matrix is None:
                    matrix = sample_kendall_tau(demeaned(mode)).matrix
                raw_cache[key] = eigenvalues_sym(matrix)
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
