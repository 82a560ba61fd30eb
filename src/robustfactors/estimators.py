"""The five factor-number criteria.

MKER and MKTCR read the Kendall's tau spectrum; ER, GR and TCR are the
covariance-spectrum baselines. All five consume a regularized
:class:`~robustfactors.spectrum.EigenSpectrum` and return the argmax of a
ratio series over j = 1..k_max (j = 0 included when zero factors are
allowed, via the mock eigenvalue).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .kendall import KendallTauMatrix, sample_kendall_tau
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
    """

    method: str
    k_max: int = 8
    c: float = 0.01
    allow_zero: bool = False

    def __post_init__(self):
        if self.method not in ALL_METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {ALL_METHODS}")
        _check_integers(self, "k_max")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not 0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")


def _check_integers(settings, *names: str) -> None:
    """Raise ValueError naming the first of the settings that operator.index refuses."""
    for name in names:
        value = getattr(settings, name)
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True, eq=False)  # array fields: equality and hash are identity
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

    The panel is double-demeaned and the Kendall's tau and Gram matrices are
    built at most once each, and each regularized spectrum once per (matrix,
    c); configs that differ only in k_max, allow_zero or the criterion share
    them, which makes k_max sweeps nearly free.
    """
    if panel.has_missing:
        raise ValueError("panel has missing values; impute first")
    _check_size(panel.shape, configs)
    return _decide(panel.values, configs, None)


def _check_size(shape: tuple[int, int], configs) -> None:
    """Reject empty configs, then the first config whose k_max + 2 exceeds min(N, T)."""
    if not configs:
        raise ValueError("no methods given")
    m = min(shape)
    for config in configs.values():
        if m < config.k_max + 2:
            raise ValueError(f"panel too small: min(N, T) = {m} < k_max + 2 = {config.k_max + 2}")


def _decide(Y, configs, kendall: KendallTauMatrix | None) -> dict[str, EstimationResult]:
    """The decision shared by :func:`estimate_many` and every rolling window.

    ``Y`` is a complete T x N array and ``configs`` passed :func:`_check_size`
    on its shape; neither is checked again. ``kendall`` is the Kendall's tau
    matrix of the double-demeaned ``Y`` where the caller has it; otherwise it
    is None and the matrix is :func:`sample_kendall_tau` of that panel.
    """
    T, N = Y.shape
    demean = kendall is None or any(cfg.method in COVARIANCE_METHODS for cfg in configs.values())
    demeaned = _double_demean(Y) if demean else None
    raw_cache: dict[str, np.ndarray] = {}
    spectra: dict[tuple[str, float], EigenSpectrum] = {}
    results: dict[str, EstimationResult] = {}
    for name, config in configs.items():
        path = "kendall" if config.method in KENDALL_METHODS else "covariance"
        if path not in raw_cache:
            if path == "covariance":
                raw_cache[path] = gram_eigenvalues(demeaned)
            else:
                kt = sample_kendall_tau(demeaned) if kendall is None else kendall
                raw_cache[path] = eigenvalues_sym(kt.matrix)
        skey = (path, config.c)
        if skey not in spectra:
            spectra[skey] = build_spectrum(raw_cache[path], N=N, T=T, c=config.c)
        results[name] = _evaluate(spectra[skey], config)
    return results


def estimate(panel: DataPanel, config: EstimatorConfig) -> EstimationResult:
    """End to end: demean, build the method's matrix, extract the spectrum, decide.

    MKER/MKTCR run on the sample multivariate Kendall's tau matrix of the
    double-demeaned panel; ER/GR/TCR run on the covariance-path Gram
    spectrum of the same panel.
    """
    return estimate_many(panel, {config.method: config})[config.method]
