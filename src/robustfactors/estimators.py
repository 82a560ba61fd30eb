"""The five factor-number criteria.

MKER and MKTCR read the Kendall's tau spectrum; ER, GR and TCR are the
covariance-spectrum baselines. All five consume a regularized
:class:`~robustfactors.spectrum.EigenSpectrum` and return the argmax of a
ratio series over j = 1..k_max (j = 0 included when zero factors are
allowed, via the mock eigenvalue).
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._errors import _check_flags, _check_integers, _check_reals
from ._helper import _beside, _outcome
from .kendall import _pair_weight_band, _window_kendall_tau, sample_kendall_tau
from .panel import DataPanel
from .spectrum import EigenSpectrum, build_spectrum, eigenvalues_sym, gram_eigenvalues

__all__ = [
    "EstimatorConfig",
    "EstimationResult",
    "estimate_many",
    "KENDALL_METHODS",
    "COVARIANCE_METHODS",
    "ALL_METHODS",
    "method_configs",
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
        Predetermined upper bound for the factor number, an integer >= 1 and
        not a bool, default 8.
    c : float
        Regularizer constant, a real number (not a bool), default 0.01. Kept
        small because on a unit-trace spectrum the tail sums carry L c-terms;
        large c drowns the signal of secondary factors next to a dominant one.
    allow_zero : bool
        Include j = 0 using the mock eigenvalue, enabling a zero-factor estimate;
        True or False, as a Python or numpy bool.
    """

    method: str
    k_max: int = 8
    c: float = 0.01
    allow_zero: bool = False

    def __post_init__(self):
        if self.method not in ALL_METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {ALL_METHODS}")
        _check_integers(least=1, k_max=self.k_max)
        _check_reals(c=self.c)
        if not 0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        _check_flags(allow_zero=self.allow_zero)


def method_configs(
    methods=None,
    k_max: int = EstimatorConfig.k_max,
    c: float = EstimatorConfig.c,
    allow_zero: bool = EstimatorConfig.allow_zero,
) -> dict[str, EstimatorConfig]:
    """Normalize a methods argument into named EstimatorConfig entries.

    ``methods`` may be None (all five), a comma-separated string or an
    iterable of method names. The knobs default to EstimatorConfig's.
    """
    if methods is None:
        names = list(ALL_METHODS)
    elif isinstance(methods, str):
        names = [tok.strip() for tok in methods.split(",") if tok.strip()]
    else:
        names = [str(tok) for tok in methods]
    if not names:
        raise ValueError("no methods given")
    return {
        name: EstimatorConfig(method=name, k_max=k_max, c=c, allow_zero=allow_zero)
        for name in names
    }


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
    j_start: int


def _evaluate(spec: EigenSpectrum, config: EstimatorConfig) -> EstimationResult:
    """The criterion at j is terms[j] / terms[j + 1] for j = j_start..k_max, where
    terms[j] is lambda_j (mker, er), log1p(lambda_j / V_{j-1}) (mktcr, tcr) or
    log1p(lambda_j / V_j) (gr), with lambda_0 the mock eigenvalue and
    V_{-1} = V_0 + lambda_0. The spectrum reaches V_{k_max+1}, since min(N, T) >=
    k_max + 2 has passed :func:`_check_size`."""
    method = config.method
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
    return EstimationResult(r_hat=r_hat, ratio_series=series, spectrum=spec, j_start=j_start)


def estimate_many(
    panel: DataPanel,
    configs: dict[str, EstimatorConfig],
) -> dict[str, EstimationResult]:
    """Run several configurations on one panel, sharing matrix work.

    The panel is row-demeaned once for both paths, each path builds its
    matrix at most once, and each regularized spectrum once per (matrix, c);
    configs that differ only in k_max, allow_zero or the criterion share
    them, which makes k_max sweeps nearly free.
    """
    if panel.has_missing:
        raise ValueError("panel has missing values; impute first")
    _check_size(panel.shape, configs)
    return _decide(panel.values, configs)


def _check_size(shape: tuple[int, int], configs) -> None:
    """Reject empty configs, then the first config whose k_max + 2 exceeds min(N, T)."""
    if not configs:
        raise ValueError("no methods given")
    m = min(shape)
    for config in configs.values():
        if m < config.k_max + 2:
            raise ValueError(f"panel too small: min(N, T) = {m} < k_max + 2 = {config.k_max + 2}")


def _decide(Y, configs, band=None, start=0) -> dict[str, EstimationResult]:
    """The decision shared by :func:`estimate_many` and every rolling window.

    ``Y`` is a complete T x N array and ``configs`` passed :func:`_check_size`
    on its shape; neither is checked again. Both paths read one row demean of
    ``Y``, made here. The Kendall's tau matrix of that array is
    :func:`sample_kendall_tau` of it or, where ``Y`` is the window at row
    ``start`` of the panel of a :func:`_window_band`, read from ``band``.

    The Gram path (column demean, product, eigensolver) runs on the
    :mod:`._helper` thread while the Kendall path runs here. The eigensolvers
    overlap only where ``spectrum._eigvalsh`` is the LAPACK binding, which
    releases the GIL; the ``np.linalg.eigvalsh`` it falls back to holds it.
    The bytes are those of one thread, and of two failed paths the error that
    the first config in order meets is raised.
    """
    T, N = Y.shape
    R = Y - Y.mean(axis=1, keepdims=True)  # column shifts cancel in Kendall's row differences
    paths = {_path(config) for config in configs.values()}
    gram = _beside(partial(_gram_path, R)) if "covariance" in paths else None
    raw = {}
    if "kendall" in paths:
        raw["kendall"] = _outcome(partial(_kendall_path, R, band, start))
    if gram is not None:
        raw["covariance"] = gram()
    spectra: dict[tuple[str, float], EigenSpectrum] = {}
    results: dict[str, EstimationResult] = {}
    for name, config in configs.items():
        path = _path(config)
        values, error = raw[path]
        if error is not None:
            raise error
        skey = (path, config.c)
        if skey not in spectra:
            spectra[skey] = build_spectrum(values, N=N, T=T, c=config.c)
        results[name] = _evaluate(spectra[skey], config)
    return results


def _path(config: EstimatorConfig) -> str:
    return "kendall" if config.method in KENDALL_METHODS else "covariance"


def _window_band(Y, window, configs):
    """The band of pair weights from which :func:`_decide` reads the Kendall
    matrix of each length-``window`` window of ``Y``; None when no config reads
    one. It is built from the row demean of ``Y``, which holds every window's
    input to the Kendall path, since a row's mean does not depend on the window."""
    if all(_path(config) != "kendall" for config in configs.values()):
        return None
    return _pair_weight_band(Y - Y.mean(axis=1, keepdims=True), window)


def _kendall_path(R, band, start) -> np.ndarray:
    kt = sample_kendall_tau(R) if band is None else _window_kendall_tau(band, start)
    return eigenvalues_sym(kt.matrix)


def _gram_path(R) -> np.ndarray:
    return gram_eigenvalues(R - R.mean(axis=0))
