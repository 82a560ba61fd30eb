"""Eigenvalue extraction and the regularization shared by every criterion.

All five factor-number criteria consume an :class:`EigenSpectrum`: the
descending raw eigenvalues of either the Kendall's tau matrix or the
covariance-path Gram matrix, shifted by c/sqrt(min(N, T)), with tail sums and
the mock zero-factor eigenvalue precomputed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import InvariantError, NumericalError

__all__ = ["EigenSpectrum", "eigenvalues_sym", "build_spectrum", "gram_eigenvalues"]


@dataclass(frozen=True)
class EigenSpectrum:
    """Descending spectrum with regularized values, tail sums and mock eigenvalue.

    Attributes
    ----------
    raw : np.ndarray
        lambda_j, j = 1..L, nonincreasing, clamped at zero.
    regularized : np.ndarray
        lambda_j + c * delta.
    delta : float
        1/sqrt(m), m = min(N, T).
    c : float
        Regularizer constant.
    mock_zero : float
        -1/log(delta), the artificial eigenvalue used when zero factors are
        allowed.
    tail_sums : np.ndarray
        tail_sums[j] = V_j = sum_{i > j} regularized[i-1], j = 0..L-1.
    """

    raw: np.ndarray
    regularized: np.ndarray
    delta: float
    c: float
    mock_zero: float
    tail_sums: np.ndarray

    @property
    def size(self) -> int:
        return self.raw.shape[0]


def eigenvalues_sym(matrix) -> np.ndarray:
    """Descending eigenvalues of a symmetric matrix.

    Parameters
    ----------
    matrix : array_like
        N x N, symmetric to 1e-8 absolute, finite entries. A matrix that is
        not exactly symmetric is replaced by (A + A^T) / 2; the Kendall's tau
        and Gram matrices of this package are exactly symmetric already.
    """
    A = np.asarray(matrix, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    if not (A == A.T).all():
        asym = float(np.abs(A - A.T).max())
        if asym > 1e-8:
            raise ValueError(f"matrix asymmetry {asym:.3e} exceeds 1e-8")
        A = 0.5 * (A + A.T)
    try:
        vals = np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    return np.ascontiguousarray(vals[::-1])


def build_spectrum(raw_eigenvalues, N: int, T: int, c: float) -> EigenSpectrum:
    """Assemble the regularized spectrum used by the criteria.

    Parameters
    ----------
    raw_eigenvalues : array_like
        Descending eigenvalues. Values below -1e-10 * max(lambda_1, 1) violate
        the PSD contract; negatives inside that rounding floor are clamped to
        zero. The floor scales with the top eigenvalue because eigensolver
        noise is relative, and covariance spectra of heavy-tailed panels can
        sit many orders of magnitude above one.
    N, T : int
        Panel dimensions; m = min(N, T) drives the regularizer, and the top
        min(N, T, len(raw_eigenvalues)) eigenvalues are kept.
    c : float
        Positive regularizer constant.
    """
    raw = np.asarray(raw_eigenvalues, dtype=np.float64).copy()
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("raw_eigenvalues must be a nonempty vector")
    if np.any(np.diff(raw) > 1e-12):
        raise ValueError("raw_eigenvalues must be nonincreasing")
    if not c > 0:
        raise ValueError("c must be positive")
    if N < 2 or T < 2:
        raise ValueError("N and T must be >= 2")
    raw = raw[: min(N, T)]
    floor = -1e-10 * max(float(raw[0]), 1.0)
    if raw[-1] < floor:
        raise InvariantError(
            f"spectrum fails PSD contract: min eigenvalue {raw[-1]:.3e} below {floor:.3e}"
        )
    np.clip(raw, 0.0, None, out=raw)
    m = min(N, T)
    delta = 1.0 / np.sqrt(m)
    regularized = raw + c * delta
    mock_zero = -1.0 / np.log(delta)
    # V_j = sum of regularized[j:]; the reverse cumulative sum makes the
    # telescoping identity V_{j-1} = V_j + regularized[j-1] hold exactly.
    tail_sums = np.cumsum(regularized[::-1])[::-1].copy()
    return EigenSpectrum(
        raw=raw,
        regularized=regularized,
        delta=float(delta),
        c=float(c),
        mock_zero=float(mock_zero),
        tail_sums=tail_sums,
    )


def gram_eigenvalues(Y) -> np.ndarray:
    """Descending spectrum of the covariance-path Gram matrix Y Y^T / (N T).

    Computed in the smaller dimension (T x T when T <= N, else N x N); the
    nonzero eigenvalues of the two Gram forms agree, which is the spectrum
    the ER/GR/TCR baselines consume.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        raise ValueError("Y must be a T x N matrix")
    T, N = Y.shape
    if T <= N:
        G = Y @ Y.T
    else:
        G = Y.T @ Y
    G /= N * T
    return eigenvalues_sym(G)
