"""Eigenvalue extraction and the regularization shared by every criterion.

All five factor-number criteria consume an :class:`EigenSpectrum`: the
descending raw eigenvalues of either the Kendall's tau matrix or the
covariance-path Gram matrix, shifted by c/sqrt(min(N, T)), with tail sums and
the mock zero-factor eigenvalue precomputed.
"""

import ctypes
from dataclasses import dataclass

import numpy as np

from ._errors import InvariantError, NumericalError, _check_integers, _check_reals

__all__ = ["EigenSpectrum", "eigenvalues_sym", "build_spectrum", "gram_eigenvalues"]


@dataclass(frozen=True, eq=False)  # array fields: equality and hash are identity
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


def _bind_eigvalsh():
    """np.linalg.eigvalsh as one ctypes call to the LAPACK dsyevd that numpy links.

    numpy's eigvalsh holds the GIL while LAPACK runs; a ctypes call releases
    it, so two solves on two threads overlap. The call is numpy's own: jobz
    'N', uplo 'L', a column-major copy and the workspace sizes of a query, so
    the bytes are numpy's. The handle of numpy.linalg's extension module also
    finds the symbols of the BLAS/LAPACK library it loaded; numpy's wheels
    export dsyevd with 64-bit integers, as scipy_dsyevd_64_. Where that is not
    found, np.linalg.eigvalsh itself is the binding: the same bytes, without
    the overlap.
    """
    try:
        from numpy.linalg import _umath_linalg

        dsyevd = ctypes.CDLL(_umath_linalg.__file__).scipy_dsyevd_64_
    except (ImportError, OSError, AttributeError):
        return np.linalg.eigvalsh
    # jobz, uplo; n, a, lda, w, work, lwork, iwork, liwork, info; gfortran's
    # lengths of the two strings
    dsyevd.argtypes = [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 9 + [ctypes.c_size_t] * 2
    dsyevd.restype = None

    def eigvalsh(A):
        n = A.shape[0]
        a = np.array(A, dtype=np.float64, order="F")  # dsyevd overwrites it
        w = np.empty(n)
        ints = np.array([n, max(n, 1), -1, -1, 0], dtype=np.int64)  # n, lda, lwork, liwork, info
        at = ints.ctypes.data
        n_p, lda_p, lwork_p, liwork_p, info_p = (at + 8 * k for k in range(5))

        def call(work, iwork):
            dsyevd(b"N", b"L", n_p, a.ctypes.data, lda_p, w.ctypes.data, work.ctypes.data,
                   lwork_p, iwork.ctypes.data, liwork_p, info_p, 1, 1)

        query, iquery = np.zeros(1), np.zeros(1, dtype=np.int64)
        call(query, iquery)
        ints[2:4] = int(query[0]), iquery[0]  # numpy truncates the size as well
        call(np.empty(ints[2]), np.empty(ints[3], dtype=np.int64))
        if ints[4] > 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return w

    return eigvalsh


_eigvalsh = _bind_eigvalsh()


def eigenvalues_sym(matrix) -> np.ndarray:
    """Descending eigenvalues of a symmetric matrix, by LAPACK dsyevd without the GIL.

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
        vals = _eigvalsh(A)
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
        Positive regularizer constant. A spectrum or tail sum that is not
        finite, as from c = inf or c = 1e308, raises NumericalError.
    """
    raw = np.asarray(raw_eigenvalues, dtype=np.float64).copy()
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("raw_eigenvalues must be a nonempty vector")
    if np.any(np.diff(raw) > 1e-12):
        raise ValueError("raw_eigenvalues must be nonincreasing")
    _check_reals(c=c)
    if not c > 0:
        raise ValueError("c must be positive")
    _check_integers(least=2, N=N, T=T)
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
    with np.errstate(over="ignore"):
        tail_sums = np.cumsum(regularized[::-1])[::-1].copy()
    if not np.isfinite(tail_sums[0]):  # the largest sum of nonnegative terms
        raise NumericalError(f"regularized spectrum or its tail sums are not finite (c={c!r})")
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
