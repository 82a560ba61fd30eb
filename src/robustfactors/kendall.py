"""Sample multivariate Kendall's tau matrix and population diagnostics.

The sample matrix is the average over all unordered row pairs of the outer
product of the normalized difference vector: a symmetric PSD matrix with unit
trace and spectral norm at most one. It is invariant to the radial part of an
elliptical distribution, which is what makes the factor-number criteria built
on it robust to heavy tails.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ._errors import InvariantError
from .elliptical import RngStream
from .panel import DataPanel

__all__ = [
    "KendallTauMatrix",
    "sample_kendall_tau",
    "population_kendall_eigenvalues_oracle",
    "han_lower_bound",
    "save_matrix_binary",
    "load_matrix_binary",
    "verify_kendall_invariants",
]

_DUMP_VERSION = 1
# Row blocks of the pair-weight matrix: at most this many rows, so a block's
# weights stay in cache and the triangle below the diagonal is mostly skipped,
# and at most this many entries, so the working set does not grow with T.
_BLOCK_ROWS = 64
_BLOCK_ENTRIES = 1 << 18
# A pair goes to the direct sum when its Gram distance s_ij = |z_i|^2 + |z_j|^2
# - 2 z_i.z_j is at most this share of |z_i|^2 + |z_j|^2: the subtraction then
# loses about log2(1/_FIXUP_TAU) = 10 bits, which the direct difference does not.
_FIXUP_TAU = 2.0**-10


@dataclass(frozen=True)
class KendallTauMatrix:
    """N x N sample multivariate Kendall's tau.

    Attributes
    ----------
    matrix : np.ndarray
        Symmetric PSD matrix with unit trace over retained pairs.
    n_pairs : int
        Number of pairs averaged (retained pairs).
    degenerate_pairs_dropped : int
        Zero-difference pairs dropped before averaging.
    direct_pairs : int
        Retained pairs summed from their difference vector because their
        Gram distance lost digits; the rest go through the Laplacian form.
    """

    matrix: np.ndarray
    n_pairs: int
    degenerate_pairs_dropped: int = 0
    direct_pairs: int = 0


def _panel_values(panel) -> np.ndarray:
    if isinstance(panel, DataPanel):
        if panel.has_missing:
            raise ValueError("panel has missing values; impute first")
        return panel.values
    values = np.asarray(panel, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("expected a T x N matrix")
    return values


def _pair_sum(Z: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Sum of outer(d, d)/|d|^2 over the row pairs of Z, plus dropped and direct counts.

    Z is rescaled and median-centered, so every entry is at most 2 in
    magnitude. With w_ij = 1/|z_i - z_j|^2 on i < j, the sum equals
    Z^T diag(deg) Z - (Z^T W Z + its transpose), deg_i being the total weight
    of the pairs that contain row i. Row blocks of W are built from the Gram
    product; pairs whose Gram distance cancels (see ``_FIXUP_TAU``) are taken
    out of W and added directly, and exactly equal rows are dropped.
    """
    T, N = Z.shape
    sq = np.einsum("ij,ij->i", Z, Z)
    deg = np.zeros(T)
    cross = np.zeros((N, N))
    direct = np.zeros((N, N))
    dropped = 0
    n_direct = 0
    step = max(1, min(_BLOCK_ROWS, _BLOCK_ENTRIES // T))
    for a in range(0, T - 1, step):
        b = min(a + step, T - 1)
        Zb, Zc = Z[a:b], Z[a:]
        # block rows i in [a, b) against columns j in [a, T); only j > i are pairs
        s = Zb @ Zc.T
        s *= -2.0
        s += sq[a:b, None]
        s += sq[None, a:]
        lim = np.add.outer(sq[a:b], sq[a:])
        lim *= _FIXUP_TAU
        upper = np.arange(T - a)[None, :] > np.arange(b - a)[:, None]
        fix = upper & (s <= lim)
        W = np.divide(1.0, s, out=np.zeros_like(s), where=upper & ~fix)
        deg[a:b] += W.sum(axis=1)
        deg[a:] += W.sum(axis=0)
        cross += Zb.T @ (W @ Zc)
        rows, cols = np.nonzero(fix)
        if rows.size:
            D = Zb[rows] - Zc[cols]
            d2 = np.einsum("ij,ij->i", D, D)
            keep = d2 > 0.0
            D, d2 = D[keep], d2[keep]
            dropped += rows.size - d2.size
            n_direct += d2.size
            direct += D.T @ (D / d2[:, None])
    total = (Z.T * deg) @ Z - (cross + cross.T) + direct
    return 0.5 * (total + total.T), dropped, n_direct


def sample_kendall_tau(panel) -> KendallTauMatrix:
    """Average outer(d, d)/|d|^2 over all T(T-1)/2 unordered row pairs.

    Pairs with zero difference are dropped and counted; the average runs over
    retained pairs, which keeps the trace exactly one up to rounding.

    The panel is first multiplied by the power of two that brings its largest
    magnitude into [1/2, 1), which is exact and leaves the matrix unchanged,
    and then centered by its coordinatewise median, which cancels in every
    row difference. The sum is computed in O(T^2 N) as a graph-Laplacian
    quadratic form (see :func:`_pair_sum`). At a fixed BLAS thread count the
    bytes are the same on every call.

    Parameters
    ----------
    panel : DataPanel or np.ndarray
        T x N observations, T >= 2, no missing values.

    Returns
    -------
    KendallTauMatrix
    """
    Y = _panel_values(panel)
    T = Y.shape[0]
    if T < 2:
        raise ValueError("need at least two rows to form pairs")
    peak = np.abs(Y).max(initial=0.0)  # nan or inf if any entry is
    if not np.isfinite(peak):
        raise ValueError("panel has non-finite entries")
    Z = np.ldexp(Y, -int(np.frexp(peak)[1]))
    ranked = np.sort(Z, axis=0)  # np.median would import numpy.ma on first use, ~15 ms
    Z -= 0.5 * (ranked[(T - 1) // 2] + ranked[T // 2])
    total, dropped, n_direct = _pair_sum(Z)
    n_pairs = T * (T - 1) // 2 - dropped
    if n_pairs == 0:
        raise ValueError("all row pairs are degenerate (constant panel)")
    return KendallTauMatrix(
        matrix=total / n_pairs, n_pairs=n_pairs, degenerate_pairs_dropped=dropped,
        direct_pairs=n_direct,
    )


def verify_kendall_invariants(kt: KendallTauMatrix) -> None:
    """Raise InvariantError unless kt satisfies its type contracts.

    Checks symmetry (1e-12), trace one (1e-10), positive semidefiniteness
    (smallest eigenvalue >= -1e-10) and spectral norm <= 1 + 1e-10.
    """
    M = kt.matrix
    if not np.isfinite(M).all():
        raise InvariantError("kendall matrix has non-finite entries")
    asym = float(np.abs(M - M.T).max())
    if asym > 1e-12:
        raise InvariantError(f"kendall matrix asymmetry {asym:.3e} exceeds 1e-12")
    trace_err = abs(float(np.trace(M)) - 1.0)
    if trace_err > 1e-10:
        raise InvariantError(f"kendall matrix trace deviates from 1 by {trace_err:.3e}")
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    if eigs[0] < -1e-10:
        raise InvariantError(f"kendall matrix not PSD: min eigenvalue {eigs[0]:.3e}")
    if eigs[-1] > 1.0 + 1e-10:
        raise InvariantError(f"kendall matrix spectral norm {eigs[-1]:.6f} exceeds 1")


def population_kendall_eigenvalues_oracle(
    sigma_eigenvalues, mc_draws: int, rng: RngStream
) -> np.ndarray:
    """Monte Carlo value of E[lambda_j g_j^2 / sum_i lambda_i g_i^2] per j.

    This is the population eigenvalue transfer map from the scatter spectrum
    to the Kendall's tau spectrum. The outputs sum to one up to rounding
    because the summands sum to one pointwise.

    Parameters
    ----------
    sigma_eigenvalues : array_like
        Nonnegative scatter eigenvalues, at least one positive.
    mc_draws : int
        Standard normal vectors averaged, >= 1.
    rng : RngStream
        Stream value; draws consume the directional lane.
    """
    lam = np.asarray(sigma_eigenvalues, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("sigma_eigenvalues must be a nonempty vector")
    if np.any(lam < 0):
        raise ValueError("sigma_eigenvalues must be nonnegative")
    if not np.any(lam > 0):
        raise ValueError("all scatter eigenvalues are zero")
    if mc_draws < 1:
        raise ValueError("mc_draws must be >= 1")
    q = lam.size
    gen = rng.generator(0)
    total = np.zeros(q, dtype=np.float64)
    done = 0
    block = 200_000
    while done < mc_draws:
        b = min(block, mc_draws - done)
        g2 = gen.standard_normal((b, q))
        np.square(g2, out=g2)
        weighted = g2 * lam
        total += (weighted / weighted.sum(axis=1, keepdims=True)).sum(axis=0)
        done += b
    return total / mc_draws


def han_lower_bound(sigma_eigenvalues, j: int, N: int) -> float:
    """Lower bound on the j-th Kendall's tau eigenvalue from the scatter spectrum.

    Evaluates lambda_j(S) / (Tr(S) + 4 |S|_F sqrt(log N) + 8 |S|_2 log N)
    times (1 - sqrt(3)/N^2), with natural log, |S|_F = sqrt(sum lambda_i^2)
    and |S|_2 the largest eigenvalue. ``j`` is 1-based on the descending
    spectrum.
    """
    lam = np.sort(np.asarray(sigma_eigenvalues, dtype=np.float64))[::-1]
    if not 1 <= j <= lam.size:
        raise ValueError(f"j must be in [1, {lam.size}], got {j}")
    if N < 2:
        raise ValueError("N must be >= 2")
    if lam[j - 1] == 0.0:
        return 0.0
    trace = float(lam.sum())
    fro = float(np.sqrt(np.sum(lam**2)))
    spec2 = float(lam[0])
    logn = np.log(N)
    denom = trace + 4.0 * fro * np.sqrt(logn) + 8.0 * spec2 * logn
    return float(lam[j - 1] / denom * (1.0 - np.sqrt(3.0) / N**2))


def save_matrix_binary(kt: KendallTauMatrix, path) -> None:
    """Dump the matrix as an 8-byte header (N, version as uint32) plus row-major float64."""
    M = kt.matrix
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", M.shape[0], _DUMP_VERSION))
        fh.write(np.ascontiguousarray(M, dtype="<f8").tobytes())


def load_matrix_binary(path) -> np.ndarray:
    """Read a matrix dumped by :func:`save_matrix_binary`."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated header")
        n, version = struct.unpack("<II", header)
        if version != _DUMP_VERSION:
            raise ValueError(f"{path}: unsupported dump version {version}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n * n:
        raise ValueError(f"{path}: expected {n * n} values, found {data.size}")
    return data.reshape(n, n).astype(np.float64)

