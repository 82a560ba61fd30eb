"""Sample multivariate Kendall's tau matrix.

The sample matrix is the average over all unordered row pairs of the outer
product of the normalized difference vector: a symmetric PSD matrix with unit
trace and spectral norm at most one. It is invariant to the radial part of an
elliptical distribution, which is what makes the factor-number criteria built
on it robust to heavy tails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import InvariantError
from .panel import DataPanel
from .spectrum import eigenvalues_sym

__all__ = ["KendallTauMatrix", "sample_kendall_tau", "verify_kendall_invariants"]

# Row blocks of the pair-weight matrix: at most this many rows, so a block's
# weights stay in cache and the triangle below the diagonal is mostly skipped,
# and at most this many entries, so the working set does not grow with T.
_BLOCK_ROWS = 64
_BLOCK_ENTRIES = 1 << 18
# A pair goes to the direct sum when its Gram distance s_ij = |z_i|^2 + |z_j|^2
# - 2 z_i.z_j is at most this share of |z_i|^2 + |z_j|^2: the subtraction then
# loses about log2(1/_FIXUP_TAU) = 8 bits, which the direct difference does not.
# With 2^-10, windows whose rows collapse to a level vector (spread/level near
# 1e-3) missed the 1e-15 enumeration bound through the pairs just above it.
_FIXUP_TAU = 2.0**-8
# Pairs with a Gram distance at most this small are summed directly too: their
# weight 1/s_ij, and the sums of such weights, would overflow. Only rows within
# about 2^-500 of the median, in units of the panel's peak, form such pairs.
_FIXUP_FLOOR = 2.0**-1000


@dataclass(frozen=True, eq=False)  # array fields: equality and hash are identity
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
        Retained pairs whose Gram distance lost digits, summed instead from
        the difference of the two rows as given; the rest go through the
        Laplacian form.
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


def _frame(Y: np.ndarray) -> np.ndarray:
    """Y times the power of two that brings its largest magnitude into [1/2, 1),
    centered by its coordinatewise median.

    The scaling is exact and the shift cancels in every row difference, so
    neither moves the Kendall matrix; together they keep every entry at most 2
    in magnitude and the Gram distances clear of overflow and of cancellation.
    """
    peak = np.abs(Y).max(initial=0.0)  # nan or inf if any entry is
    if not np.isfinite(peak):
        raise ValueError("panel has non-finite entries")
    Z = np.ldexp(Y, -int(np.frexp(peak)[1]))
    T = Z.shape[0]
    ranked = np.sort(Z, axis=0)  # np.median would import numpy.ma on first use, ~15 ms
    Z -= 0.5 * (ranked[(T - 1) // 2] + ranked[T // 2])
    return Z


def _weight_blocks(Z: np.ndarray, width: int):
    """Row blocks of the weights of the row pairs 0 < j - i < ``width`` of Z.

    Z comes from :func:`_frame`. Yields ``(a, b, c, pairs, W, fix)`` per
    block: rows i in [a, b) against columns j in [a, c), the mask of the
    pairs among them, and their weights w_ij = 1/s_ij from the Gram distance
    s_ij = |z_i|^2 + |z_j|^2 - 2 z_i.z_j. A pair whose subtraction cancels
    (see ``_FIXUP_TAU``), or with s_ij <= ``_FIXUP_FLOOR``, gets weight 0 and
    is marked in ``fix``, to be summed directly (see :func:`_direct_pairs`).
    """
    T = Z.shape[0]
    sq = np.einsum("ij,ij->i", Z, Z)
    step = max(1, min(_BLOCK_ROWS, _BLOCK_ENTRIES // width))
    for a in range(0, T - 1, step):
        b = min(a + step, T - 1)
        c = min(b + width - 1, T)
        rows, cols = np.arange(a, b)[:, None], np.arange(a, c)
        pairs = cols > rows
        if c - a > width:  # the block reaches pairs width or more rows apart
            pairs &= cols < rows + width
        s = Z[a:b] @ Z[a:c].T
        s *= -2.0
        s += sq[a:b, None]
        s += sq[None, a:c]
        lim = np.add.outer(sq[a:b], sq[a:c])
        lim *= _FIXUP_TAU
        np.maximum(lim, _FIXUP_FLOOR, out=lim)
        fix = pairs & (s <= lim)
        W = np.divide(1.0, s, out=np.zeros_like(s), where=pairs & ~fix)
        del s, lim  # freed while the caller works on W, as a function return would
        yield a, b, c, pairs, W, fix


def _direct_pairs(Yb, Yc, fix):
    """Block row, block column, D and |D|^2 of each pair marked in ``fix``.

    Yb and Yc are the rows :func:`_frame` was given: its centering would round
    near-equal rows far from the median at the median's scale. y_i - y_j is
    taken at the power of two of the pair's larger row peak, so it can neither
    overflow nor underflow, and D is it times the power of two that brings its
    largest magnitude into [1/2, 1). Neither scaling moves outer(D, D)/|D|^2,
    and |D|^2 is 0 only when the rows are equal.
    """
    rows, cols = np.nonzero(fix)
    A, B = Yb[rows], Yc[cols]
    peak = np.maximum(np.abs(A).max(axis=1, initial=0.0), np.abs(B).max(axis=1, initial=0.0))
    e = -np.frexp(peak)[1][:, None]
    D = np.ldexp(A, e) - np.ldexp(B, e)
    D = np.ldexp(D, -np.frexp(np.abs(D).max(axis=1, initial=0.0))[1][:, None])
    return rows, cols, D, np.einsum("ij,ij->i", D, D)


def _direct_sum(D, d2) -> tuple[np.ndarray, int, int]:
    """Sum of outer(D, D)/|D|^2 over the pairs with d2 > 0, plus dropped and kept counts."""
    kept = d2 > 0.0
    D, d2 = D[kept], d2[kept]
    return D.T @ (D / d2[:, None]), int(kept.size - d2.size), int(d2.size)


def _pair_sum(Y: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Sum of outer(d, d)/|d|^2 over the row pairs of Y, plus dropped and direct counts.

    With Z = :func:`_frame` (Y) and w_ij = 1/|z_i - z_j|^2 on i < j, the sum
    equals Z^T diag(deg) Z - (Z^T W Z + its transpose), deg_i being the total
    weight of the pairs that contain row i. Row blocks of W come from
    :func:`_weight_blocks`; the pairs it leaves out are added directly from
    the rows of Y, and exactly equal rows are dropped.
    """
    Z = _frame(Y)
    T, N = Z.shape
    deg = np.zeros(T)
    cross = np.zeros((N, N))
    direct = np.zeros((N, N))
    dropped = n_direct = 0
    for a, b, _, _, W, fix in _weight_blocks(Z, T):
        deg[a:b] += W.sum(axis=1)
        deg[a:] += W.sum(axis=0)
        cross += Z[a:b].T @ (W @ Z[a:])
        if fix.any():
            _, _, D, d2 = _direct_pairs(Y[a:b], Y[a:], fix)
            block, n_drop, n_kept = _direct_sum(D, d2)
            direct += block
            dropped += n_drop
            n_direct += n_kept
    total = (Z.T * deg) @ Z - (cross + cross.T) + direct
    return 0.5 * (total + total.T), dropped, n_direct


def _average(total: np.ndarray, T: int, dropped: int, n_direct: int) -> KendallTauMatrix:
    """The pair sum of T rows divided by its retained pair count."""
    n_pairs = T * (T - 1) // 2 - dropped
    if n_pairs == 0:
        raise ValueError("all row pairs are degenerate (constant panel)")
    return KendallTauMatrix(
        matrix=total / n_pairs, n_pairs=n_pairs, degenerate_pairs_dropped=dropped,
        direct_pairs=n_direct,
    )


def sample_kendall_tau(panel) -> KendallTauMatrix:
    """Average outer(d, d)/|d|^2 over all T(T-1)/2 unordered row pairs.

    Pairs with zero difference are dropped and counted; the average runs over
    retained pairs, which keeps the trace exactly one up to rounding.

    The panel is first multiplied by the power of two that brings its largest
    magnitude into [1/2, 1), which is exact and leaves the matrix unchanged,
    and then centered by its coordinatewise median, which cancels in every
    row difference. The sum is computed in O(T^2 N) as a graph-Laplacian
    quadratic form (see :func:`_pair_sum`); the pairs whose Gram distance
    loses digits are summed directly from the rows of ``panel``. At a fixed
    BLAS thread count the bytes are the same on every call.

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
    total, dropped, n_direct = _pair_sum(Y)
    return _average(total, T, dropped, n_direct)


@dataclass(frozen=True, eq=False)  # array fields: equality and hash are identity
class _PairWeightBand:
    """Pair weights of the rows of a panel that are fewer than ``window`` rows apart.

    Built once by :func:`_pair_weight_band`; :func:`_window_kendall_tau` reads
    the Kendall matrix of each run of ``window`` consecutive rows from it.

    Attributes
    ----------
    Z : np.ndarray
        T x N panel after :func:`_frame`.
    weights : np.ndarray
        T x (2 window - 1); ``weights[i, window - 1 + k]`` is w_{i, i+k}, zero
        for k = 0, for rows outside the panel and for the pairs below.
    window : int
        Rows per window.
    pair_rows, pair_cols : np.ndarray
        Rows i < j of the pairs summed directly or dropped.
    pair_diffs, pair_sq : np.ndarray
        Their y_i - y_j, from the rows of the panel as given and scaled by
        powers of two (see :func:`_direct_pairs`), and its squared norm; a
        pair with norm 0 is dropped.
    """

    Z: np.ndarray
    weights: np.ndarray
    window: int
    pair_rows: np.ndarray
    pair_cols: np.ndarray
    pair_diffs: np.ndarray
    pair_sq: np.ndarray


def _flat_view(weights: np.ndarray, offset: int, shape, steps) -> np.ndarray:
    """View whose (r, q) entry is entry offset + r steps[0] + q steps[1] of weights' flat storage.

    With L = weights.shape[1], steps (L - 1, 1) read row i + r at column
    c + q - r, for offset = i L + c: entries that lie along a diagonal of the
    pair-weight matrix lie down a column of the band. numpy rejects a view
    that would reach outside the array.
    """
    size = weights.itemsize
    return np.ndarray(
        shape, dtype=weights.dtype, buffer=weights, offset=offset * size,
        strides=(steps[0] * size, steps[1] * size),
    )


def _pair_weight_band(Y: np.ndarray, window: int) -> _PairWeightBand:
    """Weights w_ij = 1/|z_i - z_j|^2 of every row pair with 0 < j - i < window, once.

    The panel is rescaled and median-centered once, as in
    :func:`sample_kendall_tau`, and the weights are built in row blocks from
    the same Gram distances, with the same pairs summed directly from the
    rows of Y and the same equal rows dropped. Memory is O(T window), not
    O(T^2).

    Parameters
    ----------
    Y : np.ndarray
        T x N observations, no missing values.
    window : int
        2 <= window <= T; :func:`~robustfactors.rolling.rolling_estimate`,
        the one caller, checks it.
    """
    T = Y.shape[0]
    Z = _frame(Y)
    L = 2 * window - 1
    weights = np.zeros((T, L))
    pairs_out = []
    for a, b, c, pairs, W, fix in _weight_blocks(Z, window):
        # w_ij goes to weights[i, window - 1 + (j - i)] and to weights[j, window - 1 - (j - i)]
        base = a * L + window - 1
        np.copyto(_flat_view(weights, base, W.shape, (L - 1, 1)), W, where=pairs)
        np.copyto(_flat_view(weights, base, W.shape, (1, L - 1)), W, where=pairs)
        if fix.any():
            rows, cols, D, d2 = _direct_pairs(Y[a:b], Y[a:c], fix)
            pairs_out.append((a + rows, a + cols, D, d2))
    if pairs_out:
        pair_rows, pair_cols, pair_diffs, pair_sq = (np.concatenate(x) for x in zip(*pairs_out))
    else:
        pair_rows = pair_cols = np.zeros(0, dtype=np.intp)
        pair_diffs, pair_sq = np.zeros((0, Z.shape[1])), np.zeros(0)
    return _PairWeightBand(
        Z=Z, weights=weights, window=window, pair_rows=pair_rows, pair_cols=pair_cols,
        pair_diffs=pair_diffs, pair_sq=pair_sq,
    )


def _window_kendall_tau(band: _PairWeightBand, start: int) -> KendallTauMatrix:
    """Kendall's tau matrix of rows start, ..., start + window - 1, from the band.

    With W_w the window's block of pair weights and deg_w its row sums, the
    pair sum is Z_w^T (deg_w Z_w - W_w Z_w) plus the window's direct pairs:
    two GEMMs, against the Gram product, masks and division that
    :func:`sample_kendall_tau` spends on every window. Every window reads the
    band, also across a regime change by many orders of magnitude: there the
    pairs whose weights lost digits are direct pairs, from the rows as given.

    ``0 <= start <= T - window``, as :func:`~robustfactors.rolling.rolling_estimate`
    checks.
    """
    w = band.window
    stop = start + w
    L = 2 * w - 1
    Ww = _flat_view(band.weights, start * L + w - 1, (w, w), (L - 1, 1))  # W_w, no copy
    Zw = band.Z[start:stop]
    total = Zw.T @ (Ww.sum(axis=1)[:, None] * Zw - Ww @ Zw)
    dropped = n_direct = 0
    if band.pair_rows.size:
        inside = (band.pair_rows >= start) & (band.pair_cols < stop)
        block, dropped, n_direct = _direct_sum(band.pair_diffs[inside], band.pair_sq[inside])
        total += block
    return _average(0.5 * (total + total.T), w, dropped, n_direct)


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
    eigs = eigenvalues_sym(M)  # descending, of (M + M^T) / 2
    if eigs[-1] < -1e-10:
        raise InvariantError(f"kendall matrix not PSD: min eigenvalue {eigs[-1]:.3e}")
    if eigs[0] > 1.0 + 1e-10:
        raise InvariantError(f"kendall matrix spectral norm exceeds 1 by {eigs[0] - 1.0:.3e}")
