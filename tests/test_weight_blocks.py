"""The one row-block driver of the Kendall kernel, held byte for byte to the two loops it replaced.

``_pair_sum`` and ``_pair_weight_band`` used to write their own row-block
loops, pair masks, fix-up rule and drop rule. The functions below are
copies of those loops, kept as the reference: the whole-panel matrix, every
field of the band and the window matrices read from it must have the same
bytes. They differ from the old loops in two ways, as the kernel does: the
direct pairs take their difference from the input rows, scaled by the power
of two of the pair's larger row peak, not from the median-centered rows; and
the band keeps no coverage rule, since every window reads it.
"""

from __future__ import annotations

import numpy as np
import pytest

from robustfactors.kendall import (
    _BLOCK_ENTRIES,
    _BLOCK_ROWS,
    _FIXUP_FLOOR,
    _FIXUP_TAU,
    _PairWeightBand,
    _average,
    _flat_view,
    _frame,
    _pair_weight_band,
    _window_kendall_tau,
    sample_kendall_tau,
)


def _block_weights(Zb, Zc, sqb, sqc, pairs):
    s = Zb @ Zc.T
    s *= -2.0
    s += sqb[:, None]
    s += sqc[None, :]
    lim = np.add.outer(sqb, sqc)
    lim *= _FIXUP_TAU
    np.maximum(lim, _FIXUP_FLOOR, out=lim)
    fix = pairs & (s <= lim)
    W = np.divide(1.0, s, out=np.zeros_like(s), where=pairs & ~fix)
    return W, fix


def _direct_pairs(Yb, Yc, fix):
    rows, cols = np.nonzero(fix)
    Yi, Yj = Yb[rows], Yc[cols]
    # each pair at the scale of its larger row, then its difference at its own
    top = np.maximum(np.abs(Yi).max(axis=1, initial=0.0), np.abs(Yj).max(axis=1, initial=0.0))
    shift = -np.frexp(top)[1][:, None]
    D = np.ldexp(Yi, shift) - np.ldexp(Yj, shift)
    D = np.ldexp(D, -np.frexp(np.abs(D).max(axis=1, initial=0.0))[1][:, None])
    d2 = np.einsum("ij,ij->i", D, D)
    return rows, cols, D, d2, d2 > 0.0


def _pair_sum(Y):
    Z = _frame(Y)
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
        upper = np.arange(T - a)[None, :] > np.arange(b - a)[:, None]
        W, fix = _block_weights(Zb, Zc, sq[a:b], sq[a:], upper)
        deg[a:b] += W.sum(axis=1)
        deg[a:] += W.sum(axis=0)
        cross += Zb.T @ (W @ Zc)
        if fix.any():
            rows, _, D, d2, kept = _direct_pairs(Y[a:b], Y[a:], fix)
            D, d2 = D[kept], d2[kept]
            dropped += rows.size - d2.size
            n_direct += d2.size
            direct += D.T @ (D / d2[:, None])
    total = (Z.T * deg) @ Z - (cross + cross.T) + direct
    return 0.5 * (total + total.T), dropped, n_direct


def reference_band(Y, window):
    T = Y.shape[0]
    Z = _frame(Y)
    L = 2 * window - 1
    weights = np.zeros((T, L))
    sq = np.einsum("ij,ij->i", Z, Z)
    pairs_out = []
    step = max(1, min(_BLOCK_ROWS, _BLOCK_ENTRIES // window))
    for a in range(0, T - 1, step):
        b = min(a + step, T - 1)
        c = min(b + window - 1, T)
        # block rows i in [a, b) against columns j in [a, c); pairs have 0 < j - i < window
        gap = np.arange(c - a)[None, :] - np.arange(b - a)[:, None]
        band = (gap > 0) & (gap < window)
        W, fix = _block_weights(Z[a:b], Z[a:c], sq[a:b], sq[a:c], band)
        # w_ij goes to weights[i, window - 1 + (j - i)] and to weights[j, window - 1 - (j - i)]
        base = a * L + window - 1
        np.copyto(_flat_view(weights, base, (b - a, c - a), (L - 1, 1)), W, where=band)
        np.copyto(_flat_view(weights, base, (b - a, c - a), (1, L - 1)), W, where=band)
        if fix.any():
            rows, cols, D, d2, _ = _direct_pairs(Y[a:b], Y[a:c], fix)
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


def reference_window(band, start):
    w = band.window
    stop = start + w
    L = 2 * w - 1
    Ww = _flat_view(band.weights, start * L + w - 1, (w, w), (L - 1, 1))  # W_w, no copy
    Zw = band.Z[start:stop]
    total = Zw.T @ (Ww.sum(axis=1)[:, None] * Zw - Ww @ Zw)
    dropped = n_direct = 0
    if band.pair_rows.size:
        inside = (band.pair_rows >= start) & (band.pair_cols < stop)
        D, d2 = band.pair_diffs[inside], band.pair_sq[inside]
        kept = d2 > 0.0
        D, d2 = D[kept], d2[kept]
        dropped, n_direct = int(kept.size - d2.size), int(d2.size)
        total += D.T @ (D / d2[:, None])
    return _average(0.5 * (total + total.T), w, dropped, n_direct)


def _panels():
    gen = np.random.default_rng(41)
    out = []
    for T in (2, 3, 63, 64, 65, 129):
        out.append((f"t0.5-T{T}", gen.standard_t(0.5, size=(T, 6))))
        out.append((f"cauchy-T{T}", gen.standard_cauchy((T, 6))))
    # above 4096 rows a whole-panel block holds fewer than 64 rows
    out.append(("t3-T4500", gen.standard_t(3.0, size=(4500, 3))))
    # a cluster of near-duplicate rows far from the median goes to the direct
    # sum, and one exactly equal pair inside it is dropped
    Y = gen.standard_normal((130, 8))
    Y[:40] = 1e4 * gen.standard_normal(8) + 10.0 * gen.standard_normal((40, 8))
    Y[17] = Y[5]
    out.append(("cluster", Y))
    # rows spanning 10^158: pairs of the smallest rows fall below the fix-up floor
    scales = 10.0 ** gen.uniform(-79.0, 79.0, 90)
    out.append(("span-1e158", gen.standard_t(3.0, size=(90, 5)) * scales[:, None]))
    Y = gen.standard_normal((70, 4))
    Y[:35] *= 1e86
    Y[35:] *= 1e-72
    out.append(("split-1e158", Y))
    return out


PANELS = _panels()


def _kendall_bytes(kt):
    return kt.matrix.tobytes(), kt.n_pairs, kt.degenerate_pairs_dropped, kt.direct_pairs


def _windows(T):
    # window 2, a middle window and window = T; at 4500 rows the last would
    # store 4500 x 8999 weights, so the middle window stands in for it
    return sorted({2, max(2, T // 2), T}) if T <= 200 else [2, 150]


@pytest.mark.parametrize("label, Y", PANELS, ids=[p[0] for p in PANELS])
def test_whole_panel_matrix_matches_the_old_loop(label, Y):
    T = Y.shape[0]
    total, dropped, n_direct = _pair_sum(Y)
    want = _average(total, T, dropped, n_direct)
    assert _kendall_bytes(sample_kendall_tau(Y)) == _kendall_bytes(want)


@pytest.mark.parametrize("label, Y", PANELS, ids=[p[0] for p in PANELS])
def test_band_and_windows_match_the_old_loop(label, Y):
    T = Y.shape[0]
    gen = np.random.default_rng(7)
    for window in _windows(T):
        got, want = _pair_weight_band(Y, window), reference_band(Y, window)
        assert got.window == want.window
        for field in ("Z", "weights", "pair_rows", "pair_cols", "pair_diffs", "pair_sq"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field
        last = T - window
        starts = {0, last // 2, last, *gen.integers(0, last + 1, size=3).tolist()}
        for start in sorted(starts):
            assert _kendall_bytes(_window_kendall_tau(got, start)) == _kendall_bytes(
                reference_window(want, start)
            ), (window, start)


def test_the_panels_reach_every_branch():
    # the direct path, a drop and a block of fewer than 64 rows are exercised
    by_label = dict(PANELS)
    cluster = sample_kendall_tau(by_label["cluster"])
    assert cluster.direct_pairs > 0 and cluster.degenerate_pairs_dropped == 1
    assert sample_kendall_tau(by_label["span-1e158"]).direct_pairs > 0
    assert _BLOCK_ENTRIES // by_label["t3-T4500"].shape[0] < _BLOCK_ROWS
