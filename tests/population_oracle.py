"""Population references for the Kendall's tau spectrum, used by the tests.

``population_kendall_eigenvalues_oracle`` maps scatter eigenvalues to the
population Kendall's tau eigenvalues by Monte Carlo; ``han_lower_bound`` is the
lower bound on each of those eigenvalues from the scatter spectrum. Criteria 9
and 10 and the Kendall tests compare the sample matrix against them.
"""

from __future__ import annotations

import numpy as np

from robustfactors.elliptical import RngStream


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
