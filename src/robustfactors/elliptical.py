"""Seeded samplers for elliptical distributions.

One sampler, :func:`sample_elliptical`, draws centered multivariate Gaussian
and t samples with identity scatter, for any positive degrees of freedom ν
(ν = 1 is the multivariate Cauchy). It takes sizes and a stream, not a
scatter: rows with scatter A Aᵀ are the sample times Aᵀ.

Determinism contract
--------------------
:class:`RngStream` is a value, not a stateful object. The sampler derives
fresh counter-based generators (numpy Philox) from
``SeedSequence(entropy=master_seed, spawn_key=(stream_index, lane))`` and is a
pure function of its arguments: the same stream value always yields the same
sample. Normal variates use ``Generator.standard_normal`` (ziggurat); this
choice is fixed because bit-level reproducibility is part of the contract.

Lane layout: lane 0 carries directional/normal draws, lane 1 carries radial
draws (chi-square mixing variables). The lane-0 draws are the same whatever
ν is, so samples driven by the same stream share directional components:
dividing out the radial parts recovers identical unit vectors.
"""

from dataclasses import dataclass

import numpy as np

from ._errors import NumericalError, _check_integers, _check_reals

__all__ = [
    "RngStream",
    "sample_elliptical",
]

_LANE_DIRECTIONAL = 0
_LANE_RADIAL = 1


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: (master_seed, stream_index).

    Streams with identical coordinates produce identical sequences; distinct
    indices are independent for this package's purposes. Replication k of a
    Monte Carlo run uses stream_index = k. Both coordinates are nonnegative
    integers; a bool is refused.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        _check_integers(least=0, master_seed=self.master_seed, stream_index=self.stream_index)

    def generator(self, lane: int = 0) -> "np.random.Generator":  # quoted: numpy.random is lazy
        """Fresh Philox generator for (master_seed, stream_index, lane)."""
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_index, lane)
        )
        return np.random.Generator(np.random.Philox(seq))


def sample_elliptical(n: int, q: int, rng: RngStream, nu: float | None = None) -> np.ndarray:
    """Draw n i.i.d. rows g, scaled by sqrt(ν/w) when ``nu`` is set.

    g is standard normal in q dimensions (the directional lane) and w is
    chi-squared with ν degrees of freedom (the radial lane), independent. With
    ``nu=None`` the rows are Gaussian N(0, I_q); with ν > 0 they are exactly
    multivariate t_ν(0, I_q), and ν = 1 is the multivariate Cauchy. For the
    scatter A Aᵀ of a d x q factor A, multiply the result by Aᵀ. A draw of w
    that underflows (small ν) raises NumericalError, not an inf row.

    Parameters
    ----------
    n : int
        Number of rows, >= 1.
    q : int
        Number of columns, >= 1.
    rng : RngStream
        Stream value; the call is pure.
    nu : float, optional
        Degrees of freedom of the multivariate t_ν, > 0 and finite; None, the
        default, is the Gaussian.

    Returns
    -------
    np.ndarray
        n x q sample matrix.
    """
    _check_integers(least=1, n=n, q=q)
    if nu is not None:
        _check_reals(nu=nu)
        if not 0 < nu < np.inf:
            raise ValueError("nu must be > 0 and finite, or None for the Gaussian")
        nu = float(nu)
    g = rng.generator(_LANE_DIRECTIONAL).standard_normal((n, q))
    if nu is not None:
        w = rng.generator(_LANE_RADIAL).chisquare(nu, size=n)
        with np.errstate(divide="ignore", over="ignore"):
            scale = np.sqrt(nu / w)
        bad = np.count_nonzero(~np.isfinite(scale))
        if bad:  # w underflowed to 0 or near it, so these rows would be inf or NaN
            raise NumericalError(f"t sampler produced non-finite output: {bad} chi-squared "
                                 f"draws with nu = {nu} underflowed to 0 or near it")
        g *= scale[:, None]
    return g
