"""sample_elliptical times A^T against the two per-family samplers it replaced, byte for byte.

The reference functions below are verbatim copies of the removed
``sample_gaussian`` and ``sample_student_t`` (with the helper that drew the
directional normals), except that the spec's fields arrive as arguments and
the family checks are gone. The sampler is centered, so they get a zero location.
"""

from __future__ import annotations

import numpy as np
import pytest

from robustfactors.elliptical import RngStream, sample_elliptical

_LANE_DIRECTIONAL = 0
_LANE_RADIAL = 1


def _directional_normals(n, q, rng):
    """n x q standard normals from the directional lane."""
    gen = rng.generator(_LANE_DIRECTIONAL)
    return gen.standard_normal((n, q))


def old_sample_gaussian(mu, scatter_factor, n, rng):
    if n < 1:
        raise ValueError("n must be >= 1")
    g = _directional_normals(n, scatter_factor.shape[1], rng)
    return mu + g @ scatter_factor.T


def old_sample_student_t(mu, scatter_factor, nu, n, rng):
    if n < 1:
        raise ValueError("n must be >= 1")
    nu = float(nu)  # validated > 0 at spec construction
    g = _directional_normals(n, scatter_factor.shape[1], rng)
    w = rng.generator(_LANE_RADIAL).chisquare(nu, size=n)
    scale = np.sqrt(nu / w)[:, None]
    return mu + (g * scale) @ scatter_factor.T


def scatter_factors():
    """(d, q) -> A: dense square, non-square both ways, and the diagonal panel case."""
    gen = np.random.default_rng(2024)
    return {
        (1, 1): np.array([[1.7]]),
        (3, 3): gen.standard_normal((3, 3)),
        (3, 5): gen.standard_normal((3, 5)),
        (103, 103): np.diag(np.sqrt(gen.uniform(0.5, 4.0, 103))),
        (103, 7): gen.standard_normal((103, 7)),
    }


STREAMS = [RngStream(0, 0), RngStream(7, 3), RngStream(2**40 + 5, 11)]


@pytest.mark.parametrize("nu", [None, 0.3, 1, 2, 3, 400])
@pytest.mark.parametrize("shape", list(scatter_factors()))
def test_bytes_match_the_per_family_samplers(shape, nu):
    A = scatter_factors()[shape]
    d = shape[0]
    mu = np.zeros(d)
    for n in (1, 2, 150):
        for rng in STREAMS:
            got = sample_elliptical(n, A.shape[1], rng, nu=nu) @ A.T
            if nu is None:
                want = old_sample_gaussian(mu, A, n, rng)
            else:
                want = old_sample_student_t(mu, A, nu, n, rng)
            assert got.shape == want.shape == (n, d)
            assert got.tobytes() == want.tobytes()
