from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy import stats

from robustfactors._errors import NumericalError
from robustfactors.elliptical import RngStream, sample_elliptical


class TestRngStream:
    def test_same_value_same_sample(self):
        a = sample_elliptical(50, 3, RngStream(11, 2))
        b = sample_elliptical(50, 3, RngStream(11, 2))
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_elliptical(50, 3, RngStream(11, 0))
        b = sample_elliptical(50, 3, RngStream(11, 1))
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = sample_elliptical(50, 3, RngStream(11, 0))
        b = sample_elliptical(50, 3, RngStream(12, 0))
        assert not np.array_equal(a, b)

    def test_negative_stream_index_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1, -1)

    @pytest.mark.parametrize("seed", [-1, -3])
    def test_negative_master_seed_rejected(self, seed):
        # at construction, with a message that names the seed, not numpy's at first draw
        with pytest.raises(ValueError, match="^master_seed must be nonnegative$"):
            RngStream(seed, 0)

    def test_non_integer_seeds_rejected(self):
        # at construction, not inside numpy's SeedSequence at first draw
        with pytest.raises(ValueError, match="^master_seed must be an integer, got 1.5$"):
            RngStream(1.5)
        with pytest.raises(ValueError, match="^stream_index must be an integer, got 1.5$"):
            RngStream(0, 1.5)
        with pytest.raises(ValueError, match="^master_seed must be an integer, got True$"):
            RngStream(True)
        with pytest.raises(ValueError, match="^stream_index must be an integer, got True$"):
            RngStream(0, True)
        assert RngStream(np.int64(3), np.uint8(1)) == RngStream(3, 1)

    def test_lanes_are_independent(self):
        rng = RngStream(5, 0)
        a = rng.generator(0).standard_normal(100)
        b = rng.generator(1).standard_normal(100)
        assert not np.array_equal(a, b)


class TestSpecValidation:
    """The sampler's specification, n, q and nu, checked before any draw."""

    def test_student_t_requires_nu(self):
        # the t_nu needs nu > 0; nu=None is the Gaussian, not a missing nu
        for nu in (0, 0.0, -1.0, float("nan"), -np.inf):
            with pytest.raises(ValueError, match="nu"):
                sample_elliptical(3, 2, RngStream(0), nu=nu)

    @pytest.mark.parametrize("nu", [np.inf, 1e309])
    def test_infinite_nu_rejected(self, nu):
        # rejected before the draw, not with a chi-squared underflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^nu must be > 0 and finite"):
                sample_elliptical(3, 2, RngStream(0), nu=nu)

    @pytest.mark.parametrize("nu", [True, np.True_, "3"])
    def test_non_real_nu_rejected(self, nu):
        # nu=True would draw the multivariate Cauchy
        with pytest.raises(ValueError, match=f"^nu must be a real number, got {nu!r}$"):
            sample_elliptical(3, 2, RngStream(0), nu=nu)

    def test_non_integer_row_count_rejected(self):
        # named in the message, not a TypeError from inside numpy's draw
        with pytest.raises(ValueError, match="^n must be an integer, got 3.5$"):
            sample_elliptical(3.5, 2, RngStream(0), nu=3.0)
        with pytest.raises(ValueError, match="^n must be an integer, got True$"):
            sample_elliptical(True, 2, RngStream(0), nu=3.0)
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            sample_elliptical(0, 2, RngStream(0), nu=3.0)
        np.testing.assert_array_equal(
            sample_elliptical(np.int64(3), 2, RngStream(0), nu=3.0),
            sample_elliptical(3, 2, RngStream(0), nu=3.0),
        )

    def test_column_count_checked(self):
        with pytest.raises(ValueError, match="^q must be an integer, got 2.5$"):
            sample_elliptical(3, 2.5, RngStream(0))
        with pytest.raises(ValueError, match="^q must be an integer, got True$"):
            sample_elliptical(3, True, RngStream(0))
        with pytest.raises(ValueError, match="^q must be >= 1$"):
            sample_elliptical(3, 0, RngStream(0))
        assert sample_elliptical(3, np.uint8(2), RngStream(0)).shape == (3, 2)


class TestGaussian:
    def test_moments(self):
        n = 10**5
        X = sample_elliptical(n, 2, RngStream(17))
        assert np.abs(X.mean(axis=0)).max() < 4 / np.sqrt(n)
        cov = np.cov(X.T)
        assert np.abs(cov - np.eye(2)).max() < 0.05

    def test_scatter_shapes_covariance(self):
        A = np.array([[2.0, 0.0], [1.0, 1.0]])
        X = sample_elliptical(10**5, A.shape[1], RngStream(23)) @ A.T
        np.testing.assert_allclose(np.cov(X.T), A @ A.T, atol=0.08)


class TestStudentT:
    def test_median_and_tail_frequency(self):
        n = 10**5
        X = sample_elliptical(n, 2, RngStream(29), nu=3.0)
        assert np.abs(np.median(X, axis=0)).max() < 0.02
        t95 = stats.t.ppf(0.975, df=3)
        frac = np.mean(np.abs(X[:, 0]) > t95)
        assert abs(frac - 0.05) < 0.01

    def test_cauchy_tails_dwarf_gaussian(self):
        n = 20000
        C = sample_elliptical(n, 2, RngStream(31), nu=1.0)
        G = sample_elliptical(n, 2, RngStream(31))
        assert np.abs(C).max() > 50 * np.abs(G).max()

    def test_large_nu_close_to_gaussian(self):
        n = 20000
        X = sample_elliptical(n, 1, RngStream(37), nu=400.0)
        _, p = stats.kstest(X[:, 0], "norm")
        assert p > 0.01

    def test_marginal_matches_reference_distribution(self):
        n = 30000
        X = sample_elliptical(n, 1, RngStream(41), nu=3.0)
        _, p = stats.kstest(X[:, 0], "t", args=(3,))
        assert p > 0.01

    def test_shared_directions_with_gaussian(self):
        rng = RngStream(43, 5)
        G = sample_elliptical(200, 4, rng)
        T = sample_elliptical(200, 4, rng, nu=1.0)
        gu = G / np.linalg.norm(G, axis=1, keepdims=True)
        tu = T / np.linalg.norm(T, axis=1, keepdims=True)
        np.testing.assert_allclose(gu, tu, atol=1e-12)

    def test_underflowing_radial_draws_raise(self):
        # nu = 0.02: 73 of these chi-squared draws are 0 or so small that nu / w
        # overflows; each would be an inf or NaN row. nu = 0.05 has none.
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would mean the guard came late
            with pytest.raises(NumericalError, match=r"non-finite output: 73 .*nu = 0\.02"):
                sample_elliptical(100_000, 3, RngStream(1), nu=0.02)
            X = sample_elliptical(100_000, 3, RngStream(1), nu=0.05)
        assert np.isfinite(X).all()
