from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy import stats

from robustfactors._errors import NumericalError
from robustfactors.elliptical import EllipticalSpec, RngStream, sample_elliptical


def gauss_spec(d, A=None):
    return t_spec(d, None, A=A)


def t_spec(d, nu, A=None):
    return EllipticalSpec(scatter_factor=np.eye(d) if A is None else A, nu=nu)


class TestRngStream:
    def test_same_value_same_sample(self):
        a = sample_elliptical(gauss_spec(3), 50, RngStream(11, 2))
        b = sample_elliptical(gauss_spec(3), 50, RngStream(11, 2))
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_elliptical(gauss_spec(3), 50, RngStream(11, 0))
        b = sample_elliptical(gauss_spec(3), 50, RngStream(11, 1))
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = sample_elliptical(gauss_spec(3), 50, RngStream(11, 0))
        b = sample_elliptical(gauss_spec(3), 50, RngStream(12, 0))
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
    def test_dimension_mismatch(self):
        for A in (np.ones(3), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="^scatter_factor must be a d x q matrix$"):
                EllipticalSpec(scatter_factor=A)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_scatter_factor_rejected(self, bad):
        # rejected when set, not later as inf or NaN rows of sample_elliptical
        A = np.eye(2)
        A[0, 0] = bad
        with pytest.raises(ValueError, match="^scatter_factor must be finite$"):
            EllipticalSpec(A, nu=3)

    def test_student_t_requires_nu(self):
        # the t_nu needs nu > 0; nu=None is the Gaussian, not a missing nu
        for nu in (0, 0.0, -1.0, float("nan"), -np.inf):
            with pytest.raises(ValueError, match="nu"):
                EllipticalSpec(scatter_factor=np.eye(2), nu=nu)

    @pytest.mark.parametrize("nu", [np.inf, 1e309])
    def test_infinite_nu_rejected(self, nu):
        # rejected when set, not at the first draw with a chi-squared underflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^nu must be > 0 and finite"):
                EllipticalSpec(scatter_factor=np.eye(2), nu=nu)

    @pytest.mark.parametrize("nu", [True, np.True_, "3"])
    def test_non_real_nu_rejected(self, nu):
        # nu=True would draw the multivariate Cauchy
        with pytest.raises(ValueError, match=f"^nu must be a real number, got {nu!r}$"):
            EllipticalSpec(np.eye(2), nu=nu)

    def test_non_integer_row_count_rejected(self):
        # named in the message, not a TypeError from inside numpy's draw
        spec = EllipticalSpec(scatter_factor=np.eye(2), nu=3.0)
        with pytest.raises(ValueError, match="^n must be an integer, got 3.5$"):
            sample_elliptical(spec, 3.5, RngStream(0))
        with pytest.raises(ValueError, match="^n must be an integer, got True$"):
            sample_elliptical(spec, True, RngStream(0))
        np.testing.assert_array_equal(
            sample_elliptical(spec, np.int64(3), RngStream(0)), sample_elliptical(spec, 3, RngStream(0))
        )


class TestGaussian:
    def test_moments(self):
        n = 10**5
        X = sample_elliptical(gauss_spec(2), n, RngStream(17))
        assert np.abs(X.mean(axis=0)).max() < 4 / np.sqrt(n)
        cov = np.cov(X.T)
        assert np.abs(cov - np.eye(2)).max() < 0.05

    def test_scatter_shapes_covariance(self):
        A = np.array([[2.0, 0.0], [1.0, 1.0]])
        X = sample_elliptical(gauss_spec(2, A=A), 10**5, RngStream(23))
        np.testing.assert_allclose(np.cov(X.T), A @ A.T, atol=0.08)


class TestStudentT:
    def test_median_and_tail_frequency(self):
        n = 10**5
        X = sample_elliptical(t_spec(2, 3.0), n, RngStream(29))
        assert np.abs(np.median(X, axis=0)).max() < 0.02
        t95 = stats.t.ppf(0.975, df=3)
        frac = np.mean(np.abs(X[:, 0]) > t95)
        assert abs(frac - 0.05) < 0.01

    def test_cauchy_tails_dwarf_gaussian(self):
        n = 20000
        C = sample_elliptical(t_spec(2, 1.0), n, RngStream(31))
        G = sample_elliptical(gauss_spec(2), n, RngStream(31))
        assert np.abs(C).max() > 50 * np.abs(G).max()

    def test_large_nu_close_to_gaussian(self):
        n = 20000
        X = sample_elliptical(t_spec(1, 400.0), n, RngStream(37))
        _, p = stats.kstest(X[:, 0], "norm")
        assert p > 0.01

    def test_marginal_matches_reference_distribution(self):
        n = 30000
        X = sample_elliptical(t_spec(1, 3.0), n, RngStream(41))
        _, p = stats.kstest(X[:, 0], "t", args=(3,))
        assert p > 0.01

    def test_shared_directions_with_gaussian(self):
        rng = RngStream(43, 5)
        G = sample_elliptical(gauss_spec(4), 200, rng)
        T = sample_elliptical(t_spec(4, 1.0), 200, rng)
        gu = G / np.linalg.norm(G, axis=1, keepdims=True)
        tu = T / np.linalg.norm(T, axis=1, keepdims=True)
        np.testing.assert_allclose(gu, tu, atol=1e-12)

    def test_underflowing_radial_draws_raise(self):
        # nu = 0.02: 73 of these chi-squared draws are 0 or so small that nu / w
        # overflows; each would be an inf or NaN row. nu = 0.05 has none.
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would mean the guard came late
            with pytest.raises(NumericalError, match=r"non-finite output: 73 .*nu = 0\.02"):
                sample_elliptical(t_spec(3, 0.02), 100_000, RngStream(1))
            X = sample_elliptical(t_spec(3, 0.05), 100_000, RngStream(1))
        assert np.isfinite(X).all()
