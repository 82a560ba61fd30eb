from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustfactors._errors import InvariantError
from robustfactors.kendall import sample_kendall_tau
from robustfactors.spectrum import EigenSpectrum, build_spectrum, eigenvalues_sym, gram_eigenvalues


class TestEigenvaluesSym:
    def test_diagonal_sorted_descending(self):
        vals = eigenvalues_sym(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(vals, [3.0, 2.0, 1.0])

    def test_rank_two_projector(self):
        v1 = np.array([1.0, 0.0, 0.0, 0.0])
        v2 = np.array([0.0, 1.0, 0.0, 0.0])
        P = np.outer(v1, v1) + np.outer(v2, v2)
        np.testing.assert_allclose(eigenvalues_sym(P), [1.0, 1.0, 0.0, 0.0], atol=1e-14)

    def test_recovers_constructed_spectrum(self, rng):
        lam = np.sort(rng.uniform(0.5, 9.0, size=10))[::-1]
        Q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        A = (Q * lam) @ Q.T
        np.testing.assert_allclose(eigenvalues_sym(A), lam, atol=1e-10)

    def test_symmetric_input_matches_the_symmetrized_solve(self, rng):
        # An exactly symmetric matrix goes to eigvalsh as it is; the bytes are
        # those of the symmetrized copy, and of a full decomposition to 1e-12.
        Y = rng.standard_t(1.0, size=(60, 12))
        matrices = [sample_kendall_tau(Y).matrix, Y.T @ Y, Y @ Y.T, rng.standard_normal((6, 6))]
        matrices[-1] = matrices[-1] + matrices[-1].T
        for A in matrices:
            assert (A == A.T).all()
            got = eigenvalues_sym(A)
            ref = np.linalg.eigvalsh(0.5 * (A + A.T))[::-1]
            assert got.tobytes() == ref.tobytes()
            full = np.linalg.eigh(A)[0][::-1]
            np.testing.assert_allclose(got, full, atol=1e-12 * np.abs(full).max())

    def test_asymmetric_rejected(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            eigenvalues_sym(A)

    def test_mild_asymmetry_symmetrized(self):
        A = np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]])
        vals = eigenvalues_sym(A)
        np.testing.assert_allclose(vals, [3.0, -1.0], atol=1e-9)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            eigenvalues_sym(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            eigenvalues_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestBuildSpectrum:
    def test_worked_example(self):
        spec = build_spectrum([1.0, 0.5], N=100, T=100, c=0.05)
        assert spec.delta == pytest.approx(0.1)
        np.testing.assert_allclose(spec.regularized, [1.005, 0.505])
        assert spec.mock_zero == pytest.approx(0.43429448, abs=1e-8)
        np.testing.assert_allclose(spec.tail_sums, [1.51, 0.505])

    def test_telescoping_identity_exact(self, rng):
        raw = np.sort(rng.uniform(0.0, 1.0, size=40))[::-1]
        spec = build_spectrum(raw, N=80, T=60, c=0.01)
        L = spec.size
        V = spec.tail_sums
        for j in range(1, L):
            assert V[j - 1] == V[j] + spec.regularized[j - 1]
        assert V[L - 1] == spec.regularized[L - 1]

    def test_delta_uses_smaller_dimension(self):
        spec = build_spectrum([1.0], N=400, T=25, c=1.0)
        assert spec.delta == pytest.approx(0.2)
        spec2 = build_spectrum([1.0], N=25, T=400, c=1.0)
        assert spec2.delta == spec.delta

    def test_length_defaults_to_min_dimension(self):
        raw = np.linspace(1.0, 0.0, 30)
        spec = build_spectrum(raw, N=30, T=12, c=0.01)
        assert spec.size == 12
        assert build_spectrum(raw[:5], N=30, T=12, c=0.01).size == 5

    def test_mock_eigenvalue_limits(self):
        small = build_spectrum([1.0], N=16, T=16, c=0.01)
        large = build_spectrum([1.0], N=10_000, T=10_000, c=0.01)
        assert large.mock_zero < small.mock_zero
        assert large.mock_zero / large.delta > small.mock_zero / small.delta
        assert large.mock_zero == pytest.approx(2.0 / np.log(10_000))

    def test_tiny_negatives_clipped(self):
        spec = build_spectrum([1.0, 0.0, -5e-11], N=10, T=10, c=0.01)
        assert spec.raw[-1] == 0.0
        assert spec.regularized[-1] == pytest.approx(0.01 * spec.delta)

    def test_large_negative_violates_contract(self):
        with pytest.raises(InvariantError, match="PSD"):
            build_spectrum([1.0, -1e-6], N=10, T=10, c=0.01)

    def test_psd_floor_scales_with_top_eigenvalue(self):
        # rounding noise on a large-scale covariance spectrum is relative
        spec = build_spectrum([1e8, -1e-3], N=10, T=10, c=0.01)
        assert spec.raw[-1] == 0.0
        with pytest.raises(InvariantError, match="PSD"):
            build_spectrum([1e8, -1.0], N=10, T=10, c=0.01)

    def test_increasing_input_rejected(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            build_spectrum([0.5, 1.0], N=10, T=10, c=0.01)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="positive"):
            build_spectrum([1.0], N=10, T=10, c=0.0)
        with pytest.raises(ValueError):
            build_spectrum([1.0], N=1, T=10, c=0.01)
        with pytest.raises(ValueError, match="nonempty"):
            build_spectrum([], N=10, T=10, c=0.01)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        t=st.integers(min_value=2, max_value=60),
        c=st.floats(min_value=1e-4, max_value=1.0),
    )
    def test_tail_sums_match_direct_sums(self, n, t, c):
        gen = np.random.default_rng(n * 1000 + t)
        raw = np.sort(gen.uniform(0.0, 2.0, size=min(n, t)))[::-1]
        spec = build_spectrum(raw, N=n, T=t, c=c)
        for j in range(spec.size):
            assert spec.tail_sums[j] == pytest.approx(spec.regularized[j:].sum(), rel=1e-12)

    def test_clip_inert_on_kendall_spectra(self, rng):
        for _ in range(30):
            T = int(rng.integers(5, 40))
            N = int(rng.integers(2, 12))
            Y = rng.standard_normal((T, N))
            raw = eigenvalues_sym(sample_kendall_tau(Y).matrix)
            spec = build_spectrum(raw, N=N, T=T, c=0.01)
            kept = min(N, T, raw.size)
            np.testing.assert_allclose(spec.raw, np.clip(raw[:kept], 0.0, None), atol=0.0)
            assert abs(raw.sum() - 1.0) <= 1e-10


class TestGramEigenvalues:
    def test_matches_direct_small_gram(self, rng):
        Y = rng.standard_normal((6, 10))
        direct = eigenvalues_sym(Y @ Y.T / 60.0)
        np.testing.assert_allclose(gram_eigenvalues(Y), direct, atol=1e-12)

    def test_both_gram_forms_share_nonzero_spectrum(self, rng):
        Y = rng.standard_normal((10, 6))
        small = gram_eigenvalues(Y)
        big = eigenvalues_sym(Y @ Y.T / 60.0)
        np.testing.assert_allclose(big[:6], small, atol=1e-9)
        np.testing.assert_allclose(big[6:], 0.0, atol=1e-9)

    def test_scaling_by_dimensions(self):
        Y = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        vals = gram_eigenvalues(Y)
        assert vals[0] == pytest.approx(4.0 / 6.0)

    def test_one_dim_input_rejected(self):
        with pytest.raises(ValueError, match="matrix"):
            gram_eigenvalues(np.ones(5))

    def test_feeds_build_spectrum(self, rng):
        Y = rng.standard_normal((50, 30))
        spec = build_spectrum(gram_eigenvalues(Y), N=30, T=50, c=0.05)
        assert isinstance(spec, EigenSpectrum)
        assert spec.size == 30
