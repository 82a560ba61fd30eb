from __future__ import annotations

import ctypes
import re
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustfactors import spectrum
from robustfactors._errors import InvariantError, NumericalError
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
        # An exactly symmetric matrix goes to the solver as it is; the bytes are
        # those of the symmetrized copy, and of a full decomposition to 1e-12;
        # that decomposition reconstructs the matrix to 1e-12 in Frobenius norm.
        Y = rng.standard_t(1.0, size=(60, 12))
        matrices = [sample_kendall_tau(Y).matrix, Y.T @ Y, Y @ Y.T, rng.standard_normal((6, 6))]
        matrices[-1] = matrices[-1] + matrices[-1].T
        for A in matrices:
            assert (A == A.T).all()
            got = eigenvalues_sym(A)
            ref = np.linalg.eigvalsh(0.5 * (A + A.T))[::-1]
            assert got.tobytes() == ref.tobytes()
            w, V = np.linalg.eigh(A)
            np.testing.assert_allclose(got, w[::-1], atol=1e-12 * np.abs(w).max())
            assert np.linalg.norm((V * w) @ V.T - A) <= 1e-12 * np.linalg.norm(A)

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

    def test_solver_failure_is_a_numerical_error(self, monkeypatch):
        def fail(A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(spectrum, "_eigvalsh", fail)
        with pytest.raises(NumericalError, match="^eigensolver failed: Eigenvalues did not") as exc:
            eigenvalues_sym(np.eye(3))
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


class TestLapackBinding:
    """The ctypes call to LAPACK dsyevd against np.linalg.eigvalsh, to the byte."""

    def test_bound_where_numpy_exports_dsyevd(self):
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        exported = hasattr(lib, "scipy_dsyevd_64_")
        assert (spectrum._eigvalsh is not np.linalg.eigvalsh) == exported

    @pytest.mark.parametrize("handle", ["unloadable", "no dsyevd"])
    def test_falls_back_to_numpy_without_the_routine(self, monkeypatch, handle):
        def cdll(path):
            if handle == "unloadable":
                raise OSError(f"{path}: cannot open shared object file")
            return types.SimpleNamespace()  # a library that exports no dsyevd

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert spectrum._bind_eigvalsh() is np.linalg.eigvalsh

    def test_no_convergence_is_a_numerical_error(self, monkeypatch):
        # a dsyevd that sizes the workspace at one element, then reports info > 0
        def dsyevd(jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, *lengths):
            if ctypes.c_int64.from_address(lwork).value == -1:
                ctypes.c_double.from_address(work).value = 1.0
                ctypes.c_int64.from_address(iwork).value = 1
            else:
                ctypes.c_int64.from_address(info).value = 1

        monkeypatch.setattr(
            ctypes, "CDLL", lambda path: types.SimpleNamespace(scipy_dsyevd_64_=dsyevd)
        )
        monkeypatch.setattr(spectrum, "_eigvalsh", spectrum._bind_eigvalsh())
        with pytest.raises(NumericalError) as excinfo:
            eigenvalues_sym(np.eye(3))
        assert str(excinfo.value) == "eigensolver failed: Eigenvalues did not converge"
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)

    def test_bytes_match_numpy_at_every_size(self):
        gen = np.random.default_rng(7)
        for n in range(1, 201):
            X = gen.standard_normal((n, n))
            A = X + X.T
            v = gen.standard_normal(n)
            matrices = {
                "random": A,
                "zero": np.zeros((n, n)),
                "identity": np.eye(n),
                "rank-1": np.outer(v, v),
                "repeated": np.diag(np.arange(n) // 3 + 1.0),
                "x1e-300": A * 1e-300,
                "x1e300": A * 1e300,
            }
            for kind, M in matrices.items():
                got = spectrum._eigvalsh(M)
                assert got.tobytes() == np.linalg.eigvalsh(M).tobytes(), (n, kind)

    def test_reads_the_lower_triangle_of_any_layout(self):
        # numpy's uplo='L': the upper triangle is ignored, whatever the memory order
        X = np.random.default_rng(8).standard_normal((9, 9))
        for M in (X, X.T, np.asfortranarray(X), X[::1, ::-1][:, ::-1]):
            assert spectrum._eigvalsh(M).tobytes() == np.linalg.eigvalsh(M).tobytes()
        assert (X == np.random.default_rng(8).standard_normal((9, 9))).all()  # input untouched


class TestBuildSpectrum:
    def test_worked_example(self):
        spec = build_spectrum([1.0, 0.5], N=100, T=100, c=0.05)
        np.testing.assert_allclose(spec.regularized - spec.raw, 0.05 / np.sqrt(100))
        np.testing.assert_allclose(spec.regularized, [1.005, 0.505])
        assert spec.mock_zero == pytest.approx(0.43429448, abs=1e-8)
        np.testing.assert_allclose(spec.tail_sums, [1.51, 0.505])

    def test_telescoping_identity_exact(self, rng):
        raw = np.sort(rng.uniform(0.0, 1.0, size=40))[::-1]
        spec = build_spectrum(raw, N=80, T=60, c=0.01)
        L = spec.raw.size
        V = spec.tail_sums
        for j in range(1, L):
            assert V[j - 1] == V[j] + spec.regularized[j - 1]
        assert V[L - 1] == spec.regularized[L - 1]

    def test_delta_uses_smaller_dimension(self):
        # the shift c * delta, delta = 1/sqrt(min(N, T)), whichever dimension is smaller
        spec = build_spectrum([1.0], N=400, T=25, c=1.0)
        assert spec.regularized - spec.raw == pytest.approx(1.0 / np.sqrt(25))
        spec2 = build_spectrum([1.0], N=25, T=400, c=1.0)
        assert (spec2.regularized == spec.regularized).all()
        assert spec2.mock_zero == spec.mock_zero

    def test_length_defaults_to_min_dimension(self):
        raw = np.linspace(1.0, 0.0, 30)
        spec = build_spectrum(raw, N=30, T=12, c=0.01)
        assert spec.raw.size == 12
        assert build_spectrum(raw[:5], N=30, T=12, c=0.01).raw.size == 5

    def test_mock_eigenvalue_limits(self):
        small = build_spectrum([1.0], N=16, T=16, c=0.01)
        large = build_spectrum([1.0], N=10_000, T=10_000, c=0.01)
        assert large.mock_zero < small.mock_zero
        # mock_zero = -1/log(delta) vanishes more slowly than delta = 1/sqrt(min(N, T))
        assert large.mock_zero * np.sqrt(10_000) > small.mock_zero * np.sqrt(16)
        assert large.mock_zero == pytest.approx(2.0 / np.log(10_000))

    def test_tiny_negatives_clipped(self):
        spec = build_spectrum([1.0, 0.0, -5e-11], N=10, T=10, c=0.01)
        assert spec.raw[-1] == 0.0
        assert spec.regularized[-1] == pytest.approx(0.01 / np.sqrt(10))

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

    @pytest.mark.parametrize(
        "name, value", [("N", 2.5), ("N", "3"), ("T", 3.0), ("T", None), ("N", True), ("T", True)]
    )
    def test_non_integer_sizes_rejected(self, name, value):
        """Named in the message, not a TypeError from a slice or a comparison inside."""
        sizes = {"N": 3, "T": 3, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            build_spectrum([1.0, 0.5, 0.1], c=0.01, **sizes)
        want = build_spectrum([1.0, 0.5, 0.1], N=3, T=3, c=0.01)
        got = build_spectrum([1.0, 0.5, 0.1], N=np.int64(3), T=3, c=0.01)
        assert got.regularized.tobytes() == want.regularized.tobytes()

    @pytest.mark.parametrize("c", ["x", True, np.True_])
    def test_non_real_c_rejected(self, c):
        with pytest.raises(ValueError, match=f"^c must be a real number, got {re.escape(repr(c))}$"):
            build_spectrum([1.0, 0.5, 0.1], N=3, T=3, c=c)

    @pytest.mark.parametrize("c", [np.inf, 1e308])
    def test_non_finite_tail_sums_raise(self, c):
        """c = inf makes every value inf; c = 1e308 overflows only the sums, silently."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="not finite"):
                build_spectrum(np.linspace(1.0, 0.0, 100), N=100, T=100, c=c)

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
        for j in range(spec.raw.size):
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
        assert spec.raw.size == 30
