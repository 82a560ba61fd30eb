from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from robustfactors._errors import InvariantError
from robustfactors.elliptical import EllipticalSpec, RngStream, sample_elliptical
from robustfactors.estimators import estimate_many
from robustfactors.kendall import KendallTauMatrix, sample_kendall_tau, verify_kendall_invariants
from robustfactors.montecarlo import method_configs
from robustfactors.panel import DataPanel
from robustfactors.spectrum import eigenvalues_sym

from population_oracle import han_lower_bound, population_kendall_eigenvalues_oracle


def brute_force(Y: np.ndarray):
    """Direct enumeration of the pairwise projector average."""
    T, N = Y.shape
    total = np.zeros((N, N))
    kept = 0
    for i in range(T):
        for j in range(i + 1, T):
            d = Y[i] - Y[j]
            s = d @ d
            if s == 0.0:
                continue
            total += np.outer(d, d) / s
            kept += 1
    return total / kept, kept


def enumerate_rows(Y: np.ndarray, dtype=np.float64):
    """Same sum as :func:`brute_force`, one row against all later rows at a time, in dtype."""
    Y = Y.astype(dtype)
    N = Y.shape[1]
    total = np.zeros((N, N), dtype=dtype)
    kept = 0
    for i in range(Y.shape[0] - 1):
        D = Y[i] - Y[i + 1 :]
        s = np.einsum("ij,ij->i", D, D)
        D, s = D[s > 0], s[s > 0]
        total += D.T @ (D / s[:, None])
        kept += s.size
    return total / kept, kept


def t_factor_panel(nu: float, seed: int, T: int = 400, N: int = 50, r: int = 3) -> np.ndarray:
    """T x N multivariate t_nu panel whose scatter has r strong factors."""
    gen = np.random.default_rng(seed)
    A = np.hstack([3.0 * gen.standard_normal((N, r)), np.eye(N)])
    spec = EllipticalSpec(scatter_factor=A, nu=nu)
    return sample_elliptical(spec, T, RngStream(seed))


class TestKernelValue:
    def test_two_row_worked_example(self):
        Y = np.array([[0.0, 0.0], [3.0, 4.0]])
        kt = sample_kendall_tau(Y)
        np.testing.assert_allclose(kt.matrix, np.array([[9.0, 12.0], [12.0, 16.0]]) / 25.0)
        assert kt.n_pairs == 1
        assert kt.degenerate_pairs_dropped == 0

    def test_small_integer_panel_against_enumeration(self):
        Y = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 2.0, 1.0], [1.0, 1.0, 1.0]])
        ref, kept = brute_force(Y)
        kt = sample_kendall_tau(Y)
        np.testing.assert_allclose(kt.matrix, ref, atol=1e-15)
        assert kt.n_pairs == kept == 6

    def test_enumeration_agreement_on_50_random_panels(self, rng):
        worst = 0.0
        for _ in range(50):
            T = int(rng.integers(3, 13))
            N = int(rng.integers(2, 7))
            Y = rng.standard_normal((T, N)) * 10.0 ** rng.integers(-2, 3)
            ref, kept = brute_force(Y)
            kt = sample_kendall_tau(Y)
            assert kt.n_pairs == kept
            worst = max(worst, float(np.abs(kt.matrix - ref).max()))
        assert worst <= 1e-12

    def test_invariants_on_random_panels(self, rng):
        for _ in range(10):
            Y = rng.standard_normal((30, 8))
            kt = sample_kendall_tau(Y)
            verify_kendall_invariants(kt)
            assert abs(np.trace(kt.matrix) - 1.0) <= 1e-10

    def test_accepts_data_panel_and_rejects_missing(self, rng):
        values = rng.standard_normal((6, 3))
        kt = sample_kendall_tau(DataPanel(values))
        np.testing.assert_array_equal(kt.matrix, sample_kendall_tau(values).matrix)
        values2 = values.copy()
        values2[0, 0] = np.nan
        panel = DataPanel(values2)
        with pytest.raises(ValueError, match="impute"):
            sample_kendall_tau(panel)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="two rows"):
            sample_kendall_tau(np.ones((1, 4)))

    @pytest.mark.parametrize("shape", [(6,), (3, 4, 2)])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a T x N matrix"):
            sample_kendall_tau(np.ones(shape))

    def test_nonfinite_panel_rejected(self):
        Y = np.ones((4, 3))
        Y[2, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            sample_kendall_tau(Y)

    def test_row_blocks_match_enumeration(self, rng):
        # 1200 rows span several row blocks of the pair-weight matrix
        Y = rng.standard_normal((1200, 4)) * np.array([1.0, 10.0, 0.1, 3.0])
        Y[700] = Y[100]
        ref, kept = enumerate_rows(Y)
        kt = sample_kendall_tau(Y)
        assert kt.n_pairs == kept
        assert kt.degenerate_pairs_dropped == 1
        assert np.abs(kt.matrix - ref).max() <= 1e-12


class TestExtendedPrecisionOracle:
    """Heavy tails and near-duplicate rows against a long double enumeration."""

    @pytest.mark.parametrize("nu", [0.3, 0.5, 1.0])
    def test_heavy_tailed_factor_panels(self, nu):
        Y = t_factor_panel(nu, seed=11)
        kt = sample_kendall_tau(Y)
        assert kt.direct_pairs == 0
        assert float(np.abs(kt.matrix - enumerate_rows(Y, np.longdouble)[0]).max()) <= 1e-15

    def test_near_duplicate_cluster_takes_the_direct_path(self, rng):
        Y = rng.standard_normal((400, 50))
        u = rng.standard_normal(50)
        Y[:40] = 1e4 * u + 10.0 * rng.standard_normal((40, 50))
        kt = sample_kendall_tau(Y)
        assert kt.direct_pairs == 40 * 39 // 2
        assert float(np.abs(kt.matrix - enumerate_rows(Y, np.longdouble)[0]).max()) <= 1e-15


_THREADS_SCRIPT = """
import json, sys
import numpy as np
from robustfactors import DataPanel, estimate_many, method_configs, sample_kendall_tau
from robustfactors.kendall import _pair_weight_band, _window_kendall_tau
gen = np.random.default_rng(5)
shapes = [(300, 128, 2.0), (708, 40, 3.0), (97, 11, 1.0)]  # T, N, t degrees of freedom
panels = [3.0 * gen.standard_normal((T, 3)) @ gen.standard_normal((3, N))
          + gen.standard_t(nu, size=(T, N)) for T, N, nu in shapes]
out = []
for Y in panels:
    res = estimate_many(DataPanel(Y), method_configs(None))
    out.append({"matrix": sample_kendall_tau(Y).matrix.tobytes().hex(),
                "window": _window_kendall_tau(_pair_weight_band(Y, 60), 30).matrix.tobytes().hex(),
                "r_hat": {m: r.r_hat for m, r in res.items()}})
json.dump(out, sys.stdout)
"""


def run_with_blas_threads(n: int) -> list[dict]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(n)
    proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


class TestDeterminism:
    """Same bytes on every call at a fixed BLAS thread count; same r_hat across counts."""

    def test_repeated_calls_identical(self, rng):
        Y = rng.standard_normal((40, 6))
        a = sample_kendall_tau(Y).matrix
        b = sample_kendall_tau(Y).matrix
        assert np.array_equal(a, b)

    def test_bit_equality_across_processes(self):
        assert run_with_blas_threads(1) == run_with_blas_threads(1)

    def test_blas_thread_count_contract(self):
        one, two = run_with_blas_threads(1), run_with_blas_threads(2)
        for a, b in zip(one, two):
            assert a["r_hat"] == b["r_hat"]
            for key in ("matrix", "window"):
                ma, mb = (np.frombuffer(bytes.fromhex(x[key])) for x in (a, b))
                assert np.abs(ma - mb).max() <= 1e-15


class TestScaleInvariance:
    """The matrix and the Kendall-path r_hat do not move under Y -> a Y."""

    PANEL = t_factor_panel(3.0, seed=17, T=60, N=20, r=2)
    CONFIGS = method_configs("mker,mktcr")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-300, 300))
    # Without the rescale, |d|^2 overflows at 1e160 (zero matrix, r_hat 1), is
    # subnormal at 1e-160 (trace off by 1e-8) and is zero at 1e-170.
    @example(160)
    @example(-160)
    @example(-170)
    def test_decimal_scales_keep_r_hat(self, e):
        base = estimate_many(DataPanel(self.PANEL), self.CONFIGS)
        Y = self.PANEL * 10.0**e
        verify_kendall_invariants(sample_kendall_tau(Y))
        scaled = estimate_many(DataPanel(Y), self.CONFIGS)
        for m in self.CONFIGS:
            assert scaled[m].r_hat == base[m].r_hat, (m, e)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-1000, 1000))
    def test_power_of_two_scales_are_bit_identical(self, k):
        Y = np.ldexp(self.PANEL, k)
        assert np.abs(Y).min() >= np.finfo(float).tiny and np.isfinite(Y).all()
        base = sample_kendall_tau(self.PANEL).matrix
        assert np.array_equal(sample_kendall_tau(Y).matrix, base)


class TestDegeneratePairs:
    def test_rows_far_below_the_peak_keep_their_pairs(self):
        # |z_i - z_j|^2 of the small rows is below 2^-1024 in units of the peak:
        # their weights overflowed and their direct |D|^2 underflowed to zero
        Y = t_factor_panel(3.0, seed=17, T=60, N=20, r=2)
        Y[:30] *= 1e86
        Y[30:] *= 1e-72
        kt = sample_kendall_tau(Y)
        verify_kendall_invariants(kt)
        assert kt.n_pairs == 60 * 59 // 2
        assert float(np.abs(kt.matrix - enumerate_rows(Y, np.longdouble)[0]).max()) <= 1e-15

    def test_duplicate_rows_dropped_and_counted(self):
        Y = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
        kt = sample_kendall_tau(Y)
        assert kt.degenerate_pairs_dropped == 1
        assert kt.n_pairs == 2
        assert abs(np.trace(kt.matrix) - 1.0) <= 1e-12

    def test_constant_panel_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            sample_kendall_tau(np.ones((5, 3)))


class TestPopulationOracle:
    def test_identity_scatter_gives_uniform_values(self):
        q = 6
        vals = population_kendall_eigenvalues_oracle(np.ones(q), 400_000, RngStream(71))
        np.testing.assert_allclose(vals, np.full(q, 1.0 / q), atol=1.5e-3)

    def test_single_coordinate_is_exactly_one(self):
        vals = population_kendall_eigenvalues_oracle(np.array([5.0]), 1000, RngStream(73))
        assert vals.shape == (1,)
        assert vals[0] == 1.0

    def test_outputs_sum_to_one(self):
        vals = population_kendall_eigenvalues_oracle(
            np.array([4.0, 2.0, 1.0, 0.5]), 200_000, RngStream(79)
        )
        assert abs(vals.sum() - 1.0) < 1e-12

    def test_spiked_case_against_quadrature(self):
        # E[a X / (a X + Y)] with X ~ chi2_1, Y ~ chi2_2 for spectrum (a, 1, 1).
        a = 10.0

        def integrand(y, x):
            fx = np.exp(-x / 2.0) / np.sqrt(2.0 * np.pi * x)
            fy = np.exp(-y / 2.0) / 2.0
            return a * x / (a * x + y) * fx * fy

        expected_top, err = integrate.dblquad(integrand, 0, np.inf, 0, np.inf)
        assert err < 1e-6
        vals = population_kendall_eigenvalues_oracle(
            np.array([a, 1.0, 1.0]), 2_000_000, RngStream(83)
        )
        assert abs(vals[0] - expected_top) < 2e-3
        # remaining two coordinates split the leftover mass evenly
        np.testing.assert_allclose(vals[1:], (1.0 - expected_top) / 2.0, atol=2e-3)

    def test_monotone_in_scatter_eigenvalue(self):
        vals = population_kendall_eigenvalues_oracle(
            np.array([8.0, 4.0, 1.0]), 300_000, RngStream(89)
        )
        assert vals[0] > vals[1] > vals[2]

    def test_zero_eigenvalue_gets_zero_mass(self):
        vals = population_kendall_eigenvalues_oracle(
            np.array([2.0, 1.0, 0.0]), 50_000, RngStream(97)
        )
        assert vals[2] == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            population_kendall_eigenvalues_oracle(np.array([-1.0, 1.0]), 10, RngStream(0))
        with pytest.raises(ValueError):
            population_kendall_eigenvalues_oracle(np.zeros(3), 10, RngStream(0))
        with pytest.raises(ValueError):
            population_kendall_eigenvalues_oracle(np.ones(3), 0, RngStream(0))


class TestLowerBound:
    def test_formula_value(self):
        lam = np.array([3.0, 2.0, 1.0])
        got = han_lower_bound(lam, 2, 10)
        denom = 6.0 + 4.0 * np.sqrt(14.0) * np.sqrt(np.log(10)) + 24.0 * np.log(10)
        expected = 2.0 / denom * (1.0 - np.sqrt(3.0) / 100.0)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_unsorted_input_sorted_internally(self):
        lam = np.array([1.0, 3.0, 2.0])
        assert han_lower_bound(lam, 1, 10) == han_lower_bound(np.sort(lam)[::-1], 1, 10)

    def test_zero_eigenvalue_gives_zero(self):
        assert han_lower_bound(np.array([2.0, 0.0]), 2, 10) == 0.0

    def test_j_range_checked(self):
        with pytest.raises(ValueError):
            han_lower_bound(np.array([1.0, 2.0]), 0, 10)
        with pytest.raises(ValueError):
            han_lower_bound(np.array([1.0, 2.0]), 3, 10)

    def test_oracle_dominates_bound_on_random_spectra(self, rng):
        for _ in range(10):
            q = int(rng.integers(2, 9))
            lam = np.sort(rng.uniform(0.1, 20.0, size=q))[::-1]
            vals = population_kendall_eigenvalues_oracle(lam, 100_000, RngStream(int(rng.integers(1 << 30))))
            ordered = np.sort(vals)[::-1]
            for j in range(1, q + 1):
                assert ordered[j - 1] >= han_lower_bound(lam, j, q)


class TestScatterSpectrumTransfer:
    def test_radial_law_does_not_move_the_matrix(self):
        sig = np.linspace(4.0, 0.5, 6)
        A = np.diag(np.sqrt(sig))
        gs = EllipticalSpec(scatter_factor=A)
        ts = EllipticalSpec(scatter_factor=A, nu=1.0)
        stream = RngStream(101, 4)
        KG = sample_kendall_tau(sample_elliptical(gs, 600, stream)).matrix
        KC = sample_kendall_tau(sample_elliptical(ts, 600, stream)).matrix
        assert np.linalg.norm(KG - KC, 2) < 0.1

    def test_top_eigenvector_tracks_scatter(self):
        sig = np.array([25.0, 1.0, 1.0, 1.0, 1.0])
        A = np.diag(np.sqrt(sig))
        spec = EllipticalSpec(scatter_factor=A)
        X = sample_elliptical(spec, 3000, RngStream(103))
        M = sample_kendall_tau(X).matrix
        w, V = np.linalg.eigh(M)
        top = V[:, -1]
        assert abs(top[0]) > 0.99

    def test_spiked_eigenvalues_near_population_map(self):
        sig = np.array([10.0, 5.0, 1.0, 1.0])
        oracle = population_kendall_eigenvalues_oracle(sig, 1_000_000, RngStream(107))
        A = np.diag(np.sqrt(sig))
        spec = EllipticalSpec(scatter_factor=A)
        X = sample_elliptical(spec, 5000, RngStream(109))
        emp = eigenvalues_sym(sample_kendall_tau(X).matrix)
        np.testing.assert_allclose(emp, np.sort(oracle)[::-1], atol=0.02)

    def test_error_shrinks_with_sample_size(self):
        sig = np.array([4.0, 2.0, 1.0, 0.5])
        pop = np.diag(np.sort(population_kendall_eigenvalues_oracle(sig, 2_000_000, RngStream(113)))[::-1])
        A = np.diag(np.sqrt(sig))
        spec = EllipticalSpec(scatter_factor=A)
        errs = {200: 0.0, 1800: 0.0}
        for k in range(20):
            for T in errs:
                X = sample_elliptical(spec, T, RngStream(127, k))
                M = sample_kendall_tau(X).matrix
                errs[T] += np.linalg.norm(M - pop, "fro")
        ratio = errs[200] / errs[1800]
        # 9x the sample should cut the error by about 3; allow wide slack
        assert 1.2 <= ratio <= 3.5


class TestInvariantChecker:
    def test_rejects_asymmetry(self, rng):
        kt = sample_kendall_tau(rng.standard_normal((10, 4)))
        bad = kt.matrix.copy()
        bad[0, 1] += 1e-6
        with pytest.raises(InvariantError, match="asymmetry"):
            verify_kendall_invariants(type(kt)(matrix=bad, n_pairs=kt.n_pairs))

    def test_rejects_bad_trace(self, rng):
        kt = sample_kendall_tau(rng.standard_normal((10, 4)))
        with pytest.raises(InvariantError, match="trace"):
            verify_kendall_invariants(type(kt)(matrix=2.0 * kt.matrix, n_pairs=kt.n_pairs))

    def test_rejects_indefinite(self):
        M = np.diag([1.5, -0.5])
        with pytest.raises(InvariantError, match="PSD"):
            verify_kendall_invariants(
                type("KT", (), {"matrix": M})()  # duck-typed carrier
            )

    def test_rejects_spectral_norm_and_reports_the_excess(self):
        # symmetric, trace one and PSD within 1e-10, but its norm is 1 + 1.5e-10
        kt = KendallTauMatrix(np.diag([1 + 1.5e-10, -5e-11, -5e-11]), n_pairs=3)
        with pytest.raises(InvariantError, match=r"spectral norm exceeds 1 by 1\.500e-10$"):
            verify_kendall_invariants(kt)

    def test_rejects_nonfinite(self):
        M = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(InvariantError, match="finite"):
            verify_kendall_invariants(type("KT", (), {"matrix": M})())
