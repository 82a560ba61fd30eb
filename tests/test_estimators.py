from __future__ import annotations

import math
import multiprocessing
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustfactors import _helper, estimators, rolling, spectrum
from robustfactors._errors import NumericalError
from robustfactors.elliptical import EllipticalSpec
from robustfactors.estimators import (
    ALL_METHODS,
    COVARIANCE_METHODS,
    KENDALL_METHODS,
    EstimatorConfig,
    _evaluate,
    estimate_many,
)
from robustfactors.kendall import _pair_weight_band, sample_kendall_tau
from robustfactors.panel import DataPanel, impute_column_mean, ingest_csv
from robustfactors.rolling import rolling_estimate
from robustfactors.spectrum import build_spectrum, eigenvalues_sym, gram_eigenvalues


def reference_series(raw, N, T, c, method, k_max, allow_zero=False):
    """Slow plain-Python reimplementation of every criterion from the formulas."""
    m = min(N, T)
    delta = 1.0 / math.sqrt(m)
    L = min(m, len(raw))
    reg = [raw[i] + c * delta for i in range(L)]
    mock = -1.0 / math.log(delta)

    def lam(j):
        return mock if j == 0 else reg[j - 1]

    def tail(j):
        if j == -1:
            return sum(reg) + mock
        return sum(reg[j:])

    out = []
    for j in range(0 if allow_zero else 1, k_max + 1):
        if method in ("mker", "er"):
            out.append(lam(j) / lam(j + 1))
        elif method in ("mktcr", "tcr"):
            out.append(
                math.log(1.0 + lam(j) / tail(j - 1)) / math.log(1.0 + lam(j + 1) / tail(j))
            )
        else:
            out.append(math.log(1.0 + lam(j) / tail(j)) / math.log(1.0 + lam(j + 1) / tail(j + 1)))
    return out


def loop_series(spec, method, k_max, allow_zero):
    """The per-j loop the criteria used before the one ratio formula, with the
    spectrum's former lam() and tail() accessors as local functions."""

    def lam(j):
        if j == 0:
            return spec.mock_zero
        return float(spec.regularized[j - 1])

    def tail(j):
        if j == -1:
            return float(spec.tail_sums[0]) + spec.mock_zero
        return float(spec.tail_sums[j])

    def criterion_value(j):
        lam_j = lam(j)
        lam_next = lam(j + 1)
        if method in ("mker", "er"):
            return lam_j / lam_next
        if method in ("mktcr", "tcr"):
            return math.log1p(lam_j / tail(j - 1)) / math.log1p(lam_next / tail(j))
        return math.log1p(lam_j / tail(j)) / math.log1p(lam_next / tail(j + 1))

    j_start = 0 if allow_zero else 1
    series = np.array([criterion_value(j) for j in range(j_start, k_max + 1)])
    return j_start + int(np.argmax(series)), series


def noise_panel(rng, T, N, scale=1.0):
    return DataPanel(scale * rng.standard_normal((T, N)))


def factor_panel(rng, T, N, r, strength=8.0):
    F = rng.standard_normal((T, r))
    lam_ = rng.standard_normal((N, r))
    return DataPanel(strength * F @ lam_.T + rng.standard_normal((T, N)))


class TestConfig:
    def test_defaults(self):
        cfg = EstimatorConfig(method="mker")
        assert cfg.k_max == 8
        assert cfg.c == 0.01
        assert cfg.allow_zero is False

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown method"):
            EstimatorConfig(method="pca")
        with pytest.raises(ValueError, match="k_max"):
            EstimatorConfig(method="er", k_max=0)
        with pytest.raises(ValueError, match="c must"):
            EstimatorConfig(method="er", c=0.0)
        # every estimate demeans the same way; there is no demeaning mode to pick
        with pytest.raises(TypeError, match="demean"):
            EstimatorConfig(method="mker", demean="none")

    @pytest.mark.parametrize("k_max", [2.5, 3.0, "3", None, True])
    def test_non_integer_k_max_rejected(self, k_max):
        """Rejected at construction, not later as a slice index inside estimate."""
        with pytest.raises(ValueError, match=f"^k_max must be an integer, got {re.escape(repr(k_max))}$"):
            EstimatorConfig(method="mker", k_max=k_max)
        assert EstimatorConfig(method="mker", k_max=np.int64(3)).k_max == 3

    @pytest.mark.parametrize("c", [math.inf, math.nan, -math.inf])
    def test_non_finite_c_rejected(self, c):
        with pytest.raises(ValueError, match="c must be positive and finite"):
            EstimatorConfig(method="mker", c=c)

    @pytest.mark.parametrize("c", [True, np.True_, "0.5", None])
    def test_non_real_c_rejected(self, c):
        """A bool is not taken as 1, and a string gets a ValueError naming c."""
        with pytest.raises(ValueError, match=f"^c must be a real number, got {re.escape(repr(c))}$"):
            EstimatorConfig(method="mker", c=c)
        assert EstimatorConfig(method="mker", c=np.float32(0.5)).c == 0.5

    @pytest.mark.parametrize("allow_zero", ["no", "", 0, 1, None, np.int64(1)])
    def test_non_bool_allow_zero_rejected(self, allow_zero):
        """Rejected at construction: a truthy "no" would admit the j = 0 candidate."""
        want = f"^allow_zero must be True or False, got {re.escape(repr(allow_zero))}$"
        with pytest.raises(ValueError, match=want):
            EstimatorConfig(method="mker", k_max=3, allow_zero=allow_zero)
        assert EstimatorConfig(method="mker", allow_zero=np.bool_(True)).allow_zero

    def test_method_groups(self):
        assert set(KENDALL_METHODS) == {"mker", "mktcr"}
        assert set(COVARIANCE_METHODS) == {"er", "gr", "tcr"}
        assert set(ALL_METHODS) == set(KENDALL_METHODS) | set(COVARIANCE_METHODS)


# Each builds two instances from equal but distinct arrays.
ARRAY_HOLDERS = {
    "DataPanel": lambda Y: DataPanel(Y),
    "KendallTauMatrix": lambda Y: sample_kendall_tau(Y),
    "PairWeightBand": lambda Y: _pair_weight_band(Y, 4),
    "EigenSpectrum": lambda Y: build_spectrum([1.0, 0.5, 0.25], N=10, T=10, c=0.01),
    "EstimationResult": lambda Y: estimate_many(
        DataPanel(Y), {"er": EstimatorConfig(method="er", k_max=2)}
    )["er"],
    "EllipticalSpec": lambda Y: EllipticalSpec(Y[:, :3], nu=3.0),
}


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_compare_and_hash_by_identity(name):
    """== on array fields would raise "truth value of an array is ambiguous"."""
    Y = np.random.default_rng(5).standard_normal((8, 8))
    a, b = ARRAY_HOLDERS[name](Y), ARRAY_HOLDERS[name](Y.copy())
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


class TestCriterionValues:
    def test_eigenvalue_ratio_picks_largest_gap(self):
        spec = build_spectrum([10.0, 5.0, 4.0, 0.1, 0.09, 0.08], N=64, T=64, c=1e-8)
        res = _evaluate(spec, EstimatorConfig(method="mker", k_max=4))
        assert res.r_hat == 3
        np.testing.assert_allclose(
            res.ratio_series, [2.0, 1.25, 40.0, 0.1 / 0.09], rtol=1e-6
        )

    def test_er_toy_spectrum(self):
        spec = build_spectrum([8.0, 4.0, 0.2, 0.1], N=32, T=32, c=1e-9)
        res = _evaluate(spec, EstimatorConfig(method="er", k_max=3))
        assert res.r_hat == 2

    def test_growth_ratio_telescopes_tail_ratios(self):
        # log1p(lam_j / V_j) == log(V_{j-1} / V_j), so the gr criterion is a
        # ratio of successive tail-sum log-contractions.
        spec = build_spectrum([4.0, 2.0, 1.0, 1.0], N=16, T=16, c=1.0)
        res = _evaluate(spec, EstimatorConfig(method="gr", k_max=2, c=1.0))
        v = spec.tail_sums
        expected1 = math.log((v[0]) / v[1]) / math.log(v[1] / v[2])
        expected2 = math.log(v[1] / v[2]) / math.log(v[2] / v[3])
        np.testing.assert_allclose(res.ratio_series, [expected1, expected2], rtol=1e-12)

    def test_all_methods_match_reference_formulas(self, rng):
        for _ in range(8):
            L = int(rng.integers(8, 20))
            raw = np.sort(rng.uniform(0.0, 1.0, size=L))[::-1]
            raw /= raw.sum()
            N = int(rng.integers(L, 3 * L))
            T = int(rng.integers(L, 3 * L))
            c = float(rng.uniform(0.005, 0.2))
            spec = build_spectrum(raw, N=N, T=T, c=c)
            for method in ALL_METHODS:
                k_max = L - 2 if method == "gr" else L - 1
                for allow_zero in (False, True):
                    cfg = EstimatorConfig(
                        method=method, k_max=k_max, c=c, allow_zero=allow_zero
                    )
                    res = _evaluate(spec, cfg)
                    ref = reference_series(raw, N, T, c, method, k_max, allow_zero)
                    np.testing.assert_allclose(res.ratio_series, ref, rtol=1e-12)
                    assert res.r_hat == res.j_start + int(np.argmax(ref))

    def test_worked_spectrum_with_larger_regularizer(self):
        raw = np.concatenate([[0.5, 0.3], np.full(48, 0.2 / 48)])
        spec = build_spectrum(raw, N=50, T=50, c=0.05)
        for method in ALL_METHODS:
            cfg = EstimatorConfig(method=method, k_max=6, c=0.05)
            res = _evaluate(spec, cfg)
            ref = reference_series(raw, 50, 50, 0.05, method, 6)
            np.testing.assert_allclose(res.ratio_series, ref, rtol=1e-12)
            assert res.r_hat == 2

    def test_flat_spectrum_tie_breaks_to_smallest(self):
        spec = build_spectrum(np.full(10, 0.1), N=20, T=20, c=0.01)
        for method in ("mker", "er"):
            res = _evaluate(spec, EstimatorConfig(method=method, k_max=5))
            assert res.r_hat == 1

    def test_series_length_and_j_start(self):
        spec = build_spectrum(np.linspace(1.0, 0.1, 12), N=20, T=20, c=0.01)
        res = _evaluate(spec, EstimatorConfig(method="mker", k_max=7))
        assert res.j_start == 1
        assert res.ratio_series.shape == (7,)
        res0 = _evaluate(spec, EstimatorConfig(method="mker", k_max=7, allow_zero=True))
        assert res0.j_start == 0
        assert res0.ratio_series.shape == (8,)

    def test_k_max_limits(self):
        """min(N, T) >= k_max + 2 is checked before any criterion is read: gr reads
        V_{k_max+1}, the strictest of the five, and every method gets the same limit."""
        for T, N in ((12, 10), (10, 13)):
            panel = DataPanel(np.random.default_rng(T).standard_normal((T, N)))
            for method in ALL_METHODS:
                res = estimate_many(panel, {method: EstimatorConfig(method=method, k_max=8)})
                assert res[method].ratio_series.shape == (8,)
                with pytest.raises(ValueError, match=r"^panel too small: min\(N, T\) = 10 < "
                                                     r"k_max \+ 2 = 11$"):
                    estimate_many(panel, {method: EstimatorConfig(method=method, k_max=9)})


class TestRatioFormula:
    @settings(max_examples=400, deadline=None)
    @given(
        raw=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1e3)),
            min_size=3, max_size=40,
        ),
        extra=st.tuples(st.integers(0, 20), st.integers(0, 20)),
        c=st.floats(min_value=1e-4, max_value=1.0),
        method=st.sampled_from(ALL_METHODS),
        allow_zero=st.booleans(),
        data=st.data(),
    )
    def test_bytes_match_the_per_j_loop(self, raw, extra, c, method, allow_zero, data):
        raw = sorted(raw, reverse=True)
        spec = build_spectrum(raw, N=len(raw) + extra[0], T=len(raw) + extra[1], c=c)
        limit = spec.raw.size - 2 if method == "gr" else spec.raw.size - 1
        k_max = data.draw(st.integers(1, limit), label="k_max")
        cfg = EstimatorConfig(method=method, k_max=k_max, c=c, allow_zero=allow_zero)
        res = _evaluate(spec, cfg)
        r_hat, series = loop_series(spec, method, k_max, allow_zero)
        assert res.ratio_series.view(np.int64).tolist() == series.view(np.int64).tolist()
        assert res.r_hat == r_hat
        assert res.j_start == (0 if allow_zero else 1)


class TestEndToEnd:
    def test_recovers_planted_factors(self, rng):
        panel = factor_panel(rng, 120, 60, r=3)
        for method in ALL_METHODS:
            res = estimate_many(panel, {method: EstimatorConfig(method=method)})[method]
            assert res.r_hat == 3, method

    def test_kendall_and_covariance_paths_use_different_spectra(self, rng):
        panel = factor_panel(rng, 80, 40, r=2)
        out = estimate_many(
            panel,
            {
                "mker": EstimatorConfig(method="mker"),
                "er": EstimatorConfig(method="er"),
            },
        )
        assert abs(out["mker"].spectrum.raw.sum() - 1.0) <= 1e-10
        assert abs(out["er"].spectrum.raw.sum() - 1.0) > 0.01

    def test_estimate_many_matches_singletons(self, rng):
        panel = factor_panel(rng, 70, 50, r=2)
        configs = {
            "mker": EstimatorConfig(method="mker", k_max=5),
            "mktcr": EstimatorConfig(method="mktcr", k_max=5),
            "gr": EstimatorConfig(method="gr", k_max=5),
        }
        joint = estimate_many(panel, configs)
        for name, cfg in configs.items():
            solo = estimate_many(panel, {name: cfg})[name]
            assert joint[name].r_hat == solo.r_hat
            np.testing.assert_array_equal(joint[name].ratio_series, solo.ratio_series)

    def test_empty_configs_rejected(self, rng):
        with pytest.raises(ValueError, match="^no methods given$"):
            estimate_many(factor_panel(rng, 30, 20, r=1), {})

    def test_config_sweep_shares_matrix_work(self, rng):
        panel = factor_panel(rng, 60, 40, r=1)
        configs = {
            f"mker_k{k}": EstimatorConfig(method="mker", k_max=k) for k in (3, 5, 8)
        }
        out = estimate_many(panel, configs)
        assert {res.r_hat for res in out.values()} == {1}

    def test_one_spectrum_per_matrix_and_c(self, rng, monkeypatch):
        import robustfactors.estimators as est

        panel = factor_panel(rng, 60, 40, r=2)
        configs = {m: EstimatorConfig(method=m) for m in ("mker", "mktcr", "er", "gr", "tcr")}
        configs |= {
            "mker_k3": EstimatorConfig(method="mker", k_max=3),
            "er_c": EstimatorConfig(method="er", c=0.1),
        }
        calls = []
        build = est.build_spectrum
        monkeypatch.setattr(
            est, "build_spectrum", lambda *a, **kw: calls.append(kw["c"]) or build(*a, **kw)
        )
        joint = estimate_many(panel, configs)
        # (kendall, 0.01), (covariance, 0.01), (covariance, 0.1)
        assert len(calls) == 3
        assert joint["mker"].spectrum is joint["mktcr"].spectrum is joint["mker_k3"].spectrum
        assert joint["er"].spectrum is joint["gr"].spectrum is joint["tcr"].spectrum
        monkeypatch.undo()
        for name, cfg in configs.items():
            solo = estimate_many(panel, {name: cfg})[name]
            assert joint[name].r_hat == solo.r_hat
            assert joint[name].ratio_series.tobytes() == solo.ratio_series.tobytes()

    def test_small_panel_guard(self, rng):
        panel = noise_panel(rng, 8, 40)
        with pytest.raises(ValueError, match="too small"):
            estimate_many(panel, {"mker": EstimatorConfig(method="mker", k_max=8)})

    def test_missing_values_rejected(self, rng):
        values = rng.standard_normal((20, 10))
        values[3, 4] = np.nan
        panel = DataPanel(values)
        with pytest.raises(ValueError, match="impute"):
            estimate_many(panel, {"mker": EstimatorConfig(method="mker", k_max=3)})

    def test_zero_factor_choice_on_pure_noise(self, rng):
        hits = {"mker": 0, "mktcr": 0}
        reps = 10
        for k in range(reps):
            gen = np.random.default_rng(123 + k)
            panel = noise_panel(gen, 200, 200)
            out = estimate_many(
                panel,
                {
                    m: EstimatorConfig(method=m, allow_zero=True)
                    for m in KENDALL_METHODS
                },
            )
            for m in KENDALL_METHODS:
                hits[m] += out[m].r_hat == 0
        assert hits["mker"] >= 9
        assert hits["mktcr"] >= 9

    def test_zero_factor_not_chosen_with_real_factors(self, rng):
        panel = factor_panel(rng, 100, 50, r=2)
        cfg = EstimatorConfig(method="mker", allow_zero=True)
        res = estimate_many(panel, {"mker": cfg})["mker"]
        assert res.r_hat == 2


class TestInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(min_value=0.05, max_value=50.0),
        sign=st.sampled_from([-1.0, 1.0]),
        b=st.floats(min_value=-20.0, max_value=20.0),
    )
    def test_kendall_methods_affine_invariant(self, a, sign, b):
        gen = np.random.default_rng(42)
        Y = gen.standard_normal((24, 8))
        Y[:, 0] += 4.0 * gen.standard_normal(24)
        base = estimate_many(
            DataPanel(Y),
            {m: EstimatorConfig(method=m, k_max=4) for m in KENDALL_METHODS},
        )
        mapped = estimate_many(
            DataPanel(sign * a * Y + b),
            {m: EstimatorConfig(method=m, k_max=4) for m in KENDALL_METHODS},
        )
        for m in KENDALL_METHODS:
            assert mapped[m].r_hat == base[m].r_hat
            np.testing.assert_allclose(
                mapped[m].ratio_series, base[m].ratio_series, rtol=1e-8, atol=1e-10
            )

    def test_power_of_two_scaling_is_bitwise(self, rng):
        Y = rng.standard_normal((30, 10))
        cfg = EstimatorConfig(method="mker", k_max=4)
        base = estimate_many(DataPanel(Y), {"mker": cfg})["mker"]
        scaled = estimate_many(DataPanel(128.0 * Y), {"mker": cfg})["mker"]
        assert np.array_equal(base.ratio_series, scaled.ratio_series)
        assert base.r_hat == scaled.r_hat

    def test_covariance_methods_keep_choice_under_moderate_scaling(self, rng):
        panel = factor_panel(rng, 100, 60, r=2)
        for a in (0.5, 2.0):
            for m in COVARIANCE_METHODS:
                cfg = EstimatorConfig(method=m, k_max=6)
                assert estimate_many(DataPanel(a * panel.values), {m: cfg})[m].r_hat == 2


class TestMethodAgreement:
    def test_kendall_methods_agree_on_separated_spectrum(self):
        raw = np.concatenate([[0.3, 0.28, 0.26], np.full(20, 0.16 / 20)])
        spec = build_spectrum(raw, N=40, T=40, c=0.001)
        r1 = _evaluate(spec, EstimatorConfig(method="mker", k_max=8, c=0.001)).r_hat
        r2 = _evaluate(spec, EstimatorConfig(method="mktcr", k_max=8, c=0.001)).r_hat
        assert r1 == r2 == 3


def fingerprint(results):
    """Every byte of a decision: r_hat, the criterion series and the raw spectrum."""
    return [
        (name, res.r_hat, res.ratio_series.tobytes(), res.spectrum.raw.tobytes())
        for name, res in results.items()
    ]


FIVE = {m: EstimatorConfig(method=m, k_max=4) for m in ALL_METHODS}


def repr_csv(path, rng, rows=200):
    """A plain file of repr cells, the last series starting late; past 64 rows
    the CSV reader hands its odd chunks to the helper."""
    lines = ["a,b,c,d"] + [
        ",".join("" if t < 3 and j == 3 else repr(float(x)) for j, x in enumerate(y))
        for t, y in enumerate(rng.standard_normal((rows, 4)))
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_array_with_nan_matches_csv_with_empty_cells(tmp_path, rng):
    """A NaN in an array and an empty CSV cell are the same missing cell: the
    panel of series that start late decides the same, byte for byte."""
    values = factor_panel(rng, 90, 12, r=2).values
    values[:7, 0] = values[:15, 5] = values[:3, 11] = np.nan
    path = tmp_path / "late.csv"
    path.write_text("".join(
        ",".join("" if math.isnan(x) else repr(float(x)) for x in row) + "\n" for row in values
    ))
    from_array = impute_column_mean(DataPanel(values))
    from_csv = impute_column_mean(ingest_csv(path, has_header=False))
    assert from_array.values.tobytes() == from_csv.values.tobytes()
    assert fingerprint(estimate_many(from_array, FIVE)) == fingerprint(estimate_many(from_csv, FIVE))


def read_fingerprint(path):
    panel = ingest_csv(path)
    return panel.values.tobytes()  # NaN marks the missing cells


def estimate_in_child(values, want, path, want_read):
    assert read_fingerprint(path) == want_read  # the child's first helper job
    assert fingerprint(estimate_many(DataPanel(values), FIVE)) == want


class TestHelperThread:
    """The Gram path runs on a helper thread; nothing of it shows in the result."""

    def test_gram_path_runs_on_one_persistent_helper(self, rng, monkeypatch):
        threads = []
        gram = estimators.gram_eigenvalues
        monkeypatch.setattr(
            estimators, "gram_eigenvalues",
            lambda Y: threads.append(threading.get_ident()) or gram(Y),
        )
        panel = factor_panel(rng, 40, 20, r=2)
        for _ in range(3):
            estimate_many(panel, FIVE)
        assert len(threads) == 3 and len(set(threads)) == 1
        assert threads[0] != threading.get_ident()

    def path_calls(self, monkeypatch, panel, configs):
        """(path, thread, input array) of each _kendall_path and _gram_path call
        in one estimate_many."""
        calls = []
        for name in ("_kendall_path", "_gram_path"):
            monkeypatch.setattr(
                estimators, name,
                lambda R, *rest, name=name, path=getattr(estimators, name):
                    calls.append((name, threading.get_ident(), R)) or path(R, *rest),
            )
        estimate_many(panel, configs)
        return calls

    def test_gram_only_call_demeans_on_the_helper(self, rng, monkeypatch):
        # the Gram path's column demean runs on the helper, once
        configs = {m: EstimatorConfig(method=m, k_max=3) for m in COVARIANCE_METHODS}
        calls = self.path_calls(monkeypatch, factor_panel(rng, 30, 12, r=1), configs)
        assert [(name, thread == threading.get_ident()) for name, thread, _ in calls] == [
            ("_gram_path", False)
        ]

    def test_both_paths_read_one_row_demean(self, rng, monkeypatch):
        # the caller row-demeans once; the Kendall path reads that array as is,
        # since column shifts cancel in row differences, and the Gram path on
        # the helper subtracts its column means
        Y = factor_panel(rng, 30, 12, r=1).values + 50.0 * rng.standard_normal(12)
        calls = self.path_calls(monkeypatch, DataPanel(Y), FIVE)
        assert sorted(name for name, _, _ in calls) == ["_gram_path", "_kendall_path"]
        threads = {name: thread for name, thread, _ in calls}
        assert threads["_kendall_path"] == threading.get_ident() != threads["_gram_path"]
        assert calls[0][2] is calls[1][2]
        assert calls[0][2].tobytes() == (Y - Y.mean(axis=1, keepdims=True)).tobytes()
        kendall = {m: EstimatorConfig(method=m, k_max=3) for m in KENDALL_METHODS}
        assert [name for name, _, _ in self.path_calls(monkeypatch, DataPanel(Y), kendall)] == [
            "_kendall_path"
        ]

    def test_paths_compute_no_row_mean(self, rng):
        # each path reads the array it is given: neither demeans its rows again
        Y = factor_panel(rng, 30, 12, r=1).values + 50.0 * rng.standard_normal((30, 1))
        assert np.array_equal(
            estimators._kendall_path(Y, None, 0), eigenvalues_sym(sample_kendall_tau(Y).matrix)
        )
        assert np.array_equal(estimators._gram_path(Y), gram_eigenvalues(Y - Y.mean(axis=0)))

    def test_gram_spectrum_reads_the_row_then_column_demean(self, rng):
        Y = factor_panel(rng, 40, 15, r=2).values + 50.0 * rng.standard_normal(15)
        configs = {m: EstimatorConfig(method=m, k_max=4) for m in COVARIANCE_METHODS}
        got = estimate_many(DataPanel(Y), configs)
        R = Y - Y.mean(axis=1, keepdims=True)
        want = build_spectrum(gram_eigenvalues(R - R.mean(axis=0)), N=15, T=40, c=0.01)
        for res in got.values():
            assert res.spectrum.raw.tobytes() == want.raw.tobytes()

    def test_kendall_path_reads_the_row_demeaned_panel(self, rng):
        Y = factor_panel(rng, 40, 15, r=2).values + 50.0 * rng.standard_normal(15)
        got = estimate_many(DataPanel(Y), {"mker": EstimatorConfig(method="mker", k_max=4)})
        kt = sample_kendall_tau(Y - Y.mean(axis=1, keepdims=True))
        assert np.array_equal(got["mker"].spectrum.raw, eigenvalues_sym(kt.matrix))

    def test_concurrent_callers_share_the_helper(self, rng, monkeypatch, tmp_path):
        """The CSV reader and the decision core queue their jobs on one helper."""
        panels = [factor_panel(rng, 40, 20, r=2) for _ in range(3)]
        paths = [repr_csv(tmp_path / f"p{i}.csv", rng) for i in range(3)]
        want = [
            (read_fingerprint(f), fingerprint(estimate_many(p, FIVE))) for f, p in zip(paths, panels)
        ]
        monkeypatch.setattr(_helper, "_helper_jobs", None)  # the callers race to start it
        got = [[] for _ in range(6)]

        def work(i):
            for _ in range(5):
                read = read_fingerprint(paths[i % 3])
                got[i].append((read, fingerprint(estimate_many(panels[i % 3], FIVE))))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        filters = list(warnings.filters)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[want[i % 3]] * 5 for i in range(6)]
        assert warnings.filters == filters  # process-wide; no reader may leave one set

    def test_bytes_do_not_depend_on_the_binding(self, monkeypatch):
        # nor on the helper: estimate_many and the 41 windows give the same bytes
        # with it, with an inline call in its place, and with numpy's eigensolver
        gen = np.random.default_rng(31)
        Y = factor_panel(gen, 70, 24, r=2).values
        Y[30:36] *= 1e-9  # rows far below the peak, whose windows read the band too
        decisions = []
        core = rolling._decide

        def record(*args):
            out = core(*args)
            decisions.append(fingerprint(out))
            return out

        monkeypatch.setattr(rolling, "_decide", record)

        def run():
            decisions.clear()
            many = fingerprint(estimate_many(DataPanel(Y), FIVE))
            rows = rolling_estimate(DataPanel(Y), 30, FIVE).rows
            return many, rows, list(decisions)

        def inline(fn):  # the Gram path on the calling thread
            outcome = _helper._outcome(fn)
            return lambda: outcome

        threaded = run()
        with monkeypatch.context() as m:
            m.setattr(estimators, "_beside", inline)
            assert run() == threaded
        monkeypatch.setattr(spectrum, "_eigvalsh", np.linalg.eigvalsh)
        assert run() == threaded
        assert len(threaded[2]) == 41

    @pytest.mark.parametrize("order, want", [(("er", "mker"), "gram"), (("mker", "er"), "kendall")])
    def test_both_paths_fail_the_first_config_names_the_error(self, rng, monkeypatch, order, want):
        def fail(name):
            def raise_(Y):
                raise NumericalError(f"{name} failed")
            return raise_

        monkeypatch.setattr(estimators, "gram_eigenvalues", fail("gram"))
        monkeypatch.setattr(estimators, "sample_kendall_tau", fail("kendall"))
        configs = {m: EstimatorConfig(method=m, k_max=3) for m in order}
        with pytest.raises(NumericalError, match=f"^{want} failed$"):
            estimate_many(factor_panel(rng, 30, 12, r=1), configs)

    def test_caller_error_state_holds_on_the_helper(self, rng):
        panel = DataPanel(1e160 * rng.standard_normal((40, 20)))
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError, match="overflow encountered in matmul"):
                estimate_many(panel, FIVE)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
    )
    def test_forked_child_starts_its_own_helper(self, rng, tmp_path):
        Y = factor_panel(rng, 40, 20, r=2).values
        want = fingerprint(estimate_many(DataPanel(Y), FIVE))  # the helper is running now
        path = repr_csv(tmp_path / "panel.csv", rng)
        args = (Y, want, path, read_fingerprint(path))
        child = multiprocessing.get_context("fork").Process(target=estimate_in_child, args=args)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # Python 3.12+: forking with threads
            child.start()
        child.join(60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0
