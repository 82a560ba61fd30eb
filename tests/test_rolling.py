from __future__ import annotations

import csv
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_kendall import enumerate_rows, t_factor_panel

import robustfactors.estimators as estimators
from robustfactors.elliptical import RngStream
from robustfactors.estimators import EstimatorConfig, estimate_many
from robustfactors.kendall import pair_weight_band, sample_kendall_tau, window_kendall_tau
from robustfactors.montecarlo import generate_panel, make_scenario, method_configs
from robustfactors.panel import DataPanel, double_demean
from robustfactors.rolling import rolling_estimate, write_rolling_csv


def two_configs(k_max=4):
    return {
        "mker": EstimatorConfig(method="mker", k_max=k_max),
        "er": EstimatorConfig(method="er", k_max=k_max),
    }


class TestRollingMechanics:
    def test_full_window_equals_whole_panel_estimate(self, rng):
        panel = DataPanel(rng.standard_normal((40, 12)))
        configs = two_configs()
        result = rolling_estimate(panel, window=40, configs=configs)
        whole = estimate_many(panel, configs)
        assert len(result.series) == 2
        assert result.series[0] == ("40", "mker", whole["mker"].r_hat)
        assert result.series[1] == ("40", "er", whole["er"].r_hat)

    def test_window_count_and_labels(self, rng):
        panel = DataPanel(rng.standard_normal((40, 10)))
        result = rolling_estimate(panel, window=20, configs=two_configs())
        assert result.window == 20
        assert result.start_index == 20
        path = result.by_method("mker")
        assert len(path) == 21
        assert [label for label, _ in path] == [str(i) for i in range(20, 41)]

    def test_custom_time_labels_used(self, rng):
        labels = [f"2001-{m:02d}" for m in range(1, 13)]
        panel = DataPanel(rng.standard_normal((12, 8)), time_labels=labels)
        result = rolling_estimate(panel, window=6, configs=two_configs())
        assert [label for label, _ in result.by_method("er")] == labels[5:]

    def test_each_window_matches_direct_estimate(self, rng):
        panel = DataPanel(rng.standard_normal((25, 9)))
        configs = two_configs(k_max=3)
        result = rolling_estimate(panel, window=10, configs=configs)
        for end in (9, 17, 24):
            sub = DataPanel(panel.values[end - 9 : end + 1])
            direct = estimate_many(sub, configs)
            label = str(end + 1)
            got = {m: r for lab, m, r in result.series if lab == label}
            assert got == {m: res.r_hat for m, res in direct.items()}

    def test_locality(self, rng):
        values = rng.standard_normal((30, 8))
        panel_a = DataPanel(values)
        values_b = values.copy()
        values_b[29] += 50.0
        panel_b = DataPanel(values_b)
        configs = two_configs(k_max=3)
        ra = rolling_estimate(panel_a, window=10, configs=configs)
        rb = rolling_estimate(panel_b, window=10, configs=configs)
        # all windows that end before the modified row agree
        assert ra.series[: 2 * 20] == rb.series[: 2 * 20]

    def test_progress_callback(self, rng):
        panel = DataPanel(rng.standard_normal((14, 8)))
        calls = []
        rolling_estimate(
            panel, window=12, configs=two_configs(),
            progress=lambda k, n: calls.append((k, n)),
        )
        assert calls == [(1, 3), (2, 3), (3, 3)]


class TestRollingStatistics:
    def test_constant_factor_count_recovered(self):
        spec = make_scenario("A", dist="gaussian", N=50, T=300, reps=1)
        panel = generate_panel(spec, 0, RngStream(20260819, 0))
        result = rolling_estimate(
            panel, window=150, configs={"mker": EstimatorConfig(method="mker")}
        )
        path = result.by_method("mker")
        assert len(path) == 151
        hits = sum(r == 3 for _, r in path)
        assert hits >= 0.95 * len(path)

    def test_per_window_demeaning_absorbs_level_shifts(self, rng):
        spec = make_scenario("A", dist="gaussian", N=30, T=60, reps=1)
        panel = generate_panel(spec, 0, RngStream(4, 0))
        shifted = DataPanel(panel.values + 100.0)
        cfg = {"mker": EstimatorConfig(method="mker", k_max=4)}
        a = rolling_estimate(panel, window=30, configs=cfg)
        b = rolling_estimate(shifted, window=30, configs=cfg)
        assert a.series == b.series


class TestRollingValidation:
    def test_window_bounds(self, rng):
        panel = DataPanel(rng.standard_normal((20, 8)))
        with pytest.raises(ValueError, match="window must be >= 2"):
            rolling_estimate(panel, window=1, configs=two_configs())
        with pytest.raises(ValueError, match="exceeds panel length"):
            rolling_estimate(panel, window=21, configs=two_configs())
        with pytest.raises(ValueError, match="too small for k_max"):
            rolling_estimate(panel, window=5, configs=two_configs(k_max=8))

    def test_missing_entries_rejected(self, rng):
        values = rng.standard_normal((20, 8))
        values[5, 2] = np.nan
        panel = DataPanel(values, missing_mask=np.isnan(values))
        with pytest.raises(ValueError, match="impute"):
            rolling_estimate(panel, window=10, configs=two_configs())


class TestRollingCsv:
    def test_schema_and_roundtrip(self, rng, tmp_path):
        panel = DataPanel(rng.standard_normal((16, 8)))
        result = rolling_estimate(panel, window=10, configs=two_configs(k_max=3))
        path = tmp_path / "rolling.csv"
        write_rolling_csv(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7
        mker_path = dict(result.by_method("mker"))
        er_path = dict(result.by_method("er"))
        for row in rows:
            assert int(row["mker"]) == mker_path[row["time_label"]]
            assert int(row["er"]) == er_path[row["time_label"]]

    def test_duplicate_labels_keep_one_row_each(self, rng, tmp_path):
        labels = ["same"] * 12
        panel = DataPanel(rng.standard_normal((12, 8)), time_labels=labels)
        result = rolling_estimate(panel, window=8, configs=two_configs(k_max=3))
        path = tmp_path / "dup.csv"
        write_rolling_csv(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 5


# the five default configs (double demeaning) plus one Kendall config without demeaning
SHARED_CONFIGS = method_configs(None) | {
    "mker_none": EstimatorConfig(method="mker", demean="none"),
}

KENDALL_CONFIGS = {m: SHARED_CONFIGS[m] for m in ("mker", "mktcr", "mker_none")}


def row_demeaned(Y):
    return Y - Y.mean(axis=1, keepdims=True)


def window_inputs(Y, start, window):
    """The window as each demeaning mode hands it to sample_kendall_tau."""
    rows = Y[start : start + window]
    return {"none": rows, "double": double_demean(DataPanel(rows)).values}


def per_window_r_hat(Y, window, configs):
    return [
        {m: res.r_hat for m, res in estimate_many(DataPanel(Y[s : s + window]), configs).items()}
        for s in range(Y.shape[0] - window + 1)
    ]


def rolling_r_hat(result):
    return [dict(zip(result.methods, row[1:])) for row in result.rows()]


class TestSharedPairWeights:
    """Every window's Kendall matrix taken from one band of pair weights per demeaning mode."""

    @pytest.mark.parametrize("nu", [0.5, 1.0])  # t_0.5 and Cauchy
    def test_every_window_matches_estimate_many(self, nu):
        Y = t_factor_panel(nu, seed=5, T=120, N=30)
        result = rolling_estimate(DataPanel(Y), 40, SHARED_CONFIGS)
        assert rolling_r_hat(result) == per_window_r_hat(Y, 40, SHARED_CONFIGS)
        for V in (Y, row_demeaned(Y)):  # every window took the shared band
            assert all(pair_weight_band(V, 40).covers(s) for s in range(81))

    def test_chunked_calls_match_one_call(self):
        Y = t_factor_panel(3.0, seed=8, T=150, N=20)
        labels = [f"t{i}" for i in range(150)]
        full = rolling_estimate(DataPanel(Y, time_labels=labels), 40, SHARED_CONFIGS).series
        chunks = []
        for s in range(0, 111, 10):
            stop = min(s + 10, 111) + 39
            sub = DataPanel(Y[s:stop], time_labels=labels[s:stop])
            chunks += rolling_estimate(sub, 40, SHARED_CONFIGS).series
        assert chunks == full

    @pytest.mark.parametrize("nu", [0.3, 0.5, 1.0])
    def test_windows_match_extended_precision_enumeration(self, nu):
        Y = t_factor_panel(nu, seed=11, T=300, N=40)
        for mode, V in (("none", Y), ("double", row_demeaned(Y))):
            band = pair_weight_band(V, 120)
            for s in (0, 180):
                exact = Y[s : s + 120].astype(np.longdouble)
                if mode == "double":
                    exact -= exact.mean(axis=1, keepdims=True)
                kt = window_kendall_tau(band, s)
                assert kt.direct_pairs == 0
                err = float(np.abs(kt.matrix - enumerate_rows(exact, np.longdouble)[0]).max())
                assert err <= 1e-15, (mode, s)

    def test_near_duplicate_cluster_takes_the_direct_path(self, rng):
        Y = rng.standard_normal((200, 30))
        Y[60:90] = 1e4 * rng.standard_normal(30) + 10.0 * rng.standard_normal((30, 30))
        band = pair_weight_band(Y, 80)
        for s in (20, 50, 100):
            kt = window_kendall_tau(band, s)
            inside = max(0, min(s + 80, 90) - max(s, 60))
            assert kt.direct_pairs == inside * (inside - 1) // 2
            err = float(np.abs(kt.matrix - enumerate_rows(Y[s : s + 80], np.longdouble)[0]).max())
            assert err <= 1e-15, s

    def test_pair_counts_match_the_per_window_kernel(self, rng):
        Y = rng.standard_t(2.0, size=(150, 12))
        Y[30], Y[55], Y[56] = Y[10], Y[50], Y[50]  # dropped pairs
        Y[90:100] = 1e4 * rng.standard_normal(12) + rng.standard_normal((10, 12))  # direct pairs
        # With double demeaning the reference differs by up to 7e-15 here: double_demean
        # adds column means of order 1e3 to every row, which rounds each window
        # differently from the row-demeaned band.
        for mode, V in (("none", Y), ("double", row_demeaned(Y))):
            band = pair_weight_band(V, 50)
            for s in range(101):
                kt = window_kendall_tau(band, s)
                ref = sample_kendall_tau(window_inputs(Y, s, 50)[mode])
                got = (kt.n_pairs, kt.degenerate_pairs_dropped, kt.direct_pairs)
                assert got == (ref.n_pairs, ref.degenerate_pairs_dropped, ref.direct_pairs)
                if mode == "none":
                    assert np.abs(kt.matrix - ref.matrix).max() <= 1e-15, s

    REGIME_PANEL = t_factor_panel(3.0, seed=19, T=90, N=20, r=2)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(-300, 300), min_size=3, max_size=3))
    @example([0, 3, -4])  # every window shares the band
    @example([300, 0, -300])  # none that straddles a break does
    def test_regime_change_keeps_pairs_and_r_hat(self, exponents):
        # Kendall methods only: the Gram baselines still overflow at these scales
        # (ROADMAP open item 2), and they never read the band.
        Y = self.REGIME_PANEL.copy()
        for k, e in enumerate(exponents):
            Y[30 * k : 30 * (k + 1)] *= 10.0**e
        with mock.patch.object(
            estimators, "sample_kendall_tau", wraps=estimators.sample_kendall_tau
        ) as direct:
            result = rolling_estimate(DataPanel(Y), 30, KENDALL_CONFIGS)
        assert rolling_r_hat(result) == per_window_r_hat(Y, 30, KENDALL_CONFIGS)
        fallbacks = 0
        for mode, V in (("none", Y), ("double", row_demeaned(Y))):
            band = pair_weight_band(V, 30)
            row_exp = np.frexp(np.abs(V).max(axis=1))[1]
            for s in range(61):
                # a window shares the band unless one of its rows peaks more than
                # 2^20 below the panel's peak
                assert band.covers(s) == (row_exp[s : s + 30].min() >= row_exp.max() - 20)
                if not band.covers(s):
                    fallbacks += 1
                    continue
                ref = sample_kendall_tau(window_inputs(Y, s, 30)[mode])
                assert window_kendall_tau(band, s).n_pairs == ref.n_pairs == 435
        assert direct.call_count == fallbacks

    def test_memory_is_banded(self, rng):
        Y = rng.standard_normal((4000, 20))
        tracemalloc.start()
        try:
            rolling_estimate(DataPanel(Y), 100, method_configs("mker"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # the full 4000 x 4000 weights alone take 128 MB

    def test_bounds_checked(self, rng):
        Y = rng.standard_normal((20, 4))
        with pytest.raises(ValueError, match="window must be in"):
            pair_weight_band(Y, 21)
        band = pair_weight_band(Y, 8)
        with pytest.raises(ValueError, match="window start"):
            window_kendall_tau(band, 13)
        with pytest.raises(ValueError, match="degenerate"):
            window_kendall_tau(pair_weight_band(np.ones((20, 4)), 8), 0)
