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
import robustfactors.rolling as rolling
from robustfactors import cli
from robustfactors.elliptical import RngStream
from robustfactors.estimators import (
    KENDALL_METHODS,
    EstimatorConfig,
    _evaluate,
    estimate_many,
    method_configs,
)
from robustfactors.kendall import _pair_weight_band, _window_kendall_tau, sample_kendall_tau
from robustfactors.montecarlo import generate_panel, make_scenario
from robustfactors.panel import DataPanel
from robustfactors.rolling import rolling_estimate
from robustfactors.spectrum import build_spectrum, eigenvalues_sym


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
        assert result.rows == [("40", whole["mker"].r_hat, whole["er"].r_hat)]

    def test_window_count_and_labels(self, rng):
        panel = DataPanel(rng.standard_normal((40, 10)))
        result = rolling_estimate(panel, window=20, configs=two_configs())
        # T - window + 1 rows, the first labelled by the window's last row
        assert len(result.rows) == 21
        path = result.by_method("mker")
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
            row = next(row for row in result.rows if row[0] == label)
            got = dict(zip(result.methods, row[1:]))
            assert got == {m: res.r_hat for m, res in direct.items()}

    def test_rows_follow_the_configs_order(self, rng):
        panel = DataPanel(rng.standard_normal((30, 10)))
        configs = {
            "tcr": EstimatorConfig(method="tcr", k_max=4),
            "mker": EstimatorConfig(method="mker", k_max=4),
            "er": EstimatorConfig(method="er", k_max=4),
            "er_k3": EstimatorConfig(method="er", k_max=3),
        }
        result = rolling_estimate(panel, window=12, configs=configs)
        assert result.methods == tuple(configs)
        assert len(result.rows) == 19
        for start, row in enumerate(result.rows):
            direct = estimate_many(DataPanel(panel.values[start : start + 12]), configs)
            assert row[0] == str(start + 12)
            got = dict(zip(result.methods, row[1:]))
            assert got == {m: res.r_hat for m, res in direct.items()}
        for col, m in enumerate(result.methods, start=1):
            assert result.by_method(m) == [(row[0], row[col]) for row in result.rows]
        with pytest.raises(ValueError, match="unknown method 'gr'"):
            result.by_method("gr")

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
        assert ra.rows[:20] == rb.rows[:20]

    def test_results_hash_by_value_except_rows(self, rng):
        panel = DataPanel(rng.standard_normal((20, 8)))
        a = rolling_estimate(panel, window=10, configs=two_configs(k_max=3))
        b = rolling_estimate(panel, window=10, configs=two_configs(k_max=3))
        assert a == b and hash(a) == hash(b)
        other = rolling.RollingResult(
            rows=[(label, 0, 0) for label, *_ in a.rows], methods=a.methods
        )
        assert other != a and hash(other) == hash(a)

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
        assert a.rows == b.rows


class TestRollingValidation:
    def test_window_bounds(self, rng):
        panel = DataPanel(rng.standard_normal((20, 8)))
        with pytest.raises(ValueError, match="window must be >= 2"):
            rolling_estimate(panel, window=1, configs=two_configs())
        with pytest.raises(ValueError, match="exceeds panel length"):
            rolling_estimate(panel, window=21, configs=two_configs())
        with pytest.raises(ValueError, match="too small for k_max"):
            rolling_estimate(panel, window=5, configs=two_configs(k_max=8))

    def test_non_integer_window_rejected(self, rng):
        """Rejected with the field's name, not later inside numpy or range()."""
        panel = DataPanel(rng.standard_normal((40, 8)))
        with pytest.raises(ValueError, match="^window must be an integer, got 30.0$"):
            rolling_estimate(panel, window=30.0, configs=two_configs())
        with pytest.raises(ValueError, match="^window must be an integer, got True$"):
            rolling_estimate(panel, window=True, configs=two_configs())
        assert rolling_estimate(panel, window=np.int64(30), configs=two_configs()) == (
            rolling_estimate(panel, window=30, configs=two_configs())
        )

    def test_missing_entries_rejected(self, rng):
        values = rng.standard_normal((20, 8))
        values[5, 2] = np.nan
        panel = DataPanel(values)
        # the message estimate_many gives
        with pytest.raises(ValueError, match="^panel has missing values; impute first$"):
            rolling_estimate(panel, window=10, configs=two_configs())

    def test_no_configs_rejected(self, rng):
        panel = DataPanel(rng.standard_normal((20, 8)))
        with pytest.raises(ValueError, match="^no methods given$"):
            rolling_estimate(panel, window=10, configs={})

    def test_too_few_series_for_k_max_rejected(self, rng):
        panel = DataPanel(rng.standard_normal((40, 9)))
        configs = {"mker": EstimatorConfig("mker", k_max=3), "er": EstimatorConfig("er", k_max=8)}
        message = r"^panel too small: min\(N, T\) = 9 < k_max \+ 2 = 10$"
        with pytest.raises(ValueError, match=message):
            rolling_estimate(panel, window=20, configs=configs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_gram_overflow_raises(self, rng):
        # the Kendall path is scale-safe; the Gram product of rows near 1e160 is not
        Y = rng.standard_normal((60, 20))
        Y[30:] *= 1e160
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            rolling_estimate(DataPanel(Y), window=20, configs=method_configs(None, k_max=3))


class TestRollingCsv:
    def test_schema_and_roundtrip(self, rng, tmp_path):
        panel = DataPanel(rng.standard_normal((16, 8)))
        result = rolling_estimate(panel, window=10, configs=two_configs(k_max=3))
        path = tmp_path / "rolling.csv"
        cli._write_rolling_csv(result, path)
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
        cli._write_rolling_csv(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 5


# the five default configs
SHARED_CONFIGS = method_configs(None)

KENDALL_CONFIGS = {m: SHARED_CONFIGS[m] for m in KENDALL_METHODS}


def row_demeaned(Y):
    return Y - Y.mean(axis=1, keepdims=True)


def window_inputs(Y, start, window):
    """The window as each demeaning mode hands it to sample_kendall_tau."""
    rows = Y[start : start + window]
    return {"none": rows, "rows": row_demeaned(rows)}


def per_window_r_hat(Y, window, configs):
    return [
        {m: res.r_hat for m, res in estimate_many(DataPanel(Y[s : s + window]), configs).items()}
        for s in range(Y.shape[0] - window + 1)
    ]


def rolling_r_hat(result):
    return [dict(zip(result.methods, row[1:])) for row in result.rows]


def enumerated(V):
    """Long-double enumeration of the Kendall matrix of the float64 rows V."""
    return enumerate_rows(V.astype(np.longdouble), np.longdouble)[0]


def enumerated_r_hat(exact, T, configs):
    """r_hat of each config on the enumerated matrix, rounded to float64."""
    values = eigenvalues_sym(exact.astype(np.float64))
    N = exact.shape[0]
    return {m: _evaluate(build_spectrum(values, N=N, T=T, c=cfg.c), cfg).r_hat
            for m, cfg in configs.items()}


def check_rolling_r_hat(Y, window, configs):
    """Every window reads the band, and each rolling r_hat equals estimate_many's."""
    with mock.patch.object(estimators, "sample_kendall_tau", side_effect=AssertionError("fell back")):
        rolled = rolling_r_hat(rolling_estimate(DataPanel(Y), window, configs))
    assert rolled == per_window_r_hat(Y, window, configs)
    return rolled


def check_every_window(Y, window, configs):
    """check_rolling_r_hat, and every band window is within 1e-15 of the enumeration of
    its row-demeaned rows, whose r_hat equals the rolling one."""
    rolled = check_rolling_r_hat(Y, window, configs)
    V = row_demeaned(Y)
    band = _pair_weight_band(V, window)
    for s, got in enumerate(rolled):
        exact = enumerated(V[s : s + window])
        assert float(np.abs(_window_kendall_tau(band, s).matrix - exact).max()) <= 1e-15, s
        assert got == enumerated_r_hat(exact, window, configs), s


class TestSharedPairWeights:
    """Every window's Kendall matrix from one band of pair weights of the row-demeaned panel."""

    @pytest.mark.parametrize("nu", [0.5, 1.0])  # t_0.5 and Cauchy
    def test_every_window_matches_estimate_many(self, nu):
        Y = t_factor_panel(nu, seed=5, T=120, N=30)
        result = rolling_estimate(DataPanel(Y), 40, SHARED_CONFIGS)
        assert rolling_r_hat(result) == per_window_r_hat(Y, 40, SHARED_CONFIGS)

    def test_chunked_calls_match_one_call(self):
        Y = t_factor_panel(3.0, seed=8, T=150, N=20)
        labels = [f"t{i}" for i in range(150)]
        full = rolling_estimate(DataPanel(Y, time_labels=labels), 40, SHARED_CONFIGS).rows
        chunks = []
        for s in range(0, 111, 10):
            stop = min(s + 10, 111) + 39
            sub = DataPanel(Y[s:stop], time_labels=labels[s:stop])
            chunks += rolling_estimate(sub, 40, SHARED_CONFIGS).rows
        assert chunks == full

    @pytest.mark.parametrize("nu", [0.3, 0.5, 1.0])
    def test_windows_match_extended_precision_enumeration(self, nu):
        # t_0.3 rows fall more than 2^20 below the panel's peak; their windows
        # read the band like any other
        Y = t_factor_panel(nu, seed=11, T=300, N=40)
        for mode, V in (("none", Y), ("rows", row_demeaned(Y))):
            band = _pair_weight_band(V, 120)
            for s in (0, 180):
                exact = Y[s : s + 120].astype(np.longdouble)
                if mode == "rows":
                    exact -= exact.mean(axis=1, keepdims=True)
                kt = _window_kendall_tau(band, s)
                assert kt.direct_pairs == 0
                err = float(np.abs(kt.matrix - enumerate_rows(exact, np.longdouble)[0]).max())
                assert err <= 1e-15, (mode, s)

    def test_near_duplicate_cluster_takes_the_direct_path(self, rng):
        Y = rng.standard_normal((200, 30))
        Y[60:90] = 1e4 * rng.standard_normal(30) + 10.0 * rng.standard_normal((30, 30))
        band = _pair_weight_band(Y, 80)
        for s in (20, 50, 100):
            kt = _window_kendall_tau(band, s)
            inside = max(0, min(s + 80, 90) - max(s, 60))
            assert kt.direct_pairs == inside * (inside - 1) // 2
            err = float(np.abs(kt.matrix - enumerate_rows(Y[s : s + 80], np.longdouble)[0]).max())
            assert err <= 1e-15, s

    def test_pair_counts_match_the_per_window_kernel(self, rng):
        Y = rng.standard_t(2.0, size=(150, 12))
        Y[30], Y[55], Y[56] = Y[10], Y[50], Y[50]  # dropped pairs
        Y[90:100] = 1e4 * rng.standard_normal(12) + rng.standard_normal((10, 12))  # direct pairs
        for mode, V in (("none", Y), ("rows", row_demeaned(Y))):
            band = _pair_weight_band(V, 50)
            for s in range(101):
                kt = _window_kendall_tau(band, s)
                ref = sample_kendall_tau(window_inputs(Y, s, 50)[mode])
                got = (kt.n_pairs, kt.degenerate_pairs_dropped, kt.direct_pairs)
                assert got == (ref.n_pairs, ref.degenerate_pairs_dropped, ref.direct_pairs)
                assert np.abs(kt.matrix - ref.matrix).max() <= 1e-15, (mode, s)

    REGIME_PANEL = t_factor_panel(3.0, seed=19, T=90, N=20, r=2)

    def regime_panel(self, exponents):
        Y = self.REGIME_PANEL.copy()
        for k, e in enumerate(exponents):
            Y[30 * k : 30 * (k + 1)] *= 10.0**e
        return Y

    # Kendall methods only in both regime tests: the Gram baselines still
    # overflow at these scales (ROADMAP open item 2), and they never read the band.
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(-300, 300), min_size=3, max_size=3))
    @example([0, 3, -4])  # pairs near the fix-up threshold
    @example([300, 0, -300])
    @example([-300, 300, 0])
    def test_regime_change_keeps_pairs_and_r_hat(self, exponents):
        Y = self.regime_panel(exponents)
        check_rolling_r_hat(Y, 30, KENDALL_CONFIGS)
        for mode, V in (("none", Y), ("rows", row_demeaned(Y))):
            band = _pair_weight_band(V, 30)
            for s in range(61):
                ref = sample_kendall_tau(window_inputs(Y, s, 30)[mode])
                assert _window_kendall_tau(band, s).n_pairs == ref.n_pairs == 435

    # Pins measured examples: the 1e-15 bound is met by measurement, not by
    # construction (pairs just above _FIXUP_TAU keep a Gram distance that lost
    # up to eight bits), so these inputs are the same on every run.
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-300, 300), min_size=3, max_size=3))
    @example([0, 3, -4])
    @example([300, 0, -300])
    @example([-300, 300, 0])
    def test_regime_change_meets_the_enumeration_bound(self, exponents):
        check_every_window(self.regime_panel(exponents), 30, KENDALL_CONFIGS)

    def test_covariance_configs_build_no_band(self):
        Y = t_factor_panel(3.0, seed=31, T=60, N=15)
        configs = method_configs("er,gr,tcr")
        with mock.patch.object(estimators, "_pair_weight_band", side_effect=AssertionError("band")):
            result = rolling_estimate(DataPanel(Y), 25, configs)
        assert rolling_r_hat(result) == per_window_r_hat(Y, 25, configs)

    def test_kendall_configs_build_one_band(self):
        Y = t_factor_panel(3.0, seed=31, T=60, N=15)
        band = mock.patch.object(estimators, "_pair_weight_band", wraps=estimators._pair_weight_band)
        with band as built:
            rolling_estimate(DataPanel(Y), 25, method_configs("mker,er,mktcr"))
        assert built.call_count == 1

    def test_kendall_windows_skip_the_gram_path(self):
        Y = t_factor_panel(1.0, seed=37, T=60, N=15)
        configs = method_configs("mker,mktcr")
        expected = per_window_r_hat(Y, 25, configs)
        with mock.patch.object(estimators, "_gram_path", side_effect=AssertionError("gram")):
            result = rolling_estimate(DataPanel(Y), 25, configs)
        assert rolling_r_hat(result) == expected

    def test_memory_is_banded(self, rng):
        Y = rng.standard_normal((4000, 20))
        tracemalloc.start()
        try:
            rolling_estimate(DataPanel(Y), 100, method_configs("mker"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # the full 4000 x 4000 weights alone take 128 MB

    def test_bounds_checked(self):
        # rolling_estimate checks the window and the starts (TestRollingValidation)
        with pytest.raises(ValueError, match="degenerate"):
            _window_kendall_tau(_pair_weight_band(np.ones((20, 4)), 8), 0)


def collapsed_panel(seed, start, length, ratio, T, N):
    """T x N t3 rows; up to ``length`` of them from ``start`` on collapse to a level
    vector, c + 3 ratio t3 with c = 3 N(0, 1) per column: spread/level is ratio."""
    gen = np.random.default_rng(seed)
    Y = gen.standard_t(3, (T, N))
    c = 3.0 * gen.standard_normal(N)
    rows = Y[start : start + length]
    rows[:] = c + 3.0 * ratio * gen.standard_t(3, rows.shape)
    return Y


class TestCollapsedRegimes:
    """Rows whose spread collapses while their level stays: the band's direct pairs come
    from the rows as given, so no centering rounds those rows at the scale of their level."""

    def test_found_repro_meets_the_enumeration_bound(self):
        # 40 rows at c + 1e-9 t3; from start 80 on, windows hold a minority of
        # them, which a median centering of the window would round at their level
        gen = np.random.default_rng(2)
        Y = gen.standard_t(3, (160, 6))
        c = 3 * gen.standard_normal(6)
        Y[110:150] = c + 1e-9 * gen.standard_t(3, (40, 6))
        check_every_window(Y, 40, method_configs("mker,mktcr", k_max=4))
        V = row_demeaned(Y)
        for s in range(121):
            kt = sample_kendall_tau(V[s : s + 40])
            assert float(np.abs(kt.matrix - enumerated(V[s : s + 40])).max()) <= 1e-15, s

    COLLAPSED = dict(
        seed=st.integers(0, 2**16),
        start=st.integers(0, 88),
        length=st.integers(2, 60),
        log_ratio=st.floats(-12.0, -3.0),
    )

    @settings(max_examples=20, deadline=None)
    @given(**COLLAPSED)
    @example(seed=0, start=30, length=30, log_ratio=-3.0)
    def test_collapsed_segments_keep_r_hat(self, seed, start, length, log_ratio):
        Y = collapsed_panel(seed, start, length, 10.0**log_ratio, T=90, N=12)
        check_rolling_r_hat(Y, 30, method_configs("mker,mktcr", k_max=4))

    # Pins measured examples, as the regime-change bound test does.
    # sample_kendall_tau on a window alone is not held to this bound: on this
    # family it was off by up to 6.6e-15 at spread/level 1e-3.
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(**COLLAPSED)
    @example(seed=0, start=30, length=30, log_ratio=-3.0)
    def test_collapsed_segments_meet_the_enumeration_bound(self, seed, start, length, log_ratio):
        Y = collapsed_panel(seed, start, length, 10.0**log_ratio, T=90, N=12)
        check_every_window(Y, 30, method_configs("mker,mktcr", k_max=4))


def old_eigenvalues_sym(A):
    """eigenvalues_sym as it was before it passed exactly symmetric input through."""
    A = np.asarray(A, dtype=np.float64)
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    if float(np.abs(A - A.T).max()) > 1e-8:
        raise ValueError("asymmetric")
    return np.ascontiguousarray(np.linalg.eigvalsh(0.5 * (A + A.T))[::-1])


def old_estimate_many(panel, configs, kendall):
    """The per-window path before the decision core: ``_estimate_many(DataPanel(window),
    configs, kendall)``, copied with the Gram spectrum of that version. Its Kendall input
    is the row-demeaned panel and its Gram input that panel less its column means, as in
    the decision core: column shifts cancel in row differences."""
    if panel.has_missing:
        raise ValueError("panel has missing values; impute first")
    T, N = panel.shape
    values_cache, raw_cache, spectra, results = {}, {}, {}, {}
    mode = "double"  # the one demeaning mode left in use

    def demeaned(mode):
        if mode not in values_cache:
            y = panel.values
            if mode == "double":
                y = y - y.mean(axis=1, keepdims=True)
                y = DataPanel(y - y.mean(axis=0, keepdims=True)).values
            values_cache[mode] = y
        return values_cache[mode]

    for name, config in configs.items():
        if min(N, T) < config.k_max + 2:
            raise ValueError("panel too small")
        path = "kendall" if config.method in KENDALL_METHODS else "covariance"
        key = (path, mode)
        if key not in raw_cache:
            if path == "kendall":
                kt = kendall(mode)
                if kt is None:
                    y = panel.values
                    kt = sample_kendall_tau(y - y.mean(axis=1, keepdims=True))
                raw_cache[key] = old_eigenvalues_sym(kt.matrix)
            else:
                Y = demeaned(mode)
                G = Y @ Y.T if Y.shape[0] <= Y.shape[1] else Y.T @ Y
                G /= Y.shape[0] * Y.shape[1]
                raw_cache[key] = old_eigenvalues_sym(G)
        skey = (*key, config.c)
        if skey not in spectra:
            spectra[skey] = build_spectrum(raw_cache[key], N=N, T=T, c=config.c)
        results[name] = _evaluate(spectra[skey], config)
    return results


# all five methods, plus a second c and k_max
CORE_CONFIGS = method_configs(None) | {
    "mktcr_c": EstimatorConfig(method="mktcr", k_max=5, c=0.05),
    "gr_c": EstimatorConfig(method="gr", c=0.05),
}


class TestDecisionCore:
    """rolling_estimate and estimate_many against the path they replaced, to the byte."""

    @pytest.mark.parametrize("nu", [0.5, 1.0])  # t_0.5 and Cauchy
    def test_windows_match_the_per_window_path(self, nu):
        Y = t_factor_panel(nu, seed=23, T=100, N=24)
        Y[45:52] *= 1e-9  # rows 2^30 below the peak, whose windows read the band too
        window = 40
        decisions = []

        def record(*args):
            out = core(*args)
            decisions.append(out)
            return out

        core = rolling._decide
        with mock.patch.object(rolling, "_decide", record):
            result = rolling_estimate(DataPanel(Y), window, CORE_CONFIGS)
        band = _pair_weight_band(row_demeaned(Y), window)
        assert len(decisions) == 61
        for start, (got, row) in enumerate(zip(decisions, result.rows)):
            ref = old_estimate_many(
                DataPanel(Y[start : start + window]), CORE_CONFIGS,
                lambda mode: _window_kendall_tau(band, start),
            )
            assert row[1:] == tuple(ref[m].r_hat for m in CORE_CONFIGS)
            for m, res in ref.items():
                assert got[m].r_hat == res.r_hat, (start, m)
                assert np.array_equal(
                    got[m].ratio_series.view(np.int64), res.ratio_series.view(np.int64)
                ), (start, m)

    @pytest.mark.parametrize("nu", [0.5, 1.0])
    def test_estimate_many_matches_the_per_panel_path(self, nu):
        panel = DataPanel(t_factor_panel(nu, seed=29, T=90, N=35))
        got = estimate_many(panel, CORE_CONFIGS)
        ref = old_estimate_many(panel, CORE_CONFIGS, lambda mode: None)
        for m, res in ref.items():
            assert got[m].r_hat == res.r_hat
            assert np.array_equal(
                got[m].ratio_series.view(np.int64), res.ratio_series.view(np.int64)
            )
