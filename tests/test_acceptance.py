"""Release acceptance gate: twelve pinned criteria, one test per criterion.

Each test prints a single PASS line with the measured numbers when its
criterion holds; the module-scoped fixtures share the expensive Monte Carlo
runs between criteria that read the same tables.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from robustfactors.elliptical import RngStream, sample_elliptical
from robustfactors.estimators import (
    ALL_METHODS,
    KENDALL_METHODS,
    EstimatorConfig,
    estimate_many,
    method_configs,
)
from robustfactors.kendall import sample_kendall_tau, verify_kendall_invariants
from robustfactors.montecarlo import generate_panel, make_scenario, run_scenario
from robustfactors.panel import DataPanel, double_demean, ingest_csv
from robustfactors.spectrum import eigenvalues_sym

from population_oracle import han_lower_bound, population_kendall_eigenvalues_oracle

SEED = 20260819
REPS = 200
C_GRID = (0.001, 0.01, 0.05, 0.1)
C_DEFAULT = 0.01


def exact_rate(report, name, r_true):
    return 100.0 * report.per_method[name].histogram.get(r_true, 0) / report.scenario.reps


@pytest.fixture(scope="module")
def gaussian_desk_sweep():
    """Scenario A Gaussian at N = T = 50 with a full method x c grid."""
    spec = make_scenario("A", dist="gaussian", N=50, T=50, reps=REPS)
    configs = {
        f"{m}_c{c:g}": EstimatorConfig(method=m, c=c)
        for m in ALL_METHODS
        for c in C_GRID
    }
    start = time.perf_counter()
    report = run_scenario(spec, configs, master_seed=SEED)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_01_gaussian_desk_scale(gaussian_desk_sweep):
    report, elapsed = gaussian_desk_sweep
    rates = {m: exact_rate(report, f"{m}_c{C_DEFAULT:g}", 3) for m in ALL_METHODS}
    for m, rate in rates.items():
        assert rate >= 99.0, f"{m}: {rate}%"
    assert elapsed < 120.0
    print(
        f"PASS criterion 1: exact rates {rates} (all >= 99%), "
        f"wall {elapsed:.1f}s < 120s"
    )


def test_criterion_02_heavy_tail_t3():
    spec = make_scenario("A", dist="t3", N=100, T=100, reps=REPS)
    report = run_scenario(spec, method_configs(), master_seed=SEED)
    for m in KENDALL_METHODS:
        assert exact_rate(report, m, 3) >= 98.0, m
    er = report.per_method["er"]
    mis = 100.0 * (er.under + er.over) / REPS
    assert 2.85 <= er.mean <= 3.10
    assert 4.0 <= mis <= 22.0
    print(
        f"PASS criterion 2: mker {exact_rate(report, 'mker', 3):.1f}% / "
        f"mktcr {exact_rate(report, 'mktcr', 3):.1f}% exact, "
        f"er mean {er.mean:.3f} mis-rate {mis:.1f}%"
    )


def test_criterion_03_cauchy():
    spec = make_scenario("A", dist="cauchy", N=100, T=100, reps=REPS)
    report = run_scenario(spec, method_configs(), master_seed=SEED)
    mker_rate = exact_rate(report, "mker", 3)
    er = report.per_method["er"]
    tcr = report.per_method["tcr"]
    assert mker_rate >= 95.0
    assert 1.6 <= er.mean <= 2.2
    assert er.under >= 0.60 * REPS
    assert 3.2 <= tcr.mean <= 4.2
    assert tcr.over >= 0.30 * REPS
    print(
        f"PASS criterion 3: mker {mker_rate:.1f}% exact, er {er.cell()}, "
        f"tcr {tcr.cell()}"
    )


def test_criterion_04_correlated_errors_gaussian():
    spec = make_scenario("B1", N=125, T=125, reps=REPS)
    report = run_scenario(spec, method_configs(), master_seed=SEED)
    rates = {m: exact_rate(report, m, 3) for m in ALL_METHODS}
    for m, rate in rates.items():
        assert rate >= 97.0, f"{m}: {rate}%"
    print(f"PASS criterion 4: exact rates {rates} (all >= 97%)")


def test_criterion_05_correlated_errors_t3():
    spec = make_scenario("C1", N=150, T=150, reps=REPS)
    report = run_scenario(spec, method_configs(), master_seed=SEED)
    for m in KENDALL_METHODS:
        assert exact_rate(report, m, 3) >= 97.0, m
    gr_over = report.per_method["gr"].over
    tcr_over = report.per_method["tcr"].over
    assert gr_over > 0
    assert tcr_over > 0
    print(
        f"PASS criterion 5: mker {exact_rate(report, 'mker', 3):.1f}% / "
        f"mktcr {exact_rate(report, 'mktcr', 3):.1f}% exact, "
        f"over-counts gr {gr_over}, tcr {tcr_over}"
    )


def test_criterion_06_dominant_factor_t3():
    spec = make_scenario("C5", snr=20.0, reps=REPS)
    report = run_scenario(spec, method_configs("mker,mktcr"), master_seed=SEED)
    mker = report.per_method["mker"]
    mktcr_rate = exact_rate(report, "mktcr", 2)
    assert mker.under >= 0.50 * REPS
    assert mktcr_rate >= 95.0
    print(
        f"PASS criterion 6: mker under {100.0 * mker.under / REPS:.1f}% "
        f"(cell {mker.cell()}), mktcr {mktcr_rate:.1f}% exact"
    )


def test_criterion_07_kmax_sweep():
    k_grid = (8, 12, 16, 20)
    spec = make_scenario("B4", reps=REPS)
    configs = {
        f"{m}_k{k}": EstimatorConfig(method=m, k_max=k)
        for m in ALL_METHODS
        for k in k_grid
    }
    report = run_scenario(spec, configs, master_seed=SEED)
    spreads = {}
    for m in ALL_METHODS:
        rates = [exact_rate(report, f"{m}_k{k}", 3) for k in k_grid]
        spreads[m] = max(rates) - min(rates)
        assert spreads[m] < 3.0, f"{m}: rates {rates}"
    print(f"PASS criterion 7: per-method exact-rate spread over k_max {spreads} (< 3 points)")


def test_criterion_08_property_suite():
    gen = np.random.default_rng(SEED)

    # trace and PSD across distributions, plus pure noise
    panels = [generate_panel(make_scenario("A", dist=d, N=30, T=40, reps=1), 0, RngStream(SEED, i))
              for i, d in enumerate(("gaussian", "t3", "cauchy"))]
    panels.append(DataPanel(gen.standard_normal((35, 25))))
    for panel in panels:
        kt = sample_kendall_tau(panel.values)
        verify_kendall_invariants(kt)
        assert abs(np.trace(kt.matrix) - 1.0) <= 1e-10
        assert eigenvalues_sym(kt.matrix)[-1] >= -1e-10

    # repeated calls, on the array or on a copy of it, give the same bytes
    Y = panels[0].values
    first = sample_kendall_tau(Y).matrix
    for again in (Y, Y.copy(), panels[0].values):
        assert np.array_equal(first, sample_kendall_tau(again).matrix)

    # brute-force enumeration oracle on 50 random small panels
    worst = 0.0
    for _ in range(50):
        T = int(gen.integers(3, 13))
        N = int(gen.integers(2, 7))
        Z = gen.standard_normal((T, N))
        total = np.zeros((N, N))
        kept = 0
        for i in range(T):
            for j in range(i + 1, T):
                d = Z[i] - Z[j]
                total += np.outer(d, d) / (d @ d)
                kept += 1
        ref = total / kept
        worst = max(worst, float(np.abs(sample_kendall_tau(Z).matrix - ref).max()))
    assert worst <= 1e-12

    # double demeaning: idempotent, zero row and column sums
    for panel in panels:
        dd = double_demean(panel)
        scale = 1.0 + np.abs(panel.values).max()
        bound = 1e-10 * scale * max(panel.shape)
        assert np.abs(dd.values.sum(axis=0)).max() <= bound
        assert np.abs(dd.values.sum(axis=1)).max() <= bound
        again = double_demean(dd)
        assert np.abs(again.values - dd.values).max() <= bound

    # affine maps leave the kendall-path estimates unchanged
    base_panel = generate_panel(make_scenario("A", dist="t3", N=40, T=60, reps=1), 0, RngStream(SEED, 9))
    configs = {m: EstimatorConfig(method=m) for m in KENDALL_METHODS}
    base = estimate_many(base_panel, configs)
    for a, b in ((3.7, 0.0), (-2.0, 5.0), (0.04, -11.0)):
        mapped = estimate_many(DataPanel(a * base_panel.values + b), configs)
        for m in KENDALL_METHODS:
            assert mapped[m].r_hat == base[m].r_hat, (m, a, b)

    print(
        "PASS criterion 8: trace/PSD invariants, repeat bit-equality, "
        f"enumeration oracle (worst {worst:.2e} <= 1e-12), demean properties, "
        "affine invariance all hold"
    )


def test_criterion_09_population_oracle_closure():
    sigma = np.concatenate([[50.0, 50.0, 50.0], np.ones(17)])
    N = 20
    oracle = population_kendall_eigenvalues_oracle(sigma, 1_000_000, RngStream(SEED, 1))
    oracle_sorted = np.sort(oracle)[::-1]

    A = np.diag(np.sqrt(sigma))
    X = sample_elliptical(20_000, A.shape[1], RngStream(SEED, 0)) @ A.T
    empirical = eigenvalues_sym(sample_kendall_tau(X).matrix)

    diffs = np.abs(empirical[:4] - oracle_sorted[:4])
    assert diffs.max() <= 0.01, diffs
    for j in range(1, N + 1):
        assert oracle_sorted[j - 1] >= han_lower_bound(sigma, j, N), j
    print(
        f"PASS criterion 9: top-4 |empirical - oracle| max {diffs.max():.5f} <= 0.01, "
        "every oracle eigenvalue clears its lower bound"
    )


def test_criterion_10_radial_law_invariance():
    sigma = np.linspace(5.0, 0.5, 10)
    A = np.diag(np.sqrt(sigma))
    stream = RngStream(7, 3)
    KG = sample_kendall_tau(sample_elliptical(2000, A.shape[1], stream) @ A.T).matrix
    KC = sample_kendall_tau(sample_elliptical(2000, A.shape[1], stream, nu=1.0) @ A.T).matrix
    gap = float(np.linalg.norm(KG - KC, 2))
    assert gap < 0.05
    print(f"PASS criterion 10: spectral-norm gap {gap:.5f} < 0.05 between Gaussian and Cauchy")


def test_criterion_11_regularizer_insensitivity(gaussian_desk_sweep):
    report, _ = gaussian_desk_sweep
    drifts = {}
    for m in ALL_METHODS:
        base = exact_rate(report, f"{m}_c{C_DEFAULT:g}", 3)
        drift = max(abs(exact_rate(report, f"{m}_c{c:g}", 3) - base) for c in C_GRID)
        drifts[m] = drift
        assert drift <= 1.0, f"{m}: drift {drift} points"
    print(f"PASS criterion 11: exact-rate drift over c in {C_GRID} is {drifts} (<= 1 point)")


def _fredmd_path():
    env = os.environ.get("FREDMD_CSV")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[1] / "data" / "fredmd_transformed.csv"


def test_criterion_12_macro_panel():
    path = _fredmd_path()
    if not path.is_file():
        print(f"SKIP criterion 12: macro panel not found at {path}")
        pytest.skip(f"macro panel not found at {path}")
    try:
        panel = ingest_csv(path, has_header=True, has_time_column=True)
    except ValueError:
        panel = ingest_csv(path, has_header=True, has_time_column=False)
    if panel.shape != (708, 128):
        print(f"SKIP criterion 12: panel shape {panel.shape} is not the documented 708 x 128")
        pytest.skip(f"unexpected panel shape {panel.shape}")
    from robustfactors.panel import impute_column_mean

    if panel.has_missing:
        panel = impute_column_mean(panel)

    k_grid = (8, 10, 15, 20, 30)
    kendall_hits = {}
    for k in k_grid:
        res = estimate_many(panel, {m: EstimatorConfig(method=m, k_max=k) for m in KENDALL_METHODS})
        kendall_hits[k] = (res["mker"].r_hat, res["mktcr"].r_hat)
        assert res["mker"].r_hat == 1, (k, res["mker"].r_hat)
        assert res["mktcr"].r_hat == 4, (k, res["mktcr"].r_hat)

    baselines = estimate_many(
        panel, {m: EstimatorConfig(method=m) for m in ("er", "gr", "tcr")}
    )
    soft = {"er": 2, "gr": 2, "tcr": 5}
    for m, target in soft.items():
        assert abs(baselines[m].r_hat - target) <= 1, (m, baselines[m].r_hat)
    print(
        "PASS criterion 12: mker=1 and mktcr=4 at every k_max in "
        f"{k_grid}; baselines "
        f"{ {m: baselines[m].r_hat for m in soft} } within 1 of {soft}"
    )
