from __future__ import annotations

import csv
import dataclasses
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from robustfactors import cli, montecarlo
from robustfactors.elliptical import EllipticalSpec, RngStream, sample_elliptical
from robustfactors.estimators import ALL_METHODS, EstimatorConfig, estimate_many, method_configs
from robustfactors.montecarlo import (
    CellStats,
    ScenarioSpec,
    _neighbor_half_width,
    generate_panel,
    make_scenario,
    run_scenario,
    scenario_catalog,
)

from accuracy_record import cell
from accuracy_record import rows as accuracy_rows
from scenario_oracle import loop_generate_panel, reference_make_scenario


def direct_spec(**overrides):
    """A ScenarioSpec built without make_scenario, for the constructor's checks."""
    base = dict(name="A", dist="gaussian", N=8, T=12, reps=2)
    base.update(overrides)
    return ScenarioSpec(**base)


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="dist"):
            direct_spec(dist="laplace")
        with pytest.raises(ValueError, match="reps"):
            direct_spec(reps=0)
        # the burn-in is a module constant, not a knob
        with pytest.raises(TypeError, match="burn_in"):
            direct_spec(burn_in=10)

    def test_fields_are_the_knobs(self):
        assert [f.name for f in dataclasses.fields(ScenarioSpec)] == [
            "name", "dist", "N", "T", "reps", "snr"
        ]
        # the design's constants come from the catalog row; none is a keyword
        for knob in ("r", "theta", "rho", "beta", "J", "scatter_diag"):
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{knob}'"):
                direct_spec(**{knob: 1})

    @pytest.mark.parametrize("name, snr, bad_knobs", [
        ("Z9", None, {}),
        ("B3", None, {}),
        ("C5", None, {"dist": "bogus", "N": 1, "reps": 0}),
        ("A", 2.0, {}),
        ("B1", 2.0, {"N": 1}),
        ("B5", 0.0, {}),
        ("C3", -1.0, {"T": 2.5}),
        ("B3", np.nan, {}),
        ("C5", np.inf, {"dist": "bogus"}),
    ])
    def test_name_and_snr_checked_at_construction(self, name, snr, bad_knobs):
        """A spec built directly fails as make_scenario does, before N, T, dist and reps."""
        knobs = {"A": {"dist": "gaussian", "N": 8, "T": 12}, "B1": {"N": 8, "T": 12}}
        with pytest.raises(ValueError) as want:
            make_scenario(name, snr=snr, **knobs.get(name, {}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            direct_spec(name=name, snr=snr, **bad_knobs)

    def test_catalog_row_checked_at_construction(self):
        """A dist, N or T that contradicts the row fails with make_scenario's message."""
        with pytest.raises(ValueError, match=r"^scenario B3 fixes its distribution \(gaussian\)$"):
            ScenarioSpec(name="B3", dist="cauchy", N=40, T=30, reps=2, snr=2.0)
        with pytest.raises(ValueError, match=r"^scenario C1 fixes its distribution \(t3\)$"):
            ScenarioSpec(name="C1", dist="gaussian", N=40, T=30, reps=2)
        for N, T in ((40, 30), (100, 30), (30, 100)):
            with pytest.raises(ValueError, match="^scenario B3 fixes N = T = 100$"):
                ScenarioSpec(name="B3", dist="gaussian", N=N, T=T, reps=2, snr=2.0)
        assert ScenarioSpec(name="B3", dist="gaussian", N=100, T=100, reps=2, snr=2.0) == (
            make_scenario("B3", snr=2.0, reps=2)
        )

    @pytest.mark.parametrize("knob", ["N", "T", "reps"])
    def test_non_integer_sizes_rejected(self, knob):
        """Rejected at construction, not later inside numpy."""
        with pytest.raises(ValueError, match=f"^{knob} must be an integer, got 2.5$"):
            direct_spec(**{knob: 2.5})
        with pytest.raises(ValueError, match=f"^{knob} must be an integer, got '3'$"):
            direct_spec(**{knob: "3"})
        with pytest.raises(ValueError, match=f"^{knob} must be an integer, got True$"):
            direct_spec(**{knob: True})
        assert getattr(direct_spec(**{knob: np.int64(3)}), knob) == 3

    def test_non_integer_seeds_rejected(self):
        """Rejected before any draw, not later inside numpy."""
        spec = direct_spec()
        with pytest.raises(ValueError, match="^master_seed must be an integer, got 2.5$"):
            run_scenario(spec, method_configs("er", k_max=2), master_seed=2.5)
        with pytest.raises(ValueError, match="^replication must be an integer, got 1.5$"):
            generate_panel(spec, 1.5, RngStream(0))
        # a bool is not a count, though operator.index(True) is 1
        with pytest.raises(ValueError, match="^master_seed must be an integer, got True$"):
            run_scenario(spec, method_configs("er", k_max=2), master_seed=True)
        with pytest.raises(ValueError, match="^replication must be an integer, got True$"):
            generate_panel(spec, True, RngStream(0))

    @pytest.mark.parametrize("snr", [True, np.True_, "2"])
    def test_non_real_snr_rejected(self, snr):
        with pytest.raises(ValueError, match=f"^snr must be a real number, got {snr!r}$"):
            make_scenario("B3", snr=snr)

    def test_infinite_snr_rejected(self):
        with pytest.raises(ValueError, match="^snr must be finite$"):
            make_scenario("B3", snr=np.inf)

    def test_label(self):
        assert make_scenario("A", dist="t3", N=50, T=50).label == "A-t3"
        assert make_scenario("B1", N=50, T=50).label == "B1"

    def test_spiked_specs_and_reports_compare_by_value(self):
        spec = make_scenario("B3", snr=2.0)
        twin = make_scenario("B3", snr=2.0)
        assert spec == twin
        assert hash(spec) == hash(twin)
        assert spec != make_scenario("B3", snr=3.0)
        spec = make_scenario("B5", snr=4.0, reps=2)
        assert run_scenario(spec, method_configs("mker"), master_seed=1) == run_scenario(
            spec, method_configs("mker"), master_seed=1
        )

    def test_equal_reports_hash_equal(self):
        spec = make_scenario("A", dist="t3", N=20, T=20, reps=3)
        a = run_scenario(spec, method_configs("mker,er"), master_seed=4)
        b = run_scenario(spec, method_configs("mker,er"), master_seed=4)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert hash(a.per_method["er"]) == hash(b.per_method["er"])
        assert a.per_method["er"].histogram == b.per_method["er"].histogram  # still a dict
        assert a != run_scenario(spec, method_configs("mker,er"), master_seed=5)

    def test_neighbor_half_width_rule(self):
        assert _neighbor_half_width(100) == 10
        assert _neighbor_half_width(10) == 10
        assert _neighbor_half_width(300) == 15
        assert _neighbor_half_width(400) == 20


class TestCatalog:
    def test_catalog_names(self):
        names = set(scenario_catalog())
        assert names == {"A"} | {f"B{i}" for i in range(1, 6)} | {f"C{i}" for i in range(1, 6)}

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("Z9", N=10, T=10)

    def test_a_knobs(self):
        spec = make_scenario("A", dist="cauchy", N=60, T=40, reps=7)
        assert spec == ScenarioSpec(name="A", dist="cauchy", N=60, T=40, reps=7)
        assert spec.r == 3
        with pytest.raises(ValueError, match="requires dist"):
            make_scenario("A", N=60, T=40)
        with pytest.raises(ValueError, match="does not take snr"):
            make_scenario("A", dist="t3", N=60, T=40, snr=5.0)

    def test_correlated_family_constants(self):
        # rho, beta, J and theta come from the catalog row, and test_catalog_table
        # holds each scenario's panels to its reference design byte for byte
        spec = make_scenario("B1", N=125, T=125)
        assert (spec.dist, spec.r, spec.snr) == ("gaussian", 3, None)
        assert make_scenario("C1", N=150, T=150).dist == "t3"
        with pytest.raises(ValueError, match="fixes its distribution"):
            make_scenario("B1", N=50, T=50, dist="t3")
        with pytest.raises(ValueError, match="does not take snr"):
            make_scenario("B1", N=50, T=50, snr=2.0)

    def test_weak_factor_scenarios(self):
        spec = make_scenario("B3", snr=0.5)
        assert (spec.N, spec.T, spec.r, spec.snr) == (100, 100, 3, 0.5)
        with pytest.raises(ValueError, match="fixes N = T"):
            make_scenario("B3", snr=0.5, N=80)
        with pytest.raises(ValueError, match="requires snr"):
            make_scenario("B3")

    def test_dominant_factor_scenarios(self):
        for name, size in (("B5", 100), ("C5", 150)):
            spec = make_scenario(name, snr=20.0)
            assert (spec.N, spec.T, spec.r, spec.snr) == (size, size, 2, 20.0)

    def test_kmax_knob_scenarios(self):
        spec = make_scenario("B4")
        assert (spec.N, spec.T) == (100, 100)
        assert make_scenario("C4").N == 150
        with pytest.raises(ValueError, match="positive"):
            make_scenario("B5", snr=-1.0)
        # k_max belongs to the estimator configs, not to the scenario
        with pytest.raises(TypeError):
            make_scenario("B4", k_max=16)

    def test_kmax_zero_rejected(self):
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            method_configs(k_max=0)


class TestGeneratePanel:
    def test_collapses_to_static_factor_model_without_dynamics(self):
        spec = make_scenario("A", dist="gaussian", N=8, T=12)
        panel = generate_panel(spec, 3, RngStream(11, 0))
        stream = RngStream(11, 3)
        q = spec.N + spec.r
        espec = EllipticalSpec(scatter_factor=np.eye(q))
        X = sample_elliptical(espec, spec.T + 50, stream)
        F = X[50:, : spec.r]
        V = X[50:, spec.r:]
        loadings = stream.generator(2).standard_normal((spec.N, spec.r))
        expected = F @ loadings.T + V
        assert np.array_equal(panel.values, expected)

    def test_matches_naive_elementwise_recursion(self):
        # N = 25 puts the 21-series window of J = 10 whole for five interior series
        spec = make_scenario("B1", N=25, T=10)
        panel = generate_panel(spec, 0, RngStream(5, 0))

        stream = RngStream(5, 0)
        q = spec.N + spec.r
        espec = EllipticalSpec(scatter_factor=np.eye(q))
        n_draws = spec.T + 50
        X = sample_elliptical(espec, n_draws, stream)
        F = X[50:, : spec.r]
        V = X[:, spec.r:]
        N, J, beta, rho = spec.N, _neighbor_half_width(spec.N), 0.2, 0.5
        E = np.zeros((spec.T, N))
        e_prev = np.zeros(N)
        for t in range(n_draws):
            e_now = np.empty(N)
            for i in range(N):
                window = sum(V[t, l] for l in range(max(0, i - J), min(N - 1, i + J) + 1))
                e_now[i] = rho * e_prev[i] + (1.0 - beta) * V[t, i] + beta * window
            e_prev = e_now
            if t >= 50:
                E[t - 50] = e_now
        u = np.sqrt((1.0 - rho**2) / (1.0 + 2.0 * J * beta**2)) * E
        loadings = stream.generator(2).standard_normal((N, spec.r))
        expected = F @ loadings.T + u
        np.testing.assert_allclose(panel.values, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "name, knobs",
        [
            ("C1", {"N": 100, "T": 100}),
            ("C3", {"snr": 2.0}),
            ("A", {"dist": "cauchy", "N": 60, "T": 60}),
            ("B1", {"N": 80, "T": 60}),
            ("B5", {"snr": 3.0}),
            ("A", {"dist": "gaussian", "N": 40, "T": 50}),
            ("A", {"dist": "t2", "N": 50, "T": 40}),
            # 1050 draws, so 17 blocks of the AR(1) pass, each carried from the last
            ("B1", {"N": 20, "T": 1000}),
            # 129 draws: the last block has a single row; theta = 6
            ("C2", {"N": 40, "T": 79}),
        ],
    )
    def test_bytes_match_the_per_step_loops(self, name, knobs):
        spec = make_scenario(name, **knobs)
        design = reference_make_scenario(name, **knobs)
        base = RngStream(23, 4)
        for k in range(30):
            got = generate_panel(spec, k, base).values
            want = loop_generate_panel(design, k, base)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_idiosyncratic_variance_is_standardized(self):
        # J = 10 at N = 200; the factor part is drawn again from the stream and removed
        spec = make_scenario("B1", N=200, T=4000)
        panel = generate_panel(spec, 0, RngStream(9, 0))
        stream = RngStream(9, 0)
        X = sample_elliptical(EllipticalSpec(np.eye(spec.N + spec.r)), spec.T + 50, stream)
        loadings = stream.generator(2).standard_normal((spec.N, spec.r))
        u = panel.values - X[50:, : spec.r] @ loadings.T
        interior = u[:, 50:150]
        v = interior.var(axis=0, ddof=1).mean()
        assert abs(v - 1.0) < 0.1

    def test_heavy_tail_distributions_run(self):
        for dist in ("t3", "t2", "cauchy"):
            spec = make_scenario("A", dist=dist, N=6, T=30)
            panel = generate_panel(spec, 0, RngStream(2, 0))
            assert panel.shape == (30, 6)
            assert np.isfinite(panel.values).all()

    def test_cauchy_tails_heavier_than_gaussian(self):
        g = generate_panel(make_scenario("A", dist="gaussian", N=10, T=400), 0, RngStream(7, 0))
        c = generate_panel(make_scenario("A", dist="cauchy", N=10, T=400), 0, RngStream(7, 0))
        assert np.abs(c.values).max() > 5.0 * np.abs(g.values).max()

    def test_replication_determinism_and_stream_offset(self):
        spec = make_scenario("A", dist="gaussian", N=8, T=12)
        a = generate_panel(spec, 3, RngStream(17, 0)).values
        b = generate_panel(spec, 3, RngStream(17, 0)).values
        c = generate_panel(spec, 0, RngStream(17, 3)).values
        d = generate_panel(spec, 4, RngStream(17, 0)).values
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_negative_replication_rejected(self):
        with pytest.raises(ValueError, match="replication"):
            generate_panel(make_scenario("B1", N=8, T=12), -1, RngStream(0, 0))


class TestMethodConfigs:
    def test_default_covers_all_methods(self):
        configs = method_configs()
        assert set(configs) == set(ALL_METHODS)
        assert all(cfg.k_max == 8 and cfg.c == 0.01 for cfg in configs.values())

    def test_comma_string_and_knobs(self):
        configs = method_configs("mker, er", k_max=5, c=0.2)
        assert list(configs) == ["mker", "er"]
        assert configs["er"].k_max == 5
        assert configs["er"].c == 0.2

    def test_config_objects_rejected(self):
        # ready-made configs go to run_scenario as a dict, not through method_configs
        for methods in ([EstimatorConfig(method="tcr")], [EstimatorConfig(method="tcr"), "mker"]):
            with pytest.raises(ValueError, match="unknown method"):
                method_configs(methods)

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="unknown method"):
            method_configs("pca")
        with pytest.raises(ValueError, match="unknown method 'pca'"):
            method_configs("mker,pca,xyz")
        with pytest.raises(ValueError, match="no methods"):
            method_configs("  ,  ")
        with pytest.raises(TypeError, match="demean"):
            method_configs(demean="none")


class TestRunScenario:
    def test_counting_identities(self):
        spec = make_scenario("A", dist="gaussian", N=40, T=40, reps=12)
        report = run_scenario(spec, method_configs(), master_seed=3)
        assert report.scenario.reps == 12
        for name, stats in report.per_method.items():
            assert sum(stats.histogram.values()) == 12
            exact = stats.histogram.get(spec.r, 0)
            assert stats.under + stats.over + exact == 12
            mean = sum(j * n for j, n in stats.histogram.items()) / 12
            assert stats.mean == pytest.approx(mean)

    def test_matches_estimate_many_per_replication(self):
        spec = make_scenario("C1", N=30, T=30, reps=3)
        configs = method_configs("mker,er", k_max=4)
        report = run_scenario(spec, configs, master_seed=2)
        panels = [generate_panel(spec, k, RngStream(2, 0)) for k in range(spec.reps)]
        for name in configs:
            counts = Counter(estimate_many(p, configs)[name].r_hat for p in panels)
            assert report.per_method[name].histogram == counts

    def test_seed_determinism(self):
        spec = make_scenario("A", dist="gaussian", N=30, T=30, reps=4)
        r1 = run_scenario(spec, method_configs("mker"), master_seed=5)
        r2 = run_scenario(spec, method_configs("mker"), master_seed=5)
        assert r1.per_method == r2.per_method
        assert r1.seed == 5
        r3 = run_scenario(spec, method_configs("mker,er"), master_seed=5)
        assert r3.per_method["mker"] == r1.per_method["mker"]

    def test_progress_callback(self):
        spec = make_scenario("A", dist="gaussian", N=20, T=20, reps=3)
        calls = []
        run_scenario(spec, method_configs("er"), master_seed=0,
                     progress=lambda k, n: calls.append((k, n)))
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_dict_of_configs_keys_preserved(self):
        spec = make_scenario("A", dist="gaussian", N=30, T=30, reps=2)
        configs = {
            "er_k4": EstimatorConfig(method="er", k_max=4),
            "er_k8": EstimatorConfig(method="er", k_max=8),
        }
        report = run_scenario(spec, configs, master_seed=1)
        assert set(report.per_method) == {"er_k4", "er_k8"}

    def test_empty_configs_rejected_before_any_panel(self, monkeypatch):
        spec = make_scenario("C1", N=100, T=100, reps=50)

        def no_panel(*args):
            raise AssertionError("a panel was drawn")

        monkeypatch.setattr(montecarlo, "generate_panel", no_panel)
        with pytest.raises(ValueError, match="^no methods given$"):
            run_scenario(spec, {})

    def test_kmax_comes_from_the_configs(self):
        # the spec holds no k_max, so the configs' bound is the one applied
        spec = make_scenario("A", dist="cauchy", N=30, T=30, reps=20)
        report = run_scenario(spec, method_configs("tcr", k_max=2), master_seed=1)
        assert set(report.per_method["tcr"].histogram) <= {1, 2}
        assert sum(report.per_method["tcr"].histogram.values()) == 20

    def test_single_replication(self):
        spec = make_scenario("A", dist="gaussian", N=25, T=25, reps=1)
        report = run_scenario(spec, method_configs("gr"), master_seed=2)
        assert sum(report.per_method["gr"].histogram.values()) == 1

    def test_easy_design_recovers_truth(self):
        spec = make_scenario("A", dist="gaussian", N=50, T=50, reps=6)
        report = run_scenario(spec, method_configs(), master_seed=20260819)
        for name, stats in report.per_method.items():
            assert stats.histogram.get(3, 0) == 6, name

    def test_weak_factor_harder_at_lower_snr(self):
        hits = {}
        for snr in (0.7, 0.4):
            spec = make_scenario("B3", snr=snr, reps=60)
            report = run_scenario(spec, method_configs("mker,er"), master_seed=5)
            hits[snr] = {m: report.per_method[m].histogram.get(3, 0) for m in ("mker", "er")}
        assert hits[0.7]["mker"] >= hits[0.4]["mker"]
        assert hits[0.7]["er"] >= hits[0.4]["er"]
        assert hits[0.4]["er"] < 60


class TestAccuracyRecord:
    """The cells of tests/accuracy_record.py are those of ``robustfactors simulate``."""

    def test_cell_reproduces_the_simulate_golden(self):
        report = cell("C1", {"N": 60, "T": 60}, reps=20, master_seed=3)
        golden = (Path(__file__).parent / "data" / "simulate_c1.txt").read_text()
        assert cli._format_report_table(report) + "\n" == golden

    def test_rows_count_every_replication(self):
        rows = accuracy_rows(cell("A", {"dist": "cauchy", "N": 30, "T": 30}, reps=6))
        assert [row["method"] for row in rows] == list(ALL_METHODS)
        for row in rows:
            assert row["cell"] == "A-cauchy 30x30" and row["r"] == 3
            assert row["under"] + row["over"] + row["exact"] == 6


class TestReports:
    def test_cell_format(self):
        stats = CellStats(mean=1.2567, under=743, over=0, histogram={1: 743, 3: 257})
        assert stats.cell() == "1.257(743|0)"

    def test_csv_roundtrip(self, tmp_path):
        spec = make_scenario("A", dist="t3", N=30, T=30, reps=3)
        report = run_scenario(spec, method_configs("mker,er"), master_seed=4)
        path = tmp_path / "report.csv"
        cli._write_report_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["method"] for row in rows] == ["mker", "er"]
        for row in rows:
            assert row["scenario"] == "A-t3"
            assert (int(row["N"]), int(row["T"])) == (30, 30)
            assert (int(row["reps"]), int(row["seed"])) == (3, 4)
            stats = report.per_method[row["method"]]
            assert float(row["mean"]) == pytest.approx(stats.mean, abs=1e-6)
            assert int(row["under"]) == stats.under
            assert int(row["over"]) == stats.over

    def test_table_format(self):
        spec = make_scenario("A", dist="gaussian", N=25, T=25, reps=2)
        report = run_scenario(spec, method_configs("mker,tcr"), master_seed=0)
        text = cli._format_report_table(report)
        assert "scenario A-gaussian" in text
        assert "N=25 T=25 r=3" in text
        for name in ("mker", "tcr"):
            assert name in text
            assert report.per_method[name].cell() in text
