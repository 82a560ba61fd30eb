"""Each public fact is stated once: the exports in each module's ``__all__``,
the knob defaults on ``EstimatorConfig`` and ``ScenarioSpec``."""

from __future__ import annotations

import importlib
import pkgutil

import robustfactors
from robustfactors import cli
from robustfactors.estimators import ALL_METHODS, EstimatorConfig
from robustfactors.montecarlo import ScenarioSpec, make_scenario, method_configs

# cli is the command-line entry point; the package does not import it, so that
# `import robustfactors` stays free of argparse.
MODULES = {
    info.name: importlib.import_module(f"robustfactors.{info.name}")
    for info in pkgutil.iter_modules(robustfactors.__path__)
    if not info.name.startswith("_")
}
LIBRARY = {name: mod for name, mod in MODULES.items() if name != "cli"}
# The whole public surface, so that a name joins or leaves it only on purpose.
EXPORTS = {
    "__version__", "InvariantError", "NumericalError",
    # panel
    "DataPanel", "ingest_csv", "impute_column_mean", "double_demean",
    # elliptical
    "EllipticalSpec", "sample_elliptical",
    # kendall
    "KendallTauMatrix", "sample_kendall_tau", "verify_kendall_invariants",
    # spectrum
    "EigenSpectrum", "eigenvalues_sym", "build_spectrum", "gram_eigenvalues",
    # estimators
    "ALL_METHODS", "COVARIANCE_METHODS", "KENDALL_METHODS", "EstimatorConfig",
    "EstimationResult", "estimate", "estimate_many",
    # montecarlo
    "CellStats", "MonteCarloReport", "RngStream", "ScenarioSpec", "format_report_table",
    "generate_panel", "make_scenario", "method_configs", "neighbor_half_width",
    "run_scenario", "scenario_catalog", "write_report_csv",
    # rolling
    "RollingResult", "rolling_estimate", "write_rolling_csv",
}


def test_package_exports_each_module_all():
    names = {"__version__", "InvariantError", "NumericalError"}
    for mod in LIBRARY.values():
        names.update(mod.__all__)
        for name in mod.__all__:
            assert getattr(robustfactors, name) is getattr(mod, name), name
    assert set(robustfactors.__all__) == names
    assert len(robustfactors.__all__) == len(names)
    assert names == EXPORTS and len(EXPORTS) == 38
    # the rolling band is internal, with no alias under its old public names
    for old in ("PairWeightBand", "pair_weight_band", "window_kendall_tau"):
        assert old not in names and not hasattr(robustfactors.kendall, old)


def test_no_name_in_two_modules():
    seen = {}
    for module, mod in MODULES.items():
        for name in mod.__all__:
            assert name not in seen, (name, seen.get(name), module)
            seen[name] = module


def test_defaults_come_from_the_config_classes():
    assert method_configs() == {m: EstimatorConfig(m) for m in ALL_METHODS}
    assert make_scenario("B1", N=30, T=30).reps == ScenarioSpec.reps
    parser = cli._build_parser()
    for argv in (["estimate", "--input", "p.csv"], ["rolling", "--input", "p.csv"],
                 ["simulate", "--scenario", "B1"]):
        args = parser.parse_args(argv)
        assert (args.kmax, args.c) == (EstimatorConfig.k_max, EstimatorConfig.c)
    assert parser.parse_args(["simulate", "--scenario", "B1"]).reps == ScenarioSpec.reps
    assert parser.parse_args(["estimate", "--input", "p.csv"]).allow_zero is (
        EstimatorConfig.allow_zero
    )
