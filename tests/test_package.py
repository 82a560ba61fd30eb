"""Each public fact is stated once: the exports in each module's ``__all__``,
the knob defaults on ``EstimatorConfig`` and ``ScenarioSpec``, and each
structure rule of the library in ``RULES``."""

from __future__ import annotations

import importlib
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import robustfactors
from robustfactors import cli
from robustfactors.estimators import ALL_METHODS, EstimatorConfig, method_configs
from robustfactors.montecarlo import ScenarioSpec, make_scenario
from robustfactors.spectrum import EigenSpectrum

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
    "EstimationResult", "estimate_many", "method_configs",
    # montecarlo
    "CellStats", "MonteCarloReport", "RngStream", "ScenarioSpec", "generate_panel",
    "make_scenario", "run_scenario", "scenario_catalog",
    # rolling
    "RollingResult", "rolling_estimate",
}


def test_package_exports_each_module_all():
    names = {"__version__", "InvariantError", "NumericalError"}
    for mod in LIBRARY.values():
        names.update(mod.__all__)
        for name in mod.__all__:
            assert getattr(robustfactors, name) is getattr(mod, name), name
    assert set(robustfactors.__all__) == names
    assert len(robustfactors.__all__) == len(names)
    assert names == EXPORTS and len(EXPORTS) == 33
    # the rolling band is internal, with no alias under its old public names
    for old in ("PairWeightBand", "pair_weight_band", "window_kendall_tau"):
        assert old not in names and not hasattr(robustfactors.kendall, old)
    # the per-method wrapper and the CLI's writers are gone from the library,
    # and the J rule is private, each with no alias
    for home, old in (
        ("estimators", "estimate"),
        ("montecarlo", "neighbor_half_width"),
        ("montecarlo", "write_report_csv"),
        ("montecarlo", "format_report_table"),
        ("rolling", "write_rolling_csv"),
    ):
        assert old not in names and not hasattr(robustfactors, old)
        assert not hasattr(LIBRARY[home], old), (home, old)
    # the spectrum's length is spec.raw.size, with no alias
    assert not hasattr(EigenSpectrum, "size")


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


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use, with about 6 MB and 10 ms that
    # rolling and estimate never need, so no import-time line (an evaluated
    # annotation, say) may touch it
    code = "import sys, robustfactors.cli; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0


# The library's source from this checkout, not from whatever copy is imported.
SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "robustfactors"
# The structure rules: per rule, a pattern no line of the library may match
# outside the modules named, why, and one line the pattern must match, so that
# a typo cannot leave a rule checking nothing.
RULES = {
    "one_helper_thread": (
        r"threading\.Thread\(|register_at_fork|import _queue",
        {"_helper.py"},
        "one thread mechanism: only _helper.py may start a thread, import _queue"
        " or hook fork; the reader and the decision core both use it",
        "    worker = threading.Thread(target=run, daemon=True)",
    ),
    "one_argument_rule": (
        r"operator\.index|np\.bool_|numbers\.Real",
        {"_errors.py"},
        "one home for each argument rule: only _errors.py may test an argument's"
        " type; integers, real numbers and flags go through its helpers",
        "        n = operator.index(value)",
    ),
    "cli_owns_the_output_files": (
        r"csv\.writer",
        {"cli.py"},
        "one home for the output formats: only cli.py may write a CSV file, the"
        " files of simulate --out and rolling --out",
        "    writer = csv.writer(fh)",
    ),
    "the_band_behind_the_decision_core": (
        r"_pair_weight_band|_window_kendall_tau",
        {"kendall.py", "estimators.py"},
        "one home for the rolling band: kendall.py defines it, and estimators.py"
        " alone builds it and reads each window's Kendall matrix from it",
        "from .kendall import _pair_weight_band",
    ),
    "the_array_layer_takes_arrays": (
        r"\bDataPanel\b|from \.panel import",
        {"panel.py", "estimators.py", "rolling.py", "montecarlo.py", "cli.py", "__init__.py"},
        "one input type per layer: the kernels, spectra and sampler take T x N"
        " arrays, as gram_eigenvalues does; only the estimators, the rolling and"
        " simulation runners and the CLI take or make a DataPanel",
        "from .panel import DataPanel",
    ),
    "no_warning_filters_in_the_library": (
        r"catch_warnings\(|simplefilter\(",
        set(),
        "the warning filters are process-wide: set from a library call that runs"
        " on several threads, they can stay changed for good",
        "    with warnings.catch_warnings():",
    ),
}


@pytest.mark.parametrize("pattern, allowed, reason, example", RULES.values(), ids=RULES)
def test_structure_rule(pattern, allowed, reason, example):
    rule = re.compile(pattern)
    assert rule.search(example), example
    files = sorted(SOURCE.glob("*.py"))
    assert files, f"no modules in {SOURCE}"
    missing = allowed - {f.name for f in files}
    assert not missing, f"allowed modules not in {SOURCE}: {sorted(missing)}"
    hits = [
        f"{f.name}:{number}"
        for f in files
        if f.name not in allowed
        for number, line in enumerate(f.read_text(encoding="utf-8").splitlines(), 1)
        if rule.search(line)
    ]
    assert not hits, f"{reason}: {', '.join(hits)}"
