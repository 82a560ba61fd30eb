"""Robust estimation of the number of latent factors in heavy-tailed panels.

The package builds the sample multivariate Kendall's tau matrix of a panel
and reads the factor count off its eigenvalue spectrum, alongside classical
covariance-spectrum baselines, a simulation harness, and a rolling-window
pipeline.
"""

from ._errors import InvariantError, NumericalError
from .elliptical import (
    EllipticalSpec,
    RngStream,
    sample_elliptical,
    sample_elliptical_generic,
)
from .estimators import (
    ALL_METHODS,
    COVARIANCE_METHODS,
    KENDALL_METHODS,
    EstimationResult,
    EstimatorConfig,
    estimate,
    estimate_many,
)
from .kendall import (
    KendallTauMatrix,
    han_lower_bound,
    population_kendall_eigenvalues_oracle,
    sample_kendall_tau,
    verify_kendall_invariants,
)
from .montecarlo import (
    CellStats,
    MonteCarloReport,
    ScenarioSpec,
    format_report_table,
    generate_panel,
    make_scenario,
    method_configs,
    neighbor_half_width,
    run_scenario,
    scenario_catalog,
    write_report_csv,
)
from .panel import DataPanel, double_demean, impute_column_mean, ingest_csv
from .rolling import RollingResult, rolling_estimate, write_rolling_csv
from .spectrum import EigenSpectrum, build_spectrum, eigenvalues_sym, gram_eigenvalues

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "InvariantError",
    "NumericalError",
    "DataPanel",
    "ingest_csv",
    "impute_column_mean",
    "double_demean",
    "RngStream",
    "EllipticalSpec",
    "sample_elliptical",
    "sample_elliptical_generic",
    "KendallTauMatrix",
    "sample_kendall_tau",
    "verify_kendall_invariants",
    "population_kendall_eigenvalues_oracle",
    "han_lower_bound",
    "EigenSpectrum",
    "eigenvalues_sym",
    "build_spectrum",
    "gram_eigenvalues",
    "EstimatorConfig",
    "EstimationResult",
    "KENDALL_METHODS",
    "COVARIANCE_METHODS",
    "ALL_METHODS",
    "estimate",
    "estimate_many",
    "ScenarioSpec",
    "CellStats",
    "MonteCarloReport",
    "neighbor_half_width",
    "scenario_catalog",
    "make_scenario",
    "generate_panel",
    "run_scenario",
    "method_configs",
    "write_report_csv",
    "format_report_table",
    "RollingResult",
    "rolling_estimate",
    "write_rolling_csv",
]
