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
    sample_elliptical_generic,
    sample_gaussian,
    sample_student_t,
)
from .estimators import (
    ALL_METHODS,
    COVARIANCE_METHODS,
    KENDALL_METHODS,
    EstimationResult,
    EstimatorConfig,
    er_baseline,
    estimate,
    estimate_many,
    gr_baseline,
    mker,
    mktcr,
    tcr_baseline,
)
from .kendall import (
    KendallTauMatrix,
    han_lower_bound,
    load_matrix_binary,
    population_kendall_eigenvalues_oracle,
    sample_kendall_tau,
    save_matrix_binary,
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
    "sample_gaussian",
    "sample_student_t",
    "sample_elliptical_generic",
    "KendallTauMatrix",
    "sample_kendall_tau",
    "verify_kendall_invariants",
    "population_kendall_eigenvalues_oracle",
    "han_lower_bound",
    "save_matrix_binary",
    "load_matrix_binary",
    "EigenSpectrum",
    "eigenvalues_sym",
    "build_spectrum",
    "gram_eigenvalues",
    "EstimatorConfig",
    "EstimationResult",
    "KENDALL_METHODS",
    "COVARIANCE_METHODS",
    "ALL_METHODS",
    "mker",
    "mktcr",
    "er_baseline",
    "gr_baseline",
    "tcr_baseline",
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
