"""Scenario catalog, panel-generating process, and the replication runner.

Panels follow the factor structure
``y_it = sum_j loading_ij F_jt + sqrt(theta) u_it`` with idiosyncratic errors
that are serially correlated through an AR(1) recursion and cross-sectionally
correlated through a banded neighbor sum:

    u_it = sqrt((1 - rho^2) / (1 + 2 J beta^2)) e_it
    e_it = rho e_{i,t-1} + (1 - beta) v_it + sum_{l in [i-J, i+J] cap [1, N]} beta v_lt

The neighbor sum includes l = i, so the own-series weight is
(1 - beta) + beta = 1 and the stationary variance of u_it is exactly one for
interior series. (F_t, v_t) are drawn jointly elliptical per time point;
loadings are standard normal, redrawn each replication.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .elliptical import EllipticalSpec, RngStream, sample_gaussian, sample_student_t
from .estimators import ALL_METHODS, EstimatorConfig, estimate_many
from .panel import DataPanel

__all__ = [
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
]

DIST_CHOICES = ("gaussian", "t3", "t2", "cauchy")

_DIST_PARAMS = {
    "gaussian": ("gaussian", None),
    "t3": ("student_t", 3.0),
    "t2": ("student_t", 2.0),
    "cauchy": ("student_t", 1.0),
}


def neighbor_half_width(N: int) -> int:
    """The J rule used by the correlated-error scenarios: max(10, N/20)."""
    return max(10, N // 20)


@dataclass(frozen=True)
class ScenarioSpec:
    """All knobs of one simulation scenario.

    scatter_diag, when given, is the diagonal of the (F_t, v_t) scatter
    matrix, stored as a tuple of floats so that specs compare and hash by
    value; None means the identity.
    """

    name: str
    r: int
    theta: float
    rho: float
    beta: float
    J: int
    dist: str
    N: int
    T: int
    k_max: int = 8
    reps: int = 200
    burn_in: int = 50
    scatter_diag: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("r must be >= 0")
        if not self.theta > 0:
            raise ValueError("theta must be positive")
        if not 0 <= self.rho < 1:
            raise ValueError("rho must lie in [0, 1)")
        if self.beta < 0 or self.J < 0:
            raise ValueError("beta and J must be nonnegative")
        if self.N < 2 or self.T < 2:
            raise ValueError("N and T must be >= 2")
        if self.dist not in DIST_CHOICES:
            raise ValueError(f"dist must be one of {DIST_CHOICES}")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.scatter_diag is not None:
            d = np.asarray(self.scatter_diag, dtype=np.float64)
            if d.shape != (self.N + self.r,) or np.any(d <= 0):
                raise ValueError("scatter_diag must be positive with length N + r")
            object.__setattr__(self, "scatter_diag", tuple(d.tolist()))

    @property
    def label(self) -> str:
        """Scenario tag for reports; Scenario A carries its distribution."""
        return f"{self.name}-{self.dist}" if self.name == "A" else self.name


def _scatter(spec: ScenarioSpec) -> np.ndarray:
    if spec.scatter_diag is not None:
        return np.array(spec.scatter_diag)
    return np.ones(spec.N + spec.r)


def _reject(name, **knobs):
    for key, value in knobs.items():
        if value is not None:
            raise ValueError(f"scenario {name} does not take {key}")


def _require(name, **knobs):
    for key, value in knobs.items():
        if value is None:
            raise ValueError(f"scenario {name} requires {key}")


def _spiked_diag(N: int, r: int, position: int, snr: float) -> np.ndarray:
    d = np.ones(N + r)
    d[position] = snr
    return d


def _build_a(N=None, T=None, dist=None, snr=None, k_max=None, reps=200):
    _require("A", N=N, T=T, dist=dist)
    _reject("A", snr=snr)
    return ScenarioSpec(
        name="A", r=3, theta=1.0, rho=0.0, beta=0.0, J=0,
        dist=dist, N=N, T=T, k_max=8 if k_max is None else k_max, reps=reps,
    )


# Each builder's __doc__ is the one-line description `robustfactors catalog`
# prints. It is assigned rather than written as a docstring so that python -OO,
# which strips docstrings, keeps it.
_build_a.__doc__ = "r=3, iid errors; knobs: dist (required), N, T"


def _correlated(name, dist, note, r=3, theta=1.0):
    fixed_size = {"B3": 100, "B4": 100, "B5": 100, "C3": 150, "C4": 150, "C5": 150}
    snr_position = {"B3": 2, "C3": 2, "B5": 0, "C5": 0}
    dominant_r = {"B5": 2, "C5": 2}

    fixed_dist = dist

    def build(N=None, T=None, dist=None, snr=None, k_max=None, reps=200):
        if dist is not None:
            raise ValueError(f"scenario {name} fixes its distribution ({fixed_dist})")
        dist = fixed_dist
        if name in fixed_size:
            if N is not None or T is not None:
                raise ValueError(f"scenario {name} fixes N = T = {fixed_size[name]}")
            N = T = fixed_size[name]
        else:
            _require(name, N=N, T=T)
        rr = dominant_r.get(name, r)
        scatter = None
        if name in snr_position:
            _require(name, snr=snr)
            if not snr > 0:
                raise ValueError("snr must be positive")
            scatter = _spiked_diag(N, rr, snr_position[name], snr)
        elif snr is not None:
            raise ValueError(f"scenario {name} does not take snr")
        return ScenarioSpec(
            name=name, r=rr, theta=theta, rho=0.5, beta=0.2,
            J=neighbor_half_width(N), dist=dist, N=N, T=T,
            k_max=8 if k_max is None else k_max, reps=reps, scatter_diag=scatter,
        )

    build.__doc__ = note
    return build


def scenario_catalog():
    """Named scenario constructors with the catalog's fixed constants.

    Free knobs per scenario: A takes dist and N = T; B1/B2/C1/C2 take N = T;
    B3/C3 and B5/C5 take snr; B4/C4 take k_max. Every constructor accepts
    reps and k_max. Each constructor's ``__doc__`` describes its scenario in
    one line.
    """
    return {
        "A": _build_a,
        "B1": _correlated(
            "B1", "gaussian", "r=3 gaussian, rho=0.5 beta=0.2 J=max(10,N/20); knobs: N, T"
        ),
        "B2": _correlated("B2", "gaussian", "B1 with noise scale theta=6; knobs: N, T", theta=6.0),
        "B3": _correlated("B3", "gaussian", "B1 at N=T=100, third factor strength set by --snr"),
        "B4": _correlated("B4", "gaussian", "B1 at N=T=100 for k_max sweeps; knob: k_max"),
        "B5": _correlated(
            "B5", "gaussian", "r=2 gaussian at N=T=100, first factor strength set by --snr"
        ),
        "C1": _correlated("C1", "t3", "B1 with multivariate t3 draws; knobs: N, T"),
        "C2": _correlated("C2", "t3", "C1 with noise scale theta=6; knobs: N, T", theta=6.0),
        "C3": _correlated("C3", "t3", "B3 with t3 draws at N=T=150"),
        "C4": _correlated("C4", "t3", "B4 with t3 draws at N=T=150; knob: k_max"),
        "C5": _correlated("C5", "t3", "B5 with t3 draws at N=T=150"),
    }


def make_scenario(name: str, **knobs) -> ScenarioSpec:
    """Build a catalog scenario by name; see :func:`scenario_catalog`."""
    catalog = scenario_catalog()
    if name not in catalog:
        raise ValueError(f"unknown scenario {name!r}; expected one of {sorted(catalog)}")
    return catalog[name](**knobs)


def generate_panel(spec: ScenarioSpec, replication: int, rng: RngStream) -> DataPanel:
    """Draw one T x N panel for the given replication.

    ``rng`` is the base stream; replication k consumes the stream with index
    ``rng.stream_index + k`` so replications are independent and order-free.
    Loadings are redrawn per replication (lane 2); the joint (F_t, v_t) draw
    uses the sampler lanes.
    """
    if replication < 0:
        raise ValueError("replication must be >= 0")
    stream = RngStream(rng.master_seed, rng.stream_index + replication)
    N, T, r = spec.N, spec.T, spec.r
    q = N + r
    family, nu = _DIST_PARAMS[spec.dist]
    scatter_factor = np.diag(np.sqrt(_scatter(spec)))
    espec = EllipticalSpec(family=family, mu=np.zeros(q), scatter_factor=scatter_factor, nu=nu)
    n_draws = T + spec.burn_in
    if family == "gaussian":
        X = sample_gaussian(espec, n_draws, stream)
    else:
        X = sample_student_t(espec, n_draws, stream)
    F = X[spec.burn_in:, :r]
    V = X[:, r:]

    J, beta, rho = spec.J, spec.beta, spec.rho
    if J > 0:
        # win[:, i] = V[:, max(i - J, 0)] + ... + V[:, min(i + J, N - 1)], from one
        # cumulative sum with a leading zero column
        csum = np.zeros((n_draws, N + 1))
        np.cumsum(V, axis=1, out=csum[:, 1:])
        idx = np.arange(N)
        win = csum[:, np.minimum(idx + J + 1, N)] - csum[:, np.maximum(idx - J, 0)]
    else:
        win = V
    W = (1.0 - beta) * V + beta * win

    for t in range(1, n_draws):  # AR(1) in place: W[t] becomes e_t
        W[t] += rho * W[t - 1]
    u = np.sqrt((1.0 - rho**2) / (1.0 + 2.0 * J * beta**2)) * W[spec.burn_in :]

    loadings = stream.generator(2).standard_normal((N, r))
    Y = F @ loadings.T + np.sqrt(spec.theta) * u
    return DataPanel(Y)


# ---------------------------------------------------------------------------
# replication runner and reports


@dataclass(frozen=True)
class CellStats:
    """One x(y|z) table cell: mean estimate, underestimates, overestimates.

    The histogram of estimates takes part in equality but not in the hash.
    """

    mean: float
    under: int
    over: int
    histogram: dict[int, int] = field(hash=False)

    def cell(self) -> str:
        return f"{self.mean:.3f}({self.under}|{self.over})"


@dataclass(frozen=True)
class MonteCarloReport:
    """Per-method cells of one scenario run; ``per_method`` is compared but not hashed."""

    scenario: ScenarioSpec
    seed: int
    reps: int
    per_method: dict[str, CellStats] = field(hash=False)


def method_configs(
    methods=None,
    k_max: int = 8,
    c: float = 0.01,
    allow_zero: bool = False,
    demean: str = "double",
) -> dict[str, EstimatorConfig]:
    """Normalize a methods argument into named EstimatorConfig entries.

    ``methods`` may be None (all five), a comma-separated string or an
    iterable of method names. :func:`run_scenario` also takes a dict of
    ready-made configs.
    """
    if methods is None:
        names = list(ALL_METHODS)
    elif isinstance(methods, str):
        names = [tok.strip() for tok in methods.split(",") if tok.strip()]
    else:
        names = [str(tok) for tok in methods]
    if not names:
        raise ValueError("no methods given")
    for name in names:
        if name not in ALL_METHODS:
            raise ValueError(f"unknown method {name!r}; expected one of {ALL_METHODS}")
    return {
        name: EstimatorConfig(method=name, k_max=k_max, c=c, allow_zero=allow_zero, demean=demean)
        for name in names
    }


def run_scenario(
    spec: ScenarioSpec,
    methods=None,
    master_seed: int = 0,
    progress=None,
) -> MonteCarloReport:
    """Run spec.reps replications and aggregate x(y|z) per method.

    Replication k uses RngStream(master_seed, k). Panels are doubly demeaned
    by default (per the configs from :func:`method_configs`), so the report
    depends only on the spec, the methods and the seed.
    """
    if isinstance(methods, dict):
        configs = methods
    else:
        configs = method_configs(methods, k_max=spec.k_max)
    base = RngStream(master_seed, 0)
    totals = {name: 0 for name in configs}
    under = {name: 0 for name in configs}
    over = {name: 0 for name in configs}
    hist: dict[str, dict[int, int]] = {name: {} for name in configs}
    for k in range(spec.reps):
        panel = generate_panel(spec, k, base)
        results = estimate_many(panel, configs)
        for name, res in results.items():
            totals[name] += res.r_hat
            under[name] += res.r_hat < spec.r
            over[name] += res.r_hat > spec.r
            hist[name][res.r_hat] = hist[name].get(res.r_hat, 0) + 1
        if progress is not None:
            progress(k + 1, spec.reps)
    per_method = {
        name: CellStats(
            mean=totals[name] / spec.reps,
            under=under[name],
            over=over[name],
            histogram=hist[name],
        )
        for name in configs
    }
    return MonteCarloReport(scenario=spec, seed=master_seed, reps=spec.reps, per_method=per_method)


def write_report_csv(report: MonteCarloReport, path) -> None:
    """CSV with columns scenario, method, N, T, mean, under, over, reps, seed."""
    spec = report.scenario
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "method", "N", "T", "mean", "under", "over", "reps", "seed"])
        for name, stats in report.per_method.items():
            writer.writerow(
                [spec.label, name, spec.N, spec.T, f"{stats.mean:.6f}",
                 stats.under, stats.over, report.reps, report.seed]
            )


def format_report_table(report: MonteCarloReport) -> str:
    """Aligned x(y|z) table mirroring the simulation study's cell format."""
    spec = report.scenario
    lines = [
        f"scenario {spec.label}  N={spec.N} T={spec.T} r={spec.r} "
        f"reps={report.reps} seed={report.seed}",
        f"{'method':<8}{'x(y|z)':>18}",
    ]
    for name, stats in report.per_method.items():
        lines.append(f"{name:<8}{stats.cell():>18}")
    return "\n".join(lines)
