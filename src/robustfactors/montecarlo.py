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

from dataclasses import dataclass, field

import numpy as np

from ._errors import _check_integers, _check_reals
from .elliptical import EllipticalSpec, RngStream, sample_elliptical
from .estimators import ALL_METHODS, EstimatorConfig, _check_size, _decide
from .panel import DataPanel

__all__ = [
    "ScenarioSpec",
    "CellStats",
    "MonteCarloReport",
    "scenario_catalog",
    "make_scenario",
    "generate_panel",
    "run_scenario",
    "method_configs",
]

# dist -> degrees of freedom of the multivariate t draws; None is the Gaussian
_DIST_NU = {"gaussian": None, "t3": 3.0, "t2": 2.0, "cauchy": 1.0}
DIST_CHOICES = tuple(_DIST_NU)

# leading draws discarded so that the AR(1) errors start near stationarity
_BURN_IN = 50


def _neighbor_half_width(N: int) -> int:
    """The J rule used by the correlated-error scenarios: max(10, N/20)."""
    return max(10, N // 20)


@dataclass(frozen=True)
class ScenarioSpec:
    """One catalog scenario and the knobs it takes.

    The design's constants (r, theta, the spiked factor and the error family)
    come from the catalog row of ``name``. snr, the scatter of the spiked
    factor, is required by B3, B5, C3 and C5 and taken by no other scenario.
    A dist, N or T that contradicts the row is rejected with
    :func:`make_scenario`'s message; that function also fills them in.
    """

    name: str
    dist: str
    N: int
    T: int
    reps: int = 200
    snr: float | None = None

    def __post_init__(self):
        fixed_dist, _, _, size, spiked, _ = _catalog_row(self.name)
        if (spiked is None) != (self.snr is None):
            verb = "does not take" if spiked is None else "requires"
            raise ValueError(f"scenario {self.name} {verb} snr")
        if spiked is not None:
            _check_reals(snr=self.snr)
            if not 0 < self.snr < np.inf:
                raise ValueError("snr must be finite" if self.snr > 0 else "snr must be positive")
        if fixed_dist not in (None, self.dist):
            raise ValueError(f"scenario {self.name} fixes its distribution ({fixed_dist})")
        if size is not None and not self.N == self.T == size:
            raise ValueError(f"scenario {self.name} fixes N = T = {size}")
        _check_integers(N=self.N, T=self.T, reps=self.reps)
        if self.N < 2 or self.T < 2:
            raise ValueError("N and T must be >= 2")
        if self.dist not in DIST_CHOICES:
            raise ValueError(f"dist must be one of {DIST_CHOICES}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")

    @property
    def r(self) -> int:
        """The true factor number, from the catalog row."""
        return _CATALOG[self.name][2]

    @property
    def label(self) -> str:
        """Scenario tag for reports; Scenario A carries its distribution."""
        return f"{self.name}-{self.dist}" if self.name == "A" else self.name


# name: (fixed dist or None, theta, r, fixed N = T or None, spiked factor or None,
# the line `robustfactors catalog` prints). A fixed dist marks the correlated-error
# family: rho = 0.5, beta = 0.2 and J = _neighbor_half_width(N); A has iid errors.
_CATALOG = {
    "A": (None, 1.0, 3, None, None, "r=3, iid errors; knobs: dist (required), N, T"),
    "B1": ("gaussian", 1.0, 3, None, None,
           "r=3 gaussian, rho=0.5 beta=0.2 J=max(10,N/20); knobs: N, T"),
    "B2": ("gaussian", 6.0, 3, None, None, "B1 with noise scale theta=6; knobs: N, T"),
    "B3": ("gaussian", 1.0, 3, 100, 2, "B1 at N=T=100, third factor strength set by --snr"),
    "B4": ("gaussian", 1.0, 3, 100, None, "B1 at N=T=100 for k_max sweeps; knob: k_max"),
    "B5": ("gaussian", 1.0, 2, 100, 0,
           "r=2 gaussian at N=T=100, first factor strength set by --snr"),
    "C1": ("t3", 1.0, 3, None, None, "B1 with multivariate t3 draws; knobs: N, T"),
    "C2": ("t3", 6.0, 3, None, None, "C1 with noise scale theta=6; knobs: N, T"),
    "C3": ("t3", 1.0, 3, 150, 2, "B3 with t3 draws at N=T=150"),
    "C4": ("t3", 1.0, 3, 150, None, "B4 with t3 draws at N=T=150; knob: k_max"),
    "C5": ("t3", 1.0, 2, 150, 0, "B5 with t3 draws at N=T=150"),
}


def _catalog_row(name: str) -> tuple:
    if name not in _CATALOG:
        raise ValueError(f"unknown scenario {name!r}; expected one of {sorted(_CATALOG)}")
    return _CATALOG[name]


def scenario_catalog() -> dict[str, str]:
    """The one-line description of each catalog scenario, by name."""
    return {name: row[-1] for name, row in _CATALOG.items()}


def make_scenario(
    name: str, N=None, T=None, dist=None, snr=None, reps=ScenarioSpec.reps
) -> ScenarioSpec:
    """Build a catalog scenario by name.

    A takes dist, N and T; B1/B2/C1/C2 take N and T; B3-B5 fix N = T = 100
    and C3-C5 fix N = T = 150. B3/B5/C3/C5 require snr, the scatter of their
    spiked factor. Every scenario takes reps; k_max is set per estimator config.
    """
    fixed_dist, _, _, size, _, _ = _catalog_row(name)
    if fixed_dist is not None and dist is not None:
        raise ValueError(f"scenario {name} fixes its distribution ({fixed_dist})")
    if size is not None:
        if N is not None or T is not None:
            raise ValueError(f"scenario {name} fixes N = T = {size}")
        N = T = size
    dist = fixed_dist or dist
    for key, value in (("N", N), ("T", T), ("dist", dist)):
        if value is None:
            raise ValueError(f"scenario {name} requires {key}")
    return ScenarioSpec(name=name, dist=dist, N=N, T=T, reps=reps, snr=snr)


def generate_panel(spec: ScenarioSpec, replication: int, rng: RngStream) -> DataPanel:
    """Draw one T x N panel for the given replication.

    ``rng`` is the base stream; replication k consumes the stream with index
    ``rng.stream_index + k`` so replications are independent and order-free.
    Loadings are redrawn per replication (lane 2); the joint (F_t, v_t) draw
    uses the sampler lanes.
    """
    _check_integers(least=0, replication=replication)
    stream = RngStream(rng.master_seed, rng.stream_index + replication)
    fixed_dist, theta, r, _, spiked, _ = _CATALOG[spec.name]
    N, T = spec.N, spec.T
    scatter = np.ones(N + r)
    if spiked is not None:
        scatter[spiked] = spec.snr
    espec = EllipticalSpec(np.diag(np.sqrt(scatter)), _DIST_NU[spec.dist])
    n_draws = T + _BURN_IN
    X = sample_elliptical(espec, n_draws, stream)
    F = X[_BURN_IN:, :r]
    V = X[:, r:]

    # A has iid errors; the scenarios with a fixed dist have correlated ones
    J, beta, rho = (0, 0.0, 0.0) if fixed_dist is None else (_neighbor_half_width(N), 0.2, 0.5)
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
    u = np.sqrt((1.0 - rho**2) / (1.0 + 2.0 * J * beta**2)) * W[_BURN_IN:]

    loadings = stream.generator(2).standard_normal((N, r))
    Y = F @ loadings.T + np.sqrt(theta) * u
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
    per_method: dict[str, CellStats] = field(hash=False)


def method_configs(
    methods=None,
    k_max: int = EstimatorConfig.k_max,
    c: float = EstimatorConfig.c,
    allow_zero: bool = EstimatorConfig.allow_zero,
) -> dict[str, EstimatorConfig]:
    """Normalize a methods argument into named EstimatorConfig entries.

    ``methods`` may be None (all five), a comma-separated string or an
    iterable of method names. The knobs default to EstimatorConfig's.
    """
    if methods is None:
        names = list(ALL_METHODS)
    elif isinstance(methods, str):
        names = [tok.strip() for tok in methods.split(",") if tok.strip()]
    else:
        names = [str(tok) for tok in methods]
    if not names:
        raise ValueError("no methods given")
    return {
        name: EstimatorConfig(method=name, k_max=k_max, c=c, allow_zero=allow_zero)
        for name in names
    }


def run_scenario(
    spec: ScenarioSpec,
    configs: dict[str, EstimatorConfig],
    master_seed: int = 0,
    progress=None,
) -> MonteCarloReport:
    """Run spec.reps replications and aggregate x(y|z) per config name.

    Replication k uses RngStream(master_seed, k), so the report depends only
    on the spec, the configs and the seed. The configs are checked once, before
    any panel is drawn; each panel then goes to ``estimators._decide``, the
    decision core that ``estimate_many`` and ``rolling_estimate`` share.
    """
    _check_size((spec.T, spec.N), configs)
    base = RngStream(master_seed, 0)
    hist: dict[str, dict[int, int]] = {name: {} for name in configs}
    for k in range(spec.reps):
        results = _decide(generate_panel(spec, k, base).values, configs)
        for name, res in results.items():
            hist[name][res.r_hat] = hist[name].get(res.r_hat, 0) + 1
        if progress is not None:
            progress(k + 1, spec.reps)
    per_method = {
        name: CellStats(
            mean=sum(r * n for r, n in h.items()) / spec.reps,
            under=sum(n for r, n in h.items() if r < spec.r),
            over=sum(n for r, n in h.items() if r > spec.r),
            histogram=h,
        )
        for name, h in hist.items()
    }
    return MonteCarloReport(scenario=spec, seed=master_seed, per_method=per_method)
