"""Reference designs for the scenario catalog, used by the tests.

The catalog used to be eleven builder functions: ``_build_a`` and one
closure per correlated-error scenario from ``_correlated``. They are kept
below as the reference, with the one check added since, that snr is finite.
Each returns a :class:`Design`, the full set of constants of one simulation
design, which ``ScenarioSpec`` once stored as settable fields.
``loop_generate_panel`` is ``generate_panel`` as it was written with
per-series and per-step Python loops, reading those constants from the record.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from robustfactors.elliptical import EllipticalSpec, RngStream, sample_elliptical
from robustfactors.montecarlo import _neighbor_half_width


@dataclass(frozen=True)
class Design:
    """Every constant of one simulation design.

    The constants a builder sets itself always pass, so of the checks the
    old ``ScenarioSpec`` made, in its order, only those on the knobs are left.
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
    reps: int = 200
    scatter_diag: tuple[float, ...] | None = None

    def __post_init__(self):
        for key in ("N", "T", "reps"):
            value = getattr(self, key)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{key} must be an integer, got {value!r}") from None
        if self.N < 2 or self.T < 2:
            raise ValueError("N and T must be >= 2")
        dists = ("gaussian", "t3", "t2", "cauchy")
        if self.dist not in dists:
            raise ValueError(f"dist must be one of {dists}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.scatter_diag is not None:
            object.__setattr__(self, "scatter_diag", tuple(self.scatter_diag.tolist()))


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


def _build_a(N=None, T=None, dist=None, snr=None, reps=200):
    _require("A", N=N, T=T, dist=dist)
    _reject("A", snr=snr)
    return Design(
        name="A", r=3, theta=1.0, rho=0.0, beta=0.0, J=0,
        dist=dist, N=N, T=T, reps=reps,
    )


_build_a.__doc__ = "r=3, iid errors; knobs: dist (required), N, T"


def _correlated(name, dist, note, r=3, theta=1.0):
    fixed_size = {"B3": 100, "B4": 100, "B5": 100, "C3": 150, "C4": 150, "C5": 150}
    snr_position = {"B3": 2, "C3": 2, "B5": 0, "C5": 0}
    dominant_r = {"B5": 2, "C5": 2}

    fixed_dist = dist

    def build(N=None, T=None, dist=None, snr=None, reps=200):
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
            if not 0 < snr < np.inf:
                raise ValueError("snr must be finite" if snr > 0 else "snr must be positive")
            scatter = _spiked_diag(N, rr, snr_position[name], snr)
        elif snr is not None:
            raise ValueError(f"scenario {name} does not take snr")
        return Design(
            name=name, r=rr, theta=theta, rho=0.5, beta=0.2,
            J=_neighbor_half_width(N), dist=dist, N=N, T=T, reps=reps, scatter_diag=scatter,
        )

    build.__doc__ = note
    return build


def reference_catalog():
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


def reference_make_scenario(name, **knobs) -> Design:
    catalog = reference_catalog()
    if name not in catalog:
        raise ValueError(f"unknown scenario {name!r}; expected one of {sorted(catalog)}")
    return catalog[name](**knobs)


# dist -> (sampler family, degrees of freedom), as generate_panel once mapped it
LOOP_DIST_PARAMS = {
    "gaussian": ("gaussian", None),
    "t3": ("student_t", 3.0),
    "t2": ("student_t", 2.0),
    "cauchy": ("student_t", 1.0),
}


def loop_scatter(design):
    if design.scatter_diag is not None:
        return np.array(design.scatter_diag)
    return np.ones(design.N + design.r)


def loop_generate_panel(design, replication, rng):
    """generate_panel as it was written with per-series and per-step Python loops."""
    stream = RngStream(rng.master_seed, rng.stream_index + replication)
    N, T, r = design.N, design.T, design.r
    family, nu = LOOP_DIST_PARAMS[design.dist]
    assert (family == "gaussian") == (nu is None)
    scatter_factor = np.diag(np.sqrt(loop_scatter(design)))
    espec = EllipticalSpec(scatter_factor=scatter_factor, nu=nu)
    n_draws = T + 50
    X = sample_elliptical(espec, n_draws, stream)
    F = X[50:, :r]
    V = X[:, r:]
    J, beta, rho = design.J, design.beta, design.rho
    if J > 0:
        csum = np.cumsum(V, axis=1)
        win = np.empty_like(V)
        for i in range(N):
            hi = min(i + J, N - 1)
            lo = i - J
            win[:, i] = csum[:, hi] - (csum[:, lo - 1] if lo > 0 else 0.0)
    else:
        win = V
    W = (1.0 - beta) * V + beta * win
    E = np.empty((T, N))
    e_prev = np.zeros(N)
    for t in range(n_draws):
        e_prev = rho * e_prev + W[t]
        if t >= 50:
            E[t - 50] = e_prev
    u = np.sqrt((1.0 - rho**2) / (1.0 + 2.0 * J * beta**2)) * E
    loadings = stream.generator(2).standard_normal((N, r))
    return F @ loadings.T + np.sqrt(design.theta) * u
