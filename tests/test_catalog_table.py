"""The scenario table, held to the per-scenario builders it replaced.

The catalog used to be eleven builder functions: ``_build_a`` and one
closure per correlated-error scenario from ``_correlated``. They are copied
below as the reference. Every scenario name, plus an unknown one, crossed
with given or missing N and T, valid and invalid dist, snr and reps, must
give the same ``ScenarioSpec`` or the same exception with the same message.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from robustfactors.montecarlo import (
    ScenarioSpec,
    make_scenario,
    neighbor_half_width,
    scenario_catalog,
)


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
    return ScenarioSpec(
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
            if not snr > 0:
                raise ValueError("snr must be positive")
            scatter = _spiked_diag(N, rr, snr_position[name], snr)
        elif snr is not None:
            raise ValueError(f"scenario {name} does not take snr")
        return ScenarioSpec(
            name=name, r=rr, theta=theta, rho=0.5, beta=0.2,
            J=neighbor_half_width(N), dist=dist, N=N, T=T, reps=reps, scatter_diag=scatter,
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


def reference_make_scenario(name, **knobs):
    catalog = reference_catalog()
    if name not in catalog:
        raise ValueError(f"unknown scenario {name!r}; expected one of {sorted(catalog)}")
    return catalog[name](**knobs)


def _outcome(build, name, knobs):
    try:
        return "spec", repr(build(name, **knobs))
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_descriptions_match_the_builders():
    assert scenario_catalog() == {
        name: build.__doc__ for name, build in reference_catalog().items()
    }


NAMES = [*reference_catalog(), "Z9"]


@pytest.mark.parametrize("name", NAMES)
def test_every_knob_combination_matches_the_builders(name):
    grid = itertools.product(
        (None, 120), (None, 80), (None, "gaussian", "cauchy", "", "bogus"),
        (None, 2, 0, -1), (200, 5),
    )
    specs = 0
    for N, T, dist, snr, reps in grid:
        given = {"N": N, "T": T, "dist": dist, "snr": snr, "reps": reps}
        # knobs passed as None, as the CLI passes them, and knobs left out
        for knobs in (given, {key: value for key, value in given.items() if value is not None}):
            got = _outcome(make_scenario, name, knobs)
            assert got == _outcome(reference_make_scenario, name, knobs), knobs
        specs += got[0] == "spec"
    # each known scenario builds for some combination, and rejects others
    assert (specs > 0) == (name != "Z9")
