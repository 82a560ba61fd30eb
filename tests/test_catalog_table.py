"""The scenario table, held to the per-scenario builders it replaced.

Every scenario name, plus an unknown one, crossed with given or missing N
and T, valid and invalid dist, snr and reps, must give the same exception
with the same message as the reference builders of ``scenario_oracle``, or
a spec whose panels are byte for byte those of the reference design.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from robustfactors.elliptical import RngStream
from robustfactors.montecarlo import generate_panel, make_scenario, scenario_catalog

from scenario_oracle import loop_generate_panel, reference_catalog, reference_make_scenario


def _outcome(build, name, knobs):
    try:
        return "spec", build(name, **knobs)
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
        (None, 120, 1, 2.5), (None, 80), (None, "gaussian", "cauchy", "", "bogus"),
        (None, 2, 0, -1, np.nan, np.inf), (200, 5, 0),
    )
    base = RngStream(23, 4)
    checked = set()
    for N, T, dist, snr, reps in grid:
        given = {"N": N, "T": T, "dist": dist, "snr": snr, "reps": reps}
        # knobs passed as None, as the CLI passes them, and knobs left out
        for knobs in (given, {key: value for key, value in given.items() if value is not None}):
            got = _outcome(make_scenario, name, knobs)
            want = _outcome(reference_make_scenario, name, knobs)
            assert got[0] == want[0], knobs
            if got[0] != "spec":
                assert got == want, knobs
                continue
            spec, design = got[1], want[1]
            assert (spec.name, spec.dist, spec.N, spec.T, spec.reps, spec.r) == (
                design.name, design.dist, design.N, design.T, design.reps, design.r
            )
            if repr(design) in checked:
                continue
            checked.add(repr(design))
            for k in (0, 1):
                assert generate_panel(spec, k, base).values.tobytes() == (
                    loop_generate_panel(design, k, base).tobytes()
                ), (knobs, k)
    # each known scenario builds for some combination, and rejects others
    assert bool(checked) == (name != "Z9")
