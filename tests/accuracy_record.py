"""Write ACCURACY.json: how often each method finds the true factor number, cell by cell.

Run from the repository root:

    PYTHONPATH=src python3 tests/accuracy_record.py

Sixteen catalog cells, each run with 200 replications at master seed 0 and
the five methods at their default settings. For each cell and method the file
holds the mean estimate and the counts of replications under, over and at the
true r. A change that moves output bytes regenerates the file, and its diff
names every cell that moved. The file holds no commit id: a file cannot name
the commit that contains it. Each cell's replications per second go to
stdout, a throughput report that the file does not hold.

pytest does not collect this script (its name does not start with ``test_``);
it takes about 10 s on two cores, and the test suite runs only :func:`cell`
on one small cell.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from robustfactors.estimators import method_configs
from robustfactors.montecarlo import MonteCarloReport, make_scenario, run_scenario

MASTER_SEED = 0
REPS = 200
OUTPUT = Path(__file__).resolve().parent.parent / "ACCURACY.json"

# (scenario, make_scenario knobs): A in three dists at two sizes; the
# correlated-error cells at 100 x 100; the fixed-size cells, spiked ones at
# one weak and one strong snr
CELLS = (
    *(("A", {"dist": d, "N": n, "T": n}) for n in (50, 100) for d in ("gaussian", "t3", "cauchy")),
    *((name, {"N": 100, "T": 100}) for name in ("B1", "B2", "C1", "C2")),
    ("B3", {"snr": 0.5}),
    ("C3", {"snr": 0.5}),
    ("B4", {}),
    ("C4", {}),
    ("B5", {"snr": 2.0}),
    ("C5", {"snr": 2.0}),
)


def cell(name: str, knobs: dict, reps: int = REPS, master_seed: int = MASTER_SEED) -> MonteCarloReport:
    """One cell with the five default configs, as ``robustfactors simulate`` runs it."""
    spec = make_scenario(name, reps=reps, **knobs)
    return run_scenario(spec, method_configs(None), master_seed)


def rows(report: MonteCarloReport) -> list[dict]:
    """One record per method: the cell, the mean estimate and the under, over and exact counts."""
    spec = report.scenario
    label = f"{spec.label} {spec.N}x{spec.T}" + ("" if spec.snr is None else f" snr={spec.snr}")
    return [
        {"cell": label, "r": spec.r, "method": method, "mean": stats.mean, "under": stats.under,
         "over": stats.over, "exact": stats.histogram.get(spec.r, 0)}
        for method, stats in report.per_method.items()
    ]


def main() -> None:
    records = []
    for name, knobs in CELLS:
        start = time.perf_counter()
        report = cell(name, knobs)
        rate = REPS / (time.perf_counter() - start)
        records += rows(report)
        print(f"{records[-1]['cell']}: {rate:.1f} replications/s", flush=True)
    lines = ",\n".join("  " + json.dumps(row) for row in records)
    OUTPUT.write_text(
        f'{{"master_seed": {MASTER_SEED}, "reps": {REPS}, "rows": [\n{lines}\n]}}\n',
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
