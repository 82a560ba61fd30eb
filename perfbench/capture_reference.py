"""Write reference.json: the r_hat of every op key of every workload, per seed.

    python3 perfbench/capture_reference.py --seeds 0-19

Run it from the root of a checkout whose outputs are trusted; run.py then
counts every op whose r_hat differs from these as failed. rolling_fred is
captured with one rolling_estimate call over the whole panel, not with the
benchmark's chunked calls, so the two paths check each other. The sim_c1
entry also holds the x(y|z) cells of run_scenario over its first CELL_REPS
replications.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from worker import METHODS, ROOT, WINDOW, WORKLOADS, import_program  # first: it pins BLAS

from inputs import write_inputs  # noqa: E402 - after the pin

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def capture(name, wl) -> dict:
    if name == "rolling_fred":
        result = wl.rf.rolling_estimate(wl.rf.DataPanel(wl.Y), WINDOW, wl.configs)
        return {"r_hat": "".join(wl.outcomes(result, wl.n_keys))}
    outs = [wl.run(k)[0][2] for k in range(wl.n_keys)]
    entry = {"r_hat": "".join(outs)}
    if name == "sim_c1":
        entry["cells"] = wl.report_cells()
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0", help="inclusive range, e.g. 0-19")
    args = parser.parse_args(argv)
    rf, cli, _ = import_program()
    ref = {"methods": list(METHODS), "workloads": {name: {"seeds": {}} for name in WORKLOADS}}
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for seed in seed_range(args.seeds):
            for name, cls in WORKLOADS.items():
                write_inputs(name, seed, tmp)
                wl = cls(rf, cli, seed, tmp)
                ref["workloads"][name]["seeds"][str(seed)] = capture(name, wl)
            print(f"seed {seed} captured", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
