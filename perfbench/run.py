"""The robustfactors benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {sim_c1,rolling_fred,estimate_csv} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The script writes the workload's inputs
from the seed into a temporary directory inside the checkout, times the
program in fresh worker processes (worker.py), checks every op's r_hat
against reference.json, prints each metric by name and unit, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the per-layer ones.
See README.md in this directory for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from worker import BLAS_THREADS, METHODS  # first: it pins the BLAS threads

import numpy as np  # noqa: E402 - after the pin

from inputs import write_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim_c1", "rolling_fred", "estimate_csv")
# Extra fresh processes that only import and warm up, half before the
# measured run and half after it, so that setup_s spans the run's time and
# one fast or slow moment of the machine moves it less.
SETUP_PROBES = 16
DEADLINE_S = 170  # the whole run must end within 180 s
# op_ms_tail: per workload, the highest of p50/p75/p90/p95/p99/p99.9 that
# leaves at least ten samples beyond it in a 30 s run at the commit that
# added the benchmark. It is fixed, so that a faster program, which times
# more ops, is still compared at the same percentile.
TAIL_PERCENTILE = {"sim_c1": 90.0, "rolling_fred": 90.0, "estimate_csv": 75.0}
# End-to-end times are scaled to the machine speed at which worker.speed_probe
# takes this long: a time t measured next to a probe of p seconds is reported
# as t * REFERENCE_PROBE_S / p. The shared 2-core box the benchmark was
# written on runs the probe in about 0.65 ms when it is not slowed down, and
# 40-70 % slower, for seconds to minutes, when it is; the program slows with
# it. The value only sets the scale; the raw times are in `details`.
REFERENCE_PROBE_S = 0.65e-3

# span name, or module prefix, -> per-layer metric of its self time (ms per op)
LAYER_METRICS = {
    "montecarlo.generate_panel": "montecarlo.generate_panel_ms",
    "elliptical.": "elliptical.sample_ms",
    "panel.ingest_csv": "panel.ingest_csv_ms",
    "panel.impute_column_mean": "panel.impute_ms",
    "panel.double_demean": "panel.double_demean_ms",
    "kendall.": "kendall.sample_ms",
    "spectrum.eigenvalues_sym": "spectrum.eig_kendall_ms",
    "spectrum.gram_eigenvalues": "spectrum.gram_eig_ms",
    "spectrum.build_spectrum": "spectrum.build_ms",
    "estimators.": "estimators.self_ms",
    "rolling.window": "rolling.self_ms",
    "cli.main": "cli.self_ms",
}
# Spans around the benchmark's own code: "op" wraps one op of sim_c1 or
# estimate_csv, and a rolling_estimate call's time outside its windows
# belongs to no op. Their self time is the unaccounted remainder.
GLUE_SPANS = ("op", "rolling.rolling_estimate")
# counts: per-op median, except the totals marked True
COUNT_METRICS = {
    "kendall.pairs": False,
    "kendall.pairs_dropped": True,
    "kendall.invariant_fail": True,
    "panel.cells_parsed": False,
    "panel.cells_imputed": False,
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def environment(root: Path) -> dict:
    """What the numbers depend on: code version, machine and libraries."""
    sha = "unavailable"
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py")
    )
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "src_lines": src_lines,
    }


def run_worker(args: list[str], out: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--out", str(out)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def tail(latencies_ms: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank ``percentile`` of the latencies, and how many samples lie beyond it."""
    ordered = sorted(latencies_ms)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def load_reference(workload: str, seed: int):
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    entry = ref["workloads"][workload]["seeds"].get(str(seed))
    if entry is None:
        return None, None
    step = len(METHODS)
    rhat = entry["r_hat"]
    return [rhat[i : i + step] for i in range(0, len(rhat), step)], entry.get("cells")


def check(records, reference) -> tuple[int, int, list[str]]:
    """(attempted, failed, the first problems): failures are exceptions and r_hat mismatches."""
    failed = 0
    problems = []
    for key, latency, out, _ in records:
        bad = latency is None or (reference is not None and out != reference[key])
        if bad:
            failed += 1
            if len(problems) < 5:
                want = "" if reference is None else f", want {reference[key]}"
                problems.append(f"op key {key}: got {out}{want}")
    return len(records), failed, problems


def metric_of(span_name: str) -> str | None:
    return LAYER_METRICS.get(span_name) or LAYER_METRICS.get(span_name.split(".")[0] + ".")


def layer_metrics(spans, counts) -> tuple[dict, dict]:
    """Per-layer metrics, and each span name's share of the traced time, from the spans.

    A span's self time is its duration minus its children's. A layer metric
    sums the self time of its spans within an op and takes the median over
    ops; a layer the workload never calls reads 0.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_ms = defaultdict(lambda: defaultdict(float))  # metric -> op -> ms
    by_name = defaultdict(float)
    traced_ms = 0.0
    for sid, (name, start, end, parent, op) in enumerate(spans):
        own = (end - start - child_time[sid]) * 1e3
        by_name[name] += own
        if parent is None:
            traced_ms += (end - start) * 1e3
        metric = metric_of(name)
        if metric is not None:
            self_ms[metric][op] += own
    per_op_counts = defaultdict(lambda: defaultdict(int))
    for name, value, op in counts:
        per_op_counts[name][op] += value

    metrics = {}
    for metric in LAYER_METRICS.values():
        values = self_ms[metric].values()
        metrics[metric] = statistics.median(values) if values else 0.0
    for metric, total in COUNT_METRICS.items():
        values = per_op_counts[metric].values()
        if total:
            metrics[metric] = sum(values)
        else:
            metrics[metric] = statistics.median(values) if values else 0
    kendall = self_ms["kendall.sample_ms"]
    pairs = per_op_counts["kendall.pairs"]
    rates = [pairs[op] / (ms / 1e3) for op, ms in kendall.items() if ms > 0]
    metrics["kendall.pairs_per_s"] = statistics.median(rates) if rates else 0.0
    glue = sum(by_name.get(name, 0.0) for name in GLUE_SPANS)
    metrics["trace.unaccounted_frac"] = glue / traced_ms if traced_ms else 0.0
    shares = {name: ms / traced_ms for name, ms in sorted(by_name.items()) if traced_ms}
    return metrics, {"self_time_share_by_span": shares}


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured next to a speed probe of ``probe_s``, at the reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


def ops_per_s(phase, scale=True) -> float:
    """Ops per second of the time spent in the program's calls."""
    wall = (scaled(w, p) if scale else w for w, p in phase["calls"])
    return len(phase["records"]) / sum(wall)


def setup_sample(res) -> tuple[float, float]:
    """(scaled, raw) set-up time of one worker: import plus warm-up op."""
    raw = res["import_s"] + res["warmup_s"]
    return scaled(raw, res["setup_probe_s"]), raw


def end_to_end_metrics(res, setup, workload, notes) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced run, and what they rest on."""
    phase = res["untraced"]
    done = [(lat * 1e3, probe) for _, lat, _, probe in phase["records"] if lat is not None]
    if not done:
        raise BenchError("no op completed")
    latencies = [scaled(ms, probe) for ms, probe in done]
    percentile = TAIL_PERCENTILE[workload]
    tail_ms, beyond = tail(latencies, percentile)
    if beyond < 10:
        notes.append(f"op_ms_tail (p{percentile:g}) has only {beyond} samples beyond it")
    setup = [*setup, setup_sample(res)]
    metrics = {
        "ops_per_s": ops_per_s(phase),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_tail": tail_ms,
        "setup_s": statistics.median(s for s, _ in setup),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }
    probes_ms = [probe * 1e3 for _, probe in phase["calls"]]
    details = {
        "op_ms_tail_percentile": percentile,
        "op_ms_tail_samples_beyond": beyond,
        "latency_samples": len(latencies),
        "raw": {
            "ops_per_s": ops_per_s(phase, scale=False),
            "op_ms_p50": statistics.median(ms for ms, _ in done),
            "op_ms_tail": tail([ms for ms, _ in done], percentile)[0],
            "setup_s": statistics.median(raw for _, raw in setup),
        },
        "probe_ms_quartiles": statistics.quantiles(probes_ms, n=4) if len(probes_ms) > 1 else probes_ms,
        "setup_samples_s": [s for s, _ in setup],
    }
    return metrics, details


def per_layer_metrics(res) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run, and each span name's share of its time."""
    metrics, details = layer_metrics(res["spans"], res["counts"])
    metrics["kendall.invariant_fail"] += res["probe"]["invariant_fail"]
    metrics["kendall.peak_alloc_mb"] = res["probe"]["peak_alloc_bytes"] / 2**20
    # Both rates count only the program's calls, at the reference speed, so
    # neither the traced half's invariant checks nor a change of machine
    # speed between the halves counts as tracing overhead.
    untraced, traced = res["untraced"], res["traced"]
    metrics["trace.overhead_frac"] = ops_per_s(untraced) / ops_per_s(traced) - 1.0
    details["traced_ops"] = len(traced["records"])
    return metrics, details


def run_workload(args) -> tuple[dict, list[tuple[float, float]]]:
    """Write the inputs, run the set-up probes and the measuring worker, clean up."""
    deadline = time.monotonic() + DEADLINE_S
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        write_inputs(args.workload, args.seed, tmp)
        common = ["--workload", args.workload, "--seed", str(args.seed), "--inputs", str(tmp)]
        setup = []

        def probe_setup(count):
            for _ in range(0 if args.trace else count):
                res = run_worker([*common, "--mode", "setup"], tmp / "setup.json", deadline)
                setup.append(setup_sample(res))

        probe_setup(SETUP_PROBES // 2)
        run_args = [*common, "--mode", "run", "--seconds", str(args.seconds)]
        if args.trace:
            run_args.append("--trace")
        res = run_worker(run_args, tmp / "run.json", deadline)
        probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
        return res, setup
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def report(args, config, res, setup) -> dict:
    """Check the outputs, print every metric, and return the result object."""
    reference, cells_ref = load_reference(args.workload, args.seed)
    records = res["untraced"]["records"] + res.get("traced", {}).get("records", [])
    attempted, failed, notes = check(records, reference)
    if reference is None:
        notes.append(
            f"no reference r_hat for seed {args.seed}: failures counted from "
            "exceptions and Kendall invariants only"
        )
    cells_ok = cells_ref is None or res.get("cells", cells_ref) == cells_ref
    if not cells_ok:
        notes.append(f"C1 report cells {res['cells']} differ from reference {cells_ref}")
    if args.trace:
        section = "per_layer"
        metrics, details = per_layer_metrics(res)
        invariant_fail = metrics["kendall.invariant_fail"]
    else:
        section = "end_to_end"
        metrics, details = end_to_end_metrics(res, setup, args.workload, notes)
        invariant_fail = res["probe"]["invariant_fail"]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    declared = config[section]
    for m in declared:
        print(f"{m['name']:<28} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"{'fail_frac':<28} {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    for line in notes:
        print(f"note: {line}")
    print("details " + json.dumps(details))
    print("env " + json.dumps(environment(ROOT)))
    return {
        "correct": failed == 0 and invariant_fail == 0 and cells_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="robustfactors benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "robustfactors" / "__init__.py").is_file():
        print(f"error: no robustfactors sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        res, setup = run_workload(args)
        result = report(args, config, res, setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
