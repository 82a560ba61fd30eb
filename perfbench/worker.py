"""One measured process of the benchmark.

run.py starts this script in a fresh interpreter for every measurement, so
that set-up time and peak memory belong to one workload:

    worker.py --workload W --seed N --inputs DIR --out FILE --mode setup
    worker.py --workload W --seed N --inputs DIR --out FILE --mode run --seconds S [--trace]

Both modes import robustfactors from this checkout's ``src/`` and run one
untimed warm-up op. ``run`` then times ops in a closed loop (one caller, each
op starts after the previous one returns) and writes every op's latency and
output to FILE. With ``--trace`` the first half of the run is untraced and
the second half traced: every public function of a robustfactors module is
wrapped, wherever another module or the package binds it, in a span that
records its name, start, end, parent and op. Nothing under ``src/`` changes;
the bindings are restored when the traced half ends.

Around every op (every rolling_estimate call, for rolling_fred) the worker
times ``speed_probe``, a fixed numpy loop that does not touch the program, so
that run.py can scale each op's time to one machine speed. Both modes also
time the probe right after the warm-up op, for setup_s.

Only public API that survives the planned kernel and API cuts is called: no
backend or worker arguments, no per-method wrappers, no EigenSpectrum.lam or
.tail, nothing from private modules.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import io
import json
import os
import resource
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

# One BLAS thread, at most nproc: on a 2-core box two threads tripled the
# p95 latency of sim_c1, whose small GEMMs spin-wait. Set here, before any
# benchmark process loads numpy; worker processes inherit it as well.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# numpy is left to the program's import, whose time is part of setup_s.

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("mker", "mktcr", "er", "gr", "tcr")
WINDOW = 150  # rolling_fred window length
PANEL_FILE = "panel.npy"  # rolling_fred input
CSV_FILE = "panel.csv"  # estimate_csv input
SIM_REPS = 500  # sim_c1 cycles over replications 0..SIM_REPS-1
CELL_REPS = 50  # replications of the run_scenario report checked after a sim_c1 run
SETUP_PROBE_REPS = 3  # speed probes after the warm-up op; their median scales setup_s
ROLL_CHUNK = 10  # windows per rolling_estimate call


def import_program():
    """Import robustfactors from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    rf = importlib.import_module("robustfactors")
    cli = importlib.import_module("robustfactors.cli")
    seconds = time.perf_counter() - t0
    if Path(rf.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"robustfactors imported from {rf.__file__}, not from {src}")
    return rf, cli, seconds


class Tracer:
    """Spans [name, start, end, parent, op] and counts (name, value, op), kept in memory.

    A span's parent is the span open when it started. Kendall matrices seen
    by a span are checked against their invariants after the op, outside
    every span.
    """

    def __init__(self, rf):
        self.rf = rf
        self.spans: list[list] = []
        self.counts: list[tuple[str, int, int]] = []
        self.op = -1
        self._stack: list[int] = []
        self._pending = []
        self._verify = rf.verify_kendall_invariants  # taken before any wrapping

    @contextmanager
    def span(self, name, op=None):
        if op is not None:
            self.op = op
        sid = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[1] = time.perf_counter()
        try:
            yield sid
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counts.append((name, int(value), self.op))

    def wrap(self, func, name):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name, args, result):
        if isinstance(result, self.rf.KendallTauMatrix):
            self.count("kendall.pairs", result.n_pairs)
            self.count("kendall.pairs_dropped", result.degenerate_pairs_dropped)
            self._pending.append(result)
        elif name == "panel.ingest_csv":
            self.count("panel.cells_parsed", result.values.size)
        elif name == "panel.impute_column_mean":
            self.count("panel.cells_imputed", args[0].missing_mask.sum())

    def check_pending(self):
        for kt in self._pending:
            try:
                self._verify(kt)
            except self.rf.InvariantError:
                self.count("kendall.invariant_fail", 1)
        self._pending.clear()

    def split_windows(self, stamps, first_op):
        """Cut the rolling_estimate span that just ended into one span per window.

        Window j runs from the previous progress stamp (or the call's start)
        to stamp j; the spans opened during it become its children.
        """
        chunk = max(sid for sid, rec in enumerate(self.spans) if rec[3] is None)
        start = self.spans[chunk][1]
        windows = {}
        for j, stamp in enumerate(stamps):
            windows[first_op + j] = len(self.spans)
            self.spans.append(["rolling.window", start, stamp, chunk, first_op + j])
            start = stamp
        for rec in self.spans[chunk + 1 : min(windows.values(), default=chunk + 1)]:
            if rec[3] == chunk and rec[4] in windows:
                rec[3] = windows[rec[4]]


@contextmanager
def instrumented(tr):
    """Wrap each public function of a robustfactors module where another module binds it.

    Calls inside one module are not wrapped, so a span covers one call into a
    layer. Private modules (a leading underscore) are left alone.
    """
    modules = {
        name: mod for name, mod in sys.modules.items()
        if name.split(".")[0] == "robustfactors" and not name.split(".")[-1].startswith("_")
    }
    wrappers = {}
    patched = []
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            home = getattr(value, "__module__", None)
            if not inspect.isfunction(value) or home == mod.__name__ or home not in modules:
                continue
            if attr not in getattr(modules[home], "__all__", ()):
                continue
            if value not in wrappers:
                wrappers[value] = tr.wrap(value, f"{home.split('.')[-1]}.{value.__name__}")
            patched.append((mod, attr, value))
            setattr(mod, attr, wrappers[value])
    try:
        yield
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def op_span(tr, i):
    """The root span of op ``i``, or nothing when tracing is off."""
    return nullcontext() if tr is None else tr.span("op", op=i)


def outcome(results) -> str:
    """The r_hat of every method as one digit string, in METHODS order."""
    return "".join(str(results[m].r_hat) for m in METHODS)


class Workload:
    """Shared pieces: the program modules and the five default configs.

    ``run(i, tr)`` performs op i (several, for rolling_fred) and returns one
    (key, latency_s, r_hat digits) record per op; ``tr`` is None when
    tracing is off. Keys index the reference outputs.
    """

    n_keys = 1

    def __init__(self, rf, cli, seed, inputs):
        self.rf = rf
        self.cli = cli
        self.seed = seed
        self.configs = rf.method_configs(METHODS)

    def keys(self, i):
        return [i % self.n_keys]


class SimC1(Workload):
    """One Monte Carlo replication of scenario C1 at N = T = 100, all five methods."""

    n_keys = SIM_REPS

    def __init__(self, rf, cli, seed, inputs):
        super().__init__(rf, cli, seed, inputs)
        self.spec = rf.make_scenario("C1", N=100, T=100)
        self.base = rf.RngStream(seed, 0)

    def run(self, i, tr=None):
        k = i % SIM_REPS
        with op_span(tr, i):
            t0 = time.perf_counter()
            panel = self.rf.generate_panel(self.spec, k, self.base)
            results = self.rf.estimate_many(panel, self.configs)
            latency = time.perf_counter() - t0
        return [(k, latency, outcome(results))]

    def probe_panel(self):
        return self.rf.generate_panel(self.spec, 0, self.base)

    def report_cells(self):
        """x(y|z) cells of run_scenario over the first CELL_REPS replications."""
        spec = self.rf.make_scenario("C1", N=100, T=100, reps=CELL_REPS)
        report = self.rf.run_scenario(spec, self.configs, master_seed=self.seed)
        return {m: report.per_method[m].cell() for m in METHODS}


class RollingFred(Workload):
    """Trailing windows of rolling_estimate over a 708 x 128 t3 panel; one op per window.

    Each call covers ROLL_CHUNK consecutive windows of the panel, so the run
    can stop between calls; a window's latency is the interval between
    progress callbacks.
    """

    def __init__(self, rf, cli, seed, inputs):
        super().__init__(rf, cli, seed, inputs)
        import numpy as np

        self.Y = np.load(inputs / PANEL_FILE)
        self.n_keys = self.Y.shape[0] - WINDOW + 1

    def keys(self, i):
        w0 = i % self.n_keys
        return list(range(w0, min(w0 + ROLL_CHUNK, self.n_keys)))

    def outcomes(self, result, count):
        paths = {m: result.by_method(m) for m in METHODS}
        return ["".join(str(paths[m][j][1]) for m in METHODS) for j in range(count)]

    def run(self, i, tr=None):
        keys = self.keys(i)
        sub = self.rf.DataPanel(self.Y[keys[0] : keys[-1] + WINDOW])
        stamps = []

        def progress(done, total):
            stamps.append(time.perf_counter())
            if tr is not None:
                tr.op += 1

        if tr is not None:
            tr.op = i
        t0 = time.perf_counter()
        result = self.rf.rolling_estimate(sub, WINDOW, self.configs, progress=progress)
        if tr is not None:
            tr.split_windows(stamps, i)
        latencies = [end - start for start, end in zip([t0, *stamps], stamps)]
        return list(zip(keys, latencies, self.outcomes(result, len(keys))))

    def probe_panel(self):
        return self.rf.DataPanel(self.Y[:WINDOW])


class EstimateCsv(Workload):
    """One in-process `robustfactors estimate --json` on a 708 x 128 Cauchy CSV."""

    def __init__(self, rf, cli, seed, inputs):
        super().__init__(rf, cli, seed, inputs)
        self.path = inputs / CSV_FILE
        self.argv = ["estimate", "--input", str(self.path), "--time-column", "--json"]

    def run(self, i, tr=None):
        out = io.StringIO()
        with op_span(tr, i):
            t0 = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                with nullcontext() if tr is None else tr.span("cli.main"):
                    code = self.cli.main(self.argv)
            if code != 0:
                raise RuntimeError(f"cli.main exited with {code}")
            results = json.loads(out.getvalue())["results"]
            latency = time.perf_counter() - t0
        return [(0, latency, "".join(str(results[m]["r_hat"]) for m in METHODS))]

    def probe_panel(self):
        return self.rf.impute_column_mean(self.rf.ingest_csv(self.path, has_time_column=True))


WORKLOADS = {"sim_c1": SimC1, "rolling_fred": RollingFred, "estimate_csv": EstimateCsv}


def measure(wl, seconds, tr=None):
    """Closed loop for ``seconds``.

    Returns one record (key, latency_s or None, output, probe_s) per op, and
    one (wall_s, probe_s) per call of ``wl.run``: probe_s is the mean of the
    speed probes just before and just after that call, and wall_s leaves out
    the probes and the invariant checks. An op that raises is recorded with
    latency None and output "!<error>"; the loop goes on, because the
    benchmark reports failures rather than stopping.
    """
    records, calls = [], []
    i = 0
    before = speed_probe()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        keys = wl.keys(i)
        t0 = time.perf_counter()
        try:
            batch = wl.run(i, tr)
        except Exception as exc:  # noqa: BLE001 - count the failure and keep measuring
            batch = [(k, None, f"!{type(exc).__name__}: {exc}") for k in keys]
        wall = time.perf_counter() - t0
        after = speed_probe()
        probe = (before + after) / 2
        before = after
        if tr is not None:
            tr.check_pending()
        records.extend((*rec, probe) for rec in batch)
        calls.append((wall, probe))
        i += len(keys)
    return {"records": records, "calls": calls}


def speed_probe() -> float:
    """Seconds of a fixed numpy loop (no BLAS, no program code), under 1 ms.

    Its time follows the machine's speed, which on a shared box changes by
    tens of percent for seconds at a time; run.py divides op times by it.
    The arrays stay small, so that malloc serves them without mmap and the
    program's own allocations cannot change the probe's time.
    """
    import numpy as np  # imported by the program already; this only binds it

    A = np.sin(np.arange(4096.0)).reshape(64, 64)  # np.random would cost 6 MB of RSS
    t0 = time.perf_counter()
    for row in A:
        np.sign(row - A).sum()
    return time.perf_counter() - t0


def kendall_probe(wl):
    """Invariant check and tracemalloc peak of one Kendall call on a workload panel."""
    rf = wl.rf
    Y = rf.double_demean(wl.probe_panel()).values
    tracemalloc.start()
    try:
        kt = rf.sample_kendall_tau(Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    try:
        rf.verify_kendall_invariants(kt)
        failures = 0
    except rf.InvariantError:
        failures = 1
    return {"invariant_fail": failures, "peak_alloc_bytes": peak}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one measured benchmark process")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    rf, cli, import_s = import_program()
    wl = WORKLOADS[args.workload](rf, cli, args.seed, args.inputs)
    t0 = time.perf_counter()
    wl.run(wl.n_keys - 1)
    warmup_s = time.perf_counter() - t0
    speed_probe()  # its first call pays numpy's own lazy set-up
    probes = sorted(speed_probe() for _ in range(SETUP_PROBE_REPS))
    out = {"import_s": import_s, "warmup_s": warmup_s, "setup_probe_s": probes[len(probes) // 2]}
    if args.mode == "run":
        if args.trace:
            half = args.seconds / 2
            out["untraced"] = measure(wl, half)
            tr = Tracer(rf)
            with instrumented(tr):
                out["traced"] = measure(wl, half, tr)
            out["spans"] = tr.spans
            out["counts"] = tr.counts
        else:
            out["untraced"] = measure(wl, args.seconds)
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["probe"] = kendall_probe(wl)
        if args.workload == "sim_c1":
            out["cells"] = wl.report_cells()
    args.out.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
