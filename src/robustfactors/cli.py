"""Command-line interface: simulate, estimate, rolling, catalog, selfcheck.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure,
3 internal invariant violation. Progress goes to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from ._errors import InvariantError, NumericalError
from .elliptical import RngStream
from .estimators import estimate_many
from .kendall import sample_kendall_tau, verify_kendall_invariants
from .montecarlo import (
    format_report_table,
    generate_panel,
    make_scenario,
    method_configs,
    run_scenario,
    scenario_catalog,
    write_report_csv,
)
from .panel import DataPanel, double_demean, impute_column_mean, ingest_csv
from .rolling import rolling_estimate, write_rolling_csv
from .spectrum import build_spectrum, eigenvalues_sym

__all__ = ["main"]

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _progress_printer(tag: str, total: int):
    step = max(1, total // 10)

    def report(done: int, _total: int):
        if done % step == 0 or done == total:
            print(f"{tag}: {done}/{total}", file=sys.stderr)

    return report


def _load_panel(args) -> DataPanel:
    panel = ingest_csv(
        args.input,
        has_header=not args.no_header,
        has_time_column=args.time_column,
    )
    if panel.has_missing:
        n_missing = int(panel.missing_mask.sum())
        print(f"imputing {n_missing} missing entries with column means", file=sys.stderr)
        panel = impute_column_mean(panel)
    return panel


def _add_input_flags(sub):
    sub.add_argument("--input", required=True, help="panel CSV, rows = time")
    sub.add_argument("--no-header", action="store_true", help="CSV has no header row")
    sub.add_argument(
        "--time-column", action="store_true",
        help="first CSV column holds time labels, not data",
    )


def _cmd_simulate(args) -> int:
    knobs = {"reps": args.reps}
    for key, value in [("N", args.N), ("T", args.T), ("dist", args.dist),
                       ("snr", args.snr), ("k_max", args.kmax)]:
        if value is not None:
            knobs[key] = value
    spec = make_scenario(args.scenario, **knobs)
    configs = method_configs(args.methods, k_max=spec.k_max, c=args.c)
    report = run_scenario(
        spec, configs, master_seed=args.seed,
        progress=_progress_printer("simulate", spec.reps),
    )
    print(format_report_table(report))
    if args.out:
        write_report_csv(report, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_estimate(args) -> int:
    panel = _load_panel(args)
    configs = method_configs(args.methods, k_max=args.kmax, c=args.c,
                             allow_zero=args.allow_zero)
    results = estimate_many(panel, configs)
    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "input": args.input,
            "N": panel.shape[1],
            "T": panel.shape[0],
            "k_max": args.kmax,
            "c": args.c,
            "allow_zero": args.allow_zero,
            "results": {
                name: {"r_hat": res.r_hat,
                       "criterion": [float(v) for v in res.ratio_series]}
                for name, res in results.items()
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, res in results.items():
            series = ",".join(f"{v:.6g}" for v in res.ratio_series)
            print(f"{name} r_hat={res.r_hat} criterion={series}")
    return 0


def _cmd_rolling(args) -> int:
    panel = _load_panel(args)
    configs = method_configs(args.methods, k_max=args.kmax, c=args.c)
    n_windows = max(panel.shape[0] - args.window + 1, 1)
    result = rolling_estimate(
        panel, args.window, configs,
        progress=_progress_printer("rolling", n_windows),
    )
    if args.out:
        write_rolling_csv(result, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print("time_label " + " ".join(result.methods))
        for row in result.rows():
            print(" ".join(map(str, row)))
    return 0


def _cmd_catalog(args) -> int:
    for name, build in scenario_catalog().items():
        print(f"{name:<4} {build.__doc__}")
    return 0


def _cmd_selfcheck(args) -> int:
    rng = RngStream(args.seed, 0)
    checks = 0

    def ok(label: str):
        nonlocal checks
        checks += 1
        print(f"ok: {label}")

    spec = make_scenario("A", dist="gaussian", N=30, T=40, reps=1)
    panel = generate_panel(spec, 0, rng)
    Y = double_demean(panel).values

    kt = sample_kendall_tau(Y)
    if args.corrupt:
        matrix = kt.matrix.copy()
        matrix[0, 1] += 1e-3
        kt = replace(kt, matrix=matrix)
    verify_kendall_invariants(kt)
    ok("kendall matrix invariants (symmetry, unit trace, psd)")

    small = Y[:12, :5]
    ref = np.zeros((5, 5))
    for i in range(12):
        for j in range(i + 1, 12):
            d = small[i] - small[j]
            ref += np.outer(d, d) / (d @ d)
    ref /= 12 * 11 / 2
    got = sample_kendall_tau(small).matrix
    if np.max(np.abs(got - ref)) > 1e-12:
        raise InvariantError("pairwise kernel disagrees with direct enumeration")
    ok("kendall kernel matches direct enumeration")

    if not np.array_equal(kt.matrix, sample_kendall_tau(Y).matrix):
        raise InvariantError("repeated calls changed the kendall matrix")
    ok("repeated calls are bit-identical")

    raw = eigenvalues_sym(kt.matrix)
    vals, vecs = np.linalg.eigh(kt.matrix)
    err = float(np.linalg.norm((vecs * vals) @ vecs.T - kt.matrix))
    if err > 1e-8 * float(np.linalg.norm(kt.matrix)):
        raise InvariantError(f"eigendecomposition reconstruction error {err:.3e} too large")
    if np.max(np.abs(raw - vals[::-1])) > 1e-12:
        raise InvariantError("eigenvalues_sym disagrees with the full eigendecomposition")
    ok("eigenvalues match a full eigendecomposition that reconstructs the matrix")

    spec60 = build_spectrum(raw, panel.shape[1], panel.shape[0], c=0.05)
    V = spec60.tail_sums
    for j in range(spec60.size - 1):
        if abs(V[j] - V[j + 1] - spec60.regularized[j]) > 1e-12:
            raise InvariantError("tail sums fail the telescoping identity")
    ok("spectrum tail sums telescope")

    hits = 0
    for rep in range(3):
        p = generate_panel(make_scenario("A", dist="gaussian", N=60, T=60, reps=1), rep, rng)
        res = estimate_many(p, method_configs("mker"))
        hits += res["mker"].r_hat == 3
    if hits != 3:
        raise NumericalError(f"factor recovery failed ({hits}/3 runs found r=3)")
    ok("recovers r=3 on easy synthetic panels")

    dd = double_demean(panel)
    if np.max(np.abs(double_demean(dd).values - dd.values)) > 1e-10:
        raise InvariantError("double demeaning is not idempotent")
    ok("double demeaning is idempotent")

    print(f"selfcheck passed ({checks} checks)")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="robustfactors",
                     description="Factor-count estimation that stays reliable under heavy tails.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    sim.add_argument("--scenario", required=True, help="catalog name, e.g. A or C1")
    sim.add_argument("--dist", choices=["gaussian", "t3", "t2", "cauchy"],
                     help="driving distribution (scenario A only)")
    sim.add_argument("--N", type=int, help="cross-section size")
    sim.add_argument("--T", type=int, help="series length")
    sim.add_argument("--reps", type=int, default=200, help="replications (default 200)")
    sim.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sim.add_argument("--snr", type=float, help="factor strength for B3/B5/C3/C5")
    sim.add_argument("--kmax", type=int, help="largest candidate factor count")
    sim.add_argument("--c", type=float, default=0.01, help="regularization constant")
    sim.add_argument("--methods", help="comma list from mker,mktcr,er,gr,tcr (default all)")
    sim.add_argument("--out", help="write per-method CSV here")
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="estimate the factor count of a CSV panel")
    _add_input_flags(est)
    est.add_argument("--methods", help="comma list from mker,mktcr,er,gr,tcr (default all)")
    est.add_argument("--kmax", type=int, default=8,
                     help="largest candidate factor count (default 8)")
    est.add_argument("--c", type=float, default=0.01, help="regularization constant")
    est.add_argument("--allow-zero", action="store_true",
                     help="let the estimators return zero factors")
    est.add_argument("--json", action="store_true", help="machine-readable output")
    est.set_defaults(func=_cmd_estimate)

    roll = sub.add_parser("rolling", help="rolling-window estimates over a CSV panel")
    _add_input_flags(roll)
    roll.add_argument("--window", type=int, default=150, help="window length (default 150)")
    roll.add_argument("--methods", help="comma list from mker,mktcr,er,gr,tcr (default all)")
    roll.add_argument("--kmax", type=int, default=8,
                     help="largest candidate factor count (default 8)")
    roll.add_argument("--c", type=float, default=0.01, help="regularization constant")
    roll.add_argument("--out", help="write the per-window CSV here")
    roll.set_defaults(func=_cmd_rolling)

    cat = sub.add_parser("catalog", help="list the simulation scenarios")
    cat.set_defaults(func=_cmd_catalog)

    check = sub.add_parser("selfcheck", help="run fast end-to-end sanity checks")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    check.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
