"""Command-line interface: simulate, estimate, rolling, catalog.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure,
3 internal invariant violation. Progress goes to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from ._errors import InvariantError, NumericalError
from .estimators import ALL_METHODS, EstimatorConfig, estimate_many
from .montecarlo import (
    DIST_CHOICES,
    MonteCarloReport,
    ScenarioSpec,
    make_scenario,
    method_configs,
    run_scenario,
    scenario_catalog,
)
from .panel import DataPanel, impute_column_mean, ingest_csv
from .rolling import RollingResult, rolling_estimate

__all__ = ["main"]

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _progress_printer(tag: str):
    def report(done: int, total: int):
        if done % max(1, total // 10) == 0 or done == total:
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


def _add_method_flags(sub):
    sub.add_argument("--methods", help=f"comma list from {','.join(ALL_METHODS)} (default all)")
    sub.add_argument("--kmax", type=int, default=EstimatorConfig.k_max,
                     help="largest candidate factor count (default %(default)s)")
    sub.add_argument("--c", type=float, default=EstimatorConfig.c, help="regularization constant")


def _write_report_csv(report: MonteCarloReport, path) -> None:
    """CSV with columns scenario, method, N, T, mean, under, over, reps, seed."""
    spec = report.scenario
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "method", "N", "T", "mean", "under", "over", "reps", "seed"])
        for name, stats in report.per_method.items():
            writer.writerow(
                [spec.label, name, spec.N, spec.T, f"{stats.mean:.6f}",
                 stats.under, stats.over, spec.reps, report.seed]
            )


def _format_report_table(report: MonteCarloReport) -> str:
    """Aligned x(y|z) table mirroring the simulation study's cell format."""
    spec = report.scenario
    lines = [
        f"scenario {spec.label}  N={spec.N} T={spec.T} r={spec.r} "
        f"reps={spec.reps} seed={report.seed}",
        f"{'method':<8}{'x(y|z)':>18}",
    ]
    for name, stats in report.per_method.items():
        lines.append(f"{name:<8}{stats.cell():>18}")
    return "\n".join(lines)


def _write_rolling_csv(result: RollingResult, path) -> None:
    """CSV with a time_label column and one integer column per method."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_label", *result.methods])
        writer.writerows(result.rows)


def _cmd_simulate(args) -> int:
    spec = make_scenario(args.scenario, N=args.N, T=args.T, dist=args.dist, snr=args.snr,
                         reps=args.reps)
    configs = method_configs(args.methods, k_max=args.kmax, c=args.c)
    report = run_scenario(spec, configs, master_seed=args.seed,
                          progress=_progress_printer("simulate"))
    print(_format_report_table(report))
    if args.out:
        _write_report_csv(report, args.out)
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
    result = rolling_estimate(panel, args.window, configs, progress=_progress_printer("rolling"))
    if args.out:
        _write_rolling_csv(result, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print("time_label " + " ".join(result.methods))
        for row in result.rows:
            print(" ".join(map(str, row)))
    return 0


def _cmd_catalog(args) -> int:
    for name, line in scenario_catalog().items():
        print(f"{name:<4} {line}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="robustfactors",
                     description="Factor-count estimation that stays reliable under heavy tails.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    sim.add_argument("--scenario", required=True, help="catalog name, e.g. A or C1")
    sim.add_argument("--dist", choices=DIST_CHOICES,
                     help="driving distribution (scenario A only)")
    sim.add_argument("--N", type=int, help="cross-section size")
    sim.add_argument("--T", type=int, help="series length")
    sim.add_argument("--reps", type=int, default=ScenarioSpec.reps,
                     help="replications (default %(default)s)")
    sim.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sim.add_argument("--snr", type=float, help="factor strength for B3/B5/C3/C5")
    _add_method_flags(sim)
    sim.add_argument("--out", help="write per-method CSV here")
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="estimate the factor count of a CSV panel")
    _add_input_flags(est)
    _add_method_flags(est)
    est.add_argument("--allow-zero", action="store_true",
                     help="let the estimators return zero factors")
    est.add_argument("--json", action="store_true", help="machine-readable output")
    est.set_defaults(func=_cmd_estimate)

    roll = sub.add_parser("rolling", help="rolling-window estimates over a CSV panel")
    _add_input_flags(roll)
    roll.add_argument("--window", type=int, default=150, help="window length (default 150)")
    _add_method_flags(roll)
    roll.add_argument("--out", help="write the per-window CSV here")
    roll.set_defaults(func=_cmd_rolling)

    cat = sub.add_parser("catalog", help="list the simulation scenarios")
    cat.set_defaults(func=_cmd_catalog)

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
