"""Command-line entry point: simulate paths and run the Monte Carlo studies.

Exit codes: 0 success, 2 config/usage error, 3 numeric abort (blow-up).
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import _record_flags, apply_overrides, build_study_spec, load_config
from .errors import ConfigError, NumericError
from .plots import write_line_plot
from .selftest import run_selftest
from .solver import SERIES_COLUMNS, _series_path
from .studies import (
    StudyReport,
    energy_study,
    isometry_study,
    lambda_convergence_study,
    pairing_study,
    write_csv,
    write_field_csv,
)

STUDIES = ("simulate", "energy", "pairing", "lambda-conv", "isometry", "selftest")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stochwave",
        description="Spectral simulator and Monte Carlo studies for a regularized "
        "semilinear stochastic wave equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STUDIES:
        p = sub.add_parser(name)
        if name == "selftest":
            continue
        p.add_argument("--config", help="path to a sectioned key=value config file")
        p.add_argument("--outdir", default="out", help="output directory (default: out)")
        # appended, so that a flag given twice reaches apply_overrides twice and is rejected
        p.add_argument("--seed", type=int, action="append", help="override study.seed")
        p.add_argument("--workers", type=int, action="append", help="override study.workers")
        p.add_argument("--n-paths", type=int, action="append", help="override study.n_paths")
        p.add_argument("--lambda-grid", action="append", help="override study.lambda_grid (comma separated)")
        p.add_argument("--eps-grid", action="append", help="override study.eps_grid")
        p.add_argument(
            "--set",
            action="append",
            dest="overrides",
            metavar="SECTION.KEY=VALUE",
            help="override any config key; may be repeated",
        )
    return parser


def _gather_values(args):
    direct = {
        "study.seed": args.seed,
        "study.workers": args.workers,
        "study.n_paths": args.n_paths,
        "study.lambda_grid": args.lambda_grid,
        "study.eps_grid": args.eps_grid,
    }
    # each direct flag is one more --set, so a key given twice by either is rejected
    flags = [f"{key}={value}" for key, values in direct.items() for value in values or ()]
    return apply_overrides(load_config(args.config), (args.overrides or []) + flags)


def _plot_report(report, outdir):
    path = os.path.join(outdir, f"{report.name}.svg")
    if report.name == "simulate":
        ts = [r[0] for r in report.rows]
        series = [(label, ts, [r[k] for r in report.rows]) for k, label in ((1, "energy"), (2, "lyapunov"))]
        write_line_plot(path, "single-path functionals", "t", "value", series)
    elif report.name == "energy":
        xs = [r[0] for r in report.rows]
        ys = [r[1] for r in report.rows]
        write_line_plot(path, "sup-energy vs regularization", "lambda", "estimate",
                        [("E sup energy", xs, ys)], logx=True)
    elif report.name == "pairing":
        by_eps = {}
        for lam, eps, est, _, _ in report.rows:
            by_eps.setdefault(eps, ([], []))
            by_eps[eps][0].append(lam)
            by_eps[eps][1].append(est)
        series = [(f"eps={eps:g}", xs, ys) for eps, (xs, ys) in by_eps.items()]
        write_line_plot(path, "monotone pairing integral", "lambda", "estimate", series, logx=True)
    elif report.name == "lambda-conv":
        xs = [r[0] for r in report.rows]
        series = [
            ("sup-u gap", xs, [r[2] for r in report.rows]),
            ("beta L1 gap", xs, [r[4] for r in report.rows]),
        ]
        write_line_plot(path, "coupled-noise Cauchy gaps", "lambda_hi", "gap", series,
                        logx=True, logy=True)
    elif report.name == "isometry":
        idx = list(range(len(report.rows)))
        series = [
            ("estimate", idx, [r[1] for r in report.rows]),
            ("target", idx, [r[2] for r in report.rows]),
        ]
        write_line_plot(path, "driver checks", "check index", "value", series)


def cli_main(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "selftest":
        failures = run_selftest()
        return 0 if failures == 0 else 1
    try:
        values = _gather_values(args)
        spec = build_study_spec(values)  # simulate runs its base config's one path
        if args.command == "simulate" and "functionals" not in _record_flags(values):
            raise ConfigError("simulate writes the functional series; add 'functionals' to solver.record")
        if args.command == "simulate":
            series, result = _series_path(spec.base, 0)
            report = StudyReport("simulate", SERIES_COLUMNS, series.tolist())
        else:
            runner = {
                "energy": energy_study,
                "pairing": pairing_study,
                "lambda-conv": lambda_convergence_study,
                "isometry": isometry_study,
            }[args.command]
            report = runner(spec)
        os.makedirs(args.outdir, exist_ok=True)  # once the report is computed: a failed run leaves no directory
        if args.command == "simulate":
            write_field_csv(spec.base.grid, result.u_final, os.path.join(args.outdir, "final_u.csv"))
        csv_path = os.path.join(args.outdir, f"{report.name}.csv")
        write_csv(report, csv_path)
        _plot_report(report, args.outdir)
        for lam, steps in report.meta.get("blowup_steps", {}).items():
            print(
                f"warning: lambda={lam:g}: {len(steps)} path(s) hit the blow-up guard (first at step {min(steps)})",
                file=sys.stderr,
            )
        print(f"wrote {csv_path}")
        return 0
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
