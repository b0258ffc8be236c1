"""Command line entry points.

Subcommands: fit, transect, grid, simulate, separability.  Exit codes:
0 success, 2 validation error, 3 numerical failure.

Input CSVs must be numeric with a header row; any response or feature
transformations (logs etc.) are expected to be applied before export.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import Dataset
from .cv import CvCellError, CvConfig, FLEX_CHOICES, INTERP_CHOICES, LearnerPair
from .data_io import CsvFormatError, LoadedCsv, load_csv
from .experiments import (
    run_example1,
    run_example2,
    run_table1,
    run_table2,
    write_result_files,
)
from .fitter import FitterError, fit_double_penalty
from .separability import empirical_theta, psi
from .transect import (
    DiagnosticRow,
    TransectConfig,
    grid_sweep,
    pearson,
    transect_sweep,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text}")
    return value


def _parse_log_grid(text: str) -> tuple[float, ...]:
    """'lo:hi:k' -> k log-spaced values from lo to hi inclusive."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec {text!r} is not lo:hi:k")
    lo, hi = float(parts[0]), float(parts[1])
    k = int(parts[2])
    if not (0 < lo < math.inf and 0 < hi < math.inf) or k < 1 or (k > 1 and lo >= hi):
        raise ValueError(f"grid spec {text!r} needs finite 0 < lo < hi and k >= 1")
    if k == 1:
        return (lo,)
    return tuple(np.logspace(math.log10(lo), math.log10(hi), k))


def _write_rows_csv(rows: list[DiagnosticRow], path: Path) -> None:
    lines = ["lambda_f,lambda_g,cor_f,cor_g,cor_total"]
    for row in rows:
        lines.append(",".join(repr(v) for v in
                              (row.lambda_f, row.lambda_g, row.cor_f,
                               row.cor_g, row.cor_total)))
    path.write_text("\n".join(lines) + "\n")


def _load(args) -> LoadedCsv:
    return load_csv(args.data, args.response)


def _cmd_fit(args) -> int:
    loaded = _load(args)
    data = loaded.data
    pair = LearnerPair(args.interp, args.flex)
    if args.gcv and args.flex != "kernel":
        raise ValueError("--gcv requires --flex kernel")
    if not args.gcv and args.lambda_g is None:
        raise ValueError("--lambda-g is required unless --gcv is given")
    fitter_f, fitter_g = pair.fitters(data, args.lambda_f, None if args.gcv else args.lambda_g)
    fit = fit_double_penalty(data, fitter_f, fitter_g)
    f_vals = fit.f_hat.fitted
    g_vals = fit.g_hat.fitted

    report = {
        "version": __version__,
        "data": str(args.data),
        "response": loaded.response_name,
        "features": list(loaded.feature_names),
        "dropped_features": list(loaded.dropped_columns),
        "interp": args.interp,
        "flex": args.flex,
        "lambda_f": args.lambda_f,
        "lambda_g": fitter_g.lam if args.gcv else args.lambda_g,
        "gcv": bool(args.gcv),
        "iterations": fit.iterations,
        "stop_reason": fit.stop_reason,
        "penalty_f": fit.f_hat.penalty_value,
        "penalty_g": fit.g_hat.penalty_value,
        "training_cor_f": pearson(data.y, f_vals) if np.ptp(f_vals) else 0.0,
        "training_cor_g": pearson(data.y, g_vals) if np.ptp(g_vals) else 0.0,
        "training_cor_total": pearson(data.y, f_vals + g_vals),
    }
    model = fit.f_hat.coefficients  # a LinearModel for both interpretable classes
    lo = np.array([r[0] for r in loaded.feature_ranges])
    hi = np.array([r[1] for r in loaded.feature_ranges])
    beta_unit = np.asarray(model.beta, dtype=float)
    beta_orig = beta_unit / (hi - lo)
    report["coefficients_unit"] = dict(zip(loaded.feature_names, map(float, beta_unit)))
    report["coefficients_original"] = dict(zip(loaded.feature_names, map(float, beta_orig)))
    report["intercept_original"] = float(model.intercept - beta_orig @ lo)
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} ({fit.iterations} iterations, {fit.stop_reason})")
    return EXIT_OK


def _cmd_transect(args) -> int:
    loaded = _load(args)
    config = TransectConfig(c=args.c, lambda_f_grid=_parse_log_grid(args.lf_grid),
                            pair=LearnerPair(args.interp, args.flex))
    cv = CvConfig(folds=args.cv_folds, repeats=args.cv_repeats, seed=args.seed)
    rows = transect_sweep(loaded.data, config, cv)
    if not rows:
        raise CvCellError("every transect cell failed")
    _write_rows_csv(rows, Path(args.out))
    best = max(rows, key=lambda r: r.cor_total)
    print(f"wrote {args.out}: {len(rows)} rows, best cor_total "
          f"{best.cor_total:.4f} at lambda_f={best.lambda_f:g}")
    return EXIT_OK


def _cmd_grid(args) -> int:
    loaded = _load(args)
    cv = CvConfig(folds=args.cv_folds, repeats=args.cv_repeats, seed=args.seed)
    result = grid_sweep(loaded.data, _parse_log_grid(args.lf_grid),
                        _parse_log_grid(args.lg_grid), cv,
                        pair=LearnerPair(args.interp, args.flex),
                        transect_c=args.c)
    _write_rows_csv(list(result.rows), Path(args.out))
    msg = f"wrote {args.out}: {len(result.rows)} cells, grid max {result.grid_max:.4f}"
    if result.gap is not None:
        msg += f", transect max {result.transect_max:.4f}, gap {result.gap:.4f}"
    print(msg)
    return EXIT_OK


_SIMULATORS = {"table1": run_table1, "table2": run_table2,
               "example1": run_example1, "example2": run_example2}


def _cmd_simulate(args) -> int:
    if args.experiment == "table2" and args.n is not None:
        raise ValueError("table2 sweeps its own sample sizes; --n not supported")
    # only the flags given are passed, so each study's defaults live in its signature
    given = {k: getattr(args, k) for k in ("n", "reps") if getattr(args, k) is not None}
    result = _SIMULATORS[args.experiment](seed=args.seed, **given)
    csv_path, json_path = write_result_files(result, args.out_dir)
    print(f"wrote {csv_path} and {json_path} "
          f"({len(result.rows)} rows, {result.wall_time_s:.1f}s)")
    return EXIT_OK


_BASIS_TERMS = ("linear", "quadratic")


def _basis_columns(spec: str, unit_X: np.ndarray) -> np.ndarray:
    """Comma-separated terms over unit-scaled features.

    linear -> each u_j; quadratic -> each u_j^2; sin:<k> / cos:<k> ->
    sin/cos(k*pi*u_j) per feature.  No constant term, so disjoint specs
    give a nontrivial angle.
    """
    cols = []
    for term in spec.split(","):
        term = term.strip()
        if term == "linear":
            cols.append(unit_X)
        elif term == "quadratic":
            cols.append(unit_X ** 2)
        elif term.startswith(("sin:", "cos:")):
            kind, _, freq = term.partition(":")
            k = float(freq)
            fn = np.sin if kind == "sin" else np.cos
            cols.append(fn(k * math.pi * unit_X))
        else:
            raise ValueError(f"unknown basis term {term!r}; use "
                             f"{_BASIS_TERMS + ('sin:<k>', 'cos:<k>')}")
    return np.hstack(cols)


def _cmd_separability(args) -> int:
    if args.analytic_psi is not None:
        theta = args.analytic_psi
        if theta <= 0:
            raise ValueError("theta must be positive")
        print(repr(psi(theta)))
        return EXIT_OK
    if (args.data is None or args.response is None
            or args.basis_f is None or args.basis_g is None):
        raise ValueError("need --analytic-psi, or --data with --response, "
                         "--basis-f and --basis-g")
    loaded = load_csv(args.data, args.response)
    u = loaded.data.unit_X
    report = empirical_theta(_basis_columns(args.basis_f, u),
                             _basis_columns(args.basis_g, u))
    print(repr(report.theta_estimate))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpm",
        description="Additive interpretable-plus-flexible model fitting "
                    "and diagnostics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p):
        p.add_argument("--data", required=True, help="input CSV with header row")
        p.add_argument("--response", required=True, help="response column name")

    def add_pair_args(p):
        p.add_argument("--interp", choices=INTERP_CHOICES, default="lasso")
        p.add_argument("--flex", choices=FLEX_CHOICES, default="stumps")

    def add_cv_args(p):
        p.add_argument("--cv-folds", type=int, default=5)
        p.add_argument("--cv-repeats", type=int, default=10)
        p.add_argument("--seed", type=int, default=0)

    p_fit = sub.add_parser("fit", help="single double-penalty fit to JSON")
    add_data_args(p_fit)
    add_pair_args(p_fit)
    p_fit.add_argument("--lambda-f", type=float, required=True)
    p_fit.add_argument("--lambda-g", type=float, default=None)
    p_fit.add_argument("--gcv", action="store_true",
                       help="pick lambda-g by GCV (kernel class only)")
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=_cmd_fit)

    p_tr = sub.add_parser("transect", help="sweep along log10(lg)+log10(lf)=c")
    add_data_args(p_tr)
    add_pair_args(p_tr)
    p_tr.add_argument("--c", type=float, default=0.0)
    p_tr.add_argument("--lf-grid", default="1e-4:1e2:25",
                      help="lambda_f grid as lo:hi:k (log-spaced)")
    add_cv_args(p_tr)
    p_tr.add_argument("--out", required=True)
    p_tr.set_defaults(func=_cmd_transect)

    p_gr = sub.add_parser("grid", help="full Cartesian (lambda_f, lambda_g) sweep")
    add_data_args(p_gr)
    add_pair_args(p_gr)
    p_gr.add_argument("--lf-grid", default="1e-4:1e2:25")
    p_gr.add_argument("--lg-grid", default="1e-4:1e2:25")
    p_gr.add_argument("--c", type=float, default=None,
                      help="also report the gap to this transect")
    add_cv_args(p_gr)
    p_gr.add_argument("--out", required=True)
    p_gr.set_defaults(func=_cmd_grid)

    p_sim = sub.add_parser("simulate", help="run a scripted study")
    p_sim.add_argument("experiment", choices=sorted(_SIMULATORS))
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out-dir", required=True)
    p_sim.add_argument("--reps", type=_positive_int, default=None,
                       help="override replication count")
    p_sim.add_argument("--n", type=_positive_int, default=None,
                       help="override sample size")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sep = sub.add_parser("separability", help="angle between two spans")
    p_sep.add_argument("--analytic-psi", type=float, default=None,
                       metavar="THETA", help="closed-form value for the "
                       "sine-versus-linear pair")
    p_sep.add_argument("--data", default=None)
    p_sep.add_argument("--response", default=None)
    p_sep.add_argument("--basis-f", default=None)
    p_sep.add_argument("--basis-g", default=None)
    p_sep.set_defaults(func=_cmd_separability)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CsvFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FitterError, CvCellError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
