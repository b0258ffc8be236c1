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
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from .core import basis_columns
from .cv import CvCellError, CvConfig, FLEX_CHOICES, INTERP_CHOICES, LearnerPair
from .data_io import load_csv
from .experiments import (
    run_example1,
    run_example2,
    run_table1,
    run_table2,
    write_result_files,
)
from .fitter import FitterError, fit_double_penalty
from .separability import empirical_theta, psi
from .transect import DiagnosticRow, grid_sweep, pearson, transect_sweep

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_DEFAULT_GRID = "1e-4:1e2:25"


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text}")
    return value


def _given(args, *names) -> dict:
    """The named flags that were given, so the library owns every default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


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
    lines = [",".join(field.name for field in fields(DiagnosticRow))]
    lines += [",".join(map(repr, astuple(row))) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _cmd_fit(args) -> int:
    loaded = load_csv(args.data, args.response)
    data = loaded.data
    pair = LearnerPair(**_given(args, "interp", "flex"))
    fitter_f, fitter_g = pair.fitters(data, args.lambda_f, args.lambda_g)
    fit = fit_double_penalty(data, fitter_f, fitter_g)
    f_vals = fit.f_hat.fitted
    g_vals = fit.g_hat.fitted

    report = {
        "version": __version__,
        "data": str(args.data),
        "response": args.response,
        "features": list(loaded.feature_names),
        "dropped_features": list(loaded.dropped_columns),
        "interp": pair.interp,
        "flex": pair.flex,
        "lambda_f": args.lambda_f,
        "lambda_g": fitter_g.lam if args.lambda_g is None else args.lambda_g,
        "gcv": args.lambda_g is None,
        "iterations": fit.iterations,
        "stop_reason": fit.stop_reason,
        "penalty_f": fit.f_hat.penalty_value,
        "penalty_g": fit.g_hat.penalty_value,
        "training_cor_f": pearson(data.y, f_vals) if np.ptp(f_vals) else 0.0,
        "training_cor_g": pearson(data.y, g_vals) if np.ptp(g_vals) else 0.0,
        "training_cor_total": pearson(data.y, f_vals + g_vals),
    }
    model = fit.f_hat.coefficients  # a LinearModel in the data's units for both classes
    beta, names = np.asarray(model.beta, dtype=float), loaded.feature_names
    report["coefficients_unit"] = dict(zip(names, map(float, beta * (data.hi - data.lo))))
    report["coefficients_original"] = dict(zip(names, map(float, beta)))
    report["intercept_original"] = float(model.intercept)
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} ({fit.iterations} iterations, {fit.stop_reason})")
    return EXIT_OK


def _cmd_transect(args) -> int:
    loaded = load_csv(args.data, args.response)
    rows = transect_sweep(loaded.data, _parse_log_grid(args.lf_grid), args.c,
                          CvConfig(**_given(args, "folds", "repeats", "seed")),
                          LearnerPair(**_given(args, "interp", "flex")))
    _write_rows_csv(rows, Path(args.out))
    best = max(rows, key=lambda r: r.cor_total)
    print(f"wrote {args.out}: {len(rows)} rows, best cor_total "
          f"{best.cor_total:.4f} at lambda_f={best.lambda_f:g}")
    return EXIT_OK


def _cmd_grid(args) -> int:
    loaded = load_csv(args.data, args.response)
    result = grid_sweep(loaded.data, _parse_log_grid(args.lf_grid),
                        _parse_log_grid(args.lg_grid),
                        CvConfig(**_given(args, "folds", "repeats", "seed")),
                        pair=LearnerPair(**_given(args, "interp", "flex")),
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
    result = _SIMULATORS[args.experiment](**_given(args, "seed", "n", "reps"))
    csv_path, json_path = write_result_files(result, args.out_dir)
    print(f"wrote {csv_path} and {json_path} "
          f"({len(result.rows)} rows, {result.wall_time_s:.1f}s)")
    return EXIT_OK


_BASIS = {"linear": lambda u: u, "quadratic": lambda u: u ** 2}
_WAVES = {"sin": np.sin, "cos": np.cos}


def _basis_terms(spec: str) -> list:
    """Comma-separated terms over unit-scaled features, as basis functions.

    linear -> each u_j; quadratic -> each u_j^2; sin:<k> / cos:<k> ->
    sin/cos(k*pi*u_j) per feature.  Each term maps the (n, p) points to p
    columns.  No constant term, so disjoint specs give a nontrivial angle.
    """
    terms = []
    for term in map(str.strip, spec.split(",")):
        kind, _, freq = term.partition(":")
        if term in _BASIS:
            terms.append(_BASIS[term])
        elif kind in _WAVES:
            try:
                k = float(freq)
            except ValueError:
                k = math.nan
            if not math.isfinite(k):
                raise ValueError(f"basis term {term!r} needs a finite number after the colon")
            terms.append(lambda u, wave=_WAVES[kind], k=k: wave(k * math.pi * u))
        else:
            raise ValueError(f"unknown basis term {term!r}; use "
                             f"{tuple(_BASIS) + ('sin:<k>', 'cos:<k>')}")
    return terms


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
    u = load_csv(args.data, args.response).data.unit_X
    report = empirical_theta(basis_columns(_basis_terms(args.basis_f), u),
                             basis_columns(_basis_terms(args.basis_g), u))
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
        p.add_argument("--interp", choices=INTERP_CHOICES)
        p.add_argument("--flex", choices=FLEX_CHOICES)

    def add_cv_args(p):
        p.add_argument("--cv-folds", type=int, dest="folds")
        p.add_argument("--cv-repeats", type=int, dest="repeats")
        p.add_argument("--seed", type=int)

    p_fit = sub.add_parser("fit", help="single double-penalty fit to JSON")
    add_data_args(p_fit)
    add_pair_args(p_fit)
    p_fit.add_argument("--lambda-f", type=float, required=True)
    p_fit.add_argument("--lambda-g", type=float, default=None,
                       help="omit to pick lambda-g by GCV (kernel class only)")
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=_cmd_fit)

    p_tr = sub.add_parser("transect", help="sweep along log10(lg)+log10(lf)=c")
    add_data_args(p_tr)
    add_pair_args(p_tr)
    p_tr.add_argument("--c", type=float, default=0.0)
    p_tr.add_argument("--lf-grid", default=_DEFAULT_GRID,
                      help="lambda_f grid as lo:hi:k (log-spaced)")
    add_cv_args(p_tr)
    p_tr.add_argument("--out", required=True)
    p_tr.set_defaults(func=_cmd_transect)

    p_gr = sub.add_parser("grid", help="full Cartesian (lambda_f, lambda_g) sweep")
    add_data_args(p_gr)
    add_pair_args(p_gr)
    p_gr.add_argument("--lf-grid", default=_DEFAULT_GRID)
    p_gr.add_argument("--lg-grid", default=_DEFAULT_GRID)
    p_gr.add_argument("--c", type=float, default=None,
                      help="also report the gap to this transect")
    add_cv_args(p_gr)
    p_gr.add_argument("--out", required=True)
    p_gr.set_defaults(func=_cmd_grid)

    p_sim = sub.add_parser("simulate", help="run a scripted study")
    p_sim.add_argument("experiment", choices=sorted(_SIMULATORS))
    p_sim.add_argument("--seed", type=int)
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
    # LinAlgError subclasses ValueError, so the numerical clause comes first
    except (FitterError, CvCellError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:             # CsvFormatError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
