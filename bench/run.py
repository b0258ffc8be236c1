"""dpm benchmark: four workloads, end-to-end metrics and a traced per-layer run.

Usage, from the repository root:

    python3 bench/run.py                          # every workload, one process each
    python3 bench/run.py --workload study_gcv --seed 3 --seconds 25 --trace 0

With ``--trace 0`` a run reports the end-to-end metrics of one workload;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics (see bench/README.md).  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record, with the machine and library versions, goes
to ``.bench_out/``, along with the spans of the last traced pass.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# numpy links a multithreaded OpenBLAS; pin every BLAS to one thread before
# numpy is first imported, here and in every child process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_DIR = BENCH_DIR / "reference"

SETUP_REPEATS = 7        # set-up is timed this many times and reported as the median
MIN_PASSES = 3           # untraced passes per run, even when one pass outlasts --seconds
MIN_TRACED_PASSES = 2    # each of untraced and traced, in --trace 1 runs
RTOL, ATOL = 1e-6, 1e-9  # tolerance against the stored reference outputs

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Import dpm from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "dpm" / "__init__.py").is_file():
        print(f"error: no dpm package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import dpm
    if Path(dpm.__file__).resolve().parent != (SRC / "dpm").resolve():
        print(f"error: imported dpm from {dpm.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads
    return workloads


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import dpm, make the inputs and exit (timed by the parent)")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default-seed outputs of every workload")
    return parser.parse_args(argv)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "commit": commit, "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def time_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports dpm and makes the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return elapsed


def differing(values, expected, exact: bool = False) -> int:
    """How many entries of a pass's output depart from the expected ones."""
    a = np.asarray(values, dtype=float)
    b = np.asarray(expected, dtype=float)
    if a.shape != b.shape:
        return max(a.size, b.size)
    if exact:
        return int(np.sum(a != b))
    return int(np.sum(~np.isclose(a, b, rtol=RTOL, atol=ATOL)))


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def write_reference(wl_mod) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    for name, wl in wl_mod.WORKLOADS.items():
        record = {}
        for kind, small in (("check", True), ("full", False)):
            units = wl.make_inputs(wl_mod.DEFAULT_SEED, OUT_DIR, small)
            out = wl_mod.combine([wl.run_unit(unit) for unit in units])
            record[kind] = {"ops": out.ops, "values": list(out.values)}
        reference_path(name).write_text(json.dumps(record) + "\n")
        print(f"wrote {reference_path(name)}")


def run_workload(args, wl_mod) -> int:
    wl = wl_mod.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    reference = json.loads(reference_path(wl.name).read_text())
    full_ops = reference["full"]["ops"]
    problems: list[str] = []
    attempted = failed = 0

    def account(out, expected, exact, label) -> None:
        nonlocal attempted, failed
        bad = out.skipped + min(out.ops, differing(out.values, expected, exact))
        attempted += out.ops
        failed += bad
        if bad:
            problems.append(f"{label}: {bad} operations skipped or departing from "
                            f"the expected outputs")

    setup_times = [time_setup(wl.name, args.seed) for _ in range(SETUP_REPEATS)]

    # a small default-seed problem checked against the stored reference on
    # every run; it also lets lazy imports and allocations settle before timing
    try:
        check = wl_mod.combine([wl.run_unit(unit)
                                for unit in wl.make_inputs(wl_mod.DEFAULT_SEED, OUT_DIR, True)])
        account(check, reference["check"]["values"], False, "check problem")
    except Exception as exc:  # reported as a failed run, not a crash
        problems.append(f"check problem raised {type(exc).__name__}: {exc}")
        attempted += reference["check"]["ops"]
        failed += reference["check"]["ops"]

    units = wl.make_inputs(args.seed, OUT_DIR, False)
    expected = reference["full"]["values"] if args.seed == wl_mod.DEFAULT_SEED else None
    exact = False

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    # each unit is timed on its own, and wall_s sums each unit's median, so
    # a slow spell of a shared host spoils single units rather than passes
    unit_walls = [[] for _ in units]
    unit_cpus = [[] for _ in units]
    walls, traced_walls, layer_runs, pred_errs = [], [], [], []
    start = time.perf_counter()
    while not problems:
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            tracer.reset()
            tracer.install()
        outs, times = [], []
        try:
            for unit in units:
                t0, c0 = time.perf_counter(), time.process_time()
                outs.append(wl.run_unit(unit))
                times.append((time.perf_counter() - t0, time.process_time() - c0))
        except Exception as exc:  # a pass that raises fails all its operations
            problems.append(f"pass raised {type(exc).__name__}: {exc}")
            attempted += full_ops
            failed += full_ops
            break
        finally:
            if traced:
                tracer.remove()
        out = wl_mod.combine(outs)
        if expected is None:
            expected, exact = out.values, True   # later passes must repeat the first exactly
        account(out, expected, exact, f"pass {len(walls) + len(traced_walls) + 1}")
        pred_errs.append(out.pred_err)
        wall = sum(w for w, _ in times)
        if traced:
            traced_walls.append(wall)
            layer_runs.append(tracer.layer_metrics())
            calls = tracer.calls()
            missing = [name for name in wl.expected_calls if not calls.get(name)]
            if missing:
                problems.append(f"coverage: no calls recorded for {', '.join(missing)}")
        else:
            walls.append(wall)
            for i, (w, c) in enumerate(times):
                unit_walls[i].append(w)
                unit_cpus[i].append(c)
        elapsed = time.perf_counter() - start
        if tracer is None:
            if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > args.seconds:
                break
        elif (len(traced_walls) >= MIN_TRACED_PASSES
              and elapsed + statistics.median(walls + traced_walls) > args.seconds):
            break

    # a metric that no pass measured is null, never a 0 that reads as a speed-up
    if tracer is None:
        metrics = {
            "wall_s": sum_of_medians(unit_walls),
            "cpu_s": sum_of_medians(unit_cpus),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = {key: median_or_none([run[key] for run in layer_runs])
                   for key in tracing.Tracer().layer_metrics()}
        untraced = median_or_none(walls)
        metrics["trace.overhead_frac"] = (
            median_or_none(traced_walls) / untraced - 1.0 if untraced and traced_walls else None)
        metrics["quality.pred_err"] = pred_errs[-1] if pred_errs else None
        tracer.write(OUT_DIR / f"spans_{wl.name}_seed{args.seed}.jsonl")

    group = "per_layer" if args.trace else "end_to_end"
    metric_units = {m["name"]: m["unit"] for m in SPEC[group]}
    if set(metrics) != set(metric_units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(metric_units))} do not match "
                        f"the {group} list of BENCHMARK.json")
    for problem in problems:
        print(f"{wl.name}: {problem}", file=sys.stderr)
    result = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": metric_units.get(k, "?")}
                          for k, v in metrics.items()}}
    record = dict(result, workload=wl.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, pass_wall_s=walls, unit_wall_s=unit_walls,
                  unit_cpu_s=unit_cpus,
                  traced_pass_wall_s=traced_walls, setup_s_samples=setup_times,
                  pred_err=pred_errs[-1] if pred_errs else None,
                  problems=problems, environment=environment())
    (OUT_DIR / f"result_{wl.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def median_or_none(values) -> float | None:
    return statistics.median(values) if values else None


def sum_of_medians(per_unit) -> float | None:
    return sum(statistics.median(values) for values in per_unit) if all(per_unit) else None


def fmt(value) -> str:
    return "none" if value is None else f"{value:.6g}"


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    names = list(import_program().WORKLOADS)
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = result
        record = json.loads((OUT_DIR / f"result_{name}_seed{args.seed}_trace{args.trace}.json")
                            .read_text())
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={result['failed'] / result['attempted']:g} "
              f"pred_err={fmt(record['pred_err'])}")
        for key, metric in result["metrics"].items():
            print(f"  {key:40s} {fmt(metric['value']):>14s} {metric['unit']}")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all" and not args.write_reference:
        return run_all(args)
    wl_mod = import_program()
    if args.write_reference:
        write_reference(wl_mod)
        return 0
    if args.workload not in wl_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl_mod.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        OUT_DIR.mkdir(exist_ok=True)
        wl_mod.WORKLOADS[args.workload].make_inputs(args.seed, OUT_DIR, False)
        return 0
    return run_workload(args, wl_mod)


if __name__ == "__main__":
    sys.exit(main())
