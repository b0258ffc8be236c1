"""Alternated A/B runs of one benchmark workload: a base commit against a change.

Usage, from anywhere inside the repository:

    python3 tools/ab_bench.py --workload sweep_kernel_cli
    python3 tools/ab_bench.py --workload study_5d --pairs 10 --seed 3 --base HEAD~2

The change is the committed tree of HEAD and the base that of ``--base``
(default the parent of HEAD), each unpacked by ``git archive`` into its own
fresh temporary directory, so both run under the same conditions and no
worktree is registered in the repository.  Pair i runs
``bench/run.py --workload W --seed S --trace 0`` once on each side, at the
run length the benchmark sets, the base first in even pairs and the change
first in odd ones.  For every end-to-end metric in the change's
BENCHMARK.json the script prints each side's median and quartiles, the
change of the medians, and in how many pairs the change read better (ties
count for neither side).  A gain is claimable when the
change wins at least nine tenths of the pairs and its median beats the
base's by more than the base's interquartile range.  The no-regression
verdict is "within" when the change's median is worse than the base's by
at most the metric's relative ``bound`` in BENCHMARK.json, "worse" when it
is worse by more, and "unresolved" when the base's interquartile range
exceeds that bound relative to its median, unless every run of the change
beats every run of the base.  Standard library only;
on Python releases without tarfile's extraction filters (before 3.10.12 and
3.11.4) the trees are unpacked unfiltered.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def _git(*args: str, cwd: Path) -> bytes:
    return subprocess.run(("git", *args), cwd=cwd, check=True, capture_output=True).stdout


def unpack(repo: Path, rev: str, dest: Path) -> str:
    """The committed tree of ``rev`` under ``dest``; returns the full commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo).decode().strip()
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit, cwd=repo))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)        # git archive of our own commit: trusted
    return commit


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout.name}: bench/run.py exited with code {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout.name}: correct={result['correct']} "
                           f"failed={result['failed']} of {result['attempted']}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def no_regression(base: list[float], change: list[float], bound: float, lower: bool) -> str:
    """"within", "worse" or "unresolved" under the benchmark's relative bound."""
    a1, a2, a3 = quartiles(base)
    b2 = statistics.median(change)
    if (max(change) < min(base)) if lower else (min(change) > max(base)):
        return "within"                  # every change run beats every base run
    if not a2 or (a3 - a1) / abs(a2) > bound:
        return "unresolved"
    return "within" if (b2 - a2 if lower else a2 - b2) / abs(a2) <= bound else "worse"


def summarize(spec: dict, base: list[dict], change: list[dict]) -> list[str]:
    lines = ["metric        base median [q1, q3]              change median [q1, q3]"
             "            delta   wins  claimable  bound  no-regression"]
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [run[name] for run in base]
        b = [run[name] for run in change]
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        gain = a2 - b2 if lower else b2 - a2
        claimable = wins >= 0.9 * len(a) and gain > a3 - a1
        delta = (b2 - a2) / a2 if a2 else float("nan")
        verdict = no_regression(a, b, metric["bound"], lower)
        lines.append(f"{name:<13} {a2:<10.5g} [{a1:.5g}, {a3:.5g}]".ljust(48)
                     + f"{b2:<10.5g} [{b1:.5g}, {b3:.5g}]".ljust(36)
                     + f"{delta:+7.1%}  {wins:>2}/{len(a):<3} {'yes' if claimable else 'no':<9}"
                     + f"  {metric['bound']:<5g}  {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--base", default="HEAD^")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    repo = Path(_git("rev-parse", "--show-toplevel", cwd=Path.cwd()).decode().strip())
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        sides = {}
        for side, rev in (("base", args.base), ("change", "HEAD")):
            sides[side] = Path(tmp) / side
            commit = unpack(repo, rev, sides[side])
            print(f"{side}: {rev} = {commit[:12]}", flush=True)
        spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(sides[side], args.workload, args.seed))
            print(f"pair {i + 1}/{args.pairs}: wall_s base {runs['base'][-1]['wall_s']:.5g} "
                  f"change {runs['change'][-1]['wall_s']:.5g}", flush=True)
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} alternated pairs")
    print("\n".join(summarize(spec, runs["base"], runs["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
