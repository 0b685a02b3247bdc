#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against a change, one workload at a time.

    python3 tools/bench_pairs.py PARENT WORKLOAD N --out BENCH.json
    python3 tools/bench_pairs.py 1679e5d pipeline-perturbed-1e7 10 --seed0 1001 --out BENCH_8.json

Both commits' committed files are extracted (git archive) into a temporary
directory, so untracked files and the checkout's own benchmarks/out play
no part. Each side runs its own, unchanged benchmarks/bench.py. Pair i
uses seed seed0 + i on both sides; the parent runs first in even pairs and
the change first in odd ones. With --trace-seed S, TRACED_PAIRS traced
pairs follow on seeds S, S + 1, ..., alternated the same way, and each
side's median of every traced metric is recorded. The workload's entry in
--out is written (other workloads in the file are kept) with, per
end-to-end metric, each side's median and quartiles over the N runs, the
pairs the change won (lower is better; ties count for neither), the
relative change of the median and the parent's quartile distance. Run one
workload at a time on an otherwise idle host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "setup_s", "peak_rss_mb")  # all lower-is-better
# traced pairs per --trace-seed: one traced run moves by more than most layer changes
TRACED_PAIRS = 5


def extract(ref: str, dest: Path) -> str:
    """Extract the committed tree of ref into dest; returns the full commit id."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{ref}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(archive), commit], check=True
    )
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return commit


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of the tree's benchmarks/bench.py; its result line."""
    argv = [sys.executable, "benchmarks/bench.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def paired(trees: dict[str, Path], workload: str, seeds: list[int], seconds: float,
           trace: bool) -> dict[str, list[dict]]:
    """One run per side and seed; the parent first in even pairs, the change first in odd ones."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = bench(trees[side], workload, seed, seconds, trace)
            runs[side].append(result)
            values = result["metrics"]  # a traced run has per-layer metrics only
            print(f"{workload} seed {seed} {side}{' traced' if trace else ''}: "
                  + "".join(f"{m} {values[m]['value']:.4f}, " for m in METRICS if m in values)
                  + f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)
    return runs


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summary(seeds: list[int], runs: dict[str, list[dict]]) -> dict:
    """The workload's entry: per side, per metric quartiles; per metric, pairs won."""
    per_run = {
        side: {seed: {m: round(r["metrics"][m]["value"], 4) for m in METRICS}
               for seed, r in zip(seeds, results)}
        for side, results in runs.items()
    }
    entry: dict = {
        "seeds": seeds,
        "order": "parent first in even pairs (from the first seed), change first in odd ones",
    }
    for side, results in runs.items():
        entry[side] = {m: quartiles([per_run[side][s][m] for s in seeds]) for m in METRICS}
        entry[side].update(
            failed=sum(r["failed"] for r in results),
            attempted=sum(r["attempted"] for r in results),
            runs=len(results),
            all_correct=all(r["correct"] for r in results),
        )
    for m in METRICS:
        parent, change = entry["parent"][m], entry["change"][m]
        won = sum(per_run["change"][s][m] < per_run["parent"][s][m] for s in seeds)
        entry[f"{m}_pairs_won_by_change"] = f"{won}/{len(seeds)}"
        entry[f"{m}_change_vs_parent"] = round(change["median"] / parent["median"] - 1, 3)
        entry[f"parent_{m}_iqr"] = round(parent["q3"] - parent["q1"], 4)
    entry["per_run"] = per_run
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("workload")
    parser.add_argument("n", type=int, help="number of pairs")
    parser.add_argument("--change", default="HEAD", help="git ref of the change (default HEAD)")
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace-seed", type=int,
                        help=f"also {TRACED_PAIRS} traced pairs from this seed on")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.n < 2:
        parser.error("n must be at least 2: quartiles need two runs a side")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: extract(ref, trees[side])
                   for side, ref in (("parent", args.parent), ("change", args.change))}
        seeds = [args.seed0 + i for i in range(args.n)]
        runs = paired(trees, args.workload, seeds, args.seconds, trace=False)
        entry = summary(seeds, runs)
        if args.trace_seed is not None:
            traced_seeds = [args.trace_seed + i for i in range(TRACED_PAIRS)]
            traced = paired(trees, args.workload, traced_seeds, args.seconds, trace=True)
            entry["traced"] = {"seeds": traced_seeds}
            for side, results in traced.items():
                names = results[0]["metrics"]
                entry["traced"][side] = {
                    k: round(statistics.median(r["metrics"][k]["value"] for r in results), 4)
                    for k in names
                }

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("command", "python3 benchmarks/bench.py --workload <w> --seed <s> "
                                 f"--seconds {args.seconds:g} --trace <t>")
    record.setdefault("commits", commits)
    record.setdefault("end_to_end", {})[args.workload] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
