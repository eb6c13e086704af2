"""Alternating parent/change runs of the benchmark, and their summary.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --seed 5
    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --seed 5 --workload graph-fp2 --seconds 0

PARENT and CHANGE are two checkouts of this repository.  Each pair runs
`bench/run.py --workload W --seed S --seconds T --trace 0` once in each
checkout, with the same arguments; the side that goes first alternates from
pair to pair, the change first in pair 0.  Before every run the checkout's
`src/isogenion/__pycache__` is removed, so neither side reads bytecode the
other side's history left (a stale cache moves `setup_s` and `peak_rss_mb`).

A line per pair goes to stderr.  stdout is one JSON object,
{"summary": ..., "runs": [...]}: for each workload and end-to-end metric of
BENCHMARK.json, both sides' medians, quartiles and ranges, the number of
pairs the change won (ties count for neither), and whether every answer
matched the reference on both sides.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys


def _stats(values):
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": round(statistics.median(values), 5),
        "quartiles": [round(quartiles[0], 5), round(quartiles[2], 5)],
        "range": [round(min(values), 5), round(max(values), 5)],
    }


def summarize(runs, better):
    """The summary of paired runs.

    `runs` is a list of {"parent": side, "change": side}, one per pair, where
    a side is {"correct": bool, "metrics": {workload: {metric: value}}};
    `better` maps each metric to "lower" or "higher".  Returns
    {workload: {metric: {...}, "correct": bool}}.  Quartiles need at least
    two pairs.
    """
    out = {}
    for workload in runs[0]["parent"]["metrics"]:
        row = {}
        for metric, direction in better.items():
            pairs = [(run["parent"]["metrics"][workload][metric],
                      run["change"]["metrics"][workload][metric]) for run in runs]
            sign = 1 if direction == "lower" else -1
            parent, change = _stats([a for a, _ in pairs]), _stats([b for _, b in pairs])
            row[metric] = {
                "parent_median": parent["median"],
                "change_median": change["median"],
                "change_wins": sum(1 for a, b in pairs if sign * (a - b) > 0),
                "pairs": len(pairs),
                "parent_quartiles": parent["quartiles"],
                "change_quartiles": change["quartiles"],
                "parent_range": parent["range"],
                "change_range": change["range"],
            }
        row["correct"] = all(run[side]["correct"] for run in runs
                             for side in ("parent", "change"))
        out[workload] = row
    return out


def run_bench(tree, workload, seed, seconds):
    """One `bench/run.py` run in checkout `tree`, bytecode cache cleared first.

    Returns {"correct": bool, "metrics": {workload: {metric: value}}}."""
    shutil.rmtree(os.path.join(tree, "src", "isogenion", "__pycache__"), ignore_errors=True)
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise SystemExit(f"{tree}: bench/run.py exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.splitlines()[-1])
    metrics = {}
    for key, m in line["metrics"].items():
        name, _, metric = key.rpartition(".") if workload == "all" else (workload, "", key)
        metrics.setdefault(name, {})[metric] = m["value"]
    return {"correct": line["correct"] and line["failed"] == 0, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("quartiles need at least 2 pairs")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    runs = []
    for i in range(args.pairs):
        order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
        run = {"first": order[0]}
        for side in order:
            run[side] = run_bench(trees[side], args.workload, args.seed, args.seconds)
        runs.append(run)
        print(f"pair {i}: {order[0]} first, correct "
              f"{run['parent']['correct']}/{run['change']['correct']}", file=sys.stderr)
    print(json.dumps({"summary": summarize(runs, better), "runs": runs}, indent=1))


if __name__ == "__main__":
    main()
