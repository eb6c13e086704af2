"""isogenion benchmark runner.

    python3 bench/run.py --workload graph-fp2 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Starts cold passes of the workload one at a time, each in its own fresh
interpreter (bench/worker.py), until --seconds have passed, and checks every
answer against bench/reference.json.  With --trace 0 it prints the
end-to-end metrics of BENCHMARK.json (medians over the passes, each time
scaled by the host's slowdown while it ran, as worker.py explains); with
--trace 1 it alternates untraced and traced passes, adds the micro cases,
and prints the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Exit status: 0 when every answer matches, 1 when any does not (the JSON line
is still printed), 2 when the benchmark cannot run at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# Every pass of one run, and the micro cases, must have ended by then.
RUN_LIMIT_S = 150
sys.path.insert(0, HERE)

import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark itself could not run."""


def spawn(mode, seed, workload=None, spans=None, timeout=RUN_LIMIT_S):
    cmd = [sys.executable, WORKER, mode, "--seed", str(seed)]
    if workload is not None:
        cmd += ["--workload", workload]
    if spans is not None:
        cmd += ["--spans", spans]
    cmd += ["--start", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} of {workload} timed out after {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} of {workload} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(latencies):
    """(value, percentile): the highest percentile with ten queries above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        raise BenchError(f"{n} queries are too few for a tail with ten above it")
    return ordered[n - 11], 100.0 * (n - 10) / n


def judge(reference, answers):
    """(failed, refused) counts of one pass's answers against the reference."""
    failed = refused = 0
    for key, (digest, status) in answers.items():
        if status == "error" or reference.get(key) != digest:
            failed += 1
        elif status == "refused":
            refused += 1
    failed += sum(1 for key in reference if key not in answers)
    return failed, refused


def measure(workload, seed, seconds, trace):
    """Run passes for `seconds`; returns (summary, metrics, attempted, failed)."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[workload]
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.tsv")
    plain, traced = [], []
    began = time.monotonic()

    def left():
        return RUN_LIMIT_S - (time.monotonic() - began)

    while True:
        plain.append(spawn("pass", seed, workload, timeout=left()))
        if trace:
            traced.append(spawn("pass", seed, workload, spans=spans, timeout=left()))
        if time.monotonic() - began >= seconds:
            break

    attempted = failed = refused = 0
    for result in plain + traced:
        f, r = judge(reference, result["answers"])
        attempted += len(reference)
        failed += f
        refused += r
    n = len(reference)
    med = statistics.median
    # Every pass asks the same queries in the same order, so each query's
    # latency is its median over the passes; that damps the bursts in which
    # other tenants of the machine slow it down.
    latencies = [med(per_pass) for per_pass in zip(*(r["latencies"] for r in plain))]
    tail_s, tail_pct = tail(latencies)
    e2e = {
        "setup_s": med(r["setup_s"] for r in plain),
        "wall_s": med(r["wall_s"] for r in plain),
        "query_p50_s": med(latencies),
        "query_tail_s": tail_s,
        "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
    }
    summary = {
        "raw_setup_s": med(r["raw_setup_s"] for r in plain),
        "raw_wall_s": med(r["raw_wall_s"] for r in plain),
        "slowdown": med(r["slowdown"] for r in plain),
        "passes": len(plain),
        "queries": n,
        "tail_percentile": tail_pct,
        "fail_frac": failed / attempted,
        "refused_frac": refused / attempted,
    }
    if not trace:
        return summary, e2e, attempted, failed

    layers = {name: med(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    layers["trace.overhead_frac"] = med(r["wall_s"] for r in traced) / e2e["wall_s"] - 1
    layers.update(spawn("micro", seed, timeout=left()))
    summary["traced_passes"] = len(traced)
    summary["spans"] = os.path.relpath(spans, ROOT)
    return summary, layers, attempted, failed


def select(spec, values):
    """The metrics named in BENCHMARK.json, with their units, in its order."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"no value measured for {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def report(workload, seed, summary, metrics):
    print(f"{workload}  seed={seed}  passes={summary['passes']}  "
          f"queries per pass N={summary['queries']}")
    for name, m in metrics.items():
        note = ""
        if name == "query_tail_s":
            note = (f"  (p{summary['tail_percentile']:.1f}: 10 of N="
                    f"{summary['queries']} queries above it)")
        print(f"  {name:<48} {m['value']:<14.6g} {m['unit']}{note}")
    print(f"  {'host slowdown':<48} {summary['slowdown']:<14.6g} x  (each time above is"
          f" divided by the slowdown while it ran; raw setup_s {summary['raw_setup_s']:.6g} s,"
          f" raw wall_s {summary['raw_wall_s']:.6g} s)")
    print(f"  {'fail_frac':<48} {summary['fail_frac']:<14.6g} fraction")
    print(f"  {'refused_frac':<48} {summary['refused_frac']:<14.6g} fraction")
    if "spans" in summary:
        print(f"  spans of the last traced pass: {summary['spans']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "isogenion")):
            raise BenchError(f"no src/isogenion under {ROOT}")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        os.makedirs(OUT_DIR, exist_ok=True)
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        combined, attempted, failed = {}, 0, 0
        for workload in names:
            summary, values, n, f = measure(workload, args.seed, args.seconds, args.trace)
            metrics = select(spec, values)
            report(workload, args.seed, summary, metrics)
            attempted += n
            failed += f
            if len(names) == 1:
                combined = metrics
            else:
                combined.update({f"{workload}.{k}": v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
