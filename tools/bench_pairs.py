"""Alternating parent/change perfbench pairs, summarised per workload and metric.

    python3 tools/bench_pairs.py --parent P --change C --workloads edge_stream \
        --seeds 1-10 --seconds 20 --out BENCH_slug.json [--trace]

P and C are two checkouts (for example ``git archive`` copies of the parent
commit and of the change). For each seed and workload it runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1``
from each tree, the parent first on odd seeds and the change first on even
ones, and keeps every run's result line. The end-to-end runs go under
``runs``, and ``summary`` gives, for each workload and each end-to-end
metric of BENCHMARK.json, both sides' median and quartiles and the pairs
the change won, in the metric's ``better`` direction; ties count for
neither side. With ``--trace`` the runs go under ``traced`` instead, with
no summary. Keys already in ``--out`` that a call does not write are kept.
It exits 1 when any run fails or reports ``correct: false``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    """``1-10`` or ``1,3,5`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench run from ``tree``; its last output line is the result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    at = time.strftime("%H:%M:%S", time.gmtime())
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "error": proc.stderr[-2000:]}
    if proc.returncode != 0:
        result["correct"] = False
        result["returncode"] = proc.returncode
    # each metric is {"value", "unit"}; BENCHMARK.json has the units
    result["metrics"] = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return {"workload": workload, "seed": seed, "at_utc": at, **result}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Q1, median and Q3 by linear interpolation (numpy's default)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per workload and metric (name -> "lower" or "higher" is better): each
    side's median and quartiles over its runs, and the pairs (same workload
    and seed) the change won. A metric the change won in at least nine
    tenths of the pairs, by a median difference larger than the parent's
    interquartile range, is a ``gain_shown``."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        side = {tree: {r["seed"]: r["metrics"] for r in runs
                       if r["workload"] == workload and r["tree"] == tree
                       and r.get("metrics")}
                for tree in ("parent", "change")}
        seeds = sorted(side["parent"].keys() & side["change"].keys())
        out[workload] = {}
        for name, better in metrics.items():
            pairs = [(side["parent"][s][name], side["change"][s][name]) for s in seeds
                     if name in side["parent"][s] and name in side["change"][s]]
            if not pairs:
                continue
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (p - c) > 0 for p, c in pairs)
            ties = sum(p == c for p, c in pairs)
            pq1, pmed, pq3 = quartiles([p for p, _ in pairs])
            cq1, cmed, cq3 = quartiles([c for _, c in pairs])
            out[workload][name] = {
                "parent_median": pmed, "change_median": cmed,
                "change_over_parent": round(cmed / pmed, 4) if pmed else None,
                "parent_q1": pq1, "parent_q3": pq3, "change_q1": cq1, "change_q3": cq3,
                "change_better_pairs": f"{wins} of {len(pairs)}", "ties": ties,
                "gain_shown": 10 * wins >= 9 * len(pairs)
                and sign * (pmed - cmed) > pq3 - pq1}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true", help="run --trace 1, no summary")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for workload in args.workloads.split(","):
            for tree in order:
                run = {"tree": tree, **run_one(trees[tree], workload, seed,
                                               args.seconds, args.trace)}
                runs.append(run)
                print(json.dumps(run), flush=True)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("environment", {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "threads": "perfbench/run.py pins every BLAS thread variable to 1"})
    if args.trace:
        doc["traced"] = runs
    else:
        doc["command"] = (f"python3 perfbench/run.py --workload W --seed S "
                          f"--seconds {args.seconds:g} --trace 0")
        doc["protocol"] = ("alternating pairs from two trees, one run at a time on "
                           "one host: odd seeds run the parent first, even seeds the "
                           "change first; workloads interleaved per seed")
        doc["runs"] = runs
        doc["summary"] = summarise(runs, metrics)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r.get("correct") is True for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
