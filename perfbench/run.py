"""Seeded serving benchmark for edgelm, one workload per run.

    python3 perfbench/run.py --workload edge_stream --seed 7 --seconds 15 --trace 0

Run it from the repository root. It builds nothing: edgelm is imported from
``src/`` next to this directory, and the run stops with an error when that
source is missing. It prints a detail record (environment, requests per
phase, sample counts) and, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("long_prompt", "spec_decode", "edge_stream")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "edgelm" / "__init__.py").is_file():
        print(f"perfbench: no edgelm source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if sys.path and Path(sys.path[0]).resolve() == HERE:
        sys.path.pop(0)               # keep this directory's module names private
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import THREAD_VARS  # stdlib only: numpy is not loaded yet
    for var in THREAD_VARS:           # one BLAS thread for the whole process
        os.environ[var] = "1"
    from perfbench.harness import run

    detail = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    result = detail.pop("result")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if detail.get("forward_span_check", {"ok": True})["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
