"""One benchmark run: set-up, warm-up, timed closed loop, traced pass, checks.

A single client sends each request after the previous one completes: the
library serves one sequence at a time and has no admission or batching
layer, so an arrival schedule would only time a queue the client builds.
"""
from __future__ import annotations

import contextlib
import os
import platform
import resource
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import THREAD_VARS, metrics
from .stats import percentile
from .tracing import Tracer, check_forward_spans, instrument, write_spans
from .workloads import WORKLOADS, Checked, Served, Workload


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> Optional[dict]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):     # numpy older than 1.25
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _serve(wl: Workload, state, entries, index: int) -> Served:
    served = Served(entry=index % len(entries), t0=time.perf_counter())
    try:
        wl.serve(state, entries[served.entry], served)
    except Exception as exc:          # a failed request must not end the run
        served.error = f"{type(exc).__name__}: {exc}"
    served.end = time.perf_counter()
    wl.inspect(served)
    return served


def _traced(tracer: Optional[Tracer], wl: Workload, request: str):
    if tracer is None:
        return contextlib.nullcontext()
    tracer.request = request
    return instrument(tracer, lambda: wl.models)


@dataclass
class _Measured:
    """Everything one run measured and checked, before it becomes figures."""
    setup_s: list[float]
    warmup: Served
    timed: list[Served]
    wall: float
    peak_rss_mb: float
    traced: list[Served]
    checked: Checked


def _serve_run(wl: Workload, entries, seconds: float, tracer: Optional[Tracer]) -> _Measured:
    setup_s: list[float] = []

    def build():
        with _traced(tracer, wl, f"setup-{len(setup_s)}"):
            t0 = time.perf_counter()
            built = wl.setup()
            setup_s.append(time.perf_counter() - t0)
        return built

    for _ in range(wl.setup_repeats):
        state = build()

    warmup = _serve(wl, state, entries, 0)

    timed: list[Served] = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        timed.append(_serve(wl, state, entries, len(timed)))
    wall = timed[-1].end - start
    peak_rss = _peak_rss_mb()         # before the references allocate

    traced: list[Served] = []
    if tracer is not None:            # one pass over the pool: fixed work
        for i in range(len(entries)):
            with _traced(tracer, wl, f"pass-{i}"):
                traced.append(_serve(wl, state, entries, i))

    checked = wl.verify(state, entries, [warmup] + timed + traced)
    # Set up as often again at the end of the run, so that the median
    # spans the run rather than the few seconds at its start.
    for _ in range(wl.setup_repeats):
        build()
    return _Measured(setup_s, warmup, timed, wall, peak_rss, traced, checked)


def _phases(r: _Measured) -> dict:
    """Requests sent, succeeded and failed per phase; failures index the
    served list [warm-up] + timed + traced."""
    n_timed, n_traced = len(r.timed), len(r.traced)
    spans = {"setup": (0, 1), "timed": (1, 1 + n_timed),
             "traced": (1 + n_timed, 1 + n_timed + n_traced)}
    phases = {}
    for name, (lo, hi) in spans.items():
        failed = sum(1 for j in r.checked.failures if lo <= j < hi)
        phases[name] = {"sent": hi - lo, "succeeded": hi - lo - failed, "failed": failed}
    c = r.checked
    phases["verify"] = {"sent": c.references, "failed": c.reference_failures,
                        "succeeded": c.references - c.reference_failures}
    return phases


def _layer_figures(tracer: Tracer, r: _Measured, untraced_p50: Optional[float]) -> dict:
    figures = metrics.layer_metrics(
        tracer.spans, {f"pass-{i}" for i in range(len(r.traced))},
        {f"setup-{i}" for i in range(len(r.setup_s))},
        [s.spec for s in r.traced if s.spec is not None])
    traced_p50 = percentile([s.end - s.t0 for s in r.traced if s.error is None] or [0], 50)
    figures["trace.overhead_frac"] = (
        traced_p50 / untraced_p50 - 1 if untraced_p50 else 0.0, len(r.traced))
    spec = [s.end - s.t0 for s in r.timed if s.spec is not None and s.error is None]
    greedy = list(r.checked.extra.get("reference_s", {}).values())
    figures["specdec.wall_speedup"] = (
        percentile(greedy, 50) / percentile(spec, 50) if spec and greedy else 0.0,
        len(spec))
    return figures


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Serve one workload and return the detail record with its result."""
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        wl = WORKLOADS[workload](Path(tmp))
        entries = wl.inputs(seed)
        r = _serve_run(wl, entries, seconds, tracer)

    phases = _phases(r)
    attempted = sum(p["sent"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    e2e, summaries = metrics.end_to_end(r.setup_s, r.timed, r.wall, r.peak_rss_mb,
                                        r.checked.quality)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(root, seed),
        "phases": phases,
        "failed_frac": failed / attempted,
        "failures": sorted(set(r.checked.failures.values()))[:5],
        "warmup_s": r.warmup.end - r.warmup.t0,
        "timed_wall_s": r.wall,
        "summaries": summaries,
        "checks": r.checked.extra | {"pool": len(entries)},
    }
    span_ok = True
    if tracer is None:
        figures, table = e2e, metrics.END_TO_END
    else:
        figures, table = _layer_figures(tracer, r, summaries["request_s"].get("p50")), \
            metrics.PER_LAYER
        detail["forward_span_check"] = check_forward_spans(tracer)
        span_ok = detail["forward_span_check"]["ok"]
        out_dir = root / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{workload}-seed{seed}.spans.jsonl"
        write_spans(tracer, spans_path)
        detail["spans_file"] = str(spans_path.relative_to(root))

    detail["metrics"] = {name: {"value": figures[name][0], "unit": unit,
                                "better": better, "n": figures[name][1]}
                         for name, unit, better in table}
    detail["result"] = {
        "correct": failed == 0 and span_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(figures[name][0]), "unit": unit}
                    for name, unit, _ in table},
    }
    return detail
