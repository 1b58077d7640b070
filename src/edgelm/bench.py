"""Experiment pipelines behind the CLI: eviction-vs-quality, speculation BE
sweeps, quantization overlap/BPW tables, and the adapter-swap demo.

Every run is deterministic given (config, seed); reports embed both so any
row can be reproduced. Aggregates are always recomputable from the per-trial
records stored in the same report.
"""
from __future__ import annotations

import copy
import csv
import dataclasses
import json
import os
import platform
import time
from pathlib import Path

import numpy as np
from jsonschema import validate as _js_validate

from . import kvcache as kvc
from . import lora as lora_mod
from . import quant as quant_mod
from .errors import ConfigError, ContractViolation
from .metrics import ROUGE_VARIANT, rouge_n
from .model import (ModelConfig, TinyLM, forward, greedy_continue, greedy_decode,
                    init_model)
from .specdec import (DraftConfig, FeatureReuseDraft, IndependentDraft,
                      block_efficiency, decode_speculative)
from .tasks import gen_needle

ARTIFACT_VERSION = "0.1.0"

_JSON_TYPES = {int: "integer", float: "number", bool: "boolean"}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "seed": {"type": "integer"},
        "trials": {"type": "integer", "minimum": 1},
        "model": {
            "type": "object",
            "properties": {f.name: {"type": _JSON_TYPES[type(f.default)]}
                           for f in dataclasses.fields(ModelConfig)},
            "additionalProperties": False,
        },
        "task": {"type": "object"},
        "method": {"type": "object"},
    },
    "required": ["seed"],
}


def validate_config(config: dict):
    _js_validate(config, CONFIG_SCHEMA)


def model_from_config(config: dict, seed: int) -> TinyLM:
    return init_model(ModelConfig(**config.get("model", {})), seed)


def trial_seed(master: int, trial: int) -> int:
    return (master * 1_000_003 + trial) & (2**63 - 1)


PREFILL_CHUNK = 512


def prefill(model: TinyLM, tokens, cache):
    """Cache-extending block forward in chunks of ``PREFILL_CHUNK`` tokens
    (bounds attention memory)."""
    tokens = list(tokens)
    fo = None
    for start in range(0, len(tokens), PREFILL_CHUNK):
        fo = forward(model, tokens[start:start + PREFILL_CHUNK], cache=cache)
    return fo


# --- policies from config ----------------------------------------------------

_POLICY_KINDS = {
    "attention_sink": kvc.AttentionSink,
    "heavy_hitter": kvc.HeavyHitter,
    "obs_window": kvc.ObsWindow,
    "hybrid": kvc.Hybrid,
    "random": kvc.RandomPolicy,
}


def policy_from_spec(spec: dict) -> kvc.EvictionPolicy:
    """The policy a ``{"kind": ..., <field>: ...}`` config entry names."""
    if not isinstance(spec, dict):
        raise ConfigError(f"policy spec {spec!r} is not an object")
    args = dict(spec)
    kind = args.pop("kind", None)
    if kind not in _POLICY_KINDS:
        raise ConfigError(f"policy kind {kind!r} is not one of {sorted(_POLICY_KINDS)}")
    cls = _POLICY_KINDS[kind]
    unknown = sorted(set(args) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"policy {kind} has no fields {unknown}")
    return cls(**args)


DEFAULT_EVICT_POLICIES = (
    {"kind": "heavy_hitter", "recent": 4},
    {"kind": "obs_window", "obs": 16, "pool_kernel": 5},
    {"kind": "hybrid", "lambda_sink": 0.0, "lambda_recent": 0.0,
     "lambda_acc": 0.5, "lambda_win": 0.5, "obs": 16, "pool_kernel": 5},
    {"kind": "attention_sink", "sinks": 4, "window": 64},
    {"kind": "random", "seed": 0},
)


def _clone_cache(cache: kvc.KvCache) -> kvc.KvCache:
    return copy.deepcopy(cache)


def needle_retained(cache: kvc.KvCache, answer_start: int, answer_end: int) -> bool:
    """True when the full value span survives in at least one layer."""
    span = set(range(answer_start, answer_end))
    for li in range(cache.n_layers):
        if span <= set(int(p) for p in cache.kept_positions(li)):
            return True
    return False


def run_evict_bench(config: dict) -> dict:
    validate_config(config)
    seed = config["seed"]
    trials = config.get("trials", 20)
    task = config.get("task", {})
    context_len = task.get("context_len", 512)
    decode_len = task.get("decode_len", 16)
    ratios = config.get("method", {}).get("eviction_ratios", [0.25, 0.5])
    policy_specs = config.get("method", {}).get("policies",
                                                list(DEFAULT_EVICT_POLICIES))
    policies = [policy_from_spec(p) for p in policy_specs]
    kept = context_len - 1    # the prefill holds back the final query token
    budgets = {ratio: kept - int(round(ratio * kept)) for ratio in ratios}
    for ratio, budget in budgets.items():
        for pspec, policy in zip(policy_specs, policies):
            if budget < max(1, policy.floor()):
                raise ConfigError(
                    f"policy {pspec['kind']} at eviction ratio {ratio} gets budget "
                    f"{budget} (context_len {context_len}), below its mandatory "
                    f"floor {policy.floor()}")

    rows = []
    for t in range(trials):
        ts = trial_seed(seed, t)
        model = model_from_config(config, ts)
        rng = np.random.default_rng(ts)
        lo = 16
        hi = max(lo + 1, context_len - 64)
        needle_pos = int(rng.integers(lo, hi))
        sample = gen_needle(context_len, needle_pos, ts)

        # hold back the final query token: it seeds decoding after eviction
        cache = kvc.KvCache.for_model(model.config)
        prefill(model, sample.tokens[:-1], cache)
        baseline_bytes = kvc.cache_bytes(cache, 4)
        base_cache = _clone_cache(cache)
        baseline_out = greedy_continue(model, base_cache, sample.tokens[-1:],
                                       decode_len)

        for ratio in ratios:
            budget = budgets[ratio]
            for pspec, policy in zip(policy_specs, policies):
                c = _clone_cache(cache)
                report = kvc.evict(c, policy, budget)
                method_bytes = kvc.cache_bytes(c, 4)
                retained = needle_retained(c, sample.answer_start,
                                           sample.answer_end)
                method_out = greedy_continue(model, c, sample.tokens[-1:],
                                             decode_len)
                r1 = rouge_n(baseline_out, method_out, 1).f1
                rows.append({
                    "trial": t, "policy": pspec["kind"], "policy_spec": pspec,
                    "target_ratio": ratio,
                    "eviction_ratio": kvc.eviction_ratio(report),
                    "needle_retained": retained,
                    "rouge1_vs_baseline": r1,
                    "cache_bytes": method_bytes,
                    "baseline_cache_bytes": baseline_bytes,
                    "memory_reduction": 1 - method_bytes / baseline_bytes,
                })
    report = _make_report(config, rows,
                          agg_fields=("eviction_ratio", "rouge1_vs_baseline",
                                      "memory_reduction"),
                          extra_meta={"rouge_variant": ROUGE_VARIANT})
    report["aggregates"]["retention_rate_by_policy"] = _retention_rates(rows)
    return report


def _retention_rates(rows) -> dict:
    by_policy: dict[str, list] = {}
    for r in rows:
        key = f'{r["policy"]}@{r["target_ratio"]}'
        by_policy.setdefault(key, []).append(bool(r["needle_retained"]))
    return {k: sum(v) / len(v) for k, v in sorted(by_policy.items())}


def run_spec_bench(config: dict) -> dict:
    validate_config(config)
    seed = config["seed"]
    trials = config.get("trials", 20)
    method = config.get("method", {})
    ks = method.get("k", [4])
    kinds = method.get("draft_kinds", ["independent", "feature_reuse"])
    max_new = config.get("task", {}).get("max_new", 24)
    prompt_len = config.get("task", {}).get("prompt_len", 8)

    rows = []
    trace_rows = []
    for t in range(trials):
        ts = trial_seed(seed, t)
        target = model_from_config(config, ts)
        rng = np.random.default_rng(ts)
        prompt = [int(x) for x in rng.integers(0, target.config.vocab_size,
                                               size=prompt_len)]
        reference = greedy_decode(target, prompt, max_new)
        for kind in kinds:
            if kind == "independent":
                draft = IndependentDraft(model_from_config(config, ts + 1))
            else:
                draft = FeatureReuseDraft.random_init(target.config.d_model, ts + 2)
            for k in ks:
                target.reset_counters()
                trace: list = []
                out, stats = decode_speculative(target, DraftConfig(draft, k),
                                                prompt, max_new, trace=trace)
                if out != reference:
                    raise ContractViolation(
                        f"losslessness violated: trial {t}, kind {kind}, k {k}")
                rows.append({
                    "trial": t, "draft_kind": kind, "k": k,
                    "block_efficiency": block_efficiency(stats),
                    "rounds": stats.rounds, "proposed": stats.proposed,
                    "accepted": stats.accepted, "emitted": stats.emitted,
                    "target_forwards": target.stats["forwards"],
                })
                for rec in trace:
                    trace_rows.append({"trial": t, "draft_kind": kind, "k": k, **rec})
    report = _make_report(config, rows, agg_fields=("block_efficiency",))
    report["round_trace"] = trace_rows
    return report


def run_quant_bench(config: dict) -> dict:
    validate_config(config)
    seed = config["seed"]
    model = model_from_config(config, seed)
    method = config.get("method", {})
    bit_widths = method.get("bits", [8, 4, 3, 2])
    scheme = method.get("scheme", "symmetric")
    n_seqs = config.get("task", {}).get("sequences", 4)
    seq_len = config.get("task", {}).get("seq_len", 32)
    rng = np.random.default_rng(seed)
    seqs = [[int(x) for x in rng.integers(0, model.config.vocab_size, size=seq_len)]
            for _ in range(n_seqs)]

    rows = [{
        "plan": "identity-sanity", "bpw": None,
        "top1_overlap": quant_mod.top1_overlap(model, model, seqs),
        "bits_by_slot": None,
    }]
    for bits in bit_widths:
        plan = quant_mod.uniform_plan(model, bits, scheme=scheme)
        qm = quant_mod.ptq_model(model, plan)
        rows.append({
            "plan": f"uniform-{bits}bit",
            "bpw": quant_mod.plan_bpw(model, plan),
            "top1_overlap": quant_mod.top1_overlap(model, qm, seqs),
            "bits_by_slot": {s: sp.bits for s, sp in plan.specs.items()},
        })
    budget = method.get("bpw_budget")
    if budget is not None:
        plan = quant_mod.assign_precision(model, seqs, budget, scheme=scheme)
        qm = quant_mod.ptq_model(model, plan)
        achieved = quant_mod.plan_bpw(model, plan)
        if achieved > budget:
            raise ContractViolation("assign_precision exceeded its budget")
        rows.append({
            "plan": f"budgeted-{budget}",
            "bpw": achieved,
            "top1_overlap": quant_mod.top1_overlap(model, qm, seqs),
            "bits_by_slot": {s: sp.bits for s, sp in plan.specs.items()},
        })
    return _make_report(config, rows, agg_fields=("top1_overlap",))


def run_lora_demo(config: dict) -> dict:
    validate_config(config)
    seed = config["seed"]
    method = config.get("method", {})
    n_adapters = method.get("adapters", 3)
    n_swaps = method.get("swaps", 100)
    model = model_from_config(config, seed)
    plan = quant_mod.uniform_plan(model, method.get("base_bits", 4))
    base = quant_mod.ptq_model(model, plan, freeze=True)
    registry = lora_mod.AdapterRegistry(base)
    targets = [s for s in model.config.slot_shapes()
               if s.endswith(("wq", "wv"))]
    for i in range(n_adapters):
        registry.register(lora_mod.create_adapter(
            base, targets, r=4, alpha=8.0, seed=seed + i, name=f"scenario-{i}"))

    h0 = registry.base_hash()
    rng = np.random.default_rng(seed)
    names = list(registry.adapters) + [None]
    for _ in range(n_swaps):
        registry.activate(names[int(rng.integers(0, len(names)))])
    if registry.base_hash() != h0:
        raise ContractViolation("base weights changed during adapter swaps")

    # planted-delta recovery over one frozen quantized linear map
    out_dim, in_dim = 6, 8
    w = rng.normal(0, 0.5, (out_dim, in_dim))
    wq = quant_mod.quantize(w, quant_mod.QuantSpec(bits=8, granularity="per-tensor"))
    wq.freeze()
    a_true = rng.normal(0, 1, (1, in_dim))
    b_true = rng.normal(0, 1, (out_dim, 1))
    alpha, r = 1.0, 1
    delta = (alpha / r) * (b_true @ a_true)
    X = rng.normal(0, 1, (32, in_dim))
    Y = X @ (wq.dequantize().astype(np.float64) + delta).T
    fit = lora_mod.qalft_fit(wq, list(zip(X, Y)), r=r, alpha=alpha,
                             steps=2000, learning_rate=0.05, seed=seed)
    grad_err = lora_mod.qalft_gradient_check(wq, list(zip(X[:8], Y[:8])),
                                             r=2, alpha=4.0, seed=seed)
    if registry.base_hash() != h0:
        raise ContractViolation("base weights changed during fitting")

    rows = [{
        "adapters": n_adapters, "swaps": n_swaps, "base_hash": h0,
        "hash_invariant": True, "qalft_final_loss": fit.losses[-1],
        "qalft_steps": len(fit.losses) - 1,
        "gradient_check_max_rel_err": float(grad_err),
    }]
    return _make_report(config, rows,
                        agg_fields=("qalft_final_loss",
                                    "gradient_check_max_rel_err"))


# --- report plumbing ---------------------------------------------------------

def _summary(rows: list, field: str):
    """Mean, min and max of a field over the rows that carry it, or None."""
    vals = [r[field] for r in rows if r.get(field) is not None]
    if not vals:
        return None
    return {"mean": float(np.mean(vals)), "min": float(np.min(vals)),
            "max": float(np.max(vals))}


# BLAS and OpenMP thread settings, recorded so timings can be compared
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _make_report(config: dict, rows: list, agg_fields=(), extra_meta=None) -> dict:
    aggregates = {}
    for field in agg_fields:
        summary = _summary(rows, field)
        if summary is not None:
            aggregates[field] = summary
    meta = {"artifact_version": ARTIFACT_VERSION,
            "generated_ns": time.time_ns(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "threads": {var: os.environ.get(var) for var in _THREAD_VARS}}
    if extra_meta:
        meta.update(extra_meta)
    return {"config": config, "trials": rows, "aggregates": aggregates,
            "meta": meta}


def verify_report(report: dict) -> bool:
    """Recompute every aggregate from the per-trial rows."""
    rows = report["trials"]
    for field, agg in report["aggregates"].items():
        if field == "retention_rate_by_policy":
            expected = _retention_rates(rows)
        else:
            expected = _summary(rows, field)
        if (not isinstance(agg, dict) or expected is None or set(agg) != set(expected)
                or not all(np.isclose(agg[k], expected[k]) for k in expected)):
            return False
    return True


CSV_HEADER_VERSION = "edgelm-csv-v1"


def write_report(report: dict, out_dir, name: str, fmt: str = "json"):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    json_path = out_dir / f"{name}.json"
    with open(json_path, "w") as f:
        json.dump(report, f, indent=2, default=str)
    paths.append(json_path)
    jsonl_path = out_dir / f"{name}.trials.jsonl"
    with open(jsonl_path, "w") as f:
        for row in report["trials"]:
            f.write(json.dumps(row, default=str) + "\n")
    paths.append(jsonl_path)
    if fmt == "csv":
        rows = report["trials"]
        if rows:
            fields = sorted({k for r in rows for k in r})
            csv_path = out_dir / f"{name}.csv"
            with open(csv_path, "w", newline="") as f:
                w = csv.writer(f)
                w.writerow([CSV_HEADER_VERSION])
                w.writerow(fields)
                for r in rows:
                    w.writerow([json.dumps(r.get(k), default=str)
                                if isinstance(r.get(k), (dict, list))
                                else r.get(k) for k in fields])
            paths.append(csv_path)
    return paths
