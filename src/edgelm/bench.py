"""Experiment pipelines behind the CLI: eviction-vs-quality, speculation BE
sweeps, quantization overlap/BPW tables, and the adapter-swap demo.

Every run is deterministic given (config, seed); reports embed both so any
row can be reproduced. Aggregates are always recomputable from the per-trial
records stored in the same report.
"""
from __future__ import annotations

import copy
import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _manifest
from . import kvcache as kvc
from . import lora as lora_mod
from . import quant as quant_mod
from .errors import ConfigError, ContractViolation
from .metrics import ROUGE_VARIANT, rouge_n
from .model import (ModelConfig, TinyLM, forward, greedy_continue, greedy_decode,
                    in_vocab, init_model, token_ids)
from .specdec import (DraftConfig, FeatureReuseDraft, IndependentDraft,
                      block_efficiency, decode_speculative)
from .tasks import gen_needle

ARTIFACT_VERSION = "0.1.0"


def _at_least(low: int, **values):
    for name, value in values.items():
        if value < low:
            raise ConfigError(f"{name} ({value}) must be >= {low}")


def read(cls, obj, where: str):
    """A config object as a ``cls``, omitted fields at their defaults."""
    return _manifest.dataclass_from(cls, obj, where, ConfigError, defaults=True)


@dataclass(frozen=True)
class Experiment:
    seed: int
    trials: int = 20
    model: ModelConfig = ModelConfig()
    task: dict = field(default_factory=dict)
    method: dict = field(default_factory=dict)

    def __post_init__(self):
        _at_least(0, seed=self.seed)
        _at_least(1, trials=self.trials)


def validate_config(config: dict) -> Experiment:
    return read(Experiment, config, "config")


def read_config(config: dict, task_cls, method_cls):
    """The config's top level and the runner's ``task`` and ``method`` sections."""
    exp = validate_config(config)
    return (exp, read(task_cls, exp.task, "config.task"),
            read(method_cls, exp.method, "config.method"))


def trial_seed(master: int, trial: int) -> int:
    return (master * 1_000_003 + trial) & (2**63 - 1)


PREFILL_CHUNK = 512


def prefill(model: TinyLM, tokens, cache):
    """Cache-extending block forward in chunks of ``PREFILL_CHUNK`` tokens
    (bounds attention memory), after checking the whole prompt as
    ``forward`` checks a block, so that a rejected one changes nothing."""
    tokens = in_vocab(token_ids(tokens), model.config.vocab_size)
    if cache.next_position() + tokens.size > model.config.max_seq:
        raise ValueError(f"sequence exceeds max_seq ({model.config.max_seq})")
    for start in range(0, tokens.size, PREFILL_CHUNK):
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
    args = dict(spec)
    kind = args.pop("kind", None)
    if type(kind) is not str or kind not in _POLICY_KINDS:
        raise ConfigError(f"policy kind {kind!r} is not one of {sorted(_POLICY_KINDS)}")
    return read(_POLICY_KINDS[kind], args, f"policy {kind}")


@dataclass(frozen=True)
class EvictTask:
    context_len: int = 512
    decode_len: int = 16

    def __post_init__(self):
        _at_least(1, decode_len=self.decode_len)


@dataclass(frozen=True)
class EvictMethod:
    eviction_ratios: tuple[float, ...] = (0.25, 0.5)
    policies: tuple[dict, ...] = (
        {"kind": "heavy_hitter", "recent": 4},
        {"kind": "obs_window", "obs": 16, "pool_kernel": 5},
        {"kind": "hybrid", "lambda_sink": 0.0, "lambda_recent": 0.0,
         "lambda_acc": 0.5, "lambda_win": 0.5, "obs": 16, "pool_kernel": 5},
        {"kind": "attention_sink", "sinks": 4, "window": 64},
        {"kind": "random", "seed": 0},
    )

    def __post_init__(self):
        for ratio in self.eviction_ratios:
            _at_least(0, eviction_ratio=ratio)


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
    exp, task, method = read_config(config, EvictTask, EvictMethod)
    policies = [policy_from_spec(p) for p in method.policies]
    kept = task.context_len - 1    # the prefill holds back the final query token
    budgets = {ratio: kept - int(round(ratio * kept))
               for ratio in method.eviction_ratios}
    for ratio, budget in budgets.items():
        for pspec, policy in zip(method.policies, policies):
            if budget < max(1, policy.floor()):
                raise ConfigError(
                    f"policy {pspec['kind']} at eviction ratio {ratio} gets budget "
                    f"{budget} (context_len {task.context_len}), below its mandatory "
                    f"floor {policy.floor()}")

    rows = []
    for t in range(exp.trials):
        ts = trial_seed(exp.seed, t)
        model = init_model(exp.model, ts)
        rng = np.random.default_rng(ts)
        lo = 16
        hi = max(lo + 1, task.context_len - 64)
        needle_pos = int(rng.integers(lo, hi))
        sample = gen_needle(task.context_len, needle_pos, ts)

        # hold back the final query token: it seeds decoding after eviction
        cache = kvc.KvCache.for_model(model.config)
        prefill(model, sample.tokens[:-1], cache)
        baseline_bytes = kvc.cache_bytes(cache, 4)
        base_cache = _clone_cache(cache)
        baseline_out = greedy_continue(model, base_cache, sample.tokens[-1:],
                                       task.decode_len)

        for ratio in method.eviction_ratios:
            budget = budgets[ratio]
            for pspec, policy in zip(method.policies, policies):
                c = _clone_cache(cache)
                report = kvc.evict(c, policy, budget)
                method_bytes = kvc.cache_bytes(c, 4)
                retained = needle_retained(c, sample.answer_start,
                                           sample.answer_end)
                method_out = greedy_continue(model, c, sample.tokens[-1:],
                                             task.decode_len)
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
    for i, r in enumerate(rows):
        policy, ratio, retained = _manifest.fields(
            r, f"trials[{i}]", ConfigError, policy=str, target_ratio=float,
            needle_retained=bool)
        by_policy.setdefault(f"{policy}@{ratio}", []).append(retained)
    return {k: sum(v) / len(v) for k, v in sorted(by_policy.items())}


# the draft of each kind for the trial seeded ts, given the target's ModelConfig
_DRAFTS = {
    "independent": lambda mc, ts: IndependentDraft(init_model(mc, ts + 1)),
    "feature_reuse": lambda mc, ts: FeatureReuseDraft.random_init(mc.d_model, ts + 2),
}


@dataclass(frozen=True)
class SpecTask:
    max_new: int = 24
    prompt_len: int = 8

    def __post_init__(self):
        _at_least(1, max_new=self.max_new, prompt_len=self.prompt_len)


@dataclass(frozen=True)
class SpecMethod:
    k: tuple[int, ...] = (4,)
    draft_kinds: tuple[str, ...] = tuple(_DRAFTS)

    def __post_init__(self):
        unknown = sorted(set(self.draft_kinds) - set(_DRAFTS))
        if unknown:
            raise ConfigError(f"draft kinds {unknown} are not in {sorted(_DRAFTS)}")
        if any(k < 1 for k in self.k):
            raise ConfigError(f"draft lengths k {list(self.k)} must be >= 1")


def run_spec_bench(config: dict) -> dict:
    exp, task, method = read_config(config, SpecTask, SpecMethod)
    rows = []
    trace_rows = []
    for t in range(exp.trials):
        ts = trial_seed(exp.seed, t)
        target = init_model(exp.model, ts)
        rng = np.random.default_rng(ts)
        prompt = [int(x) for x in rng.integers(0, target.config.vocab_size,
                                               size=task.prompt_len)]
        reference = greedy_decode(target, prompt, task.max_new)
        for kind in method.draft_kinds:
            draft = _DRAFTS[kind](exp.model, ts)
            for k in method.k:
                target.reset_counters()
                trace: list = []
                out, stats = decode_speculative(target, DraftConfig(draft, k),
                                                prompt, task.max_new, trace=trace)
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


@dataclass(frozen=True)
class QuantTask:
    sequences: int = 4
    seq_len: int = 32

    def __post_init__(self):
        _at_least(1, sequences=self.sequences, seq_len=self.seq_len)


@dataclass(frozen=True)
class QuantMethod:
    bits: tuple[int, ...] = (8, 4, 3, 2)
    scheme: str = "symmetric"
    bpw_budget: float | None = None

    def __post_init__(self):
        for bits in self.bits:
            quant_mod.QuantSpec(bits=bits, scheme=self.scheme)


def run_quant_bench(config: dict) -> dict:
    exp, task, method = read_config(config, QuantTask, QuantMethod)
    model = init_model(exp.model, exp.seed)
    rng = np.random.default_rng(exp.seed)
    seqs = [[int(x) for x in rng.integers(0, model.config.vocab_size,
                                          size=task.seq_len)]
            for _ in range(task.sequences)]
    # planned before the first forward, so a budget no plan meets fails up front
    budget = method.bpw_budget
    budget_plan = (None if budget is None else
                   quant_mod.assign_precision(model, seqs, budget, scheme=method.scheme))

    rows = [{
        "plan": "identity-sanity", "bpw": None,
        "top1_overlap": quant_mod.top1_overlap(model, model, seqs),
        "bits_by_slot": None,
    }]
    for bits in method.bits:
        plan = quant_mod.uniform_plan(model, bits, scheme=method.scheme)
        qm = quant_mod.ptq_model(model, plan)
        rows.append({
            "plan": f"uniform-{bits}bit",
            "bpw": quant_mod.plan_bpw(model, plan),
            "top1_overlap": quant_mod.top1_overlap(model, qm, seqs),
            "bits_by_slot": {s: sp.bits for s, sp in plan.specs.items()},
        })
    if budget_plan is not None:
        qm = quant_mod.ptq_model(model, budget_plan)
        achieved = quant_mod.plan_bpw(model, budget_plan)
        if achieved > budget:
            raise ContractViolation("assign_precision exceeded its budget")
        rows.append({
            "plan": f"budgeted-{budget}",
            "bpw": achieved,
            "top1_overlap": quant_mod.top1_overlap(model, qm, seqs),
            "bits_by_slot": {s: sp.bits for s, sp in budget_plan.specs.items()},
        })
    return _make_report(config, rows, agg_fields=("top1_overlap",))


@dataclass(frozen=True)
class LoraTask:
    """The adapter demo reads no task keys."""


@dataclass(frozen=True)
class LoraMethod:
    adapters: int = 3
    swaps: int = 100
    base_bits: int = 4

    def __post_init__(self):
        _at_least(0, adapters=self.adapters, swaps=self.swaps)


def run_lora_demo(config: dict) -> dict:
    exp, _, method = read_config(config, LoraTask, LoraMethod)
    seed = exp.seed
    model = init_model(exp.model, seed)
    plan = quant_mod.uniform_plan(model, method.base_bits)
    base = quant_mod.ptq_model(model, plan, freeze=True)
    registry = lora_mod.AdapterRegistry(base)
    targets = [s for s in model.config.slot_shapes()
               if s.endswith(("wq", "wv"))]
    for i in range(method.adapters):
        registry.register(lora_mod.create_adapter(
            base, targets, r=4, alpha=8.0, seed=seed + i, name=f"scenario-{i}"))

    h0 = registry.base_hash()
    rng = np.random.default_rng(seed)
    names = list(registry.adapters) + [None]
    for _ in range(method.swaps):
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
        "adapters": method.adapters, "swaps": method.swaps, "base_hash": h0,
        "hash_invariant": True, "qalft_final_loss": fit.losses[-1],
        "qalft_steps": len(fit.losses) - 1,
        "gradient_check_max_rel_err": float(grad_err),
    }]
    return _make_report(config, rows,
                        agg_fields=("qalft_final_loss",
                                    "gradient_check_max_rel_err"))


# --- report plumbing ---------------------------------------------------------

def _summary(rows: list, field: str):
    """Mean, min and max of a number field over the rows that carry it (not
    null), or None."""
    vals = [_manifest.fields(r, f"trials[{i}]", ConfigError, **{field: float})[0]
            for i, r in enumerate(rows) if r.get(field) is not None]
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
    """Recompute every aggregate from the per-trial rows. A report without a
    ``trials`` list of objects and an ``aggregates`` object is a ConfigError."""
    rows, aggregates = _manifest.fields(report, "report", ConfigError,
                                        trials=tuple[dict, ...], aggregates=dict)
    for field, agg in aggregates.items():
        if field == "retention_rate_by_policy":
            expected = _retention_rates(rows)
        else:
            expected = _summary(rows, field)
        if (not isinstance(agg, dict) or expected is None or set(agg) != set(expected)
                or not all(np.isclose(agg[k], expected[k]) for k in expected)):
            return False
    return True


def write_report(report: dict, out_dir, name: str):
    """Write ``<name>.json`` and ``<name>.trials.jsonl`` (one trial a line)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{name}.json"
    with open(json_path, "w") as f:
        json.dump(report, f, indent=2, default=str)
    jsonl_path = out_dir / f"{name}.trials.jsonl"
    with open(jsonl_path, "w") as f:
        for row in report["trials"]:
            f.write(json.dumps(row, default=str) + "\n")
    return [json_path, jsonl_path]
