"""The reported figures: end-to-end from the untraced phase, per layer from spans.

Per-layer totals and counts cover the traced pass, which serves each pool
entry once, so they compare across commits; set-up figures are medians over
the set-up repetitions. A layer a workload never calls reports 0 with 0
samples.
"""
from __future__ import annotations

from collections import defaultdict

from .stats import percentile, summarize, token_gaps, tokens_per_second
from .tracing import Span, has_ancestor, self_times

# name, unit, which direction is better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ttft_ms_mean", "ms", "lower"),
    ("tpot_ms_mean", "ms", "lower"),
    ("tpot_ms_p90", "ms", "lower"),
    ("request_s_mean", "s", "lower"),
    ("tok_per_s", "tokens/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("match_full_cache", "share", "higher"),
    ("top1_overlap", "share", "higher"),
)

PER_LAYER = (
    ("model.prefill_ms_p50", "ms", "lower"),
    ("model.decode_ms_p50", "ms", "lower"),
    ("model.forward_self_ms_total", "ms", "lower"),
    ("model.forwards", "count", "lower"),
    ("kvcache.append_ms_total", "ms", "lower"),
    ("kvcache.appends", "count", "lower"),
    ("kvcache.evict_ms_p50", "ms", "lower"),
    ("kvcache.evicted_entries", "count", "lower"),
    ("kvcache.truncate_ms_total", "ms", "lower"),
    ("kvcache.truncated_entries", "count", "lower"),
    ("kvcache.kept_bytes_max", "bytes", "lower"),
    ("specdec.draft_ms_per_round", "ms", "lower"),
    ("specdec.verify_ms_per_round", "ms", "lower"),
    ("specdec.draft_forwards", "count", "lower"),
    ("specdec.block_efficiency", "tokens/round", "higher"),
    ("specdec.accept_rate", "share", "higher"),
    ("specdec.draft_cost_ratio", "ratio", "lower"),
    ("specdec.wall_speedup", "ratio", "higher"),
    ("quant.dequantize_ms_total", "ms", "lower"),
    ("quant.dequantize_calls", "count", "lower"),
    ("quant.ptq_ms", "ms", "lower"),
    ("quant.manifest_save_ms", "ms", "lower"),
    ("quant.manifest_load_ms", "ms", "lower"),
    ("lora.adapter_load_ms", "ms", "lower"),
    ("lora.activate_us", "us", "lower"),
    ("lora.base_hash_ms", "ms", "lower"),
    ("lora.decode_ms_p50_adapter", "ms", "lower"),
    ("lora.decode_ms_p50_base", "ms", "lower"),
    ("trace.overhead_frac", "share", "lower"),
    ("trace.spans", "count", "lower"),
)


def _pct(values: list[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def _p50(values: list[float]) -> float:
    return _pct(values, 50)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(setup_s: list[float], served: list, wall_s: float,
               peak_rss_mb: float, quality: dict[str, tuple[float, int]]
               ) -> tuple[dict[str, tuple[float, int]], dict]:
    """END_TO_END figures as (value, sample count), and the timing summaries.

    Timings cover every timed request that returned; a request that raised
    has no timings and is counted as failed by the caller. Latencies are
    gated on their mean: other tenants of a shared host slow this process by
    40% to 100% for seconds to minutes, so a run's timings have a fast and a
    slow mode. Its median or quartile jumps between the modes with the share
    of contended time, while its mean moves in proportion (README).
    """
    done = [s for s in served if s.error is None]
    ttft, tpot, request = [], [], []
    for s in done:
        first, gaps = token_gaps(s.t0, s.stamps)
        ttft.append(first * 1e3)
        tpot.extend(g * 1e3 for g in gaps)
        request.append(s.end - s.t0)
    generated = sum(len(s.tokens) for s in done)
    summaries = {"setup_s": summarize(setup_s), "ttft_ms": summarize(ttft),
                 "tpot_ms": summarize(tpot), "request_s": summarize(request)}
    figures = {
        "setup_s": (_p50(setup_s), len(setup_s)),
        "ttft_ms_mean": (_mean(ttft), len(ttft)),
        "tpot_ms_mean": (_mean(tpot), len(tpot)),
        "tpot_ms_p90": (_pct(tpot, 90), len(tpot)),
        "request_s_mean": (_mean(request), len(request)),
        "tok_per_s": (tokens_per_second(generated, wall_s), generated),
        "peak_rss_mb": (peak_rss_mb, 1),
        "match_full_cache": quality["match_full_cache"],
        "top1_overlap": quality["top1_overlap"],
    }
    return figures, summaries


def layer_metrics(spans: list[Span], pass_requests: set[str],
                  setup_requests: set[str], spec_stats: list
                  ) -> dict[str, tuple[float, int]]:
    """Span-derived PER_LAYER figures as (value, sample count).

    ``specdec.wall_speedup`` and ``trace.overhead_frac`` compare untraced
    timings, so the caller adds them.
    """
    selfs = self_times(spans)
    in_pass: dict[str, list[int]] = defaultdict(list)
    in_setup: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.request in pass_requests:
            in_pass[s.name].append(i)
        elif s.request in setup_requests:
            in_setup[s.name].append(i)

    def ms(i: int) -> float:
        return spans[i].duration / 1e6

    def attr(i: int, key: str, default=0):
        # a call that raised has no attrs; its request is failed elsewhere
        return (spans[i].attrs or {}).get(key, default)

    def setup_p50(name: str) -> tuple[float, int]:
        return _p50([ms(i) for i in in_setup[name]]), len(in_setup[name])

    fwd = in_pass["model.forward"]
    prefill = [ms(i) for i in fwd if attr(i, "tokens") > 1
               and not has_ancestor(spans, i, "specdec.decode")]
    decode = [ms(i) for i in fwd if attr(i, "tokens") == 1]
    lora_decode = {True: [], False: []}
    for i in fwd:
        if attr(i, "site") == "edgelm.lora" and attr(i, "tokens") == 1:
            lora_decode[attr(i, "adapter", None) is not None].append(ms(i))

    appends = in_pass["kvcache.append"]
    evicts = in_pass["kvcache.evict"]
    truncs = in_pass["kvcache.truncate"]
    kept_bytes = [attr(i, "kept_bytes") for i in appends]

    proposes = in_pass["specdec.propose"]
    draft_fwd = [i for i in fwd if has_ancestor(spans, i, "specdec.propose")]
    target_fwd = [i for i in fwd if has_ancestor(spans, i, "specdec.decode")
                  and not has_ancestor(spans, i, "specdec.propose")]
    rounds = sum(s.rounds for s in spec_stats)
    draft_ms = sum(ms(i) for i in proposes)
    verify_ms = sum(ms(i) for i in target_fwd)
    dequant = in_pass["quant.dequantize"]
    activates = in_pass["lora.activate"]

    return {
        "model.prefill_ms_p50": (_p50(prefill), len(prefill)),
        "model.decode_ms_p50": (_p50(decode), len(decode)),
        "model.forward_self_ms_total": (sum(selfs[i] for i in fwd) / 1e6, len(fwd)),
        "model.forwards": (len(fwd), len(fwd)),
        "kvcache.append_ms_total": (sum(ms(i) for i in appends), len(appends)),
        "kvcache.appends": (len(appends), len(appends)),
        "kvcache.evict_ms_p50": (_p50([ms(i) for i in evicts]), len(evicts)),
        "kvcache.evicted_entries": (sum(attr(i, "entries") for i in evicts), len(evicts)),
        "kvcache.truncate_ms_total": (sum(ms(i) for i in truncs), len(truncs)),
        "kvcache.truncated_entries": (sum(attr(i, "entries") for i in truncs), len(truncs)),
        "kvcache.kept_bytes_max": (max(kept_bytes, default=0), len(kept_bytes)),
        "specdec.draft_ms_per_round": (_ratio(draft_ms, rounds), rounds),
        "specdec.verify_ms_per_round": (_ratio(verify_ms, rounds), rounds),
        "specdec.draft_forwards": (len(draft_fwd), len(draft_fwd)),
        "specdec.block_efficiency": (
            _ratio(sum(s.emitted for s in spec_stats), rounds), rounds),
        "specdec.accept_rate": (
            _ratio(sum(s.accepted for s in spec_stats),
                   sum(s.proposed for s in spec_stats)), rounds),
        # Leviathan et al.'s c: time of one draft forward over one target forward
        "specdec.draft_cost_ratio": (
            _ratio(_ratio(draft_ms, len(draft_fwd)), _ratio(verify_ms, len(target_fwd))),
            len(draft_fwd)),
        "quant.dequantize_ms_total": (sum(ms(i) for i in dequant), len(dequant)),
        "quant.dequantize_calls": (len(dequant), len(dequant)),
        "quant.ptq_ms": setup_p50("quant.ptq"),
        "quant.manifest_save_ms": setup_p50("quant.manifest_save"),
        "quant.manifest_load_ms": setup_p50("quant.manifest_load"),
        "lora.adapter_load_ms": setup_p50("lora.adapter_load"),
        "lora.activate_us": (_p50([ms(i) * 1e3 for i in activates]), len(activates)),
        "lora.base_hash_ms": setup_p50("lora.base_hash"),
        "lora.decode_ms_p50_adapter": (_p50(lora_decode[True]), len(lora_decode[True])),
        "lora.decode_ms_p50_base": (_p50(lora_decode[False]), len(lora_decode[False])),
        "trace.spans": (len(spans), len(spans)),
    }
