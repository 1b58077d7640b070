"""The benchmark's own arithmetic and its trace coverage check.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the repository root.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from edgelm import model as model_mod
from edgelm import specdec
from perfbench import metrics
from perfbench.stats import (match_share, summarize, tail_permille, token_gaps,
                             tokens_per_second)
from perfbench.tracing import (FORWARD_SITES, Span, Tracer, check_forward_spans,
                               instrument, self_times)
from perfbench.workloads import WORKLOADS, Served

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("n, permille", [
    (19, None), (20, 500), (99, 500), (100, 900), (199, 900), (200, 950),
    (999, 950), (1000, 990), (10000, 999)])
def test_tail_percentile_keeps_ten_samples_beyond(n, permille):
    assert tail_permille(n) == permille


def test_summary_reports_sample_count_with_tail():
    s = summarize([float(x) for x in range(100)])
    assert s["n"] == 100
    assert s["p50"] == pytest.approx(49.5)
    assert s["tail"]["percentile"] == 90.0
    assert s["tail"]["value"] == pytest.approx(89.1)
    assert "tail" not in summarize([1.0] * 19)


def test_self_time_subtracts_direct_children_only():
    spans = [Span("root", 0, -1, "r", end=100),
             Span("a", 10, 0, "r", end=40),
             Span("a.inner", 20, 1, "r", end=30),
             Span("b", 50, 0, "r", end=60)]
    assert self_times(spans) == [60, 20, 10, 10]


def test_tracer_nests_spans_by_parent():
    tracer = Tracer()
    tracer.request = "q"
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    assert tracer.spans == [outer, inner]
    assert (outer.parent, inner.parent) == (-1, 0)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert inner.request == "q"


def test_token_gaps_spread_a_round_over_its_tokens():
    ttft, gaps = token_gaps(0.5, [(1.0, 3), (1.5, 1), (2.5, 2)])
    assert ttft == pytest.approx(0.5)
    assert gaps == pytest.approx([0.5, 0.5, 0.5])


def test_tok_per_s_divides_generated_tokens_by_phase_wall():
    served = [Served(entry=0, t0=0.0, end=1.0, stamps=[(0.5, 1), (1.0, 1)], tokens=[1, 2]),
              Served(entry=1, t0=1.0, end=2.0, stamps=[(1.2, 1), (2.0, 1)], tokens=[3, 4]),
              Served(entry=0, t0=2.0, end=2.5, error="ValueError: boom")]
    quality = {"match_full_cache": (0.5, 2), "top1_overlap": (1.0, 0)}
    figures, _ = metrics.end_to_end([0.2, 0.1, 0.3], served, 4.0, 100.0, quality)
    assert figures["tok_per_s"] == (pytest.approx(1.0), 4)
    assert figures["setup_s"] == (pytest.approx(0.2), 3)
    assert figures["request_s_mean"] == (pytest.approx(1.0), 2)
    assert figures["ttft_ms_mean"] == (pytest.approx(350.0), 2)
    assert figures["tpot_ms_mean"] == (pytest.approx(650.0), 2)
    assert figures["match_full_cache"] == (0.5, 2)
    assert tokens_per_second(128, 2.0) == 64.0
    with pytest.raises(ValueError):
        tokens_per_second(1, 0.0)


def test_match_full_cache_counts_tokens_position_by_position():
    assert match_share([[1, 2, 3], [4, 5]], [[1, 2, 4], [4, 5]]) == pytest.approx(0.8)
    assert match_share([[1, 2]], [[2, 1]]) == 0.0
    with pytest.raises(ValueError):
        match_share([[1, 2]], [[1, 2, 3]])


@pytest.mark.parametrize("tail, kept, fault", [
    ([3, 4], [0, 3, 4], None),
    ([3, 4], [0, 1, 3, 4], "kept > budget"),
    ([3, 4], [0, 1, 3], "evicted a mandatory position"),
    ([3, 4], [3, 1, 4], "positions not increasing")])
def test_eviction_check_names_the_broken_invariant(tail, kept, fault):
    edge = WORKLOADS["edge_stream"](ROOT)
    edge.budget = 3
    evidence = [([np.array(tail)], [np.array(kept)])]
    found = edge.eviction_fault(evidence)
    assert found is None if fault is None else fault in found


def _tiny_speculation():
    cfg = model_mod.ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2,
                                n_kv_heads=1, head_dim=8, max_seq=64)
    target = model_mod.init_model(cfg, 0)
    draft = model_mod.init_model(cfg, 1)
    return target, draft, specdec.DraftConfig(specdec.IndependentDraft(draft), k=3)


def _speculate(target, draft_cfg):
    prompt = [int(t) for t in np.random.default_rng(0).integers(0, 32, 8)]
    specdec.decode_speculative(target, draft_cfg, prompt, 6)


def test_forward_span_check_passes_with_every_call_site_wrapped():
    target, draft, draft_cfg = _tiny_speculation()
    tracer = Tracer()
    with instrument(tracer, lambda: [target, draft]):
        _speculate(target, draft_cfg)
    check = check_forward_spans(tracer)
    assert check["ok"] and check["forward_spans"] > 0


def test_forward_span_check_fails_with_one_call_site_unwrapped():
    target, draft, draft_cfg = _tiny_speculation()
    tracer = Tracer()
    sites = [s for s in FORWARD_SITES if s != "edgelm.specdec"]
    with instrument(tracer, lambda: [target, draft], forward_sites=sites):
        _speculate(target, draft_cfg)
    check = check_forward_spans(tracer)
    assert not check["ok"]
    assert check["forward_spans"] < check["counted_forwards"]


def test_instrument_restores_every_wrapper():
    from edgelm import bench, kvcache, lora, quant
    owners = {specdec: ("forward", "propose", "decode_speculative"),
              model_mod: ("forward",), bench: ("forward",), lora: ("forward", "load_adapter"),
              quant: ("forward", "ptq_model", "save_quant_model", "load_quant_model"),
              kvcache: ("evict",),
              kvcache.KvCache: ("append", "append_block", "truncate"),
              quant.QuantTensor: ("dequantize",),
              lora.AdapterRegistry: ("activate", "base_hash")}
    before = {(o, a): o.__dict__[a] for o, attrs in owners.items() for a in attrs}
    with pytest.raises(RuntimeError):
        with instrument(Tracer(), lambda: []):
            assert all(o.__dict__[a] is not f for (o, a), f in before.items())
            raise RuntimeError("leave the block early")
    assert all(o.__dict__[a] is f for (o, a), f in before.items())


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
