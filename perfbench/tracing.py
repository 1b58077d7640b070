"""In-memory spans recorded around calls into edgelm's public functions.

Tracing lives in the benchmark, not in the library: ``instrument`` swaps the
library's module functions and class methods for timing wrappers and puts the
originals back when it exits. Spans stay in memory until ``write_spans``.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Optional

from edgelm import kvcache, lora, quant, specdec

# Every module that calls ``forward`` by its imported name. A site missing
# here leaves forwards untraced, which ``check_forward_spans`` catches.
FORWARD_SITES = ("edgelm.model", "edgelm.bench", "edgelm.specdec",
                 "edgelm.lora", "edgelm.quant")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name: str, start: int, parent: int,
                 request: Optional[str], end: int = 0, attrs=None):
        self.name = name
        self.start = start              # perf_counter_ns
        self.end = end
        self.parent = parent            # index into Tracer.spans, -1 at the root
        self.request = request
        self.attrs = attrs

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Spans of one thread. ``request`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: Optional[str] = None
        self.expected_forwards = 0      # TinyLM.stats["forwards"] increments
        self._open: list[int] = []

    def open(self, name: str) -> Span:
        parent = self._open[-1] if self._open else -1
        span = Span(name, time.perf_counter_ns(), parent, self.request)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter_ns()
        self._open.pop()


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0, s.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.duration - covered)
    return out


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    p = spans[index].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def _traced(tracer: Tracer, fn: Callable, name: str,
            describe: Optional[Callable] = None,
            before: Optional[Callable] = None) -> Callable:
    """Wrap fn in a span; ``describe`` sets span.attrs after the span closes."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        state = before(*args, **kwargs) if before is not None else None
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if describe is not None:
            span.attrs = describe(state, result, *args, **kwargs)
        return result
    return traced


def _describe_forward(site: str) -> Callable:
    def describe(_state, _result, _model, tokens, *args, **kwargs):
        adapter = kwargs.get("adapter", args[3] if len(args) > 3 else None)
        return {"site": site, "tokens": len(tokens),
                "adapter": None if adapter is None else adapter.name}
    return describe


def _kept_bytes(_state, _result, cache, *_args, **_kwargs):
    itemsize = cache.layer_kv(0)[0].itemsize
    return {"kept_bytes": kvcache.cache_bytes(cache, itemsize)}


def _evicted(_state, report, *_args, **_kwargs):
    return {"entries": sum(layer.evicted_count for layer in report.layers)}


def _kept_before(cache, *_args, **_kwargs):
    return cache.total_kept()


def _truncated(kept_before, _result, cache, *_args, **_kwargs):
    return {"entries": kept_before - cache.total_kept()}


@contextmanager
def instrument(tracer: Tracer, models: Callable[[], Iterable],
               forward_sites: Iterable[str] = FORWARD_SITES):
    """Trace calls into every layer while the block runs, then restore them.

    ``models`` lists every TinyLM the block may run (it is called again on
    exit, so models built inside the block count); their forward-counter
    increments are added to ``tracer.expected_forwards``.
    """
    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, **hooks):
        original = owner.__dict__[attr]
        patched.append((owner, attr, original))
        setattr(owner, attr, _traced(tracer, original, name, **hooks))

    base = {id(m): m.stats["forwards"] for m in models()}
    try:
        for site in forward_sites:
            module = importlib.import_module(site)
            patch(module, "forward", "model.forward",
                  describe=_describe_forward(site))
        patch(kvcache.KvCache, "append", "kvcache.append", describe=_kept_bytes)
        patch(kvcache.KvCache, "append_block", "kvcache.append",
              describe=_kept_bytes)
        patch(kvcache.KvCache, "truncate", "kvcache.truncate",
              before=_kept_before, describe=_truncated)
        patch(kvcache, "evict", "kvcache.evict", describe=_evicted)
        patch(specdec, "decode_speculative", "specdec.decode")
        patch(specdec, "propose", "specdec.propose")
        patch(quant.QuantTensor, "dequantize", "quant.dequantize")
        patch(quant, "ptq_model", "quant.ptq")
        patch(quant, "save_quant_model", "quant.manifest_save")
        patch(quant, "load_quant_model", "quant.manifest_load")
        patch(lora, "load_adapter", "lora.adapter_load")
        patch(lora.AdapterRegistry, "activate", "lora.activate")
        patch(lora.AdapterRegistry, "base_hash", "lora.base_hash")
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        tracer.expected_forwards += sum(
            m.stats["forwards"] - base.get(id(m), 0) for m in models())


def check_forward_spans(tracer: Tracer) -> dict:
    """Every counted forward must have a span; an unwrapped call site shows here."""
    spans = sum(1 for s in tracer.spans if s.name == "model.forward")
    return {"ok": spans == tracer.expected_forwards, "forward_spans": spans,
            "counted_forwards": tracer.expected_forwards}


def write_spans(tracer: Tracer, path):
    with open(path, "w") as f:
        for s in tracer.spans:
            f.write(json.dumps({"name": s.name, "start_ns": s.start,
                                "end_ns": s.end, "parent": s.parent,
                                "request": s.request, **(s.attrs or {})}) + "\n")
