"""The three serving workloads: inputs from the seed, set-up, one request, checks.

The served models are fixed (seeded by constants): the traffic seed changes
only the prompts, as it would for a deployed model. Every call into edgelm
goes through a module attribute (``specdec.decode_speculative``, not a
from-import) so the traced run can swap in its wrappers.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from edgelm import bench, kvcache, lora, quant, specdec
from edgelm import model as model_mod
from edgelm.tasks import gen_needle

from .stats import match_share

MODEL_SEED = 0
DRAFT_SEED = 1
ADAPTER_SEED = 100
CALIBRATION_SEED = 200


@dataclass
class Entry:
    prompt: list[int]
    adapter: Optional[str] = None


@dataclass
class Served:
    """One request as the client saw it; ``tokens`` are the generated ones."""
    entry: int
    t0: float
    end: float = 0.0
    stamps: list[tuple[float, int]] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    spec: Optional[specdec.SpecStats] = None
    evidence: list = field(default_factory=list)   # cleared by Workload.inspect
    error: Optional[str] = None       # the request raised
    fault: Optional[str] = None       # a check on the request failed


@dataclass
class Checked:
    """Outcome of the verify phase."""
    failures: dict[int, str]            # index into the served list -> reason
    quality: dict[str, tuple[float, int]]   # name -> (value, sample count)
    references: int                     # reference computations attempted
    reference_failures: int
    extra: dict = field(default_factory=dict)


def _argmax(fo) -> int:
    return int(np.argmax(fo.logits[-1]))


def _needle_prompts(rng: np.random.Generator, count: int, length: int) -> list[list[int]]:
    prompts = []
    for _ in range(count):
        pos = int(rng.integers(16, length - 64))
        prompts.append(gen_needle(length, pos, int(rng.integers(0, 2**31))).tokens)
    return prompts


def _references(model, entries: list[Entry], used: set[int], max_new: int,
                adapters: dict) -> tuple[dict[int, list[int]], dict[int, float], int]:
    """Full-cache greedy continuation for every pool entry that was served."""
    refs, walls, failed = {}, {}, 0
    for i in sorted(used):
        e = entries[i]
        t0 = time.perf_counter()
        try:
            out = model_mod.greedy_decode(model, e.prompt, max_new,
                                          adapter=adapters.get(e.adapter))
        except Exception:
            failed += 1
            continue
        walls[i] = time.perf_counter() - t0
        refs[i] = out[len(e.prompt):]
    return refs, walls, failed


def _first_served(served: list[Served]) -> dict[int, Served]:
    first: dict[int, Served] = {}
    for s in served:
        if s.error is None:
            first.setdefault(s.entry, s)
    return first


class Workload:
    name = ""
    setup_repeats = 5
    max_new = 0
    exact = True    # outputs must equal the full-cache reference

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.models: list = []  # every TinyLM built, for the forward-span check

    def inputs(self, seed: int) -> list[Entry]:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def serve(self, state, entry: Entry, served: Served):
        raise NotImplementedError

    def inspect(self, served: Served):
        """Check what a request recorded, once its clock has stopped."""

    def reference_adapters(self, state) -> dict:
        return {}

    def verify(self, state, entries: list[Entry], served: list[Served]) -> Checked:
        """Compare every request with full-cache greedy decoding of its entry.

        Here a request fails when its tokens differ; subclasses that decode
        differently by design (eviction) fail on their own checks instead.
        """
        used = {s.entry for s in served}
        refs, walls, ref_failed = _references(state.model, entries, used, self.max_new,
                                              self.reference_adapters(state))
        failures = {}
        for j, s in enumerate(served):
            fault = s.error or s.fault
            if fault is None and s.entry not in refs:
                fault = "no reference"
            if fault is None and self.exact and s.tokens != refs[s.entry]:
                fault = "output differs from greedy_decode"
            if fault is not None:
                failures[j] = fault
        first = {i: s for i, s in _first_served(served).items() if i in refs}
        match = match_share([s.tokens for s in first.values()],
                            [refs[i] for i in first]) if first else 0.0
        quality = {
            "match_full_cache": (match, len(first)),
            # the served weights are the float weights: overlap is 1 exactly
            "top1_overlap": (1.0, 0),
        }
        return Checked(failures, quality, len(used), ref_failed, {"reference_s": walls})


@dataclass
class FloatState:
    model: object
    draft: object = None


class LongPrompt(Workload):
    """2048-token needle prompts, chunked prefill, 64 greedy tokens, full cache."""
    name = "long_prompt"
    prompt_len = 2048
    max_new = 64
    pool = 2

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return [Entry(p) for p in _needle_prompts(rng, self.pool, self.prompt_len)]

    def setup(self):
        model = model_mod.init_model(model_mod.ModelConfig(), MODEL_SEED)
        self.models.append(model)
        return FloatState(model)

    def serve(self, state, entry, served):
        cache = kvcache.KvCache.for_model(state.model.config)
        tok = _argmax(bench.prefill(state.model, entry.prompt, cache))
        served.stamps.append((time.perf_counter(), 1))
        served.tokens.append(tok)
        for _ in range(self.max_new - 1):
            tok = _argmax(model_mod.forward(state.model, [tok], cache=cache))
            served.stamps.append((time.perf_counter(), 1))
            served.tokens.append(tok)


class _RoundClock(list):
    """``decode_speculative``'s round log, stamped with the time each round ends."""

    def append(self, record):
        record["t"] = time.perf_counter()
        super().append(record)


class SpecDecode(Workload):
    """Chain speculation with an independent 1-layer draft, k=4."""
    name = "spec_decode"
    prompt_len = 512
    max_new = 64
    k = 4
    pool = 6
    draft_config = model_mod.ModelConfig(d_model=32, n_layers=1, n_heads=2,
                                         n_kv_heads=1, head_dim=16)

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return [Entry([int(t) for t in rng.integers(0, 256, self.prompt_len)])
                for _ in range(self.pool)]

    def setup(self):
        target = model_mod.init_model(model_mod.ModelConfig(), MODEL_SEED)
        draft = model_mod.init_model(self.draft_config, DRAFT_SEED)
        self.models += [target, draft]
        return FloatState(target, draft)

    def serve(self, state, entry, served):
        clock = _RoundClock()
        cfg = specdec.DraftConfig(specdec.IndependentDraft(state.draft), k=self.k)
        out, stats = specdec.decode_speculative(state.model, cfg, entry.prompt,
                                                self.max_new, trace=clock)
        served.stamps = [(r["t"], r["emitted"]) for r in clock]
        served.tokens = out[len(entry.prompt):]
        served.spec = stats


@dataclass
class EdgeState:
    model: object               # the quantized base, reloaded from its manifest
    float_model: object
    registry: lora.AdapterRegistry
    manifest_ok: bool
    base_hash: str


class EdgeStream(Workload):
    """4-bit base with three adapters, hybrid eviction to a 128-entry budget."""
    name = "edge_stream"
    prompt_len = 256
    max_new = 128
    budget = 128
    pool = 24
    adapters = ("a0", "a1", "a2", None)
    policy = kvcache.Hybrid()
    calibration = 16
    exact = False   # eviction changes the output; match_full_cache measures by how much

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        prompts = _needle_prompts(rng, self.pool, self.prompt_len)
        return [Entry(p, self.adapters[i % len(self.adapters)])
                for i, p in enumerate(prompts)]

    def setup(self):
        float_model = model_mod.init_model(model_mod.ModelConfig(), MODEL_SEED)
        plan = quant.uniform_plan(float_model, 4)
        in_memory = quant.ptq_model(float_model, plan, freeze=True)
        path = self.workdir / "base.edgelmq"
        quant.save_quant_model(in_memory, path)
        base = quant.load_quant_model(path)
        self.models += [float_model, in_memory, base]
        manifest_ok = (set(base.weights) == set(in_memory.weights) and all(
            base.weights[n].encoding_bytes() == in_memory.weights[n].encoding_bytes()
            for n in in_memory.weights))
        registry = lora.AdapterRegistry(base)
        targets = [s for s in base.config.slot_shapes() if s.endswith(("wq", "wv"))]
        for i, name in enumerate(a for a in self.adapters if a is not None):
            adapter = lora.create_adapter(base, targets, r=4, alpha=8.0,
                                          seed=ADAPTER_SEED + i, name=name)
            for slot, b in adapter.B.items():   # create_adapter's B=0 is the identity
                rng = model_mod.slot_rng(ADAPTER_SEED + i, f"bench.{name}.{slot}.B")
                adapter.B[slot] = rng.normal(0, 0.02, b.shape).astype(np.float32)
            adapter_path = self.workdir / f"{name}.edgelma"
            lora.save_adapter(adapter, adapter_path)
            registry.register(lora.load_adapter(adapter_path))
        return EdgeState(base, float_model, registry, manifest_ok,
                         registry.base_hash())

    def serve(self, state, entry, served):
        registry = state.registry
        registry.activate(entry.adapter)
        cache = kvcache.KvCache.for_model(state.model.config)
        tok = _argmax(registry.apply_forward(entry.prompt, cache=cache))
        served.stamps.append((time.perf_counter(), 1))
        served.tokens.append(tok)
        window = self.policy.floor()
        layers = range(cache.n_layers)
        for _ in range(self.max_new - 1):
            tails = [cache.kept_positions(li)[-window:] for li in layers]
            kvcache.evict(cache, self.policy, self.budget)
            served.evidence.append((tails, [cache.kept_positions(li) for li in layers]))
            tok = _argmax(registry.apply_forward([tok], cache=cache))
            served.stamps.append((time.perf_counter(), 1))
            served.tokens.append(tok)

    def inspect(self, served):
        """Check the recorded evictions, then drop them, so that memory does
        not grow with the number of requests served."""
        served.fault = self.eviction_fault(served.evidence)
        served.evidence = []

    def eviction_fault(self, evidence) -> Optional[str]:
        """Budget, the policy's mandatory recent window, strictly rising positions."""
        for step, (tails, kept) in enumerate(evidence):
            for li, (tail, pos) in enumerate(zip(tails, kept)):
                if pos.size > self.budget:
                    return f"step {step} layer {li}: {pos.size} kept > budget"
                if not np.isin(tail, pos).all():
                    return f"step {step} layer {li}: evicted a mandatory position"
                if np.any(np.diff(pos) <= 0):
                    return f"step {step} layer {li}: positions not increasing"
        return None

    def reference_adapters(self, state):
        return dict(state.registry.adapters)

    def verify(self, state, entries, served):
        checked = super().verify(state, entries, served)
        # Top-1 overlap is a property of the quantized base, so it is scored
        # on fixed prompts shaped like the requests: per prompt it is close
        # to 0 or 1 (the filler token decides), so a dozen seeded prompts
        # would swing it by more than its bound from one seed to the next.
        calibration = _needle_prompts(np.random.default_rng(CALIBRATION_SEED),
                                      self.calibration, self.prompt_len)
        checked.references += 1
        try:
            overlap = quant.top1_overlap(state.float_model, state.model, calibration)
        except Exception:
            overlap = 0.0
            checked.reference_failures += 1
        checked.quality["top1_overlap"] = (overlap, len(calibration))
        hash_kept = state.registry.base_hash() == state.base_hash
        if not state.manifest_ok:
            checked.failures = dict.fromkeys(
                range(len(served)), "reloaded manifest differs from the in-memory base")
        elif not hash_kept:
            checked.failures = dict.fromkeys(range(len(served)), "base hash changed")
        checked.extra.update(manifest_ok=state.manifest_ok, base_hash_kept=hash_kept)
        return checked


WORKLOADS = {w.name: w for w in (LongPrompt, SpecDecode, EdgeStream)}
