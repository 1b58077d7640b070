"""In-process A/B of two checkouts' edgelm on fixed shapes, paired per round.

    python3 tools/ab_inprocess.py PARENT CHANGE --out BENCH_slug.json [--quick]

PARENT and CHANGE are two checkouts (for example ``git archive`` copies of
the parent commit and of the change). Each tree's ``src/edgelm`` package is
imported under a module name of its own (``edgelm_parent``,
``edgelm_change``; its imports are relative), so both run in one process on
the same inputs. Each of ``ROUNDS`` rounds times every shape once on each
tree, the tree that goes first alternating by round, in thread CPU time with
one BLAS thread (the thread variables are set for this process before numpy
loads).

The shapes, on the default ``ModelConfig`` unless named otherwise:

- ``forward_64`` and ``forward_2000``: a one-token forward at 64 and at
  2,000 cached entries, each truncated back, in us per forward;
- ``edge_stream_step``: perfbench edge_stream's step, a frozen 4-bit base
  with a rank-4 adapter on every ``wq`` and ``wv``, ``Hybrid()`` eviction to
  128 and one forward, over the 127 steps after a 256-token prompt, in us
  per step;
- ``adapter_switch``: the first forward after a switch, which builds the
  plan: a one-token forward on a fresh cache of that base, cycling three
  such adapters and None, in us per forward;
- ``spec_decode_request``: perfbench spec_decode's request, a 1-layer d=32
  independent draft, k=4, a 512-token prompt and 64 new tokens, in ms;
- ``draft_step`` and ``verify_step``: the two forwards a speculative round
  is made of, each truncated back, in us per forward: that draft's
  one-token forward at 512 cached entries, on a cache with no window of
  rows, as a request's draft cache has, and the default model's 5-token
  forward at 516 cached entries, on a cache of the same window (both built
  by ``KvCache.for_model``, so the shape runs on trees whose draft
  ``start`` methods differ);
- ``cacheless_8``, ``cacheless_32`` and ``cacheless_512``: forwards of 8,
  32 and 512 tokens with no cache, in us per forward;
- ``prefill_2048`` and ``prefill_516``: ``bench.prefill`` into a new cache,
  in ms;
- ``assign_precision``: a plan for that 1-layer d=32 draft model from two
  16-token sequences under a 5.0 bpw budget, in ms per plan.

Per shape it records both trees' medians over the rounds, the median of the
per-round change/parent ratios, the rounds the change was faster in,
whether both trees produced the same tokens (for ``assign_precision``, the
same plan) in every round, and each tree's peak memory: the most KiB that
one sample held at once above what was live before it, by tracemalloc, in
one untimed pass per tree before the rounds, so that tracing slows no timed
sample. It writes them under ``in_process`` in ``--out`` and keeps the keys
it does not write.
``--quick`` runs smaller shapes (16 and 256 cached, 16 steps, a 128-token
prompt, draft and verify steps at 64 and 68 cached, cacheless forwards of
8, 32 and 64 tokens, prefills of 64 and 20 tokens, 5 switch cycles; the
same plan) for two rounds, under the same keys.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("parent", "change")
ROUNDS = 20


def load_edgelm(tree: Path, name: str):
    """``tree/src/edgelm`` imported as the package ``name``, with its
    ``bench`` module."""
    pkg = tree / "src" / "edgelm"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.bench")
    return module


def _argmax(fo) -> int:
    return int(fo.logits[-1].argmax())


class Shapes:
    """Every shape's inputs, built once per tree from the same seeds. Each
    shape method runs one round's sample and returns (time, tokens)."""

    def __init__(self, E, quick: bool):
        import numpy as np
        self.E, self.quick = E, quick
        self.model = E.init_model(E.ModelConfig(), 0)
        rng = np.random.default_rng(0)
        self.stream = [int(t) for t in rng.integers(0, 256, 2100)]
        self.caches = {}
        for n in (16, 256) if quick else (64, 2000):
            cache = E.KvCache.for_model(self.model.config)
            E.bench.prefill(self.model, self.stream[:n], cache)
            self.caches[n] = cache
        base = E.ptq_model(self.model, E.uniform_plan(self.model, 4), freeze=True)
        targets = [s for s in base.config.slot_shapes() if s.endswith(("wq", "wv"))]
        self.adapters = []
        for seed in (100, 101, 102):
            adapter = E.create_adapter(base, targets, r=4, alpha=8.0, seed=seed)
            for slot, b in adapter.B.items():
                adapter.B[slot] = E.slot_rng(seed, slot + ".B").normal(0, 0.02, b.shape)
            self.adapters.append(adapter)
        self.adapter, self.base = self.adapters[0], base
        self.draft = E.init_model(E.ModelConfig(d_model=32, n_layers=1, n_heads=2,
                                                n_kv_heads=1, head_dim=16), 1)
        self.draft_cache = E.KvCache.for_model(self.draft.config, window=0)
        self.verify_cache = E.KvCache.for_model(self.model.config,
                                                window=self.draft_cache.window)
        at = 64 if quick else 512
        E.forward(self.draft, self.stream[:at], cache=self.draft_cache)
        E.forward(self.model, self.stream[:at + 4], cache=self.verify_cache)

    def _step(self, model, cache, width):
        """``width`` tokens forwarded on ``cache`` and truncated back, per forward."""
        reps, toks, at = 20 if self.quick else 60, [], cache.next_position()
        t0 = time.thread_time()
        for i in range(reps):
            fo = self.E.forward(model, self.stream[at + i:at + i + width], cache=cache)
            toks.append(fo.logits.argmax(axis=-1).tolist())
            cache.truncate(width)
        return (time.thread_time() - t0) / reps * 1e6, toks

    def draft_step(self):
        return self._step(self.draft, self.draft_cache, 1)

    def verify_step(self):
        return self._step(self.model, self.verify_cache, 5)

    def _cacheless(self, n):
        reps, toks = 20 if self.quick else 60, []
        t0 = time.thread_time()
        for i in range(reps):
            toks.append(_argmax(self.E.forward(self.model, self.stream[i:i + n])))
        return (time.thread_time() - t0) / reps * 1e6, toks

    def cacheless_8(self):
        return self._cacheless(8)

    def cacheless_32(self):
        return self._cacheless(32)

    def cacheless_512(self):
        return self._cacheless(64 if self.quick else 512)

    def forward_64(self):
        return self._step(self.model, self.caches[16 if self.quick else 64], 1)

    def forward_2000(self):
        return self._step(self.model, self.caches[256 if self.quick else 2000], 1)

    def edge_stream_step(self):
        E = self.E
        steps, policy = (16 if self.quick else 127), E.Hybrid()
        cache = E.KvCache.for_model(self.base.config)
        tok = _argmax(E.forward(self.base, self.stream[:256], cache=cache,
                                adapter=self.adapter))
        toks, spent = [tok], 0.0
        for _ in range(steps):
            t0 = time.thread_time()
            E.evict(cache, policy, 128)
            tok = _argmax(E.forward(self.base, [tok], cache=cache, adapter=self.adapter))
            spent += time.thread_time() - t0
            toks.append(tok)
        kept = [cache.kept_positions(li).tolist() for li in range(cache.n_layers)]
        return spent / steps * 1e6, [toks, kept]

    def adapter_switch(self):
        E, reps = self.E, 5 if self.quick else 30
        toks, spent = [], 0.0
        for i in range(reps):
            for adapter in (*self.adapters, None):
                cache = E.KvCache.for_model(self.base.config)
                t0 = time.thread_time()
                fo = E.forward(self.base, self.stream[i:i + 1], cache=cache, adapter=adapter)
                spent += time.thread_time() - t0
                toks.append(_argmax(fo))
        return spent / len(toks) * 1e6, toks

    def spec_decode_request(self):
        E = self.E
        prompt = self.stream[:128 if self.quick else 512]
        cfg = E.DraftConfig(E.IndependentDraft(self.draft), k=4)
        t0 = time.thread_time()
        out, stats = E.decode_speculative(self.model, cfg, prompt, 16 if self.quick else 64)
        return (time.thread_time() - t0) * 1e3, [out, vars(stats)]

    def _prefill(self, n):
        E = self.E
        cache = E.KvCache.for_model(self.model.config)
        t0 = time.thread_time()
        fo = E.bench.prefill(self.model, self.stream[:n], cache)
        return (time.thread_time() - t0) * 1e3, fo.logits.argmax(axis=-1).tolist()

    def prefill_2048(self):
        return self._prefill(64 if self.quick else 2048)

    def prefill_516(self):
        return self._prefill(20 if self.quick else 516)

    def assign_precision(self):
        t0 = time.thread_time()
        plan = self.E.assign_precision(self.draft, [self.stream[:16], self.stream[16:32]],
                                       5.0)
        # the trees' QuantSpec classes differ, so compare their fields
        return ((time.thread_time() - t0) * 1e3,
                {slot: vars(spec) for slot, spec in plan.specs.items()})


SHAPES = {"forward_64": "us per forward", "forward_2000": "us per forward",
          "edge_stream_step": "us per step", "adapter_switch": "us per forward",
          "spec_decode_request": "ms per request",
          "draft_step": "us per forward", "verify_step": "us per forward",
          "cacheless_8": "us per forward", "cacheless_32": "us per forward",
          "cacheless_512": "us per forward",
          "prefill_2048": "ms per prefill", "prefill_516": "ms per prefill",
          "assign_precision": "ms per plan"}


def peak_kib(sample) -> float:
    """The traced peak of one ``sample()``, in KiB: what it held at once of
    what it allocated."""
    tracemalloc.start()
    try:
        sample()
        return round(tracemalloc.get_traced_memory()[1] / 1024, 1)
    finally:
        tracemalloc.stop()


def run(trees: dict[str, Path], rounds: int, quick: bool) -> dict:
    """Every shape on both trees for ``rounds`` rounds, after one traced pass
    per tree; the summary per shape."""
    shapes = {tree: Shapes(load_edgelm(path, f"edgelm_{tree}"), quick)
              for tree, path in trees.items()}
    peaks = {name: {tree: peak_kib(getattr(shapes[tree], name)) for tree in TREES}
             for name in SHAPES}
    times = {name: {tree: [] for tree in TREES} for name in SHAPES}
    same = dict.fromkeys(SHAPES, True)
    for r in range(rounds):
        order = TREES if r % 2 == 0 else TREES[::-1]
        for name in SHAPES:
            tokens = {}
            for tree in order:
                spent, tokens[tree] = getattr(shapes[tree], name)()
                times[name][tree].append(spent)
            same[name] &= tokens["parent"] == tokens["change"]
    out = {}
    for name, unit in SHAPES.items():
        parent, change = times[name]["parent"], times[name]["change"]
        ratios = [c / p for p, c in zip(parent, change)]
        out[name] = {"unit": unit, "parent_median": round(statistics.median(parent), 3),
                     "change_median": round(statistics.median(change), 3),
                     "median_ratio": round(statistics.median(ratios), 4),
                     "change_faster": f"{sum(c < p for p, c in zip(parent, change))} "
                                      f"of {rounds}",
                     "tokens_equal": same[name],
                     "parent_peak_kib": peaks[name]["parent"],
                     "change_peak_kib": peaks[name]["change"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--quick", action="store_true",
                    help="small shapes, two rounds: checks the tool, measures nothing")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench import THREAD_VARS  # stdlib only: numpy is not loaded yet
    for var in THREAD_VARS:
        os.environ[var] = "1"
    rounds = 2 if args.quick else ROUNDS
    shapes = run({"parent": args.parent.resolve(), "change": args.change.resolve()},
                 rounds, args.quick)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["in_process"] = {
        "command": "python3 tools/ab_inprocess.py PARENT CHANGE" + " --quick" * args.quick,
        "how": "both trees' edgelm imported side by side in one process; each round "
               "times every shape on both trees, the first tree alternating by round; "
               "thread CPU time, one BLAS thread; peaks by tracemalloc in one untimed "
               "pass per tree before the rounds",
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "rounds": rounds, "shapes": shapes}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(shapes, indent=1))
    return 0 if all(s["tokens_equal"] for s in shapes.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
