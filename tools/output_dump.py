"""SHA-256 digests of edgelm's outputs, to show that a change keeps them.

    python3 tools/output_dump.py [--quick] > digests.json

Run it from the root of a checkout; it imports edgelm from that checkout's
``src/`` and the serving workloads from its ``perfbench/``, which it only
reads. It prints one JSON object, key -> SHA-256 hex digest, covering:

- the served tokens of every pool entry of the three perfbench workloads,
  seeds 1-2, with spec_decode's ``SpecStats`` and edge_stream's kept
  positions after every eviction;
- the rows of small ``run_evict_bench``, ``run_spec_bench`` and
  ``run_quant_bench`` runs, the last with an ``assign_precision`` plan;
- exact bpw ``Fraction``s of a set of precision plans;
- the four manifest files that ``tests/test_manifest.py`` pins;
- the argmax of every row of cacheless forwards.

Two checkouts with the same outputs print the same object. ``--quick``
serves seed 1 and the first pool entry of each workload and runs one trial
per bench, under the same keys.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(obj) -> str:
    """SHA-256 of ``obj`` as canonical JSON: arrays as lists, dataclasses as
    dicts, anything else (a Fraction) as its str; floats by their repr, exact."""
    def plain(o):
        if hasattr(o, "tolist"):
            return o.tolist()
        if dataclasses.is_dataclass(o):
            return dataclasses.asdict(o)
        return str(o)
    text = json.dumps(obj, sort_keys=True, default=plain)
    return hashlib.sha256(text.encode()).hexdigest()


def served_outputs(quick: bool) -> dict:
    """Tokens, SpecStats and kept sets of each perfbench workload's entries."""
    from perfbench.workloads import WORKLOADS, Served

    out = {}
    for name, cls in sorted(WORKLOADS.items()):
        tokens, stats, kept = [], [], []
        with tempfile.TemporaryDirectory() as tmp:
            wl = cls(Path(tmp))
            state = wl.setup()
            for seed in (1,) if quick else (1, 2):
                entries = wl.inputs(seed)
                for i, entry in enumerate(entries[:1] if quick else entries):
                    served = Served(entry=i, t0=0.0)
                    wl.serve(state, entry, served)
                    tokens.append(served.tokens)
                    stats.append(served.spec)
                    kept.append([step[1] for step in served.evidence])
        out[f"serve.{name}.tokens"] = digest(tokens)
        if name == "spec_decode":
            out[f"serve.{name}.spec_stats"] = digest(stats)
        if name == "edge_stream":
            out[f"serve.{name}.kept_sets"] = digest(kept)
    return out


def bench_rows(quick: bool) -> dict:
    """Every part of small bench reports but their timestamped metadata."""
    from edgelm import bench

    trials = 1 if quick else 2
    runs = {
        "evict": bench.run_evict_bench({
            "seed": 3, "trials": trials,
            "task": {"context_len": 192, "decode_len": 8}}),
        "spec": bench.run_spec_bench({
            "seed": 4, "trials": trials, "task": {"max_new": 16, "prompt_len": 8},
            "method": {"k": [2, 4]}}),
        "quant": bench.run_quant_bench({   # assign_precision takes 10 s at 4 layers
            "seed": 5, "model": {"d_model": 32, "n_layers": 1, "n_heads": 2,
                                 "n_kv_heads": 1, "head_dim": 16},
            "task": {"sequences": 2, "seq_len": 16},
            "method": {"bits": [8, 4, 3, 2], "bpw_budget": 5.0}}),
    }
    return {f"bench.{name}_rows": digest({k: v for k, v in report.items() if k != "meta"})
            for name, report in runs.items()}


def exact_bpw() -> dict:
    """plan_bpw_exact over bit widths, schemes, group sizes and sparsity."""
    import edgelm as E

    model = E.init_model(E.ModelConfig(), 0)
    fractions = []
    for bits in (8, 4, 3, 2):
        for scheme in ("symmetric", "asymmetric"):
            for group_size in (32, 128):
                plan = E.uniform_plan(model, bits, scheme=scheme, group_size=group_size)
                fractions.append(E.plan_bpw_exact(model, plan))
                plan.sparsity = {"layers.0.wq": E.Unstructured(0.3),
                                 "layers.1.w_up": E.Structured(2, 4)}
                fractions.append(E.plan_bpw_exact(model, plan))
    return {"bpw_exact": digest(fractions)}


def manifests() -> dict:
    """The bytes of the four files the manifest tests pin."""
    from tests.test_manifest import FORMATS, write_files

    with tempfile.TemporaryDirectory() as tmp:
        write_files(Path(tmp))
        return {f"manifest.{name}": hashlib.sha256((Path(tmp) / name).read_bytes())
                .hexdigest() for name in sorted(FORMATS)}


def cacheless_argmaxes() -> dict:
    """Row argmaxes of cacheless forwards of 1 to 40 tokens (one tile and
    several) on a float model, its 4-bit copy and an adapter over it."""
    import numpy as np

    import edgelm as E

    model = E.init_model(E.ModelConfig(), 0)
    quantized = E.ptq_model(model, E.uniform_plan(model, 4), freeze=True)
    adapter = E.create_adapter(model, ["layers.0.wq", "layers.2.w_up"], r=4,
                               alpha=8.0, seed=7)
    for slot, b in adapter.B.items():
        adapter.B[slot] = E.slot_rng(7, slot + ".B").normal(0, 1.0, b.shape)
    rng = np.random.default_rng(11)
    prompts = [rng.integers(0, 256, n) for n in (1, 2, 7, 16, 17, 40)]
    out = {}
    for name, m, ad in (("float", model, None), ("quant4", quantized, None),
                        ("adapter", model, adapter)):
        out[f"argmax.{name}"] = digest(
            [E.forward(m, p, adapter=ad).logits.argmax(axis=-1) for p in prompts])
    return out


def digests(quick: bool = False) -> dict:
    """Every key this tool prints, with its digest."""
    return {**served_outputs(quick), **bench_rows(quick), **exact_bpw(),
            **manifests(), **cacheless_argmaxes()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="seed 1, one pool entry per workload, one trial per bench")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import THREAD_VARS  # stdlib only: numpy is not loaded yet
    for var in THREAD_VARS:            # one BLAS thread, as perfbench runs
        os.environ.setdefault(var, "1")
    print(json.dumps(digests(args.quick), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
