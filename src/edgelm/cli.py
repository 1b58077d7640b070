"""Command line entry points.

Every subcommand exits 0 on success; on failure it prints a single JSON
object {"error": <type>, "message": <text>} to stderr and exits nonzero.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bench
from .metrics import rouge_l, rouge_n, tokenize
from .model import greedy_decode, init_model
from .trainmath import MpoWeights, PrefBatch, mpo_joint_loss


def _load_config(args) -> dict:
    config = {"seed": 0}
    if args.config:
        with open(args.config) as f:
            config = json.load(f)
    if args.seed is not None and isinstance(config, dict):
        config["seed"] = args.seed
    return config


def _emit(args, report: dict, name: str):
    if args.out:
        paths = bench.write_report(report, args.out, name)
        print(json.dumps({"written": [str(p) for p in paths]}))
    else:
        json.dump(report, sys.stdout, indent=2, default=str)
        print()


def cmd_gen(args) -> int:
    exp = bench.validate_config(_load_config(args))
    model = init_model(exp.model, exp.seed)
    if args.prompt:
        prompt = json.loads(args.prompt)
        if not isinstance(prompt, list) or not all(type(t) is int for t in prompt):
            raise ValueError("--prompt must be a JSON list of integer token ids")
    else:
        rng = np.random.default_rng(exp.seed)
        prompt = rng.integers(0, model.config.vocab_size, size=8).tolist()
    tokens = greedy_decode(model, prompt, args.max_new)
    print(json.dumps({"prompt": prompt, "tokens": tokens}))
    return 0


def cmd_experiment(args) -> int:
    _emit(args, args.runner(_load_config(args)), args.report)
    return 0


@dataclass(frozen=True)
class LossesInput:
    """What ``edgelm losses`` reads: the chosen and rejected sequence log-prob
    sums under the policy and the reference, the per-token log-probs, and
    optional loss weights."""
    lp_theta_c: list
    lp_0_c: list
    lp_theta_r: list
    lp_0_r: list
    token_logprobs: list
    weights: MpoWeights = field(default_factory=MpoWeights)


def cmd_losses(args) -> int:
    with open(args.input) as f:
        data = bench.read(LossesInput, json.load(f), "losses input")
    batch = PrefBatch(data.lp_theta_c, data.lp_0_c, data.lp_theta_r, data.lp_0_r)
    total, parts = mpo_joint_loss(batch, data.weights, data.token_logprobs)
    print(json.dumps({"total": total, "breakdown": parts}))
    return 0


def cmd_rouge(args) -> int:
    with open(args.reference) as f:
        ref = tokenize(f.read())
    with open(args.hypothesis) as f:
        hyp = tokenize(f.read())
    out = {}
    for name, score in (("rouge1", rouge_n(ref, hyp, 1)),
                        ("rouge2", rouge_n(ref, hyp, 2)),
                        ("rougeL", rouge_l(ref, hyp))):
        out[name] = {"precision": score.precision, "recall": score.recall,
                     "f1": score.f1}
    print(json.dumps(out))
    return 0


def cmd_report(args) -> int:
    with open(args.input) as f:
        report = json.load(f)
    ok = bench.verify_report(report)
    print(json.dumps({"verified": ok, "trials": len(report["trials"])}))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="edgelm",
                                description="toy LLM serving lab")
    sub = p.add_subparsers(dest="command", required=True)

    def config_args(sp):
        sp.add_argument("--config", help="experiment config JSON")
        sp.add_argument("--seed", type=int, help="override the config seed")

    sp = sub.add_parser("gen", help="greedy generation from a fresh model")
    config_args(sp)
    sp.add_argument("--prompt", help="JSON list of token ids")
    sp.add_argument("--max-new", type=int, default=16)
    sp.set_defaults(func=cmd_gen)

    for name, runner, help_text in (
            ("evict", bench.run_evict_bench, "KV eviction policy benchmark"),
            ("spec", bench.run_spec_bench, "speculative decoding benchmark"),
            ("quant", bench.run_quant_bench, "quantization bpw/overlap benchmark"),
            ("lora-demo", bench.run_lora_demo, "adapter registry + fitting demo")):
        sp = sub.add_parser(name, help=help_text)
        config_args(sp)
        sp.add_argument("--out", help="report output directory")
        sp.set_defaults(func=cmd_experiment, runner=runner,
                        report=name.replace("-", "_"))

    sp = sub.add_parser("losses", help="evaluate alignment losses on a batch")
    sp.add_argument("input", help="JSON file with log-prob arrays")
    sp.set_defaults(func=cmd_losses)

    sp = sub.add_parser("rouge", help="ROUGE-1/2/L between two text files")
    sp.add_argument("reference")
    sp.add_argument("hypothesis")
    sp.set_defaults(func=cmd_rouge)

    sp = sub.add_parser("report", help="verify a report's aggregates")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # contract: machine-readable failure on stderr
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
