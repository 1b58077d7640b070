"""Lossless chain speculative decoding with block-efficiency accounting.

Two draft kinds: an independent small model, and a feature-reuse head that
auto-regresses over the target's top-layer hidden states sharing the target's
embeddings and LM head. Verification is greedy prefix matching, so the output
stream is token-identical to plain greedy decoding regardless of draft quality.

Each draft kind keeps its own rule in four methods: ``check`` rejects a draft
that does not fit the request, ``start`` builds its state for one request,
``propose`` drafts k tokens and ``rollback`` drops what was not accepted.
Only the module-level :func:`propose` calls a draft's ``propose``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, ContractViolation, at_least
from .kvcache import KvCache
from .model import (TinyLM, check_decode_fits, forward, greedy_continue, in_vocab,
                    slot_rng, token_ids)


@dataclass
class IndependentDraft:
    """A small model of its own, with one KV cache per request.

    It forwards only the context tokens its cache has not seen, then k-1
    single tokens; its k-th token is never forwarded. Rollback drops the
    unaccepted tail, ``proposed - 1 - accepted`` entries, so the next round
    forwards only the committed tokens it has not seen: the correction after
    a partial accept, the last draft token and the bonus after a full one.
    A round costs O(k) draft tokens, not O(context).
    """
    model: TinyLM

    def check(self, target: TinyLM, prompt_len: int, max_new: int):
        # the draft decodes at most max_new - 1 tokens: the last is the target's
        dc, vocab = self.model.config, target.config.vocab_size
        if dc.vocab_size != vocab:
            raise ConfigError(f"draft vocab_size {dc.vocab_size} "
                              f"!= target vocab_size {vocab}")
        check_decode_fits(dc, prompt_len, max_new - 1, "draft")

    def start(self, target: TinyLM) -> KvCache:
        return KvCache.for_model(self.model.config)

    def propose(self, cache: KvCache, target: TinyLM, context, k, last_hidden):
        seen = cache.next_position()
        if seen >= len(context):
            raise ValueError(f"draft cache has seen {seen} tokens, context has "
                             f"only {len(context)}: nothing new to forward")
        return greedy_continue(self.model, cache, in_vocab(
            token_ids(context[seen:]), target.config.vocab_size), k)

    def rollback(self, cache: KvCache, proposed: int, accepted: int):
        cache.truncate(proposed - 1 - accepted)


@dataclass
class FeatureReuseDraft:
    """Two-layer map [prev top hidden ++ last-token embedding] -> next hidden.

    The predicted hidden decodes through the target's LM head: its
    ``lm_head``, or its token embeddings when they are tied. It reads only
    the last token of the context and keeps nothing between rounds. Ships
    untrained: ``random_init`` seeds the weights.
    """
    w1: np.ndarray  # [2*d_model, d_model]
    w2: np.ndarray  # [d_model, d_model]

    @classmethod
    def random_init(cls, d_model: int, seed: int) -> "FeatureReuseDraft":
        r1 = slot_rng(seed, "feature_head.w1")
        r2 = slot_rng(seed, "feature_head.w2")
        return cls(w1=r1.normal(0, 0.02, (2 * d_model, d_model)).astype(np.float32),
                   w2=r2.normal(0, 0.02, (d_model, d_model)).astype(np.float32))

    def check(self, target: TinyLM, prompt_len: int, max_new: int):
        d = target.config.d_model
        if (self.w1.shape, self.w2.shape) != ((2 * d, d), (d, d)):
            raise ConfigError(f"feature-reuse head w1 {self.w1.shape}, w2 "
                              f"{self.w2.shape} does not fit target d_model {d}")

    def start(self, target: TinyLM):
        """Float64 (embed, the target's LM head [d_model, vocab], w1, w2)."""
        embed = target.resolve("token_embed")
        head = embed.T if target.config.tie_embeddings else target.resolve("lm_head")
        return embed, head, self.w1.astype(np.float64), self.w2.astype(np.float64)

    def propose(self, state, target: TinyLM, context, k, last_hidden):
        embed, head, w1, w2 = state
        h = (np.zeros(target.config.d_model) if last_hidden is None
             else np.asarray(last_hidden, dtype=np.float64))
        tok = int(in_vocab(token_ids(context[-1:]), target.config.vocab_size)[0])
        out = []
        for _ in range(k):
            h = np.tanh(np.concatenate([h, embed[tok]]) @ w1) @ w2
            tok = int(np.argmax(h @ head))
            out.append(tok)
        return out

    def rollback(self, state, proposed: int, accepted: int):
        pass


@dataclass
class DraftConfig:
    draft: Union[IndependentDraft, FeatureReuseDraft]
    k: int = 4

    def __post_init__(self):
        at_least(1, k=self.k)


@dataclass
class SpecStats:
    rounds: int = 0
    proposed: int = 0
    accepted: int = 0
    emitted: int = 0

    def check(self):
        if not (0 <= self.accepted <= self.proposed
                and self.emitted == self.accepted + self.rounds):
            raise ContractViolation(f"inconsistent speculation counts: {self}")


def block_efficiency(stats: SpecStats) -> float:
    """Emitted tokens per target forward pass."""
    if stats.rounds == 0:
        raise ValueError("block efficiency undefined with zero rounds")
    return stats.emitted / stats.rounds


def propose(draft_cfg: DraftConfig, target: TinyLM, context, k: int,
            last_hidden: Optional[np.ndarray] = None, cache=None) -> list[int]:
    """Greedy auto-regression of the draft for k tokens after ``context``.

    ``cache`` is the draft's state for the request (from its ``start``);
    ``None`` starts a fresh one. Only the tokens the draft reads are checked:
    each must be an integer id in the target's vocabulary.
    """
    if k < 1:
        return []
    draft = draft_cfg.draft
    state = draft.start(target) if cache is None else cache
    return draft.propose(state, target, context, k, last_hidden)


def _accept(draft: list[int], preds: np.ndarray, base: int) -> tuple[int, int]:
    """Longest prefix of the draft matching the target argmax ``preds[base:]``:
    (accepted length, the target's correction or bonus token after it)."""
    acc = 0
    while acc < len(draft) and draft[acc] == int(preds[base + acc]):
        acc += 1
    return acc, int(preds[base + acc])


def decode_speculative(target: TinyLM, draft_cfg: DraftConfig, prompt,
                       max_new: int, trace: Optional[list] = None
                       ) -> tuple[list[int], SpecStats]:
    """Speculate with the draft, verify greedily; output equals greedy_decode.

    The target cache always lags one token behind the committed stream (the
    correction/bonus token is emitted before it is forwarded), so each round
    costs exactly one target forward.
    """
    prompt = token_ids(prompt).tolist()
    if max_new < 1:
        raise ValueError("max_new must be >= 1")
    check_decode_fits(target.config, len(prompt), max_new, "target")
    draft = draft_cfg.draft
    draft.check(target, len(prompt), max_new)

    cache = KvCache.for_model(target.config)
    draft_state = draft.start(target)
    stats = SpecStats()
    out = list(prompt)
    pending = list(prompt)          # committed tokens not yet in the cache
    last_hidden: Optional[np.ndarray] = None
    while stats.emitted < max_new:
        k = min(draft_cfg.k, max_new - stats.emitted - 1)
        draft_tokens = (propose(draft_cfg, target, out, k, last_hidden, draft_state)
                        if k > 0 else [])
        fo = forward(target, pending + draft_tokens, cache=cache)
        preds = np.argmax(fo.logits, axis=-1)
        base = len(pending) - 1
        acc, next_tok = _accept(draft_tokens, preds, base)
        out += draft_tokens[:acc] + [next_tok]
        cache.truncate(len(draft_tokens) - acc)
        draft.rollback(draft_state, len(draft_tokens), acc)
        last_hidden = fo.final_hidden[base + acc]
        pending = [next_tok]
        stats.rounds += 1
        stats.proposed += len(draft_tokens)
        stats.accepted += acc
        stats.emitted += acc + 1
        if trace is not None:
            trace.append({"round": stats.rounds, "proposed": len(draft_tokens),
                          "accepted": acc, "emitted": acc + 1})
    stats.check()
    return out, stats
