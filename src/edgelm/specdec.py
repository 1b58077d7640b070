"""Lossless chain speculative decoding with block-efficiency accounting.

Two draft kinds: an independent small model, and a feature-reuse head that
auto-regresses over the target's top-layer hidden states sharing the target's
embeddings and LM head. Verification is greedy prefix matching, so the output
stream is token-identical to plain greedy decoding regardless of draft quality.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, ContractViolation
from .kvcache import KvCache
from .model import (TinyLM, check_decode_fits, forward, greedy_continue, in_vocab,
                    slot_rng, token_ids)


@dataclass
class IndependentDraft:
    model: TinyLM


@dataclass
class FeatureReuseDraft:
    """Two-layer map [prev top hidden ++ last-token embedding] -> next hidden.

    The predicted hidden decodes through the target's LM head: its
    ``lm_head``, or its token embeddings when they are tied. Ships
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


@dataclass
class DraftConfig:
    draft: Union[IndependentDraft, FeatureReuseDraft]
    k: int = 4

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("draft length k must be >= 1")


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


def _draft_state(draft: Union[IndependentDraft, FeatureReuseDraft], target: TinyLM):
    """What a draft keeps for one request: an independent draft's KV cache,
    or a feature-reuse head's float64 (embed, the target's LM head
    [d_model, vocab], w1, w2)."""
    if isinstance(draft, IndependentDraft):
        return KvCache.for_model(draft.model.config)
    embed = target.resolve("token_embed")
    head = embed.T if target.config.tie_embeddings else target.resolve("lm_head")
    return embed, head, draft.w1.astype(np.float64), draft.w2.astype(np.float64)


def propose(draft_cfg: DraftConfig, target: TinyLM, context, k: int,
            last_hidden: Optional[np.ndarray] = None, cache=None) -> list[int]:
    """Greedy auto-regression of the draft for k tokens after ``context``.

    ``cache`` is the draft's state for the request (see ``_draft_state``);
    ``None`` builds a fresh one. An independent draft forwards only the
    tokens of ``context`` its cache has not seen, then k-1 single tokens, so
    with one cache kept across rounds a round costs O(k) draft tokens, not
    O(context). Its k-th token is never forwarded. A feature-reuse head
    reads only the last token. Only the tokens read are checked: each must
    be an integer id in the target's vocabulary.
    """
    if k < 1:
        return []
    draft = draft_cfg.draft
    vocab = target.config.vocab_size
    if cache is None:
        cache = _draft_state(draft, target)
    if isinstance(draft, IndependentDraft):
        seen = cache.next_position()
        if seen >= len(context):
            raise ValueError(f"draft cache has seen {seen} tokens, context has "
                             f"only {len(context)}: nothing new to forward")
        return greedy_continue(draft.model, cache,
                               in_vocab(token_ids(context[seen:]), vocab), k)
    # feature reuse: roll the predicted hidden forward through the shared head
    embed, head, w1, w2 = cache
    d = target.config.d_model
    h = np.zeros(d) if last_hidden is None else np.asarray(last_hidden, dtype=np.float64)
    tok = int(in_vocab(token_ids(context[-1:]), vocab)[0])
    out = []
    for _ in range(k):
        inp = np.concatenate([h, embed[tok]])
        h = np.tanh(inp @ w1) @ w2
        logits = h @ head
        tok = int(np.argmax(logits))
        out.append(tok)
    return out


def _accept(draft: list[int], preds: np.ndarray, base: int) -> tuple[int, int]:
    """Longest prefix of the draft matching the target argmax ``preds[base:]``:
    (accepted length, the target's correction or bonus token after it)."""
    acc = 0
    while acc < len(draft) and draft[acc] == int(preds[base + acc]):
        acc += 1
    return acc, int(preds[base + acc])


def _check_draft(target: TinyLM, draft: Union[IndependentDraft, FeatureReuseDraft],
                 prompt_len: int, max_new: int):
    """Reject a draft whose vocabulary or head shapes do not fit the target,
    or an independent draft too short for the request. The draft decodes at
    most ``max_new - 1`` tokens after the prompt: the request's last token
    always comes from the target."""
    d, vocab = target.config.d_model, target.config.vocab_size
    if isinstance(draft, IndependentDraft):
        dc = draft.model.config
        if dc.vocab_size != vocab:
            raise ConfigError(f"draft vocab_size {dc.vocab_size} "
                              f"!= target vocab_size {vocab}")
        check_decode_fits(dc, prompt_len, max_new - 1, "draft")
    elif (draft.w1.shape, draft.w2.shape) != ((2 * d, d), (d, d)):
        raise ConfigError(f"feature-reuse head w1 {draft.w1.shape}, w2 "
                          f"{draft.w2.shape} does not fit target d_model {d}")


def decode_speculative(target: TinyLM, draft_cfg: DraftConfig, prompt,
                       max_new: int, trace: Optional[list] = None
                       ) -> tuple[list[int], SpecStats]:
    """Speculate with the draft, verify greedily; output equals greedy_decode.

    The target cache always lags one token behind the committed stream (the
    correction/bonus token is emitted before it is forwarded), so each round
    costs exactly one target forward.

    An independent draft keeps one KV cache for the whole call. After each
    round it drops its unaccepted tail, ``k - 1 - acc`` entries (its k-th
    token was never forwarded), so the next round feeds it only the
    committed tokens it has not seen: 1 after a partial accept (the
    correction), 2 after a full one (the last draft token and the bonus).
    """
    prompt = token_ids(prompt).tolist()
    if max_new < 1:
        raise ValueError("max_new must be >= 1")
    check_decode_fits(target.config, len(prompt), max_new, "target")
    _check_draft(target, draft_cfg.draft, len(prompt), max_new)

    cache = KvCache.for_model(target.config)
    draft_state = _draft_state(draft_cfg.draft, target)
    stats = SpecStats()
    out = list(prompt)
    pending = list(prompt)          # committed tokens not yet in the cache
    last_hidden: Optional[np.ndarray] = None
    emitted = 0
    while emitted < max_new:
        k = min(draft_cfg.k, max_new - emitted - 1)
        draft_tokens = (propose(draft_cfg, target, out, k, last_hidden, draft_state)
                        if k > 0 else [])
        block = pending + draft_tokens
        fo = forward(target, block, cache=cache)
        preds = np.argmax(fo.logits, axis=-1)
        base = len(pending) - 1
        acc, next_tok = _accept(draft_tokens, preds, base)
        out.extend(draft_tokens[:acc])
        out.append(next_tok)
        emitted += acc + 1
        cache.truncate(len(draft_tokens) - acc)
        if isinstance(draft_state, KvCache):
            draft_state.truncate(len(draft_tokens) - 1 - acc)
        last_hidden = fo.final_hidden[base + acc]
        pending = [next_tok]
        stats.rounds += 1
        stats.proposed += len(draft_tokens)
        stats.accepted += acc
        stats.emitted = emitted
        if trace is not None:
            trace.append({"round": stats.rounds, "proposed": len(draft_tokens),
                          "accepted": acc, "emitted": acc + 1})
    stats.check()
    return out, stats
