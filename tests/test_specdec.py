from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import edgelm as E
from edgelm import model as model_mod, specdec
from edgelm.errors import ConfigError, ContractViolation
from edgelm.specdec import SpecStats, propose


def small_model(seed=0, **kw):
    base = dict(vocab_size=64, d_model=32, n_layers=2, n_heads=4,
                n_kv_heads=2, head_dim=8, max_seq=512)
    base.update(kw)
    return E.init_model(E.ModelConfig(**base), seed)


def zero_head(d):
    """A feature-reuse head whose predicted hidden is always 0."""
    return E.FeatureReuseDraft(np.zeros((2 * d, d), np.float32),
                               np.zeros((d, d), np.float32))


class TestStats:
    def test_block_efficiency(self):
        st = SpecStats(rounds=4, proposed=16, accepted=8, emitted=12)
        assert E.block_efficiency(st) == 3.0

    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError):
            E.block_efficiency(SpecStats())

    def test_accounting_identity(self):
        st = SpecStats(rounds=3, proposed=12, accepted=5, emitted=8)
        st.check()  # emitted == accepted + rounds

    @pytest.mark.parametrize("st", [
        SpecStats(rounds=1, proposed=0, accepted=5, emitted=6),   # accepted > proposed
        SpecStats(rounds=1, proposed=4, accepted=-1, emitted=0),  # accepted < 0
        SpecStats(rounds=1, proposed=4, accepted=2, emitted=4),   # emitted off by one
    ])
    def test_inconsistent_counts_raise(self, st):
        # a raised error, not an assert, so the check also holds under python -O
        with pytest.raises(ContractViolation):
            st.check()


class TestPropose:
    def test_independent_matches_draft_greedy(self):
        target = small_model(0)
        draft = small_model(1)
        ctx = [3, 7, 11]
        toks = propose(E.DraftConfig(E.IndependentDraft(draft), 4), target, ctx, 4)
        ref = E.greedy_decode(draft, ctx, 4)[len(ctx):]
        assert toks == ref

    def test_cache_that_has_seen_the_context_is_rejected(self):
        target, draft = small_model(0), small_model(1)
        cfg = E.DraftConfig(E.IndependentDraft(draft), 2)
        cache = E.KvCache.for_model(draft.config)
        propose(cfg, target, [3, 7, 11], 2, cache=cache)   # forwards 3 + 1 tokens
        draft.reset_counters()
        with pytest.raises(ValueError, match="seen 4 tokens, context has only 4"):
            propose(cfg, target, [3, 7, 11, 5], 2, cache=cache)
        assert draft.stats["forwards"] == 0

    def test_feature_reuse_zero_init_constant(self):
        target = small_model(0)
        fr = zero_head(target.config.d_model)
        toks = propose(E.DraftConfig(fr, 3), target, [5], 3)
        assert toks == [0, 0, 0]  # zero hidden -> zero logits -> argmax 0

    def test_feature_reuse_deterministic(self):
        target = small_model(2)
        fr = E.FeatureReuseDraft.random_init(target.config.d_model, 9)
        a = propose(E.DraftConfig(fr, 5), target, [1, 2], 5)
        b = propose(E.DraftConfig(fr, 5), target, [1, 2], 5)
        assert a == b

    @pytest.mark.parametrize("tied", [True, False])
    def test_feature_reuse_decodes_through_the_target_head(self, tied):
        # an untied target's own lm_head, not its token embeddings
        target = small_model(3, tie_embeddings=tied)
        d = target.config.d_model
        rng = np.random.default_rng(4)
        fr = E.FeatureReuseDraft(rng.normal(0, 0.3, (2 * d, d)).astype(np.float32),
                                 rng.normal(0, 0.3, (d, d)).astype(np.float32))
        embed = target.weights["token_embed"].astype(np.float64)
        last_hidden = rng.normal(size=d)

        def roll(head):
            h, tok, out = last_hidden, 9, []
            for _ in range(6):
                h = np.tanh(np.concatenate([h, embed[tok]]) @ fr.w1) @ fr.w2
                tok = int(np.argmax(h @ head))
                out.append(tok)
            return out

        head = embed.T if tied else target.weights["lm_head"].astype(np.float64)
        want = roll(head)
        if not tied:
            assert want != roll(embed.T)
        assert propose(E.DraftConfig(fr, 6), target, [2, 9], 6, last_hidden) == want

    @pytest.mark.parametrize("bad", [-1, 64])
    def test_feature_reuse_rejects_out_of_vocab_token(self, bad):
        # embed[-1] used to wrap to the last row, and embed[64] raised IndexError
        target = small_model(0)
        head = E.FeatureReuseDraft.random_init(target.config.d_model, 1)
        with pytest.raises(ValueError, match=r"out of range \[0, 64\)"):
            propose(E.DraftConfig(head, 3), target, [5, bad], 3)

    def test_independent_rejects_out_of_vocab_token_before_any_forward(self):
        target, draft = small_model(0), small_model(1)
        cfg = E.DraftConfig(E.IndependentDraft(draft), 2)
        cache = E.KvCache.for_model(draft.config)
        propose(cfg, target, [3, 7, 11], 2, cache=cache)   # the cache sees 4 tokens
        with mock.patch.object(model_mod, "forward", wraps=model_mod.forward) as fwd:
            with pytest.raises(ValueError, match="out of range"):
                propose(cfg, target, [3, 7, 11, 5, 64], 2, cache=cache)
        assert fwd.call_count == 0
        assert cache.next_position() == 4


class TestDecodeSpeculative:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_lossless_independent(self, k):
        target = small_model(4)
        draft = E.IndependentDraft(small_model(5))
        prompt = [2, 8, 30]
        out, stats = E.decode_speculative(target, E.DraftConfig(draft, k),
                                          prompt, 13)
        assert out == E.greedy_decode(target, prompt, 13)
        stats.check()

    @pytest.mark.parametrize("k", [1, 4])
    def test_lossless_feature_reuse(self, k):
        target = small_model(6)
        fr = E.FeatureReuseDraft.random_init(target.config.d_model, 1)
        prompt = [10, 20]
        out, stats = E.decode_speculative(target, E.DraftConfig(fr, k),
                                          prompt, 9)
        assert out == E.greedy_decode(target, prompt, 9)

    def test_emits_exactly_max_new(self):
        target = small_model(7)
        draft = E.IndependentDraft(small_model(7))  # same weights: all accept
        for max_new in (1, 2, 5, 7):
            out, stats = E.decode_speculative(target, E.DraftConfig(draft, 4),
                                              [1], max_new)
            assert len(out) == 1 + max_new
            assert stats.emitted == max_new

    def test_self_draft_accepts_the_whole_draft(self):
        target = small_model(3)
        prompt = [4, 9]
        out, stats = E.decode_speculative(
            target, E.DraftConfig(E.IndependentDraft(target), 4), prompt, 5)
        assert (stats.rounds, stats.accepted) == (1, 4)  # 4 drafted + bonus
        assert out == E.greedy_decode(target, prompt, 5)

    def test_first_token_mismatch_every_round(self):
        target = small_model(3)
        prompt = [4, 9]
        ref = E.greedy_decode(target, prompt, 6)
        assert 0 not in ref[len(prompt):]  # the zero head always proposes 0
        draft = zero_head(target.config.d_model)
        out, stats = E.decode_speculative(target, E.DraftConfig(draft, 4), prompt, 6)
        assert (stats.rounds, stats.accepted) == (6, 0)
        assert out == ref

    def test_self_draft_attains_k_plus_1(self):
        target = small_model(8)
        draft = E.IndependentDraft(small_model(8))
        k = 3
        out, stats = E.decode_speculative(target, E.DraftConfig(draft, k),
                                          [6], 2 * (k + 1))
        assert E.block_efficiency(stats) == k + 1

    def test_one_target_forward_per_round(self):
        target = small_model(9)
        fr = E.FeatureReuseDraft.random_init(target.config.d_model, 3)
        target.reset_counters()
        _, stats = E.decode_speculative(target, E.DraftConfig(fr, 4), [1, 2], 10)
        assert target.stats["forwards"] == stats.rounds

    def test_be_bounds(self):
        target = small_model(10)
        for seed in range(5):
            draft = E.IndependentDraft(small_model(seed + 20))
            _, stats = E.decode_speculative(target, E.DraftConfig(draft, 4),
                                            [seed + 1], 11)
            be = E.block_efficiency(stats)
            assert 1.0 <= be <= 5.0

    def test_trace_rows_consistent(self):
        target = small_model(11)
        draft = E.IndependentDraft(small_model(12))
        trace = []
        _, stats = E.decode_speculative(target, E.DraftConfig(draft, 3),
                                        [7], 8, trace=trace)
        assert len(trace) == stats.rounds
        assert sum(r["emitted"] for r in trace) == stats.emitted
        assert sum(r["accepted"] for r in trace) == stats.accepted

    def test_input_validation(self):
        target = small_model(0)
        draft = zero_head(target.config.d_model)
        with pytest.raises(ValueError):
            E.decode_speculative(target, E.DraftConfig(draft, 2), [], 4)
        with pytest.raises(ValueError):
            E.decode_speculative(target, E.DraftConfig(draft, 2), [1], 0)
        with pytest.raises(ValueError):
            E.DraftConfig(draft, 0)

    @pytest.mark.parametrize("bad", [[2.5], ["3"], [1, 2.0]])
    def test_non_integer_prompt_rejected(self, bad):
        target, draft = small_model(0), small_model(1)
        with pytest.raises(ValueError, match="integers"):
            E.decode_speculative(target, E.DraftConfig(E.IndependentDraft(draft), 2),
                                 bad, 4)
        assert target.stats["forwards"] == draft.stats["forwards"] == 0
        with pytest.raises(ValueError, match="integers"):
            propose(E.DraftConfig(E.IndependentDraft(draft), 2), target, bad, 2)
        assert draft.stats["forwards"] == 0

    def test_draft_vocab_must_match_target(self):
        target = small_model(0)
        draft = E.IndependentDraft(small_model(1, vocab_size=128))
        with pytest.raises(ConfigError, match="vocab_size"):
            E.decode_speculative(target, E.DraftConfig(draft, 2), [1], 4)
        assert target.stats["forwards"] == 0

    def test_feature_head_must_fit_target_width(self):
        target = small_model(0)
        head = E.FeatureReuseDraft.random_init(target.config.d_model // 2, 3)
        with pytest.raises(ConfigError, match="d_model"):
            E.decode_speculative(target, E.DraftConfig(head, 2), [1], 4)
        assert target.stats["forwards"] == 0

    def test_draft_max_seq_checked_up_front(self):
        # the draft forwards positions up to len(prompt) + max_new - 3 = 25
        target = small_model(13, max_seq=64)
        prompt, max_new = [1] * 8, 20
        enough = small_model(14, n_layers=1, max_seq=26)
        out, _ = E.decode_speculative(
            target, E.DraftConfig(E.IndependentDraft(enough), 4), prompt, max_new)
        assert out == E.greedy_decode(target, prompt, max_new)

        short = small_model(14, n_layers=1, max_seq=25)
        target.reset_counters()
        with pytest.raises(ConfigError, match="max_seq 25 .* position 25"):
            E.decode_speculative(
                target, E.DraftConfig(E.IndependentDraft(short), 4), prompt, max_new)
        assert target.stats["forwards"] == short.stats["forwards"] == 0

    def test_target_max_seq_checked_up_front(self):
        # the target forwards positions up to len(prompt) + max_new - 2 = 26
        prompt, max_new = [1] * 8, 20
        draft = small_model(14, n_layers=1, max_seq=64)
        draft_cfg = E.DraftConfig(E.IndependentDraft(draft), 4)
        enough = small_model(13, max_seq=27)
        out, _ = E.decode_speculative(enough, draft_cfg, prompt, max_new)
        assert out == E.greedy_decode(enough, prompt, max_new)

        short = small_model(13, max_seq=26)
        draft.reset_counters()
        with pytest.raises(ConfigError, match="target max_seq 26 .* position 26"):
            E.decode_speculative(short, draft_cfg, prompt, max_new)
        assert short.stats["forwards"] == draft.stats["forwards"] == 0


# --- partial accepts ----------------------------------------------------------
# init_model's N(0, 0.02) weights make greedy decoding repeat the last token,
# so a draft almost never loses a round. Scaling the target's non-embedding,
# non-norm weights x5 makes its output vary; its own 1-layer truncation and
# its 4-bit PTQ copy then draft with many partial and some full accepts.

def _scaled(model, factor=5.0):
    return E.TinyLM(model.config, {
        n: w if n == "token_embed" or n.endswith("norm") else w * factor
        for n, w in model.weights.items()})


def _truncated(model, n_layers):
    cfg = replace(model.config, n_layers=n_layers)
    return E.TinyLM(cfg, {n: model.weights[n] for n in cfg.slot_shapes()})


VARIED = _scaled(small_model(15))
DRAFTS = {"truncated": _truncated(VARIED, 1),
          "ptq4": E.ptq_model(VARIED, E.uniform_plan(VARIED, 4), freeze=True)}


def _reprefill_reference(target, draft_cfg, prompt, max_new):
    """decode_speculative with a fresh draft cache, prefilled over the whole
    committed stream, in every round: (tokens, stats, trace)."""
    cache = E.KvCache.for_model(target.config)
    stats, trace = SpecStats(), []
    out, pending = list(prompt), list(prompt)
    while stats.emitted < max_new:
        k = min(draft_cfg.k, max_new - stats.emitted - 1)
        drafted = propose(draft_cfg, target, out, k) if k > 0 else []
        preds = np.argmax(E.forward(target, pending + drafted, cache=cache).logits,
                          axis=-1)[len(pending) - 1:]
        acc = 0
        while acc < len(drafted) and drafted[acc] == preds[acc]:
            acc += 1
        out += drafted[:acc] + [int(preds[acc])]
        cache.truncate(len(drafted) - acc)
        pending = out[-1:]
        stats.rounds += 1
        stats.proposed += len(drafted)
        stats.accepted += acc
        stats.emitted += acc + 1
        trace.append({"round": stats.rounds, "proposed": len(drafted),
                      "accepted": acc, "emitted": acc + 1})
    return out, stats, trace


def _assert_same_entries(cache, ref, n):
    """cache holds the n positions 0..n-1 in every layer, with ref's keys and
    values to within 1e-12."""
    for li in range(ref.n_layers):
        k, v, pos = cache.layer_kv(li)
        rk, rv, rpos = ref.layer_kv(li)
        assert pos.tolist() == rpos.tolist() == list(range(n))
        np.testing.assert_allclose(k, rk, rtol=0, atol=1e-12)
        np.testing.assert_allclose(v, rv, rtol=0, atol=1e-12)


def _decode_spying(target, draft_cfg, prompt, max_new):
    """decode_speculative, recording every KvCache it builds and, for every
    draft catch-up forward (greedy_continue's first), its token count and cache."""
    made, feeds = [], []
    for_model, greedy_continue = E.KvCache.for_model, specdec.greedy_continue

    def spy_for_model(config, *args, **kwargs):
        made.append(for_model(config, *args, **kwargs))
        return made[-1]

    def spy_continue(model, cache, tokens, n):
        feeds.append((len(tokens), cache))
        return greedy_continue(model, cache, tokens, n)

    trace: list = []
    with mock.patch.object(specdec.KvCache, "for_model", spy_for_model), \
            mock.patch.object(specdec, "greedy_continue", spy_continue):
        out, stats = E.decode_speculative(target, draft_cfg, prompt, max_new,
                                          trace=trace)
    return out, stats, trace, made, feeds


PARTIAL_ACCEPT_CASES = dict(
    draft=st.sampled_from(sorted(DRAFTS)), k=st.sampled_from([1, 2, 4, 6]),
    prompt=st.lists(st.integers(0, VARIED.config.vocab_size - 1),
                    min_size=1, max_size=12),
    max_new=st.integers(1, 24))


@settings(max_examples=60, deadline=None)
@given(**PARTIAL_ACCEPT_CASES)
def test_one_draft_cache_matches_a_fresh_prefill_every_round(draft, k, prompt, max_new):
    draft_cfg = E.DraftConfig(E.IndependentDraft(DRAFTS[draft]), k)
    out, stats, trace, _, feeds = _decode_spying(VARIED, draft_cfg, prompt, max_new)

    ref_out, ref_stats, ref_trace = _reprefill_reference(VARIED, draft_cfg, prompt, max_new)
    assert out == ref_out == E.greedy_decode(VARIED, prompt, max_new)
    assert (stats, trace) == (ref_stats, ref_trace)

    # the draft sees the prompt once, then only what the target committed: the
    # correction after a partial accept, the last draft token and the bonus
    # after a full one
    drafted = [r for r in trace if r["proposed"]]
    if not drafted:
        assert feeds == []
        return
    assert [n for n, _ in feeds] == [len(prompt)] + [
        1 if r["accepted"] < r["proposed"] else 2 for r in drafted[:-1]]
    committed = len(prompt)
    for r in trace:
        if r["proposed"]:    # the k-th draft token is never forwarded
            kept = committed + min(r["accepted"], r["proposed"] - 1)
        committed += r["emitted"]
    fresh = E.KvCache.for_model(DRAFTS[draft].config)
    E.forward(DRAFTS[draft], out[:kept], cache=fresh)
    _assert_same_entries(feeds[-1][1], fresh, kept)


@settings(max_examples=40, deadline=None)
@given(**PARTIAL_ACCEPT_CASES)
def test_target_cache_rolls_back_to_the_greedy_cache(draft, k, prompt, max_new):
    draft_cfg = E.DraftConfig(E.IndependentDraft(DRAFTS[draft]), k)
    out, _, _, made, _ = _decode_spying(VARIED, draft_cfg, prompt, max_new)
    greedy = E.KvCache.for_model(VARIED.config)
    assert prompt + specdec.greedy_continue(VARIED, greedy, prompt, max_new) == out
    # decode_speculative builds the target's cache first; it lags the stream by one
    _assert_same_entries(made[0], greedy, len(out) - 1)


# --- the draft contract -------------------------------------------------------

class _ContextDraft:
    """A draft with only the four methods every draft kind has: it proposes
    seeded random ids drawn from the context and records every rollback."""

    def __init__(self, seed):
        self.seed = seed
        self.rollbacks = []

    def check(self, target, prompt_len, max_new):
        pass

    def start(self, target):
        return np.random.default_rng(self.seed)

    def propose(self, rng, target, context, k, last_hidden):
        return [int(t) for t in rng.choice(context, size=k)]

    def rollback(self, rng, proposed, accepted):
        self.rollbacks.append((proposed, accepted))


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([1, 2, 4, 6]), prompt=PARTIAL_ACCEPT_CASES["prompt"],
       max_new=PARTIAL_ACCEPT_CASES["max_new"], seed=st.integers(0, 2**32 - 1))
def test_any_draft_with_the_four_methods_is_lossless(k, prompt, max_new, seed):
    draft = _ContextDraft(seed)
    trace: list = []
    out, stats = E.decode_speculative(VARIED, E.DraftConfig(draft, k), prompt,
                                      max_new, trace=trace)
    assert out == E.greedy_decode(VARIED, prompt, max_new)
    stats.check()
    # one rollback per round, with the round's counts
    assert draft.rollbacks == [(r["proposed"], r["accepted"]) for r in trace]
