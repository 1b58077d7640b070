import numpy as np
import pytest

import edgelm as E
from edgelm.errors import ConfigError, ContractViolation
from edgelm.specdec import SpecStats, propose


def small_model(seed=0, **kw):
    base = dict(vocab_size=64, d_model=32, n_layers=2, n_heads=4,
                n_kv_heads=2, head_dim=8, max_seq=512)
    base.update(kw)
    return E.init_model(E.ModelConfig(**base), seed)


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

    def test_feature_reuse_zero_init_constant(self):
        target = small_model(0)
        fr = E.FeatureReuseDraft.zero_init(target.config.d_model)
        toks = propose(E.DraftConfig(fr, 3), target, [5], 3)
        assert toks == [0, 0, 0]  # zero hidden -> zero logits -> argmax 0

    def test_feature_reuse_deterministic(self):
        target = small_model(2)
        fr = E.FeatureReuseDraft.random_init(target.config.d_model, 9)
        a = propose(E.DraftConfig(fr, 5), target, [1, 2], 5)
        b = propose(E.DraftConfig(fr, 5), target, [1, 2], 5)
        assert a == b

    def test_load_head_shape_checked(self):
        fr = E.FeatureReuseDraft.zero_init(8)
        with pytest.raises(ValueError):
            fr.load_head(np.zeros((3, 3)), np.zeros((8, 8)))


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
        draft = E.FeatureReuseDraft.zero_init(target.config.d_model)
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
        draft = E.FeatureReuseDraft.zero_init(target.config.d_model)
        with pytest.raises(ValueError):
            E.decode_speculative(target, E.DraftConfig(draft, 2), [], 4)
        with pytest.raises(ValueError):
            E.decode_speculative(target, E.DraftConfig(draft, 2), [1], 0)
        with pytest.raises(ValueError):
            E.DraftConfig(draft, 0)

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
