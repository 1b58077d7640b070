import math

import numpy as np
import pytest

import edgelm as E
from edgelm import trainmath as T


class TestLogSigmoid:
    def test_matches_reference(self):
        z = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(E.log_sigmoid(z), np.log(1 / (1 + np.exp(-z))),
                                   atol=1e-12)

    def test_stable_for_large_margins(self):
        assert np.isfinite(E.log_sigmoid(-1e4))
        assert E.log_sigmoid(1e4) == pytest.approx(0.0, abs=1e-12)


def batch(c_ratio, r_ratio):
    return E.PrefBatch(lp_theta_c=[c_ratio], lp_0_c=[0.0],
                       lp_theta_r=[r_ratio], lp_0_r=[0.0])


class TestPreferenceLoss:
    def test_zero_margin_is_ln2(self):
        assert E.mpo_preference_loss(batch(1.0, 1.0), beta=0.5) == \
            pytest.approx(math.log(2), abs=1e-12)

    def test_derived_value(self):
        # beta 0.1, chosen ratio 2, rejected -2 -> -log sigmoid(0.4)
        got = E.mpo_preference_loss(batch(2.0, -2.0), beta=0.1)
        assert got == pytest.approx(0.513015, abs=1e-6)

    def test_decreases_with_margin(self):
        l1 = E.mpo_preference_loss(batch(1.0, 0.0), beta=1.0)
        l2 = E.mpo_preference_loss(batch(2.0, 0.0), beta=1.0)
        assert l2 < l1

    def test_mean_over_batch(self):
        b = E.PrefBatch([2.0, 2.0], [0.0, 0.0], [-2.0, -2.0], [0.0, 0.0])
        single = E.mpo_preference_loss(batch(2.0, -2.0), beta=0.1)
        assert E.mpo_preference_loss(b, beta=0.1) == pytest.approx(single)


class TestQualityLoss:
    def test_equal_policies_delta_zero_is_2ln2(self):
        assert E.mpo_quality_loss(batch(0.0, 0.0), beta=1.0, delta=0.0) == \
            pytest.approx(2 * math.log(2), abs=1e-12)

    def test_derived_value(self):
        # beta 1, delta 0, chosen 3, rejected -3 -> 2 ln(1 + e^-3)
        got = E.mpo_quality_loss(batch(3.0, -3.0), beta=1.0, delta=0.0)
        assert got == pytest.approx(2 * math.log(1 + math.exp(-3)), abs=1e-12)
        assert got == pytest.approx(0.0971747, abs=1e-6)

    def test_delta_shifts_both_terms(self):
        base = E.mpo_quality_loss(batch(1.0, -1.0), beta=1.0, delta=0.0)
        shifted = E.mpo_quality_loss(batch(1.0, -1.0), beta=1.0, delta=0.5)
        assert shifted > base  # chosen bar raised, rejected bar lowered


class TestGenerationLoss:
    def test_uniform_vocab4(self):
        lps = [math.log(0.25)] * 3
        assert E.generation_loss(lps) == pytest.approx(3 * math.log(4), abs=1e-9)

    def test_sum_not_mean(self):
        assert E.generation_loss([-1.0, -1.0]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            E.generation_loss([])

    @pytest.mark.parametrize("lps", [[np.nan], [-1.0, -np.inf], [np.inf]])
    def test_non_finite_rejected(self, lps):
        with pytest.raises(ValueError, match="finite"):
            E.generation_loss(lps)


class TestJointLoss:
    def test_weighted_combination(self):
        b = batch(2.0, -2.0)
        w = E.MpoWeights(w_p=2.0, w_q=0.5, w_g=1.0, beta=0.1, delta=0.0)
        total, parts = E.mpo_joint_loss(b, w, [-0.5])
        assert total == pytest.approx(2.0 * parts["preference"]
                                      + 0.5 * parts["quality"]
                                      + 1.0 * parts["generation"])

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            E.MpoWeights(w_p=-1.0)
        with pytest.raises(ValueError):
            E.MpoWeights(w_p=0, w_q=0, w_g=0)
        with pytest.raises(ValueError):
            E.MpoWeights(beta=0)

    @pytest.mark.parametrize("field", ["w_p", "w_q", "w_g", "beta", "delta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, field, bad):
        # nan once gave a NaN loss, inf an infinite one, and beta=inf a
        # silent 1.0
        with pytest.raises(E.ConfigError, match="finite"):
            E.MpoWeights(**{field: bad})

    def test_nonfinite_logprobs_rejected(self):
        with pytest.raises(ValueError):
            E.PrefBatch([np.inf], [0.0], [0.0], [0.0])


class TestRewardShift:
    def test_ema(self):
        assert E.reward_shift_update(1.0, 3.0, 0.5) == 2.0

    def test_zero_momentum_tracks_reward(self):
        assert E.reward_shift_update(10.0, 3.0, 0.0) == 3.0

    def test_momentum_range_checked(self):
        with pytest.raises(ValueError):
            E.reward_shift_update(0.0, 1.0, 1.0)


class TestEntityCe:
    def test_alpha_one_reduces_to_generation_loss(self):
        seqs = [([-0.5, -1.0], [1.0, 1.0]), ([-2.0], [1.0])]
        expect = (E.generation_loss([-0.5, -1.0]) + E.generation_loss([-2.0])) / 2
        assert E.entity_weighted_ce(seqs) == pytest.approx(expect, abs=1e-12)

    def test_entity_upweighting(self):
        plain = E.entity_weighted_ce([([-1.0, -1.0], [1.0, 1.0])])
        weighted = E.entity_weighted_ce([([-1.0, -1.0], [1.0, 2.0])])
        assert weighted == plain + 1.0

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            E.entity_weighted_ce([([-1.0], [0.5])])

    @pytest.mark.parametrize("lps, alphas", [([np.nan], [1.0]), ([-np.inf], [1.0]),
                                             ([-1.0], [np.nan]), ([-1.0], [np.inf])])
    def test_non_finite_rejected(self, lps, alphas):
        with pytest.raises(ValueError, match="finite"):
            E.entity_weighted_ce([([-1.0], [1.0]), (lps, alphas)])


class TestRewards:
    def test_entity_density(self):
        s = E.CaptionStats(tokens=["a", "dog", "ran"], entity_flags=[False, True, False])
        assert E.entity_density_reward(s) == pytest.approx(1 / 3)

    def test_key_info(self):
        s = E.CaptionStats(tokens=["x"], entity_flags=[False],
                           has_color=True, has_number=False)
        assert E.key_info_reward(s, beta1=0.4, beta2=0.6) == pytest.approx(0.4)

    def test_total_reward_quality_only(self):
        assert E.total_reward(0.2, 0.9, 0.75, 0, 0, 1) == pytest.approx(0.75)

    def test_caption_stats_detectors(self):
        s = E.caption_stats("The red dog saw 3 cats.",
                            entity_lexicon=["dog", "cat"],
                            color_words=["red"])
        assert s.has_color and s.has_number
        assert sum(s.entity_flags) == 1  # "cats." strips to "cats", not in lexicon


class TestDifficultySelection:
    def records(self):
        return [E.RolloutRecord(f"s{i}", 8, i) for i in range(9)]

    def test_band_selection(self):
        kept = E.select_by_difficulty(self.records(), lo=1, hi=4)
        assert [r.n_correct for r in kept] == [1, 2, 3, 4]

    def test_extremes_dropped(self):
        kept = E.select_by_difficulty(self.records(), lo=1, hi=7)
        assert all(0 < r.n_correct < 8 for r in kept)

    def test_invert_scores_by_failures(self):
        kept = E.select_by_difficulty(self.records(), lo=1, hi=4, invert=True)
        assert [r.n_correct for r in kept] == [4, 5, 6, 7]

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            E.select_by_difficulty(self.records(), lo=5, hi=2)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            E.RolloutRecord("bad", 4, 5)


class TestPairFilter:
    def test_keep_contrastive_pair(self):
        d = E.mpo_pair_filter(E.PairSim(0.3, 0.2))
        assert d.keep and d.reason is None

    def test_near_identical_pair_dropped(self):
        d = E.mpo_pair_filter(E.PairSim(0.95, 0.2))
        assert not d.keep and d.reason == "insufficient-contrast"

    def test_rejected_too_close_to_gt_dropped(self):
        d = E.mpo_pair_filter(E.PairSim(0.3, 0.9))
        assert not d.keep and d.reason == "rejected-too-correct"

    def test_similarity_range_checked(self):
        with pytest.raises(ValueError):
            E.PairSim(1.2, 0.0)


ORIGINAL = ("The sunset over the Pacific Ocean was breathtaking. "
            "<img>pacific_sunset.jpg</img> The vibrant colors painted "
            "the sky in shades of orange and pink. Later that evening, "
            "we hiked to the mountain viewpoint. <img>mountain_vista.jpg</img>")
TRANSFORMED = ("<|image_0|> <img>pacific_sunset.jpg</img>\n"
               "<|image_1|> <img>mountain_vista.jpg</img>\n"
               "The sunset over the Pacific Ocean was breathtaking. "
               "<|image_0|> The vibrant colors painted "
               "the sky in shades of orange and pink. Later that evening, "
               "we hiked to the mountain viewpoint. <|image_1|>")


class TestRepositioning:
    def test_doc_text_roundtrip(self):
        doc = T.InterleavedDoc.from_text(ORIGINAL)
        assert doc.to_text() == ORIGINAL
        assert sum(isinstance(s, T.Image) for s in doc.segments) == 2

    def test_reference_transform_exact(self):
        doc = T.InterleavedDoc.from_text(ORIGINAL)
        out = E.reposition_images(doc, p=1.0, seed=0)
        assert out.to_text() == TRANSFORMED

    def test_p_zero_is_identity(self):
        doc = T.InterleavedDoc.from_text(ORIGINAL)
        assert E.reposition_images(doc, p=0.0, seed=0).to_text() == ORIGINAL

    def test_idempotent(self):
        doc = T.InterleavedDoc.from_text(ORIGINAL)
        once = E.reposition_images(doc, p=1.0, seed=0)
        twice = E.reposition_images(once, p=1.0, seed=1)
        assert twice.to_text() == once.to_text()

    def test_index_consistency_random_docs(self):
        import re
        rng = np.random.default_rng(0)
        for trial in range(25):
            parts = []
            n_img = int(rng.integers(1, 4))
            for i in range(n_img):
                parts.append(f"text{trial}_{i} ")
                parts.append(f"<img>img_{trial}_{i}.jpg</img>")
            doc = T.InterleavedDoc.from_text("".join(parts) + " tail")
            out = E.reposition_images(doc, p=1.0, seed=trial).to_text()
            srcs = re.findall(r"<\|image_(\d+)\|> <img>(.*?)</img>", out)
            assert [int(k) for k, _ in srcs] == list(range(n_img))
            for k, src in srcs:
                assert f"<|image_{k}|>" in out.split("\n")[n_img]
                assert src == f"img_{trial}_{int(k)}.jpg"

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            E.reposition_images(T.InterleavedDoc.from_text("x"), p=1.5, seed=0)
