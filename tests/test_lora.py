import numpy as np
import pytest

import edgelm as E
from edgelm.errors import ConfigError, FrozenEncodingError


def small_model(seed=0):
    return E.init_model(E.ModelConfig(vocab_size=32, d_model=16, n_layers=1,
                                      n_heads=2, n_kv_heads=1, head_dim=8,
                                      max_seq=128), seed)


TARGETS = ("layers.0.wq", "layers.0.wv")


def _delta(adapter, slot):
    """An adapter's effective delta, shaped like the stored [in_dim, out_dim]
    weight: (alpha / r) * (B A)^T."""
    return (adapter.alpha / adapter.r) * (adapter.B[slot] @ adapter.A[slot]).T


def _merged_model(registry):
    """The reference the on-the-fly deltas must match: a fresh float model
    whose every slot the active adapter targets holds W + delta."""
    adapter = registry.active_adapter()
    weights = {}
    for name in registry.base.config.slot_shapes():
        w = registry.base.weight(name)
        if adapter is not None and name in adapter.target_slots:
            weights[name] = (w.astype(np.float64) + _delta(adapter, name)).astype(np.float32)
        else:
            weights[name] = np.array(w, copy=True)
    return E.TinyLM(config=registry.base.config, weights=weights)


class TestAdapterCreation:
    def test_fresh_adapter_is_identity(self):
        m = small_model(1)
        ad = E.create_adapter(m, TARGETS, r=2, alpha=4.0, seed=0)
        toks = [1, 2, 3]
        base = E.forward(m, toks).logits
        with_ad = E.forward(m, toks, adapter=ad).logits
        np.testing.assert_allclose(with_ad, base, atol=1e-12)  # B = 0

    def test_deterministic_per_seed_and_name(self):
        m = small_model(1)
        a = E.create_adapter(m, TARGETS, r=2, alpha=4.0, seed=5, name="x")
        b = E.create_adapter(m, TARGETS, r=2, alpha=4.0, seed=5, name="x")
        c = E.create_adapter(m, TARGETS, r=2, alpha=4.0, seed=5, name="y")
        np.testing.assert_array_equal(a.A[TARGETS[0]], b.A[TARGETS[0]])
        assert not np.array_equal(a.A[TARGETS[0]], c.A[TARGETS[0]])

    def test_unknown_slot_rejected(self):
        with pytest.raises(ConfigError):
            E.create_adapter(small_model(), ("nope",), r=1, alpha=1.0, seed=0)

    def test_rank_bounds(self):
        with pytest.raises(ConfigError):
            E.create_adapter(small_model(), TARGETS, r=0, alpha=1.0, seed=0)
        with pytest.raises(ConfigError):
            E.create_adapter(small_model(), TARGETS, r=100, alpha=1.0, seed=0)

    def test_factors_are_float64_holding_float32_values(self, tmp_path):
        ad = E.create_adapter(small_model(), TARGETS, r=2, alpha=4.0, seed=0)
        E.save_adapter(ad, tmp_path / "a.bin")
        for adapter in (ad, E.load_adapter(tmp_path / "a.bin")):
            for factor in (*adapter.A.values(), *adapter.B.values()):
                assert factor.dtype == np.float64
                np.testing.assert_array_equal(factor.astype(np.float32), factor)

    @pytest.mark.parametrize("tie", [True, False])
    def test_embedding_slot_rejected(self, tie):
        # the forward reads the embedding by row and, tied, as the head: no
        # projection would add the delta, so the adapter would do nothing
        m = E.init_model(E.ModelConfig(vocab_size=32, d_model=16, n_layers=1,
                                       n_heads=2, n_kv_heads=1, head_dim=8,
                                       max_seq=128, tie_embeddings=tie), 0)
        with pytest.raises(ConfigError, match="token_embed"):
            E.create_adapter(m, ("token_embed",), r=2, alpha=4.0, seed=0)
        ad = E.create_adapter(m, TARGETS, r=2, alpha=4.0, seed=0)
        ad.target_slots += ("token_embed",)
        ad.A["token_embed"] = np.zeros((2, 32))
        ad.B["token_embed"] = np.full((16, 2), 5.0)
        reg = E.AdapterRegistry(m)
        with pytest.raises(ConfigError, match="token_embed"):
            reg.register(ad)
        assert reg.adapters == {}

    def test_untied_head_adapter_changes_logits(self):
        m = E.init_model(E.ModelConfig(vocab_size=32, d_model=16, n_layers=1,
                                       n_heads=2, n_kv_heads=1, head_dim=8,
                                       max_seq=128, tie_embeddings=False), 0)
        ad = E.create_adapter(m, ("lm_head",), r=2, alpha=4.0, seed=0)
        ad.B["lm_head"][:] = 5.0
        reg = E.AdapterRegistry(m)
        reg.register(ad)
        reg.activate(ad.name)
        assert not np.allclose(reg.apply_forward([1, 2]).logits,
                               E.forward(m, [1, 2]).logits)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        # a NaN alpha turns every logit NaN once B is trained away from zero
        with pytest.raises(ConfigError, match="alpha"):
            E.create_adapter(small_model(), TARGETS, r=2, alpha=alpha, seed=0)


class TestMergeEquivalence:
    def test_merged_matches_on_the_fly(self):
        m = small_model(2)
        ad = E.create_adapter(m, TARGETS, r=2, alpha=4.0, seed=3)
        for slot in TARGETS:  # give the adapter a real delta
            ad.B[slot] = np.random.default_rng(7).normal(
                0, 0.1, ad.B[slot].shape).astype(np.float32)
        reg = E.AdapterRegistry(m)
        reg.register(ad)
        reg.activate(ad.name)
        toks = [4, 8, 15]
        on_the_fly = reg.apply_forward(toks).logits
        merged = E.forward(_merged_model(reg), toks).logits
        np.testing.assert_allclose(on_the_fly, merged, atol=1e-4)

    @pytest.mark.parametrize("factor", ["A", "B"])
    @pytest.mark.parametrize("how", ["rebind", "mutate"])
    def test_next_forward_reads_the_factors_as_they_are(self, factor, how):
        # no copy of a factor outlives a rebinding or an in-place write
        m = small_model(2)
        ad = E.create_adapter(m, TARGETS, r=2, alpha=4.0, seed=3)
        for slot in TARGETS:
            ad.B[slot] = np.random.default_rng(7).normal(0, 0.1, ad.B[slot].shape)
        reg = E.AdapterRegistry(m)
        reg.register(ad)
        reg.activate(ad.name)
        before = reg.apply_forward([4, 8, 15]).logits
        factors = getattr(ad, factor)
        if how == "rebind":
            factors[TARGETS[0]] = factors[TARGETS[0]] * 3.0
        else:
            factors[TARGETS[0]] *= 3.0
        after = reg.apply_forward([4, 8, 15]).logits
        assert not np.allclose(after, before)
        np.testing.assert_allclose(after, E.forward(_merged_model(reg), [4, 8, 15]).logits,
                                   atol=1e-4)

    def test_delta_shape_matches_weight(self):
        m = small_model(2)
        ad = E.create_adapter(m, TARGETS, r=2, alpha=4.0, seed=3)
        for slot in TARGETS:
            assert _delta(ad, slot).shape == m.weights[slot].shape


class TestRegistry:
    def test_activate_unknown_rejected(self):
        reg = E.AdapterRegistry(small_model())
        with pytest.raises(KeyError):
            reg.activate("ghost")

    def test_swap_preserves_base_hash(self):
        m = small_model(3)
        reg = E.AdapterRegistry(m)
        for i in range(3):
            reg.register(E.create_adapter(m, TARGETS, r=2, alpha=2.0, seed=i,
                                          name=f"a{i}"))
        h0 = reg.base_hash()
        rng = np.random.default_rng(0)
        names = list(reg.adapters) + [None]
        for _ in range(25):
            reg.activate(names[int(rng.integers(len(names)))])
            reg.apply_forward([1, 2])
        assert reg.base_hash() == h0

    def test_hash_sensitive_to_weights(self):
        a = E.AdapterRegistry(small_model(1))
        b = E.AdapterRegistry(small_model(2))
        assert a.base_hash() != b.base_hash()

    def test_adapter_for_another_width_rejected(self):
        wide = E.init_model(E.ModelConfig(vocab_size=32, d_model=32, n_layers=1,
                                          n_heads=4, n_kv_heads=1, head_dim=8,
                                          max_seq=128), 0)
        reg = E.AdapterRegistry(small_model())
        with pytest.raises(ConfigError, match=r"layers\.0\.wq.*\(32, 32\).*\(16, 16\)"):
            reg.register(E.create_adapter(wide, TARGETS, r=2, alpha=4.0, seed=0))
        assert reg.adapters == {}

    def test_slot_missing_from_base_rejected(self):
        deep = E.init_model(E.ModelConfig(vocab_size=32, d_model=16, n_layers=2,
                                          n_heads=2, n_kv_heads=1, head_dim=8,
                                          max_seq=128), 0)
        ad = E.create_adapter(deep, ("layers.1.wq",), r=2, alpha=4.0, seed=0)
        with pytest.raises(ConfigError, match=r"layers\.1\.wq.*None"):
            E.AdapterRegistry(small_model()).register(ad)

    def test_quantized_base_supported(self):
        m = small_model(4)
        qbase = E.ptq_model(m, E.uniform_plan(m, 4, group_size=8), freeze=True)
        reg = E.AdapterRegistry(qbase)
        reg.register(E.create_adapter(qbase, TARGETS, r=2, alpha=2.0, seed=0))
        h0 = reg.base_hash()
        reg.activate("adapter")
        reg.apply_forward([3, 9])
        assert reg.base_hash() == h0


def planted_problem(seed=0, out_dim=5, in_dim=7, n=24):
    rng = np.random.default_rng(seed)
    w = rng.normal(0, 0.5, (out_dim, in_dim))
    wq = E.quantize(w, E.QuantSpec(bits=8, granularity="per-tensor"))
    wq.freeze()
    a = rng.normal(0, 1, (1, in_dim))
    b = rng.normal(0, 1, (out_dim, 1))
    delta = 2.0 * (b @ a)  # alpha/r = 2
    X = rng.normal(0, 1, (n, in_dim))
    Y = X @ (wq.dequantize().astype(np.float64) + delta).T
    return wq, list(zip(X, Y))


class TestQalft:
    def test_requires_frozen_base(self):
        wq = E.quantize(np.ones((2, 3)), E.QuantSpec(granularity="per-tensor"))
        with pytest.raises(FrozenEncodingError):
            E.qalft_fit(wq, [(np.zeros(3), np.zeros(2))], r=1, alpha=1.0,
                        steps=1, learning_rate=0.1)

    def test_loss_monotone_nonincreasing(self):
        wq, data = planted_problem(1)
        fit = E.qalft_fit(wq, data, r=1, alpha=2.0, steps=200,
                          learning_rate=0.05, seed=0)
        assert all(b <= a + 1e-12 for a, b in zip(fit.losses, fit.losses[1:]))

    def test_planted_rank1_recovery(self):
        wq, data = planted_problem(2)
        fit = E.qalft_fit(wq, data, r=1, alpha=2.0, steps=2000,
                          learning_rate=0.05, seed=0)
        assert fit.losses[-1] < 1e-6

    def test_base_untouched_by_fit(self):
        wq, data = planted_problem(3)
        codes = wq.codes.copy()
        scales = wq.scales.copy()
        E.qalft_fit(wq, data, r=1, alpha=2.0, steps=50, learning_rate=0.05)
        np.testing.assert_array_equal(wq.codes, codes)
        np.testing.assert_array_equal(wq.scales, scales)

    def test_gradient_check(self):
        wq, data = planted_problem(4, n=8)
        err = E.qalft_gradient_check(wq, data, r=2, alpha=3.0, seed=1)
        assert err < 1e-4

    def test_rank_exceeding_dims_rejected(self):
        wq, data = planted_problem(5)
        with pytest.raises(ConfigError):
            E.qalft_fit(wq, data, r=10, alpha=1.0, steps=1, learning_rate=0.1)


class TestAdapterFiles:
    def test_roundtrip(self, tmp_path):
        m = small_model(6)
        ad = E.create_adapter(m, TARGETS, r=3, alpha=6.0, seed=2, name="demo")
        p = tmp_path / "a.bin"
        E.save_adapter(ad, p)
        back = E.load_adapter(p)
        assert back.name == "demo" and back.r == 3 and back.alpha == 6.0
        for slot in TARGETS:
            np.testing.assert_array_equal(back.A[slot], ad.A[slot])
            np.testing.assert_array_equal(back.B[slot], ad.B[slot])
