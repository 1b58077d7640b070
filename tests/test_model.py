import copy
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import edgelm as E
from edgelm import _manifest, bench
from edgelm import model as M
from edgelm.errors import ConfigError, ShapeError


def small_config(**kw):
    base = dict(vocab_size=64, d_model=32, n_layers=2, n_heads=4,
                n_kv_heads=2, head_dim=8, max_seq=512)
    base.update(kw)
    return E.ModelConfig(**base)


TILE = M._ROW_TILE
HEAD_LAYOUTS = [(2, 2), (4, 2), (4, 1), (8, 2)]   # (query heads, kv heads)


def _sharpened_model(heads, scale, **kw):
    """A small model whose layer weights are scaled, so that with scale 8
    the attention is sharp enough for exp to underflow and heads differ."""
    n_heads, n_kv = heads
    m = E.init_model(small_config(n_heads=n_heads, n_kv_heads=n_kv,
                                  d_model=8 * n_heads, **kw), 7)
    for name, w in m.weights.items():
        if name.startswith("layers.") and not name.endswith("norm"):
            m.weights[name] = w * np.float32(scale)
    return m


def _record_blocks(cache) -> list:
    """Copies of every attention block the cache is handed, in order."""
    handed, append_block = [], cache.append_block

    def record(li, k, v, positions, attn):
        handed.append(np.array(attn))
        append_block(li, k, v, positions, attn)

    cache.append_block = record
    return handed


class TestConfig:
    def test_defaults_valid(self):
        cfg = E.ModelConfig()
        assert cfg.d_model == cfg.n_heads * cfg.head_dim

    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            E.ModelConfig(n_heads=4, n_kv_heads=3)

    def test_dim_consistency_enforced(self):
        with pytest.raises(ConfigError):
            small_config(d_model=48)

    def test_odd_head_dim_rejected(self):
        # rope rotates pairs, so forward could not run on it
        with pytest.raises(ConfigError, match="head_dim"):
            E.ModelConfig(d_model=12, n_heads=4, n_kv_heads=2, head_dim=3)

    def test_positive_fields_enforced(self):
        with pytest.raises(ConfigError):
            small_config(n_layers=0)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rope_theta_finite_and_positive(self, theta):
        # a NaN base makes every rotation, and so every logit, NaN
        with pytest.raises(ConfigError, match="rope_theta"):
            small_config(rope_theta=theta)

    def test_slot_shapes_cover_all_layers(self):
        cfg = small_config(n_layers=3)
        shapes = cfg.slot_shapes()
        assert "layers.2.wq" in shapes
        assert shapes["layers.0.wq"] == (32, 32)
        assert shapes["layers.0.wk"] == (32, 16)  # 2 kv heads x 8
        assert "lm_head" not in shapes  # tied by default

    def test_untied_adds_lm_head(self):
        shapes = small_config(tie_embeddings=False).slot_shapes()
        assert shapes["lm_head"] == (32, 64)

    def test_roundtrip_dict(self):
        cfg = small_config()
        assert _manifest.dataclass_from(E.ModelConfig, cfg.to_dict(), "config") == cfg


class TestInit:
    def test_deterministic(self):
        a = E.init_model(small_config(), 7)
        b = E.init_model(small_config(), 7)
        for name in a.weights:
            np.testing.assert_array_equal(a.weights[name], b.weights[name])

    def test_seed_changes_weights(self):
        a = E.init_model(small_config(), 7)
        b = E.init_model(small_config(), 8)
        assert not np.array_equal(a.weights["token_embed"], b.weights["token_embed"])

    def test_slot_streams_independent(self):
        # reordering slot creation cannot change any slot's values, because
        # each slot has its own named stream
        m = E.init_model(small_config(), 7)
        rng = E.slot_rng(7, "layers.1.wv")
        expect = rng.normal(0.0, 0.02, size=(32, 16)).astype(np.float32)
        np.testing.assert_array_equal(m.weights["layers.1.wv"], expect)

    def test_norm_scales_start_at_one(self):
        m = E.init_model(small_config(), 0)
        np.testing.assert_array_equal(m.weights["final_norm"], np.ones(32))


class TestRmsNorm:
    def test_unit_rows_preserved(self):
        x = np.ones((3, 8))
        out = E.rms_norm(x, np.ones(8))
        np.testing.assert_allclose(out, x, atol=1e-5)

    def test_scale_applied(self):
        x = np.ones((1, 4))
        out = E.rms_norm(x, np.full(4, 2.0))
        np.testing.assert_allclose(out, 2 * np.ones((1, 4)), atol=1e-5)


class TestRope:
    def test_position_zero_is_identity(self):
        v = np.arange(8.0)
        np.testing.assert_allclose(E.apply_rope(v, 0, 10000.0), v)

    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        for pos in (1, 17, 400):
            v = rng.normal(size=16)
            out = E.apply_rope(v, pos, 10000.0)
            assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-6

    def test_relative_rotation_composition(self):
        # rotating by p then by q equals rotating once by p+q
        v = np.random.default_rng(1).normal(size=8)
        a = E.apply_rope(E.apply_rope(v, 3, 100.0), 5, 100.0)
        b = E.apply_rope(v, 8, 100.0)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_odd_length_rejected(self):
        with pytest.raises(ShapeError):
            E.apply_rope(np.zeros(7), 1, 10000.0)


class TestForward:
    def test_logit_shape(self):
        m = E.init_model(small_config(), 0)
        fo = E.forward(m, [1, 2, 3])
        assert fo.logits.shape == (3, 64)
        assert fo.final_hidden.shape == (3, 32)

    def test_forward_counter(self):
        m = E.init_model(small_config(), 0)
        E.forward(m, [1])
        E.forward(m, [1, 2])
        assert m.stats["forwards"] == 2
        m.reset_counters()
        assert m.stats["forwards"] == 0

    def test_incremental_matches_full(self):
        m = E.init_model(small_config(), 3)
        toks = [5, 9, 13, 2, 40, 7]
        full = E.forward(m, toks).logits
        cache = E.KvCache.for_model(m.config)
        inc = np.vstack([E.forward(m, [t], cache=cache).logits for t in toks])
        np.testing.assert_allclose(inc, full, atol=1e-5)

    def test_blockwise_matches_full(self):
        m = E.init_model(small_config(), 3)
        toks = list(range(10))
        full = E.forward(m, toks).logits
        cache = E.KvCache.for_model(m.config)
        a = E.forward(m, toks[:4], cache=cache).logits
        b = E.forward(m, toks[4:], cache=cache).logits
        np.testing.assert_allclose(np.vstack([a, b]), full, atol=1e-5)

    def test_causality(self):
        # changing a later token cannot affect earlier logits
        m = E.init_model(small_config(), 4)
        base = E.forward(m, [1, 2, 3, 4]).logits
        pert = E.forward(m, [1, 2, 3, 60]).logits
        np.testing.assert_allclose(base[:3], pert[:3], atol=1e-12)
        assert not np.allclose(base[3], pert[3])

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_blockwise_cache_matches_token_by_token(self, data):
        m = E.init_model(small_config(), 3)
        tokens = data.draw(st.lists(st.integers(0, 63), min_size=2, max_size=20))
        more = data.draw(st.lists(st.integers(0, 63), min_size=1, max_size=6))
        cuts = sorted(data.draw(st.sets(st.integers(1, len(tokens) - 1))))
        drop = data.draw(st.integers(0, len(tokens) - 1))
        blocks, steps = E.KvCache.for_model(m.config), E.KvCache.for_model(m.config)

        def one_by_one(toks):
            return np.vstack([E.forward(m, [t], cache=steps).logits for t in toks])

        a = np.vstack([E.forward(m, part, cache=blocks).logits
                       for part in np.split(np.array(tokens), cuts)])
        np.testing.assert_allclose(a, one_by_one(tokens), rtol=0, atol=1e-9)
        blocks.truncate(drop)
        steps.truncate(drop)
        np.testing.assert_allclose(E.forward(m, more, cache=blocks).logits,
                                   one_by_one(more), rtol=0, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(heads=st.sampled_from(HEAD_LAYOUTS), scale=st.sampled_from([1.0, 8.0]),
           data=st.data())
    def test_matches_per_head_reference(self, heads, scale, data):
        m = _sharpened_model(heads, scale)
        cache = E.KvCache.for_model(m.config, window=8)
        prefix = data.draw(st.lists(st.integers(0, 63), min_size=2, max_size=40))
        cut = data.draw(st.integers(1, len(prefix)))
        E.forward(m, prefix[:cut], cache=cache)
        if cut < len(prefix):
            E.forward(m, prefix[cut:], cache=cache)
        cache.truncate(data.draw(st.integers(0, len(prefix) - 1)))
        E.evict(cache, E.HeavyHitter(recent=1),
                data.draw(st.integers(1, len(prefix))))
        # past two row tiles, so the reference also covers tiled blocks
        tokens = data.draw(st.lists(st.integers(0, 63), min_size=1,
                                    max_size=2 * TILE + 3))

        past = [(k.copy(), v.copy())
                for k, v, _ in map(cache.layer_kv, range(m.config.n_layers))]
        want_logits, want_blocks = _reference_forward(m, tokens, past,
                                                      cache.next_position())
        handed = _record_blocks(cache)
        logits = E.forward(m, tokens, cache=cache).logits
        np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-10)
        assert len(handed) == len(want_blocks)
        for got, want in zip(handed, want_blocks):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(heads=st.sampled_from(HEAD_LAYOUTS), scale=st.sampled_from([1.0, 8.0]),
           n=st.sampled_from([1, TILE - 1, TILE, TILE + 1, 2 * TILE + 3]),
           m=st.integers(0, 600), seed=st.integers(0, 2**16))
    def test_row_tiled_softmax_is_bit_identical_to_single_pass(self, heads, scale,
                                                                n, m, seed):
        # n new tokens across the tile edges after m cached ones: the logits
        # and every block handed to the cache equal the single-pass softmax's
        # run tile by tile over each tile's visible keys, and lie within the
        # block tolerance of one single pass over the whole score array
        model = _sharpened_model(heads, scale, max_seq=1024)
        tokens = np.random.default_rng(seed).integers(0, 64, m + n)
        parts = [tokens[:m], tokens[m:]] if m else [tokens]
        runs = []
        for attend in (M._attend, _tiled_single_pass_attend, _single_pass_attend):
            cache = E.KvCache.for_model(model.config)
            handed = _record_blocks(cache)
            with mock.patch.object(M, "_attend", attend):
                logits = [E.forward(model, part, cache=cache).logits for part in parts]
            runs.append((logits, handed))
        (got, got_blocks), (want, want_blocks), (whole, whole_blocks) = runs
        assert len(got_blocks) == len(want_blocks) == len(parts) * model.config.n_layers
        for a, b in zip(got + got_blocks, want + want_blocks):
            assert np.array_equal(a, b)
        for a, b in zip(got + got_blocks, whole + whole_blocks):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_prefill_peak_memory_holds_one_score_array(self):
        cfg, length = E.ModelConfig(), 2048
        model = E.init_model(cfg, 0)
        tokens = np.random.default_rng(0).integers(0, cfg.vocab_size, length)
        E.forward(model, tokens[:1])        # resolve the weights before tracing
        cache = E.KvCache.for_model(cfg)
        tracemalloc.start()
        try:
            bench.prefill(model, tokens, cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        f64, chunk = 8, bench.PREFILL_CHUNK
        scores = cfg.n_heads * TILE * length * f64    # one tile's [H, 16, 2048]: 1 MiB
        block = chunk * length * f64                  # the last chunk's block: 8 MiB
        arena = sum(a.nbytes for ls in cache.layers
                    for a in (ls._keys, ls._values, ls._positions, ls._acc, ls._rows))
        # the layer's [512, d] activations and the last chunk's logits fit in
        # 8 MiB; a whole chunk's [H, 512, 2048] score array (32 MiB) does not
        assert peak < scores + block + arena + 8 * 2**20

    def test_attention_rows_are_distributions(self):
        m = E.init_model(small_config(), 5)
        c = E.KvCache.for_model(m.config)
        E.forward(m, [1, 2, 3, 4], cache=c)
        for layer in c.layers:
            assert len(layer.rows) == 4
            for i, r in enumerate(layer.rows):
                assert r.size == i + 1
                assert abs(r.sum() - 1.0) < 1e-9
                assert np.all(r >= 0)

    @pytest.mark.parametrize("bad", [[1.7], ["3"], [1, 2.0], [True], np.array([2.0])])
    def test_non_integer_tokens_rejected(self, bad):
        # a float or string token is not rounded or parsed into an id
        m = E.init_model(small_config(), 0)
        with pytest.raises(ValueError, match="integers"):
            E.forward(m, bad)
        with pytest.raises(ValueError, match="integers"):
            E.greedy_decode(m, bad, 2)
        assert m.stats["forwards"] == 0
        assert E.forward(m, np.array([2, 5], dtype=np.uint8)).logits.shape == (2, 64)

    def test_token_range_checked(self):
        m = E.init_model(small_config(), 0)
        with pytest.raises(ValueError):
            E.forward(m, [64])
        with pytest.raises(ValueError):
            E.forward(m, [])

    def test_max_seq_enforced(self):
        m = E.init_model(small_config(max_seq=4), 0)
        with pytest.raises(ValueError):
            E.forward(m, [0, 1, 2, 3, 0])

    def test_greedy_decode_checks_max_seq_before_the_first_forward(self):
        # the last forward covers position len(prompt) + max_new - 2 = 26
        prompt, max_new = [1] * 8, 20
        enough = E.init_model(small_config(max_seq=27), 0)
        assert len(E.greedy_decode(enough, prompt, max_new)) == 28
        short = E.init_model(small_config(max_seq=26), 0)
        with pytest.raises(ConfigError, match="model max_seq 26 .* position 26"):
            E.greedy_decode(short, prompt, max_new)
        assert short.stats["forwards"] == 0
        assert E.greedy_decode(short, [1] * 30, 0) == [1] * 30
        assert short.stats["forwards"] == 0


def _fresh(model, **weights):
    """A new model, so a new memo, over the model's weights with some replaced."""
    return E.TinyLM(model.config, {**model.weights, **weights})


class TestWeightMemo:
    TOKENS = [3, 17, 40, 8, 22]

    def test_rebound_weight_is_seen(self):
        # wk sits in the middle of the fused [wq|wk|wv] entry
        m = E.init_model(small_config(), 1)
        E.forward(m, self.TOKENS)
        spec = E.QuantSpec(bits=4, granularity="per-row")
        triple = lambda w: w * np.float32(3)
        for name, rebind in (("layers.1.wk", triple), ("token_embed", triple),
                             ("layers.0.ffn_norm", triple),
                             # an array to a QuantTensor, then to another one
                             ("layers.0.wv", lambda w: E.quantize(w, spec)),
                             ("layers.0.wv", lambda qt: E.quantize(triple(qt.dequantize()),
                                                                   spec))):
            m.weights[name] = rebind(m.weights[name])
            want = E.forward(_fresh(m), self.TOKENS).logits
            np.testing.assert_array_equal(E.forward(m, self.TOKENS).logits, want)

    def test_unfrozen_ptq_model_dequantizes_each_slot_once(self, monkeypatch):
        m = E.init_model(small_config(), 2)
        qm = E.ptq_model(m, E.uniform_plan(m, 4))
        decoded = []
        dequantize = E.QuantTensor.dequantize

        def counted(qt):
            decoded.append(qt)
            return dequantize(qt)

        monkeypatch.setattr(E.QuantTensor, "dequantize", counted)
        for _ in range(3):
            E.forward(qm, self.TOKENS)
        assert sorted(map(id, decoded)) == sorted(map(id, qm.weights.values()))

    def test_adapter_swaps_on_one_model(self):
        m = E.init_model(small_config(), 3)
        adapters = []
        for seed in (1, 2):
            a = E.create_adapter(m, ["layers.0.wq", "layers.1.wv", "layers.1.w_up"],
                                 r=2, alpha=4.0, seed=seed)
            for slot, b in a.B.items():
                a.B[slot] = np.random.default_rng(seed).normal(0, 0.5, b.shape)
            adapters.append(a)
        wants = [E.forward(_fresh(m), self.TOKENS, adapter=a).logits
                 for a in (*adapters, None)]
        assert not np.array_equal(wants[0], wants[1])
        for a, want in zip((*adapters, None, adapters[0]), (*wants, wants[0])):
            np.testing.assert_array_equal(E.forward(m, self.TOKENS, adapter=a).logits,
                                          want)
        a = adapters[0]                      # a rebound factor is seen too
        a.B["layers.1.wv"] = a.B["layers.1.wv"] * 2
        want = E.forward(_fresh(m), self.TOKENS, adapter=copy.deepcopy(a)).logits
        assert not np.array_equal(want, wants[0])
        np.testing.assert_array_equal(E.forward(m, self.TOKENS, adapter=a).logits, want)

    def test_frozen_ptq_model_matches_its_float_copy(self):
        m = E.init_model(small_config(), 4)
        qm = E.ptq_model(m, E.uniform_plan(m, 4), freeze=True)
        dense = E.TinyLM(m.config, {n: np.array(qm.weight(n)) for n in qm.weights})
        cache_q, cache_f = E.KvCache.for_model(m.config), E.KvCache.for_model(m.config)
        for part in (self.TOKENS, [9], [1, 2]):
            np.testing.assert_array_equal(E.forward(qm, part, cache=cache_q).logits,
                                          E.forward(dense, part, cache=cache_f).logits)


def _single_pass_attend(q, K, V, scale):
    """model._attend as one pass over the whole [H, n, m+n] score array:
    masked scores set to -inf by a boolean index, then exp, normalise and
    the head mean as sum(axis=0) / H."""
    n, H, hd = q.shape
    L, n_kv = K.shape[:2]
    m, group = L - n, H // n_kv
    qg = q.reshape(n, n_kv, group, hd).transpose(1, 2, 0, 3).reshape(n_kv, group * n, hd)
    scores = (qg @ K.transpose(1, 2, 0)).reshape(H, n, L)
    scores *= scale
    scores[:, :, m:][:, np.triu(np.ones((n, n), dtype=bool), 1)] = -np.inf
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    out = scores.reshape(n_kv, group * n, L) @ V.transpose(1, 0, 2)
    out = out.reshape(n_kv, group, n, hd).transpose(2, 0, 1, 3).reshape(n, H * hd)
    return out, scores.sum(axis=0) / H


def _tiled_single_pass_attend(q, K, V, scale):
    """:func:`_single_pass_attend` on each tile of ``TILE`` query rows r0..r1
    over the keys it can see, K[:m + r1]: the tile boundaries of
    model._attend, so every matmul and reduction has its shape."""
    n, L = q.shape[0], K.shape[0]
    m = L - n
    out, block = np.empty((n, q.shape[1] * q.shape[2])), np.zeros((n, L))
    for r0 in range(0, n, TILE):
        r1 = min(r0 + TILE, n)
        out[r0:r1], block[r0:r1, :m + r1] = _single_pass_attend(
            q[r0:r1], K[:m + r1], V[:m + r1], scale)
    return out, block


def _reference_forward(model, tokens, past, start):
    """Logits and each layer's head-averaged attention block of ``tokens`` at
    positions from ``start`` over the cached (keys, values) of ``past``,
    attending one query head and one query at a time; head h reads kv head
    h // group."""
    cfg, n, hd = model.config, len(tokens), model.config.head_dim
    group = cfg.n_heads // cfg.n_kv_heads
    positions = np.arange(start, start + n)
    rope = M._rope_table(positions, hd, cfg.rope_theta)
    w = lambda name: model.weight(name).astype(np.float64)
    x = w("token_embed")[tokens]
    blocks = []
    for li, (past_k, past_v) in enumerate(past):
        p = f"layers.{li}."
        h = M.rms_norm(x, w(p + "attn_norm"))
        q = M._rope_block((h @ w(p + "wq")).reshape(n, cfg.n_heads, hd), *rope)
        k = M._rope_block((h @ w(p + "wk")).reshape(n, cfg.n_kv_heads, hd), *rope)
        keys = np.concatenate([past_k, k])
        values = np.concatenate([past_v, (h @ w(p + "wv")).reshape(n, cfg.n_kv_heads, hd)])
        m = past_k.shape[0]
        out = np.zeros((n, cfg.n_heads, hd))
        block = np.zeros((n, m + n))
        for head in range(cfg.n_heads):
            kv = head // group
            for i in range(n):
                s = keys[:m + i + 1, kv] @ q[i, head] / np.sqrt(hd)
                e = np.exp(s - s.max())
                out[i, head] = (e / e.sum()) @ values[:m + i + 1, kv]
                block[i, :m + i + 1] += (e / e.sum()) / cfg.n_heads
        blocks.append(block)
        x = x + out.reshape(n, -1) @ w(p + "wo")
        h2 = M.rms_norm(x, w(p + "ffn_norm"))
        x = x + (M._silu(h2 @ w(p + "w_gate")) * (h2 @ w(p + "w_up"))) @ w(p + "w_down")
    return M.rms_norm(x, w("final_norm")) @ w("token_embed").T, blocks


class TestGreedyDecode:
    def test_deterministic_and_prefix(self):
        m = E.init_model(small_config(), 1)
        out = E.greedy_decode(m, [3, 1], 6)
        assert out[:2] == [3, 1]
        assert len(out) == 8
        assert out == E.greedy_decode(m, [3, 1], 6)

    def test_max_new_zero(self):
        m = E.init_model(small_config(), 1)
        assert E.greedy_decode(m, [5], 0) == [5]

    def test_argmax_tie_goes_to_lowest_id(self):
        # a model with all-zero embeddings ties every logit; argmax must pick 0
        m = E.init_model(small_config(), 1)
        m.weights["token_embed"] = np.zeros_like(m.weights["token_embed"])
        out = E.greedy_decode(m, [3], 2)
        assert out[1:] == [0, 0]


class TestPixelShuffle:
    def test_quarter_reduction(self):
        g = E.PatchGrid(4, 4, 8, np.arange(4 * 4 * 8, dtype=float).reshape(4, 4, 8))
        out = E.pixel_shuffle(g, 2)
        assert (out.rows, out.cols, out.dim) == (2, 2, 32)
        assert out.rows * out.cols == g.rows * g.cols // 4

    def test_block_content(self):
        data = np.arange(2 * 2 * 1, dtype=float).reshape(2, 2, 1)
        out = E.pixel_shuffle(E.PatchGrid(2, 2, 1, data), 2)
        # row-major block order: (0,0), (0,1), (1,0), (1,1)
        np.testing.assert_array_equal(out.data[0, 0], [0, 1, 2, 3])

    def test_inverse(self):
        rng = np.random.default_rng(2)
        for r in (2, 3):
            g = E.PatchGrid(6, 6, 4, rng.normal(size=(6, 6, 4)))
            back = E.pixel_unshuffle(E.pixel_shuffle(g, r), r)
            np.testing.assert_array_equal(back.data, g.data)

    def test_indivisible_rejected(self):
        g = E.PatchGrid(3, 4, 4, np.zeros((3, 4, 4)))
        with pytest.raises(ShapeError):
            E.pixel_shuffle(g, 2)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        m = E.init_model(small_config(), 9)
        p = tmp_path / "m.bin"
        E.save_model(m, p)
        m2 = E.load_model(p)
        assert m2.config == m.config
        for name in m.weights:
            np.testing.assert_array_equal(m2.weights[name], m.weights[name])

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError):
            E.load_model(p)
