import copy
import dataclasses
import functools
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

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


def _bound_recorder(bounded: list):
    """model._attend, appending to ``bounded`` whether each call of more
    than one tile passes model._exp_bounded, so runs on raw scores."""
    attend = M._attend

    def recording(q, Kt, Vt, scale, window):
        if q.shape[0] > TILE:
            bounded.append(M._exp_bounded(q * scale, Kt, Vt))
        return attend(q, Kt, Vt, scale, window)

    return recording


def _record_blocks(cache) -> list:
    """Copies of every (mass, rows) pair of attention reads the cache is
    handed, in order."""
    handed, append_block = [], cache.append_block

    def record(li, positions, mass, rows):
        handed.append((np.array(mass), np.array(rows)))
        append_block(li, positions, mass, rows)

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

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 8), d=st.sampled_from([8, 32, 64]),
           magnitude=st.sampled_from([1e-150, 1e-100, 1e-3, 1.0, 1e3, 1e100, 1e150]),
           scale=st.sampled_from(["none", "ones", "drawn"]), data=st.data())
    def test_one_row_is_bit_identical_to_its_row_in_a_block(self, rows, d, magnitude,
                                                             scale, data):
        # one row takes its mean square and root in Python floats, a block in
        # numpy: every bit agrees, also where the squares underflow or overflow
        x = magnitude * data.draw(hnp.arrays(np.float64, (rows, d),
                                             elements=st.floats(-10, 10)))
        scale = {"none": None, "ones": np.ones(d),
                 "drawn": data.draw(hnp.arrays(np.float64, d,
                                               elements=st.floats(-4, 4)))}[scale]
        with np.errstate(over="ignore", under="ignore"):
            block = E.rms_norm(x, scale)
            for i in range(rows):
                assert E.rms_norm(x[i:i + 1], scale).tobytes() == block[i:i + 1].tobytes()
                assert E.rms_norm(x[i], scale).tobytes() == block[i].tobytes()


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

    @settings(max_examples=40, deadline=None)
    @given(n_kv=st.sampled_from([4, 2, 1]),
           n=st.sampled_from([1, TILE, TILE + 1, 2 * TILE + 1]) | st.integers(1, 40),
           seed=st.integers(0, 2**16))
    @example(n_kv=4, n=2 * TILE + 1, seed=0)
    def test_cacheless_forward_is_a_fresh_cache_forward(self, n_kv, n, seed):
        # one attention path: GQA groups 1, 2 and 4, on both sides of the
        # row-tile edge, bit for bit. A cacheless forward that multiplied by
        # a transposed view of its keys rounded differently when its last
        # tile held one query (the example)
        model = E.init_model(small_config(n_kv_heads=n_kv), seed)
        tokens = np.random.default_rng(seed).integers(0, 64, n)
        fresh = E.KvCache.for_model(model.config)
        assert np.array_equal(E.forward(model, tokens).logits,
                              E.forward(model, tokens, cache=fresh).logits)

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
        # the cache is handed the block's column sums and its last rows
        for (mass, rows), want in zip(handed, want_blocks):
            np.testing.assert_allclose(mass, want.sum(axis=0), rtol=0, atol=1e-12)
            assert rows.shape == (min(len(tokens), cache.window), want.shape[1])
            np.testing.assert_allclose(rows, want[-rows.shape[0]:], rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(heads=st.sampled_from(HEAD_LAYOUTS), scale=st.sampled_from([1.0, 8.0, 40.0]),
           n=st.sampled_from([1, TILE - 1, TILE, TILE + 1, 2 * TILE + 3]),
           m=st.integers(0, 600), seed=st.integers(0, 2**16))
    def test_row_tiled_softmax_is_bit_identical_to_single_pass(self, heads, scale,
                                                                n, m, seed):
        # n new tokens across the tile edges after m cached ones: the logits
        # and every mass and rows handed to the cache equal those of the
        # same arithmetic with a plain -inf mask, run tile by tile over each
        # tile's visible keys, and lie within the block tolerance of one
        # single pass over the whole score array. Every multi-tile call on
        # unscaled weights skips the row max; ×40's scores reach about 420,
        # which the bound admits as well
        model = _sharpened_model(heads, scale, max_seq=1024)
        tokens = np.random.default_rng(seed).integers(0, 64, m + n)
        parts = [tokens[:m], tokens[m:]] if m else [tokens]
        bounded = []
        runs = []
        for attend in (_bound_recorder(bounded), _tiled_single_pass_attend,
                       _single_pass_attend):
            cache = E.KvCache.for_model(model.config)
            handed = _record_blocks(cache)
            with mock.patch.object(M, "_attend", attend):
                logits = [E.forward(model, part, cache=cache).logits for part in parts]
            runs.append((logits, [a for pair in handed for a in pair]))
        (got, got_blocks), (want, want_blocks), (whole, whole_blocks) = runs
        assert len(got_blocks) == len(want_blocks) == 2 * len(parts) * model.config.n_layers
        for a, b in zip(got + got_blocks, want + want_blocks):
            assert np.array_equal(a, b)
        for a, b in zip(got + got_blocks, whole + whole_blocks):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        assert len(bounded) == model.config.n_layers * ((m > TILE) + (n > TILE))
        assert all(bounded) or scale != 1.0

    @settings(max_examples=25, deadline=None)
    @given(heads=st.sampled_from(HEAD_LAYOUTS),
           n=st.sampled_from([TILE + 1, 2 * TILE, 3 * TILE + 5]),
           m=st.integers(0, 300), big=st.floats(1e4, 1e150), seed=st.integers(0, 2**16))
    def test_unbounded_scores_keep_the_max_path(self, heads, n, m, big, seed):
        # one key of norm `big` along the one axis no query has leaves every
        # score as it was but lifts the bound past the limit: the call keeps
        # the max path, bit-identical to the tiled mirror, and agrees with
        # the max-free path on the same scores and with one single pass
        (H, n_kv), hd, L = heads, 8, m + n
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(n, H, hd))
        q[..., -1] = 0.0
        Kt = rng.normal(size=(n_kv, hd, L))
        Kt[:, -1] = 0.0
        Vt = rng.normal(size=(n_kv, L, hd))
        scale = 1.0 / np.sqrt(hd)
        free = M._attend(q, Kt, Vt, scale, 8)
        assert M._exp_bounded(q * scale, Kt, Vt)
        Kt[:, -1, rng.integers(L)] = big
        assert not M._exp_bounded(q * scale, Kt, Vt)
        got = M._attend(q, Kt, Vt, scale, 8)
        for a, b, c, d in zip(got, _tiled_single_pass_attend(q, Kt, Vt, scale, 8), free,
                              _single_pass_attend(q, Kt, Vt, scale, 8)):
            assert np.array_equal(a, b)
            np.testing.assert_allclose(a, c, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a, d, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 37])
    @pytest.mark.parametrize("n", range(1, TILE + 1))
    @settings(max_examples=6, deadline=None)
    @given(heads=st.sampled_from(HEAD_LAYOUTS), window=st.sampled_from([0, 1, 4, 32]),
           sharp=st.sampled_from([1.0, 8.0, 40.0]), seed=st.integers(0, 2**16))
    def test_one_tile_is_bit_identical_to_the_tiled_reference(self, n, m, heads,
                                                              window, sharp, seed):
        # every forward of 1-16 tokens is one call of the tile body, with no
        # score or output buffer: each of its results equals the tiled
        # reference bit for bit, with and without a window of rows
        (H, n_kv), hd, L = heads, 8, m + n
        rng = np.random.default_rng(seed)
        q = sharp * rng.normal(size=(n, H, hd))
        Kt = rng.normal(size=(n_kv, hd, L))
        Vt = rng.normal(size=(n_kv, L, hd))
        got = M._attend(q, Kt, Vt, 1 / np.sqrt(hd), window)
        want = _tiled_single_pass_attend(q, Kt, Vt, 1 / np.sqrt(hd), window)
        assert got[2].shape == (min(n, window), L)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(heads=st.sampled_from(HEAD_LAYOUTS),
           n=st.sampled_from([1, 5, TILE, TILE + 1, 40]), m=st.integers(0, 60),
           top=st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True),
           sharp=st.sampled_from([1.0, 40.0, 1e3]), seed=st.integers(0, 2**16))
    def test_values_below_one_keep_the_bound_of_a_floor_of_one(self, heads, n, m, top,
                                                              sharp, seed):
        # values of max magnitude top < 1, all zeros included: every result
        # equals the tiled reference bit for bit, and the bound gives the
        # verdict it gives once a lane of ones lifts max|V| to 1
        (H, n_kv), hd, L = heads, 8, m + n
        rng = np.random.default_rng(seed)
        q = sharp * rng.normal(size=(n, H, hd))
        Kt = rng.normal(size=(n_kv, hd, L))
        Vt = top * rng.uniform(-1.0, 1.0, size=(n_kv, L, hd))
        scale = 1 / np.sqrt(hd)
        lane = np.concatenate([Vt, np.ones((n_kv, L, 1))], axis=-1)
        assert M._exp_bounded(q * scale, Kt, Vt) == M._exp_bounded(q * scale, Kt, lane)
        got = M._attend(q, Kt, Vt, scale, 8)
        for a, b in zip(got, _tiled_single_pass_attend(q, Kt, Vt, scale, 8)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert np.isfinite(got[0]).all() and (top > 0 or not got[0].any())

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("big", [1.0, 1e300])
    def test_exp_bound_edge_keeps_sums_finite(self, sign, big):
        # every score at ±B, the largest bound the limit admits beside values
        # of magnitude big, the worst case for σ and PV (+) and for 1 / (H σ)
        # (-): B is 693.8 beside values of 1, and 3.1 beside values of 1e300
        H, n_kv, hd, n, m = 4, 2, 16, TILE + 1, 100
        L = m + n
        B = (M._EXP_LIMIT - np.log(H * L * big)) * (1 - 1e-12)
        q = np.zeros((n, H, hd))
        q[..., 0] = sign * np.sqrt(B)
        Kt = np.zeros((n_kv, hd, L))
        Kt[:, 0] = np.sqrt(B)
        Vt = np.full((n_kv, L, hd), big)
        assert M._exp_bounded(q, Kt, Vt)
        assert not M._exp_bounded(q * (1 + 1e-9), Kt, Vt)
        group = H // n_kv
        qg = q.reshape(n, n_kv, group, hd).transpose(1, 2, 0, 3).reshape(n_kv, group * n, hd)
        e = np.exp(qg @ Kt)                            # every key, masked or not
        pv, sigma = e @ Vt, e.sum(axis=-1)
        assert np.isfinite(pv).all()
        assert (sigma >= np.finfo(float).tiny).all()
        assert (1.0 / (H * sigma) >= np.finfo(float).tiny).all()
        assert np.isfinite(1.0 / (H * sigma)).all()
        out, mass, rows = M._attend(q, Kt, Vt, 1.0, 4)
        np.testing.assert_allclose(out, big, rtol=1e-12)
        # each query spreads its mass evenly over the keys it sees
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(mass.sum(), n, rtol=1e-12)

    def test_default_prefill_is_max_free(self):
        # a later change cannot drop the default model's long prefill back
        # to the max path without failing here
        cfg = E.ModelConfig()
        model = E.init_model(cfg, 0)
        tokens = np.random.default_rng(0).integers(0, cfg.vocab_size, 2048)
        bounded = []
        with mock.patch.object(M, "_attend", _bound_recorder(bounded)):
            bench.prefill(model, tokens, E.KvCache.for_model(cfg))
        assert bounded == [True] * (cfg.n_layers * 2048 // bench.PREFILL_CHUNK)

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
        f64 = 8
        scores = cfg.n_heads * TILE * length * f64    # one tile's [H, 16, 2048]: 1 MiB
        rows = cache.window * length * f64            # the window's rows: 512 KiB
        arena = sum(a.nbytes for ls in cache.layers
                    for a in (ls._keys, ls._values, ls._positions, ls._acc, ls._rows))
        # the layer's [512, d] activations and the last chunk's logits fit in
        # 8 MiB; the last chunk's [512, 2048] head-averaged block (8 MiB) and a
        # whole chunk's [H, 512, 2048] score array (32 MiB) do not
        assert peak < scores + rows + arena + 8 * 2**20

    def test_block_forward_peak_memory_is_bounded(self):
        # spec_decode's first verify: 516 tokens on a reserved cache with no
        # window; one [516, 2 ffn_dim] gate/up product alone is 2.1 MB, and
        # the one-pass FFN, with the attention's temporaries alive, read 6.03 MiB
        cfg, length = E.ModelConfig(), 516
        model = E.init_model(cfg, 0)
        tokens = np.random.default_rng(0).integers(0, cfg.vocab_size, length)
        E.forward(model, tokens[:1])        # resolve the weights before tracing
        cache = E.KvCache.for_model(cfg, window=0)
        cache.reserve(length)
        tracemalloc.start()
        try:
            E.forward(model, tokens, cache=cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    @pytest.mark.parametrize("bad", [[], [3] * 600 + [999], [3] * 600 + [-1],
                                     [3] * 600 + [1.0], [3] * 1022])
    def test_prefill_checks_the_whole_prompt_first(self, bad):
        # an empty, out-of-vocabulary, non-integer or too long prompt raises
        # before its first 512-token chunk reaches the cache
        m = E.init_model(small_config(max_seq=1024), 0)
        cache = E.KvCache.for_model(m.config)
        bench.prefill(m, [1, 2, 3], cache)
        with pytest.raises(ValueError):
            bench.prefill(m, bad, cache)
        assert [cache.kept(li) for li in range(m.config.n_layers)] == [3, 3]
        assert cache.next_position() == 3

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


@settings(max_examples=100, deadline=None)
@given(gate_up=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                       max_side=12),
                          elements=st.floats(width=64)),
       half=st.booleans())
def test_silu_in_place_is_bit_identical(gate_up, half):
    # on the whole array or on the strided gate half, as _layer calls it
    x = gate_up[:, :gate_up.shape[1] // 2] if half else gate_up
    before = gate_up.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = M._silu(x), x / (1.0 + np.exp(-x))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert gate_up.tobytes() == before.tobytes()


def _one_pass_ffn(cfg, record, x):
    """The FFN over all rows at once, as _layer ran it before its row blocks."""
    _, _, _, ffn_scale, gate_up_proj, down = record
    gate_up = M._proj(M.rms_norm(x, ffn_scale), gate_up_proj)
    gate = M._silu(gate_up[:, :cfg.ffn_dim])
    gate *= gate_up[:, cfg.ffn_dim:]
    return x + M._proj(gate, down)


@functools.cache
def _ffn_model(unit: bool):
    """The default model, with a non-unit ffn_norm scale unless ``unit``."""
    m = E.init_model(E.ModelConfig(), 3)
    if not unit:
        w = m.weights["layers.0.ffn_norm"]
        m.weights["layers.0.ffn_norm"] = np.random.default_rng(3).uniform(
            0.5, 2.0, w.shape).astype(np.float32)
    return m


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), unit=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=63, unit=True, seed=0)
@example(n=64, unit=False, seed=1)
@example(n=65, unit=True, seed=2)
@example(n=65, unit=False, seed=3)
@example(n=128, unit=False, seed=4)
@example(n=129, unit=True, seed=5)
@example(n=129, unit=False, seed=6)
@example(n=257, unit=False, seed=7)
def test_ffn_half_is_bit_identical_to_one_pass(n, unit, seed):
    # blocks of _FFN_ROWS rows, and a last one that took a one-row remainder
    model = _ffn_model(unit)
    record = model.plan()[0]
    assert (record[3] is None) == unit
    x = np.random.default_rng(seed).normal(0.0, 1.0, (n, model.config.d_model))
    got = M._ffn_half(model.config, record, x)
    assert got.tobytes() == _one_pass_ffn(model.config, record, x).tobytes()


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


class TestPlan:
    TOKENS = [3, 17, 40, 8, 22, 9]

    def test_rebound_slots_reach_the_next_forward(self):
        # a non-unit norm scale is kept in the plan and multiplied, and the
        # tied embedding is also the head
        m = E.init_model(small_config(), 5)
        fo = E.forward(m, self.TOKENS)
        rng = np.random.default_rng(5)
        cfg = m.config
        past = [(np.zeros((0, cfg.n_kv_heads, cfg.head_dim)),) * 2] * cfg.n_layers
        for name in ("layers.0.attn_norm", "layers.1.ffn_norm", "final_norm",
                     "layers.1.wq", "layers.0.w_down", "token_embed"):
            w = m.weights[name]
            m.weights[name] = (w * rng.uniform(0.5, 2.0, w.shape)).astype(np.float32)
            before, fo = fo, E.forward(m, self.TOKENS)
            assert not np.allclose(fo.logits, before.logits)
            want, _ = _reference_forward(m, self.TOKENS, past, 0)
            np.testing.assert_allclose(fo.logits, want, rtol=0, atol=1e-10)
            # the final hidden state keeps the final norm's scale
            np.testing.assert_allclose(fo.final_hidden @ m.weight("token_embed").T,
                                       fo.logits, rtol=0, atol=1e-10)

    def test_one_rebound_slot_rebuilds_one_layer(self):
        m = E.init_model(small_config(n_layers=3), 6)
        E.forward(m, self.TOKENS)
        first = m.plan()
        m.weights["layers.1.w_up"] = m.weights["layers.1.w_up"] * np.float32(2)
        second = m.plan()
        # the records are new, but only layer 1's arrays are not the memo's old ones
        same = [all(map(np.shares_memory, _plan_arrays(a), _plan_arrays(b)))
                for a, b in zip(first, second)]
        assert same == [True, False, True, True]

    def test_a_rebuild_holds_no_old_record(self, monkeypatch):
        m = E.init_model(small_config(), 8)
        adapters = []
        for seed in (1, 2):
            a = E.create_adapter(m, ["layers.0.wq", "layers.1.wv"], r=2, alpha=4.0,
                                 seed=seed)
            for slot, b in a.B.items():
                a.B[slot] = np.random.default_rng(seed).normal(0, 0.5, b.shape)
            adapters.append(a)
        want = E.forward(_fresh(m), self.TOKENS, adapter=adapters[1]).logits
        E.forward(m, self.TOKENS, adapter=adapters[0])
        old = _own_plan_arrays(m, adapters[0])
        assert old                           # the merged copies, the head's view
        record, alive = M._record, []

        def spy_record(model, adapter, *names):
            alive.append(sum(ref() is not None for ref in old))
            return record(model, adapter, *names)

        monkeypatch.setattr(M, "_record", spy_record)
        np.testing.assert_array_equal(E.forward(m, self.TOKENS, adapter=adapters[1]).logits,
                                      want)
        assert alive == [0] * (m.config.n_layers + 1)
        # a rebuild that raises leaves no plan: the next forward builds one
        old = _own_plan_arrays(m, adapters[1])
        bad = dataclasses.replace(adapters[1], B={**adapters[1].B, "layers.1.wv": np.full(
            adapters[1].B["layers.1.wv"].shape, np.nan)})
        with pytest.raises(ConfigError, match="delta is not finite"):
            E.forward(m, self.TOKENS, adapter=bad)
        assert all(ref() is None for ref in old)
        np.testing.assert_array_equal(E.forward(m, self.TOKENS, adapter=adapters[1]).logits,
                                      want)

    @pytest.mark.parametrize("kind", ["float", "quant"])
    def test_a_reloaded_model_builds_its_own_plan(self, kind, tmp_path):
        m = E.init_model(small_config(), 7)
        if kind == "quant":
            m = E.ptq_model(m, E.uniform_plan(m, 4), freeze=True)
            E.save_quant_model(m, tmp_path / "m")
            loaded = E.load_quant_model(tmp_path / "m")
        else:
            E.save_model(m, tmp_path / "m")
            loaded = E.load_model(tmp_path / "m")
        want = E.forward(m, self.TOKENS).logits
        np.testing.assert_array_equal(E.forward(loaded, self.TOKENS).logits, want)
        ours = [a for rec in m.plan() for a in _plan_arrays(rec)]
        assert not any(np.shares_memory(a, b) for rec in loaded.plan()
                       for a in _plan_arrays(rec) for b in ours)
        # rebinding a slot of the reloaded model leaves the original as it was
        loaded.weights["layers.0.wv"] = np.zeros(m.config.slot_shapes()["layers.0.wv"],
                                                 dtype=np.float32)
        assert not np.allclose(E.forward(loaded, self.TOKENS).logits, want)
        np.testing.assert_array_equal(E.forward(m, self.TOKENS).logits, want)


def _plan_arrays(record):
    """Every array a plan record holds."""
    if isinstance(record, np.ndarray):
        return [record]
    if isinstance(record, tuple):
        return [a for part in record for a in _plan_arrays(part)]
    return []


def _own_plan_arrays(model, adapter):
    """Weak references to the arrays of the model's plan for ``adapter`` that
    only the plan holds: not the memo's."""
    memo = [entry[1] for entry in model._memo.values()]
    return [weakref.ref(a) for rec in model.plan(adapter) for a in _plan_arrays(rec)
            if not any(a is b for b in memo)]


def _single_pass_attend(q, Kt, Vt, scale, window):
    """model._attend as one pass over the whole [H, n, m+n] score array of
    the same key panels Kt[kv, hd, m+n] and values Vt[kv, m+n, hd]: masked
    scores set to -inf by a boolean index, then the row max
    subtracted, exp, normalise before PV, and the head-averaged block as
    sum(axis=0) / H; its column sums and last min(n, window) rows are
    returned."""
    n, H, hd = q.shape
    n_kv, L = Kt.shape[0], Kt.shape[2]
    m, group = L - n, H // n_kv
    qg = q.reshape(n, n_kv, group, hd).transpose(1, 2, 0, 3).reshape(n_kv, group * n, hd)
    scores = (qg @ Kt).reshape(H, n, L)
    scores *= scale
    scores[:, :, m:][:, np.triu(np.ones((n, n), dtype=bool), 1)] = -np.inf
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    out = scores.reshape(n_kv, group * n, L) @ Vt
    out = out.reshape(n_kv, group, n, hd).transpose(2, 0, 1, 3).reshape(n, H * hd)
    block = scores.sum(axis=0) / H
    return out, block.sum(axis=0), block[n - min(n, window):]


def _tiled_single_pass_attend(q, Kt, Vt, scale, window):
    """model._attend's arithmetic with a plain mask and a fresh score array
    per tile: on each tile of ``TILE`` query rows r0..r1 over the key
    panels it can see, Kt[..., :m + r1], the masked scores are set to -inf
    by a boolean index and the row max is subtracted, both skipped on a
    call of more than one tile that model._exp_bounded admits; then exp
    runs and the masked entries are zeroed. The row totals σ are summed from
    the exp as model._tile sums them, and PV runs on the exp and is divided
    by them; the mass and rows take the weights 1 / (H σ). Every
    matmul and reduction has model._attend's shape, and one token's row is
    its mass (no window, no rows)."""
    n, H, hd = q.shape
    n_kv, L = Kt.shape[0], Kt.shape[2]
    m, group = L - n, H // n_kv
    first = n - min(n, window)
    q = q * scale
    max_free = n > TILE and M._exp_bounded(q, Kt, Vt)
    out, mass, rows = np.empty((n, H * hd)), np.zeros(L), np.zeros((n - first, L))
    for r0 in range(0, n, TILE):
        r1 = min(r0 + TILE, n)
        t, seen = r1 - r0, m + r1
        qg = q[r0:r1].reshape(t, n_kv, group, hd).transpose(1, 2, 0, 3)
        scores = qg.reshape(n_kv, group * t, hd) @ Kt[..., :seen]
        s = scores.reshape(H, t, seen)
        mask = np.zeros((H, t, seen), dtype=bool)
        mask[:, :, m + r0:] = np.triu(np.ones((t, t), dtype=bool), 1)
        if not max_free:
            s[mask] = -np.inf
            s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s[mask] = 0.0
        sigma = scores.sum(axis=-1)
        pv = (scores @ Vt[:, :seen]) / sigma[..., None]
        out[r0:r1] = pv.reshape(n_kv, group, t, hd).transpose(2, 0, 1, 3).reshape(t, -1)
        w = 1.0 / (H * sigma.reshape(H, t))
        mass[:seen] += w.reshape(-1) @ scores.reshape(H * t, seen)
        lo = max(first - r0, 0)
        if lo < t:
            rows[r0 + lo - first:r1 - first, :seen] = (
                w[:, lo:].T[:, None, :] @ s[:, lo:].transpose(1, 0, 2))[:, 0]
    return out, mass, mass[None] if n == 1 and window else rows


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
        q = M._rope_block((h @ w(p + "wq")).reshape(n, cfg.n_heads, hd), rope)
        k = M._rope_block((h @ w(p + "wk")).reshape(n, cfg.n_kv_heads, hd), rope)
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
