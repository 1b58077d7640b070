import copy
import types
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import edgelm as E
from edgelm import bench, kvcache as kvc
from edgelm.errors import ConfigError


def _handoff(attn):
    """What a forward hands append_block for a head-averaged attention block
    [n, kept+n]: its column sums and its rows."""
    return attn.sum(axis=0), attn


def _append_block(cache, layer, k, v, positions, mass, rows):
    """Stage a block's keys and values, then commit it, as a forward does."""
    cache.stage(layer, k, v)
    cache.append_block(layer, positions, mass, rows)


def make_cache(n, n_layers=1, seed=0, window=32):
    """Cache with n entries whose attention rows come from a seeded stream."""
    rng = np.random.default_rng(seed)
    cache = E.KvCache(n_layers=n_layers, n_kv_heads=1, head_dim=2, window=window)
    for li in range(n_layers):
        for pos in range(n):
            row = rng.random(pos + 1)
            row /= row.sum()
            cache.append(li, rng.normal(size=(1, 2)), rng.normal(size=(1, 2)),
                         pos, row)
    return cache


class TestCacheBasics:
    def test_append_tracks_positions(self):
        c = make_cache(5)
        assert c.kept(0) == 5
        assert c.next_position() == 5
        np.testing.assert_array_equal(c.kept_positions(0), np.arange(5))

    def test_non_monotone_position_rejected(self):
        c = make_cache(3)
        with pytest.raises(ValueError):
            c.append(0, np.zeros((1, 2)), np.zeros((1, 2)), 1, np.ones(4) / 4)

    def test_row_length_validated(self):
        c = make_cache(3)
        with pytest.raises(ValueError):
            c.append(0, np.zeros((1, 2)), np.zeros((1, 2)), 3, np.ones(2))

    def test_truncate_drops_newest(self):
        c = make_cache(6)
        c.truncate(2)
        assert c.kept(0) == 4
        np.testing.assert_array_equal(c.kept_positions(0), np.arange(4))

    def test_truncate_beyond_kept_rejected(self):
        c = make_cache(3, n_layers=2)
        with pytest.raises(ValueError, match=r"drop 5 .* keeps 3"):
            c.truncate(5)
        assert [c.kept(li) for li in range(2)] == [3, 3]
        c.truncate(3)
        assert c.total_kept() == 0 and c.next_position() == 0

    def test_acc_accumulates_mass(self):
        c = E.KvCache(1, 1, 2, window=8)
        c.append(0, np.zeros((1, 2)), np.zeros((1, 2)), 0, [1.0])
        c.append(0, np.zeros((1, 2)), np.zeros((1, 2)), 1, [0.25, 0.75])
        np.testing.assert_allclose(c.layers[0].acc, [1.25, 0.75])

    def test_cache_bytes(self):
        c = make_cache(10, n_layers=2)
        # 10 entries x 1 head x dim 2 x (K+V) x 4 bytes x 2 layers
        assert E.cache_bytes(c, 4) == 10 * 1 * 2 * 2 * 4 * 2


class TestPolicyValidation:
    def test_budget_below_floor_rejected(self):
        c = make_cache(20)
        with pytest.raises(ConfigError):
            E.evict(c, E.AttentionSink(sinks=4, window=8), 10)

    def test_even_pool_kernel_rejected(self):
        with pytest.raises(ConfigError):
            E.ObsWindow(obs=4, pool_kernel=4)

    def test_observation_window_beyond_row_window_rejected(self):
        c = make_cache(20, window=8)
        for pol in (E.ObsWindow(obs=16), E.Hybrid(obs=16)):
            with pytest.raises(ConfigError, match="observation window 16 .* 8-row"):
                E.evict(c, pol, 18)
        E.evict(c, E.Hybrid(lambda_win=0, obs=16), 18)  # the rows go unused
        E.evict(c, E.ObsWindow(obs=16), 20)             # under budget: none is read

    def test_hybrid_weights_validated(self):
        with pytest.raises(ConfigError):
            E.Hybrid(lambda_sink=0, lambda_recent=0, lambda_acc=0, lambda_win=0)
        with pytest.raises(ConfigError):
            E.Hybrid(lambda_acc=-1)

    @pytest.mark.parametrize("cls, kwargs, named", [
        (E.AttentionSink, {"sinks": -1}, "sinks"),
        (E.AttentionSink, {"window": -1}, "window"),
        (E.HeavyHitter, {"recent": -3}, "recent"),
        (E.ObsWindow, {"obs": 0}, "obs"),
        (E.ObsWindow, {"pool_kernel": -1}, "pool_kernel"),
        (E.Hybrid, {"obs": 0}, "obs"),
        (E.Hybrid, {"sinks": -1}, "sinks"),
        (E.Hybrid, {"pool_kernel": 4}, "pool_kernel"),
        (E.Hybrid, {"lambda_acc": float("nan")}, "finite"),
        (E.Hybrid, {"lambda_win": float("inf")}, "finite"),
    ])
    def test_out_of_range_field_rejected(self, cls, kwargs, named):
        # obs=0 would score over every ring row: `slots()[-0:]` is all of them
        with pytest.raises(ConfigError, match=named):
            cls(**kwargs)


class TestEviction:
    def test_budget_respected_all_policies(self):
        policies = [E.AttentionSink(sinks=2, window=4), E.HeavyHitter(recent=2),
                    E.ObsWindow(obs=4, pool_kernel=3),
                    E.Hybrid(obs=4, pool_kernel=3), E.RandomPolicy(seed=1)]
        for pol in policies:
            c = make_cache(30, n_layers=2, seed=3)
            report = E.evict(c, pol, 12)
            for li in range(2):
                assert c.kept(li) <= 12
            assert len(report.layers) == 2

    def test_under_budget_is_noop(self):
        c = make_cache(5)
        before = c.kept_positions(0)
        E.evict(c, E.HeavyHitter(recent=1), 10)
        np.testing.assert_array_equal(c.kept_positions(0), before)

    def test_attention_sink_keeps_front_and_back(self):
        c = make_cache(20)
        E.evict(c, E.AttentionSink(sinks=3, window=5), 8)
        kept = set(c.kept_positions(0))
        assert {0, 1, 2} <= kept
        assert set(range(15, 20)) <= kept

    def test_heavy_hitter_keeps_top_mass(self):
        c = make_cache(12, seed=5)
        acc = c.layers[0].acc.copy()
        E.evict(c, E.HeavyHitter(recent=1), 4)
        kept = set(int(p) for p in c.kept_positions(0))
        assert 11 in kept  # mandatory recent
        # the three non-mandatory keeps are the top accumulated-mass positions
        order = np.lexsort((-np.arange(11), -acc[:11]))
        assert set(int(i) for i in order[:3]) <= kept

    def test_obs_window_keeps_window(self):
        c = make_cache(20, seed=7)
        E.evict(c, E.ObsWindow(obs=6, pool_kernel=3), 10)
        assert set(range(14, 20)) <= set(int(p) for p in c.kept_positions(0))

    def test_random_deterministic_per_seed(self):
        a = make_cache(20, seed=2)
        b = make_cache(20, seed=2)
        E.evict(a, E.RandomPolicy(seed=9), 8)
        E.evict(b, E.RandomPolicy(seed=9), 8)
        np.testing.assert_array_equal(a.kept_positions(0), b.kept_positions(0))

    def test_score_state_pruned_consistently(self):
        c = make_cache(15, seed=4)
        E.evict(c, E.HeavyHitter(recent=2), 6)
        ls = c.layers[0]
        assert ls.acc.size == ls.kept == ls.positions.size
        for row in ls.rows:
            assert row.size <= ls.kept

    def test_eviction_ratio(self):
        c = make_cache(16, n_layers=2)
        report = E.evict(c, E.RandomPolicy(seed=0), 12)
        assert E.eviction_ratio(report) == pytest.approx(4 / 16)

    @pytest.mark.parametrize("policy", [
        E.HeavyHitter(recent=1),
        # these two may drop the newest entries
        E.AttentionSink(sinks=7, window=0), E.HeavyHitter(recent=0)],
        ids=["heavy_hitter", "sinks_only", "heavy_hitter_no_recent"])
    def test_positions_survive_eviction_unrenumbered(self, policy):
        c = make_cache(20, seed=8)
        E.evict(c, policy, 7)
        pos = c.kept_positions(0)
        assert np.all(np.diff(pos) > 0)
        assert c.next_position() == 20  # one past the last appended position


class TestHybridScore:
    def test_one_hot_acc_matches_heavy_hitter(self):
        budget = 8
        a = make_cache(24, seed=11)
        b = make_cache(24, seed=11)
        E.evict(a, E.Hybrid(lambda_sink=0, lambda_recent=0, lambda_acc=1,
                            lambda_win=0), budget)
        E.evict(b, E.HeavyHitter(recent=1), budget)
        np.testing.assert_array_equal(a.kept_positions(0), b.kept_positions(0))

    def test_one_hot_win_matches_obs_window(self):
        budget = 10
        a = make_cache(24, seed=12)
        b = make_cache(24, seed=12)
        E.evict(a, E.Hybrid(lambda_sink=0, lambda_recent=0, lambda_acc=0,
                            lambda_win=1, obs=6, pool_kernel=3), budget)
        E.evict(b, E.ObsWindow(obs=6, pool_kernel=3), budget)
        np.testing.assert_array_equal(a.kept_positions(0), b.kept_positions(0))

    def test_one_hot_sink_matches_attention_sink(self):
        budget = 9
        a = make_cache(24, seed=13)
        b = make_cache(24, seed=13)
        E.evict(a, E.Hybrid(lambda_sink=1, lambda_recent=0, lambda_acc=0,
                            lambda_win=0, sinks=3), budget)
        E.evict(b, E.AttentionSink(sinks=3, window=budget - 3), budget)
        np.testing.assert_array_equal(a.kept_positions(0), b.kept_positions(0))

    def test_one_hot_recent_is_sliding_window(self):
        a = make_cache(24, seed=14)
        E.evict(a, E.Hybrid(lambda_sink=0, lambda_recent=1, lambda_acc=0,
                            lambda_win=0), 6)
        np.testing.assert_array_equal(a.kept_positions(0), np.arange(18, 24))

    def test_score_hybrid_normalizes_components(self):
        s = _score_hybrid([0, 0, 1], [0, 5, 10], [3, 3, 3], [0, 1, 2],
                          E.Hybrid(lambda_sink=0.25, lambda_recent=0.25,
                                   lambda_acc=0.25, lambda_win=0.25))
        # constant acc contributes zero; others normalized to [0,1]
        np.testing.assert_allclose(s, [0.0, 0.25 * 0.5 + 0.25 * 0.5, 0.75])
        # and Hybrid keeps what the oracle keeps when the mass is constant
        c = make_cache(20, seed=15, window=8)
        c.layers[0]._acc[:20] = 3.0
        _assert_keeps_oracle_set(c, E.Hybrid(obs=4, pool_kernel=3), 9)


def _minmax(x):
    lo, hi = x.min(), x.max()
    return np.zeros_like(x) if hi == lo else (x - lo) / (hi - lo)


def _score_hybrid(sink_ind, recency, acc, win, weights):
    """The weighted sum of the four min-max normalised components; a
    constant component contributes 0, a zero weight nothing."""
    lams = (weights.lambda_sink, weights.lambda_recent, weights.lambda_acc,
            weights.lambda_win)
    out = np.zeros(len(sink_ind))
    for lam, c in zip(lams, (sink_ind, recency, acc, win)):
        if lam > 0:
            out += lam * _minmax(np.asarray(c, dtype=np.float64))
    return out


def _oracle_kept(ls, policy, budget, layer):
    """The kept indices by one generic rule: a mandatory mask, then the best
    scores among the other entries, ties toward the larger index. For
    AttentionSink the mask is its sinks and window and the score recency;
    for the others the mask is the last ``floor()`` entries."""
    n = ls.kept
    if n <= budget:
        return list(range(n))
    idx = np.arange(n)
    keep = np.zeros(n, dtype=bool)
    if isinstance(policy, E.AttentionSink):
        keep[:policy.sinks] = keep[n - policy.window:n] = True
        scores = idx.astype(np.float64)
    else:
        keep[n - policy.floor():] = True
    if isinstance(policy, E.HeavyHitter):
        scores = ls.acc
    elif isinstance(policy, E.ObsWindow):
        scores = _pooled_reference(ls, policy.obs, policy.pool_kernel)
    elif isinstance(policy, E.Hybrid):
        scores = _score_hybrid(idx < policy.sinks, idx, ls.acc,
                               _pooled_reference(ls, policy.obs, policy.pool_kernel),
                               policy)
    elif isinstance(policy, E.RandomPolicy):
        scores = np.random.default_rng(
            np.random.SeedSequence([policy.seed & (2**64 - 1), layer, n])).random(n)
    cand = np.flatnonzero(~keep)
    order = np.lexsort((-cand, -scores[cand]))
    keep[cand[order[:budget - keep.sum()]]] = True
    return np.flatnonzero(keep).tolist()


def _assert_keeps_oracle_set(cache, policy, budget):
    expected = [_oracle_kept(ls, policy, budget, li) for li, ls in enumerate(cache.layers)]
    before = [cache.kept_positions(li) for li in range(cache.n_layers)]
    report = E.evict(cache, policy, budget)
    for li, (pos, e, lr) in enumerate(zip(before, expected, report.layers)):
        np.testing.assert_array_equal(cache.kept_positions(li), pos[e])
        assert (lr.kept_count, lr.evicted_count) == (len(e), pos.size - len(e))


def _split(data, n):
    """Random consecutive blocks covering range(n)."""
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    return np.split(np.arange(n), cuts)


def _kept_by_score(scores, mandatory, budget):
    """Brute force: the mandatory set plus the highest scores, ties to recent."""
    cand = sorted((i for i in range(scores.size) if i not in mandatory),
                  key=lambda i: (-scores[i], -i))
    return sorted(mandatory | set(cand[:max(0, budget - len(mandatory))]))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_block_append_equals_single_appends_and_oracles(data):
    n = data.draw(st.integers(1, 24))
    window = data.draw(st.integers(1, 12))
    # masses in sixteenths keep every sum exact, so a tie is a tie in the
    # cache and in the oracle alike, whatever the summation order
    rows = [np.array(data.draw(st.lists(st.integers(0, 16), min_size=p + 1,
                                        max_size=p + 1))) / 16 for p in range(n)]
    single = E.KvCache(1, 1, 1, window=window)
    for p, row in enumerate(rows):
        single.append(0, np.zeros((1, 1)), np.zeros((1, 1)), p, row)
    block = E.KvCache(1, 1, 1, window=window)
    for b in _split(data, n):
        attn = np.zeros((b.size, b[-1] + 1))
        for i, p in enumerate(b):
            attn[i, :p + 1] = rows[p]
        _append_block(block, 0, np.zeros((b.size, 1, 1)), np.zeros((b.size, 1, 1)), b,
                      *_handoff(attn))
    s, b = single.layers[0], block.layers[0]
    np.testing.assert_array_equal(b.positions, s.positions)
    assert len(b.rows) == len(s.rows) == min(n, window)
    for rb, rs in zip(b.rows, s.rows):
        np.testing.assert_array_equal(rb, rs)
    np.testing.assert_allclose(b.acc, s.acc, rtol=0, atol=1e-12)

    # H2O and SnapKV kept sets from the block-built cache, against test_04's oracle
    recent = data.draw(st.integers(1, n))
    budget = data.draw(st.integers(recent, n))
    c = copy.deepcopy(block)
    E.evict(c, E.HeavyHitter(recent=recent), budget)
    acc = sum(np.pad(r, (0, n - r.size)) for r in rows)
    assert c.kept_positions(0).tolist() == _kept_by_score(
        acc, set(range(n - recent, n)), budget)

    obs = data.draw(st.integers(1, min(n, window)))
    kernel = data.draw(st.sampled_from([1, 3, 5]))
    budget = data.draw(st.integers(obs, n))
    c = copy.deepcopy(block)
    E.evict(c, E.ObsWindow(obs=obs, pool_kernel=kernel), budget)
    win = sum(np.pad(r, (0, n - r.size)) for r in rows[-obs:]) / obs
    h = kernel // 2
    pooled = np.array([win[max(0, j - h):j + h + 1].mean() for j in range(n)])
    assert c.kept_positions(0).tolist() == _kept_by_score(
        pooled, set(range(n - obs, n)), budget)


class _ConcatStore:
    """One cache layer that rebuilds its whole arrays on every operation."""

    def __init__(self, n_kv_heads, head_dim, window):
        self.keys = np.zeros((0, n_kv_heads, head_dim))
        self.values = np.zeros((0, n_kv_heads, head_dim))
        self.positions = np.zeros(0, dtype=np.int64)
        self.acc = np.zeros(0)
        self.rows = deque(maxlen=window)

    def append_block(self, k, v, positions, attn):
        kept, n = self.positions.size, len(positions)
        self.keys = np.concatenate([self.keys, k])
        self.values = np.concatenate([self.values, v])
        self.positions = np.concatenate([self.positions, positions])
        acc = attn.sum(axis=0)
        acc[:kept] += self.acc
        self.acc = acc
        self.rows.extend(attn[i, :kept + i + 1].copy()
                         for i in range(max(0, n - self.rows.maxlen), n))

    def truncate(self, drop):
        keep = self.positions.size - drop
        for name in ("keys", "values", "positions", "acc"):
            setattr(self, name, getattr(self, name)[:keep])
        self.rows = deque((r for r in self.rows if r.size <= keep),
                          maxlen=self.rows.maxlen)

    def gather(self, idx):
        for name in ("keys", "values", "positions", "acc"):
            setattr(self, name, getattr(self, name)[idx])
        self.rows = deque((r[idx[idx < r.size]] for r in self.rows),
                          maxlen=self.rows.maxlen)


def _layer_state(ls):
    return [ls.keys.copy(), ls.values.copy(), ls.positions.copy(), ls.acc.copy(),
            [r.copy() for r in ls.rows]]


def _assert_same_layer(a, b):
    for x, y in zip(a[:4], b[:4]):
        np.testing.assert_array_equal(x, y)
    assert len(a[4]) == len(b[4])
    for x, y in zip(a[4], b[4]):
        np.testing.assert_array_equal(x, y)


def _pooled_reference(ref, obs, kernel):
    """The mean of the last obs rows, added one at a time, then each
    position's mean over the part of its kernel window inside the cache."""
    n, h = ref.positions.size, kernel // 2
    rows = list(ref.rows)[-obs:]
    win = np.zeros(n)
    for r in rows:
        win[:r.size] += r
    win /= max(len(rows), 1)
    return np.array([win[max(0, j - h):j + h + 1].mean() for j in range(n)])


def _assert_arena_values(cache, refs):
    """The value arena's ones lane is 1 in every kept entry and shows
    nowhere else: ``values``, ``layer_kv``, ``stage``'s values past the lane
    and ``cache_bytes`` are those of the concatenating store. Stage hands QK
    key panels, unit-strided along the entries, over the kept entries and
    the staged ones."""
    n_kv, hd = cache.n_kv_heads, cache.head_dim
    for li, (ls, ref) in enumerate(zip(cache.layers, refs)):
        assert (ls._values[:ls.kept, :, hd] == 1.0).all()
        keys, values, positions = cache.layer_kv(li)
        for got, want in ((keys, ref.keys), (values, ref.values), (ls.values, ref.values),
                          (positions, ref.positions)):
            np.testing.assert_array_equal(got, want)
        staged = np.full((2, n_kv, hd), 7.0)
        Kt, Vt = cache.stage(li, staged, staged)
        assert Kt.strides[-1] == Kt.itemsize
        np.testing.assert_array_equal(
            Kt, np.concatenate([ref.keys, staged]).transpose(1, 2, 0))
        np.testing.assert_array_equal(
            Vt[..., :hd], np.concatenate([ref.values, staged]).transpose(1, 0, 2))
        assert (Vt[..., hd] == 1.0).all()
    kept = sum(ref.positions.size for ref in refs)
    for b in (2, 4, 8):
        assert E.cache_bytes(cache, b) == kept * n_kv * hd * 2 * b


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_arena_matches_concatenating_store(data):
    n_layers, n_kv, hd = 2, 2, 3
    window = data.draw(st.integers(1, 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cache = E.KvCache(n_layers, n_kv, hd, window=window)
    refs = [_ConcatStore(n_kv, hd, window) for _ in range(n_layers)]
    ops = ["append"] + data.draw(st.lists(st.sampled_from(["append", "truncate", "evict"]),
                                          max_size=12))
    for op in ops:
        kept = cache.kept(0)
        if op == "append":
            # first blocks often pass the initial capacity of 16
            n = data.draw(st.integers(1, 24))
            start = cache.next_position() + data.draw(st.integers(0, 3))
            positions = np.arange(start, start + n)
            for li in range(n_layers):
                k, v = rng.normal(size=(2, n, n_kv, hd))
                attn = np.tril(rng.random((n, kept + n)), kept)
                _append_block(cache, li, k, v, positions, *_handoff(attn))
                refs[li].append_block(k, v, positions, attn)
        elif op == "truncate":
            drop = data.draw(st.integers(0, kept))
            cache.truncate(drop)
            for ref in refs:
                ref.truncate(drop)
        else:
            policy = data.draw(st.sampled_from([
                E.HeavyHitter(recent=1), E.RandomPolicy(seed=3),
                E.ObsWindow(obs=1, pool_kernel=3)]))
            before = [cache.kept_positions(li) for li in range(n_layers)]
            E.evict(cache, policy, data.draw(st.integers(1, max(1, kept))))
            for li, ref in enumerate(refs):
                ref.gather(np.searchsorted(before[li], cache.kept_positions(li)))
        obs = data.draw(st.integers(1, window))
        kernel = data.draw(st.sampled_from([1, 3, 5, 7]))
        for ls, ref in zip(cache.layers, refs):
            _assert_same_layer(_layer_state(ls), _layer_state(ref))
            # every ring slot, live or not, is zero past the kept count
            assert not ls._rows[:, ls.kept:].any()
            np.testing.assert_array_equal(kvc._pooled_window_score(ls, obs, kernel),
                                          _pooled_reference(ref, obs, kernel))
        _assert_arena_values(cache, refs)

    # a clone owns its buffers: evicting and extending it leaves the original as it was
    before = [_layer_state(ls) for ls in cache.layers]
    clone = bench._clone_cache(cache)
    _assert_arena_values(clone, refs)
    E.evict(clone, E.HeavyHitter(recent=1), 1)
    position = clone.next_position()
    for li in range(n_layers):
        _append_block(clone, li, np.ones((1, n_kv, hd)), np.ones((1, n_kv, hd)),
                      [position], *_handoff(np.full((1, clone.kept(li) + 1), 0.5)))
    assert all((ls._values[:ls.kept, :, hd] == 1.0).all() for ls in clone.layers)
    for ls, state in zip(cache.layers, before):
        _assert_same_layer(_layer_state(ls), state)
    _assert_arena_values(cache, refs)


def test_append_block_rejects_wrong_attention_shape():
    for mass, rows in [
        (np.zeros(4), np.zeros((2, 5))),         # mass not kept+n long
        (np.zeros((1, 5)), np.zeros((2, 5))),
        (np.zeros(5), np.zeros(5)),              # rows not 2-D
        (np.zeros(5), np.zeros((2, 4))),         # rows not kept+n wide
        (np.zeros(5), np.zeros((1, 5))),         # fewer than min(n, window) rows
        (np.zeros(5), np.zeros((3, 5))),         # more than n rows
        (np.zeros(5), None),                     # only one of the two
        (None, np.zeros((2, 5))),
    ]:
        c = make_cache(3)
        before = _layer_state(c.layers[0])
        with pytest.raises(ValueError):
            _append_block(c, 0, np.zeros((2, 1, 2)), np.zeros((2, 1, 2)), [3, 4],
                          mass, rows)
        _assert_same_layer(_layer_state(c.layers[0]), before)
        assert c.kept(0) == 3


@pytest.mark.parametrize("positions", [[10, 9], [9, 11, 11], [9.7], [9.0, 10.0], []],
                         ids=["falling", "repeated", "float", "float_block", "empty"])
def test_append_block_rejects_bad_positions(positions):
    # a falling block used to rewind next_position, a float was truncated
    # to an int, and an empty block raised IndexError
    c = make_cache(9)
    before = _layer_state(c.layers[0])
    n = len(positions)
    with pytest.raises(ValueError, match="positions"):
        _append_block(c, 0, np.zeros((n, 1, 2)), np.zeros((n, 1, 2)), positions,
                      *_handoff(np.zeros((n, 9 + n))))
    _assert_same_layer(_layer_state(c.layers[0]), before)
    assert (c.kept(0), c.next_position()) == (9, 9)
    _append_block(c, 0, np.zeros((2, 1, 2)), np.zeros((2, 1, 2)), np.array([9, 11]),
                  *_handoff(np.zeros((2, 11))))
    assert (c.kept(0), c.next_position()) == (11, 12)


def test_stage_rejects_a_block_of_another_shape():
    # a [3, 1, 4] block used to be broadcast into both KV heads
    c = E.KvCache(1, 2, 4)
    good = np.ones((3, 2, 4))
    for k, v in [(np.ones((3, 1, 4)), good), (good, np.ones((3, 1, 4))),
                 (np.ones((3, 2, 2)), good), (good, np.ones((2, 2, 4))),
                 (np.ones((3, 8)), np.ones((3, 8)))]:
        with pytest.raises(ValueError, match="n_kv_heads, head_dim"):
            c.stage(0, k, v)
    with pytest.raises(ValueError, match="staged"):
        c.append_block(0, np.arange(3), *_handoff(np.zeros((3, 3))))
    assert c.kept(0) == 0


def test_a_forward_on_a_cache_of_another_layout_commits_nothing():
    # spec_decode's draft has one KV head, its target's cache two: the
    # draft's keys must not fill both heads of the target's cache
    draft = E.init_model(E.ModelConfig(d_model=32, n_layers=1, n_heads=2,
                                       n_kv_heads=1, head_dim=16), 0)
    cache = E.KvCache.for_model(E.ModelConfig())
    with pytest.raises(ValueError, match="n_kv_heads"):
        E.forward(draft, np.arange(5), cache=cache)
    assert (cache.total_kept(), cache.next_position()) == (0, 0)


@pytest.mark.parametrize("n_layers", [2, 6])
@pytest.mark.parametrize("run", [E.forward, bench.prefill])
def test_a_forward_on_a_cache_of_another_depth_commits_nothing(n_layers, run):
    # a 2-layer cache used to take 2 layers' entries before an IndexError,
    # and a 6-layer one to run with its last 2 layers left empty
    m = E.init_model(E.ModelConfig(), 0)
    cache = E.KvCache(n_layers, 2, 16)
    with pytest.raises(ValueError, match=rf"\({n_layers}, 2, 16\) .* \(4, 2, 16\)"):
        run(m, [1, 2, 3], cache)
    assert (cache.total_kept(), cache.next_position()) == (0, 0)


@pytest.mark.parametrize("case", ["fewer", "more", "nothing_staged", "committed",
                                  "evict", "truncate"])
def test_append_block_commits_only_the_staged_block(case):
    # a block of another size than the staged one, or one with nothing
    # staged, since committed, evicted or truncated, is a ValueError that
    # leaves the layer as it was
    c = make_cache(6)
    n = {"fewer": 2, "more": 4}.get(case, 3)
    if case != "nothing_staged":
        c.stage(0, np.ones((3, 1, 2)), np.ones((3, 1, 2)))
    if case == "committed":
        c.append_block(0, np.arange(6, 9), *_handoff(np.zeros((3, 9))))
    elif case == "evict":
        E.evict(c, E.HeavyHitter(recent=1), 4)
    elif case == "truncate":
        c.truncate(2)
    before, kept, start = _layer_state(c.layers[0]), c.kept(0), c.next_position()
    with pytest.raises(ValueError, match="staged"):
        c.append_block(0, np.arange(start, start + n), *_handoff(np.zeros((n, kept + n))))
    _assert_same_layer(_layer_state(c.layers[0]), before)
    assert (c.kept(0), c.next_position()) == (kept, start)


def test_a_forward_stages_and_commits_each_layer_once():
    # stage is the one write of a layer's new keys and values, then
    # append_block commits them, on a cache or without one
    cfg = E.ModelConfig(vocab_size=64, d_model=32, n_layers=3, n_heads=4,
                        n_kv_heads=2, head_dim=8)
    model = E.init_model(cfg, 0)
    calls = []

    def spy(name):
        original = getattr(E.KvCache, name)

        def record(cache, layer, *args):
            calls.append((name, layer))
            return original(cache, layer, *args)
        return mock.patch.object(E.KvCache, name, record)

    cache = E.KvCache.for_model(cfg)
    with spy("stage"), spy("append_block"):
        for tokens, c in [(np.arange(20), cache), ([3], cache), (np.arange(5), None)]:
            calls.clear()
            E.forward(model, tokens, cache=c)
            assert calls == [(name, li) for li in range(cfg.n_layers)
                             for name in ("stage", "append_block")]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_only_the_window_of_rows_is_read(data):
    # a block handed whole, its window of rows only, and entry by entry
    # leave the same score state and the same kept sets
    window = data.draw(st.integers(1, 10))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    caches = [E.KvCache(1, 1, 1, window=window) for _ in range(3)]
    whole, cut, single = caches
    for _ in range(data.draw(st.integers(1, 3))):
        kept, n = whole.kept(0), data.draw(st.integers(1, 20))
        start = whole.next_position()
        positions = np.arange(start, start + n)
        k, v = rng.normal(size=(2, n, 1, 1))
        attn = np.tril(rng.integers(0, 17, (n, kept + n)) / 16, kept)
        mass = attn.sum(axis=0)
        _append_block(whole, 0, k, v, positions, mass, attn)
        _append_block(cut, 0, k, v, positions, mass, attn[n - min(n, window):])
        for i in range(n):
            row = attn[i, :kept + i + 1]
            single.append(0, k[i], v[i], int(positions[i]), row)
    # the same rows with the same lengths, oldest first; a ring handed only
    # the window is laid out as one handed the whole block
    w, c = whole.layers[0], cut.layers[0]
    np.testing.assert_array_equal(c._rows, w._rows)
    assert (c._lens.tolist(), c._head, c._count) == (w._lens.tolist(), w._head, w._count)
    for c in (cut, single):
        _assert_same_layer(_layer_state(c.layers[0]), _layer_state(w))
    policy, _, _ = _draw_policy(data, window, whole.kept(0))
    floor = max(policy.floor(), 1)
    budget = data.draw(st.integers(floor, max(floor, whole.kept(0) + 1)))
    kept_sets = []
    for c in caches:
        E.evict(c, policy, budget)
        kept_sets.append(c.kept_positions(0).tolist())
    assert kept_sets[0] == kept_sets[1] == kept_sets[2]


def _draw_policy(data, window, n):
    """A random policy of each kind for an n-entry cache, with the entries it
    must keep: the first ``head`` and the last ``tail`` indices. Sink counts
    run past n, and weights and windows include 0."""
    kind = data.draw(st.sampled_from(["sink", "heavy", "obs", "hybrid", "random"]))
    obs = st.integers(1, window)
    kernel = st.sampled_from([1, 3, 5, 7])
    sinks = st.integers(0, n + 2)
    if kind == "sink":
        p = E.AttentionSink(sinks=data.draw(sinks), window=data.draw(st.integers(0, 6)))
        return p, p.sinks, p.window
    if kind == "heavy":
        p = E.HeavyHitter(recent=data.draw(st.integers(0, 6)))
        return p, 0, p.recent
    if kind == "obs":
        p = E.ObsWindow(obs=data.draw(obs), pool_kernel=data.draw(kernel))
        return p, 0, p.obs
    if kind == "hybrid":
        lams = data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0]), min_size=4,
                                  max_size=4).filter(any))
        p = E.Hybrid(*lams, sinks=data.draw(sinks), obs=data.draw(obs),
                     pool_kernel=data.draw(kernel))
        return p, 0, p.obs if p.lambda_win > 0 else 1
    return E.RandomPolicy(seed=data.draw(st.integers(0, 2**32))), 0, 1


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_eviction_invariants_hold_for_every_policy(data):
    n = data.draw(st.integers(1, 40))
    window = data.draw(st.integers(1, 12))
    policy, head, tail = _draw_policy(data, window, n)
    floor = max(policy.floor(), 1)
    budget = data.draw(st.integers(floor, max(floor, n + 2)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    # positions with gaps, so kept indices and kept positions differ
    positions = np.cumsum(rng.integers(1, 4, n))
    cache = E.KvCache(2, 1, 1, window=window)
    for li in range(2):
        attn = np.tril(rng.integers(0, 17, (n, n))) / 16
        _append_block(cache, li, rng.normal(size=(n, 1, 1)), rng.normal(size=(n, 1, 1)),
                      positions, *_handoff(attn))
    report = E.evict(cache, policy, budget)
    mandatory = positions[sorted(set(range(min(head, n)))
                                 | set(range(max(0, n - tail), n)))]
    for li, lr in enumerate(report.layers):
        kept = cache.kept_positions(li)
        assert kept.size == lr.kept_count == n - lr.evicted_count <= budget
        assert np.isin(mandatory, kept).all()
        assert np.all(np.diff(kept) > 0)
        assert np.isin(kept, positions).all()


def _in_order_mean(x):
    total = 0.0
    for v in x:
        total += v
    return total / len(x)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pooling_is_the_clipped_window_mean(data):
    n = data.draw(st.integers(1, 40))
    kernel = data.draw(st.sampled_from([1, 3, 5, 7, 9, 11, 33]))
    # full-mantissa floats: unlike sixteenths, their sums depend on the order
    row = np.random.default_rng(data.draw(st.integers(0, 2**32))).random(n)
    c = E.KvCache(1, 1, 1, window=1)
    _append_block(c, 0, np.zeros((n, 1, 1)), np.zeros((n, 1, 1)), np.arange(n),
                  *_handoff(np.tril(np.ones((n, n))) * row))
    pooled = kvc._pooled_window_score(c.layers[0], 1, kernel)
    h = kernel // 2
    clipped = [row[max(0, j - h):j + h + 1] for j in range(n)]
    # the shifted slices add in order, for every kernel
    np.testing.assert_array_equal(pooled, [_in_order_mean(x) for x in clipped])
    if kernel <= 7:     # numpy's mean adds fewer than 8 terms in order
        np.testing.assert_array_equal(pooled, [x.mean() for x in clipped])


def test_pooled_rows_add_in_order_on_a_one_entry_cache():
    # numpy pairs the terms of a one-column sum over 8 rows or more
    for seed in range(8):
        c = E.KvCache(1, 1, 1, window=8)
        _append_block(c, 0, np.zeros((8, 1, 1)), np.zeros((8, 1, 1)), np.arange(8),
                      *_handoff(np.tril(np.random.default_rng(seed).random((8, 8)))))
        E.evict(c, E.AttentionSink(sinks=1, window=0), 1)
        rows = c.layers[0].rows
        assert [r.size for r in rows] == [1] * 8
        mean = 0.0
        for r in rows:
            mean += r[0]
        assert kvc._pooled_window_score(c.layers[0], 8, 1).tolist() == [mean / 8]


@pytest.mark.parametrize("policy", [E.HeavyHitter(recent=0),
                                    E.AttentionSink(sinks=2, window=0)])
def test_zero_tail_keeps_only_what_the_oracle_keeps(policy):
    # `keep[-0:]` would mark every entry mandatory and evict nothing
    n, budget = 20, 7
    c = make_cache(n, seed=6)
    acc = c.layers[0].acc.copy()
    E.evict(c, policy, budget)
    if isinstance(policy, E.HeavyHitter):
        expected = _kept_by_score(acc, set(), budget)
    else:
        expected = [0, 1, *range(n - budget + 2, n)]
    assert c.kept_positions(0).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_policy_keeps_the_oracle_set(data):
    n = data.draw(st.integers(1, 40))
    window = data.draw(st.integers(1, 12))
    policy, _, _ = _draw_policy(data, window, n)
    floor = max(policy.floor(), 1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    exact = data.draw(st.booleans())    # sixteenths tie; full-mantissa floats rarely do
    cache = E.KvCache(2, 1, 1, window=window)
    for step in range(2):
        m = n if step == 0 else data.draw(st.integers(1, 5))
        start = cache.next_position()
        for li in range(2):
            kept = cache.kept(li)
            attn = rng.integers(0, 17, (m, kept + m)) / 16 if exact else rng.random(
                (m, kept + m))
            _append_block(cache, li, rng.normal(size=(m, 1, 1)),
                          rng.normal(size=(m, 1, 1)), np.arange(start, start + m),
                          *_handoff(np.tril(attn, kept)))
        k = cache.kept(0)
        budget = data.draw(st.sampled_from([floor, max(floor, k - 1), max(floor, k + 1)])
                           | st.integers(floor, max(floor, k + 2)))
        _assert_keeps_oracle_set(cache, policy, budget)


@pytest.mark.parametrize("policy, n, budget", [
    (E.AttentionSink(sinks=0, window=3), 20, 7),
    (E.AttentionSink(sinks=3, window=0), 20, 7),
    (E.AttentionSink(sinks=0, window=0), 20, 1),
    (E.AttentionSink(sinks=2, window=3), 8, 7),          # n == budget + 1
    (E.AttentionSink(sinks=7, window=0), 8, 7),
    (E.HeavyHitter(recent=0), 20, 7),
    (E.HeavyHitter(recent=3), 8, 7),
    (E.ObsWindow(obs=1, pool_kernel=1), 20, 1),
    (E.ObsWindow(obs=7, pool_kernel=7), 8, 7),
    (E.Hybrid(sinks=0, obs=4), 20, 7),
    (E.Hybrid(sinks=20, obs=4), 20, 7),                  # every entry a sink
    (E.Hybrid(sinks=30, obs=4), 20, 7),
    (E.Hybrid(sinks=19, obs=4), 20, 7),
    (E.Hybrid(lambda_sink=1, lambda_recent=0, lambda_acc=0, lambda_win=0), 20, 5),
    (E.Hybrid(lambda_sink=0, lambda_recent=0, lambda_acc=1, lambda_win=0), 20, 5),
    (E.Hybrid(lambda_sink=0, lambda_recent=1, lambda_acc=0, lambda_win=1, obs=4), 20, 5),
    (E.Hybrid(lambda_sink=1, lambda_recent=0, lambda_acc=0, lambda_win=0, sinks=0), 20, 5),
    (E.Hybrid(obs=4), 9, 8),
    (E.Hybrid(lambda_win=0, obs=16), 2, 1),
    (E.RandomPolicy(seed=5), 20, 1),
    (E.RandomPolicy(seed=-3), 9, 8),
])
def test_edge_case_keeps_the_oracle_set(policy, n, budget):
    _assert_keeps_oracle_set(make_cache(n, n_layers=2, seed=n + budget, window=8),
                             policy, budget)


def _lexsort_tail_and_best(scores, tail, budget):
    """The selection by one full lexsort: the last ``tail`` entries and the
    best-scoring others, highest score first, ties toward the larger index."""
    m = scores.size - tail
    order = np.lexsort((-np.arange(m), -scores[:m]))
    return np.concatenate([np.sort(order[:budget - tail]), np.arange(m, scores.size)])


def _fancy_gather(ls, idx):
    """The gather by one fancy index of every buffer over all kept indices."""
    ls._values[:idx.size] = ls._values[idx]
    for buf in (ls._keys, ls._positions, ls._acc, ls._rows):
        buf[..., :idx.size] = buf[..., idx]
    ls._rows[:, idx.size:ls.kept] = 0.0
    ls._lens = np.searchsorted(idx, ls._lens)
    ls.kept, ls.staged = idx.size, 0


def _full_layer_state(ls):
    return [ls._keys.copy(), ls._values.copy(), ls._positions.copy(), ls._acc.copy(),
            ls._rows.copy(), ls._lens.copy(), ls._head, ls._count, ls.kept,
            ls.staged, ls.next_position]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_selection_and_gather_match_lexsort_and_fancy_gather(data):
    tail = data.draw(st.integers(0, 16))
    n = data.draw(st.integers(tail + 1, tail + 30))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # scores in a few values force ties; a planted minimum at index 0 or
    # just before the tail puts a one-drop there
    scores = rng.integers(0, data.draw(st.integers(1, 4)), n) / 2
    planted = data.draw(st.sampled_from([None, 0, n - tail - 1]))
    if planted is not None:
        scores[planted] = -1.0
    budget = n - 1 - data.draw(st.integers(0, n - 1 - tail))
    idx = kvc._tail_and_best(scores, tail, budget)
    np.testing.assert_array_equal(idx, _lexsort_tail_and_best(scores, tail, budget))
    if budget == n - 1 and planted is not None:
        assert planted not in idx

    # the same indices, an attention-sink drop (one run moves) or a drop of
    # only the newest entries (nothing moves) gather what a fancy index does
    kind = data.draw(st.sampled_from(["selected", "sink", "newest"]))
    if kind == "sink":
        sinks = data.draw(st.integers(0, budget))
        idx = E.AttentionSink(sinks=sinks, window=budget - sinks).keep(
            types.SimpleNamespace(kept=n), budget, 0)
    elif kind == "newest":
        idx = np.arange(budget)
    if budget == 0:
        return
    window = data.draw(st.integers(1, 8))
    cache = E.KvCache(1, 2, 3, window=window)
    positions = np.cumsum(rng.integers(1, 3, n))
    _append_block(cache, 0, *rng.normal(size=(2, n, 2, 3)), positions,
                  *_handoff(np.tril(rng.random((n, n)))))
    ls, ref = cache.layers[0], copy.deepcopy(cache.layers[0])
    ls.gather(idx)
    _fancy_gather(ref, idx)
    for got, want in zip(_full_layer_state(ls), _full_layer_state(ref)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("policy", [
    E.HeavyHitter(recent=3),
    E.Hybrid(lambda_sink=0, lambda_recent=0, lambda_acc=1, lambda_win=0)])
def test_one_drop_on_equal_scores_drops_the_oldest_other_entry(policy):
    c = make_cache(20, n_layers=2, seed=16)
    for ls in c.layers:
        ls._acc[:ls.kept] = 0.5
    E.evict(c, policy, 19)
    for li in range(2):
        assert c.kept_positions(li).tolist() == list(range(1, 20))
