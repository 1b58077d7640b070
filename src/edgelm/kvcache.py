"""Budgeted per-layer KV store and eviction policies.

Policies: attention-sink (positional), heavy-hitter (accumulated attention
mass), observation-window (pooled attention of the last W queries), a
weighted hybrid over all four signal types, and a random control.

Each layer keeps its entries in capacity-doubling buffers (a single-sequence
take on PagedAttention's KV blocks): ``forward`` stages its new keys and
values in spare capacity and attends over one view of the layer,
``append_block`` commits them, ``truncate`` shortens the kept length and
``evict`` gathers the kept entries in place. The arrays a layer exposes are
views, valid until the next append, truncate or evict.

Score state lives with the cache: an accumulated-mass vector and a ring of
the last ``window`` head-averaged attention rows. The ring is one
[window, capacity] buffer in the same arena, one slot per row with its
length, and every slot is zero past the kept count. ``append_block`` builds
both from the one attention block each forward hands over per layer,
``truncate`` zeros the dropped columns and pops the newest rows, and
``evict`` gathers the kept columns of every slot.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError


# --- policies ----------------------------------------------------------------

@dataclass(frozen=True)
class AttentionSink:
    sinks: int = 4
    window: int = 4

    def floor(self) -> int:
        return self.sinks + self.window


@dataclass(frozen=True)
class HeavyHitter:
    recent: int = 1

    def floor(self) -> int:
        return self.recent


@dataclass(frozen=True)
class ObsWindow:
    obs: int = 16
    pool_kernel: int = 5

    def __post_init__(self):
        if self.pool_kernel % 2 == 0 or self.pool_kernel < 1:
            raise ConfigError("pool_kernel must be odd and positive")

    def floor(self) -> int:
        return self.obs


@dataclass(frozen=True)
class Hybrid:
    lambda_sink: float = 0.25
    lambda_recent: float = 0.25
    lambda_acc: float = 0.25
    lambda_win: float = 0.25
    sinks: int = 4
    obs: int = 16
    pool_kernel: int = 5

    def __post_init__(self):
        lams = (self.lambda_sink, self.lambda_recent, self.lambda_acc, self.lambda_win)
        if any(l < 0 for l in lams):
            raise ConfigError("hybrid weights must be nonnegative")
        if sum(lams) == 0:
            raise ConfigError("hybrid weights must not all be zero")
        if self.pool_kernel % 2 == 0 or self.pool_kernel < 1:
            raise ConfigError("pool_kernel must be odd and positive")

    def floor(self) -> int:
        # observation window stays resident whenever it contributes a score
        return self.obs if self.lambda_win > 0 else 1


@dataclass(frozen=True)
class RandomPolicy:
    seed: int = 0

    def floor(self) -> int:
        return 1


EvictionPolicy = Union[AttentionSink, HeavyHitter, ObsWindow, Hybrid, RandomPolicy]


@dataclass
class LayerReport:
    kept_indices: list[int]
    evicted_count: int


@dataclass
class EvictionReport:
    layers: list[LayerReport]


# --- cache -------------------------------------------------------------------

class _LayerStore:
    """One layer's entries in the first ``kept`` slots of capacity-doubling
    buffers. ``keys``, ``values``, ``positions`` and ``acc`` are views over
    those slots, valid until the next append, truncate or evict.

    The window of recent attention rows is a ring: ``_rows[s, :_lens[s]]``
    is the row in slot s, the newest row sits just before ``_head`` and
    ``_count`` slots are live. Every slot, live or not, is zero past
    ``kept``, so writing a new row's ``[:kept + n]`` overwrites all a reused
    slot held, and a sum over slots needs no per-row cut."""

    def __init__(self, n_kv_heads: int, head_dim: int, window: int):
        self.kept = 0
        self._keys = np.zeros((0, n_kv_heads, head_dim))
        self._values = np.zeros((0, n_kv_heads, head_dim))
        self._positions = np.zeros(0, dtype=np.int64)
        self._acc = np.zeros(0)                      # accumulated attention mass
        self._rows = np.zeros((window, 0))
        self._lens = np.zeros(window, dtype=np.int64)
        self._head = self._count = 0

    keys = property(lambda self: self._keys[:self.kept])
    values = property(lambda self: self._values[:self.kept])
    positions = property(lambda self: self._positions[:self.kept])
    acc = property(lambda self: self._acc[:self.kept])

    def slots(self) -> range:
        """The live ring slots, oldest row first; a negative slot wraps."""
        return range(self._head - self._count, self._head)

    @property
    def rows(self) -> list[np.ndarray]:
        """The window's rows, oldest first, each cut at its own length (views)."""
        return [self._rows[s, :self._lens[s]] for s in self.slots()]

    def reserve(self, n: int):
        """Make room for n more entries, doubling the capacity when it grows."""
        need = self.kept + n
        if need <= self._positions.size:
            return
        cap = max(need, 2 * self._positions.size, 16)
        for name in ("_keys", "_values", "_positions", "_acc"):
            old = getattr(self, name)
            new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            new[:self.kept] = old[:self.kept]
            setattr(self, name, new)
        rows = np.zeros((self._lens.size, cap))
        rows[:, :self.kept] = self._rows[:, :self.kept]
        self._rows = rows

    def push_rows(self, attn: np.ndarray, end: int):
        """Write the last ``window`` rows of a [n, end] attention block into
        the ring, row i with length end - n + i + 1; the block is zero past
        each row's length."""
        w, n = self._lens.size, attn.shape[0]
        for i in range(max(0, n - w), n):
            self._rows[self._head, :end] = attn[i]
            self._lens[self._head] = end - n + i + 1
            self._head = (self._head + 1) % w
        self._count = min(self._count + n, w)

    def truncate(self, kept: int):
        """Shorten to the first ``kept`` entries: zero the dropped columns and
        pop the newest rows longer than ``kept``."""
        self._rows[:, kept:self.kept] = 0.0
        while self._count and self._lens[self._head - 1] > kept:
            self._head = (self._head - 1) % self._lens.size
            self._count -= 1
        self.kept = kept

    def gather(self, idx: np.ndarray):
        """Keep only the entries at the sorted indices idx, in place."""
        for buf in (self._keys, self._values, self._positions, self._acc):
            buf[:idx.size] = buf[idx]
        self._rows[:, :idx.size] = self._rows[:, idx]
        self._rows[:, idx.size:self.kept] = 0.0
        self._lens = np.searchsorted(idx, self._lens)
        self.kept = idx.size


class KvCache:
    def __init__(self, n_layers: int, n_kv_heads: int, head_dim: int, window: int = 32):
        self.n_layers = n_layers
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.window = window
        self.layers = [_LayerStore(n_kv_heads, head_dim, window) for _ in range(n_layers)]

    @classmethod
    def for_model(cls, config, window: int = 32) -> "KvCache":
        return cls(config.n_layers, config.n_kv_heads, config.head_dim, window)

    def next_position(self) -> int:
        mx = -1
        for ls in self.layers:
            if ls.kept:
                mx = max(mx, int(ls.positions[-1]))
        return mx + 1

    def layer_kv(self, layer: int):
        """Views of the layer's keys, values and positions (see _LayerStore)."""
        ls = self.layers[layer]
        return ls.keys, ls.values, ls.positions

    def stage(self, layer: int, k: np.ndarray, v: np.ndarray):
        """Write n new keys and values [n, n_kv_heads, head_dim] into the
        layer's spare capacity, uncommitted until :meth:`append_block`, and
        return the keys and values of the kept+n entries as views; the kept
        entries are not copied."""
        ls = self.layers[layer]
        ls.reserve(k.shape[0])
        end = ls.kept + k.shape[0]
        ls._keys[ls.kept:end] = k
        ls._values[ls.kept:end] = v
        return ls._keys[:end], ls._values[:end]

    def kept(self, layer: int) -> int:
        return self.layers[layer].kept

    def kept_positions(self, layer: int) -> np.ndarray:
        return self.layers[layer].positions.copy()

    def append(self, layer: int, k, v, position: int, attn_row=None):
        """Append one entry: :meth:`append_block` with a block of one."""
        self.append_block(layer, k, v, [position],
                          None if attn_row is None else np.reshape(attn_row, (1, -1)))

    def append_block(self, layer: int, k, v, positions, attn=None):
        """Append n entries at positions beyond the cached ones.

        ``attn`` is the head-averaged attention of the n new queries over the
        kept+n keys, shape [n, kept+n], zero above the causal diagonal. Its
        column sums extend the accumulated mass, and its last rows (each cut
        at its own query) enter the window of recent rows. Only the n new
        rows are written; the kept entries are not copied.
        """
        ls = self.layers[layer]
        positions = np.asarray(positions, dtype=np.int64)
        n, kept = positions.size, ls.kept
        if kept and positions[0] <= ls.positions[-1]:
            raise ValueError(f"position {int(positions[0])} not beyond cached max "
                             f"{int(ls.positions[-1])}")
        if attn is not None:
            attn = np.asarray(attn, dtype=np.float64)
            if attn.shape != (n, kept + n):
                raise ValueError(f"attention block shape {attn.shape} != "
                                 f"(n, kept+n) = {(n, kept + n)}")
        shape = (n, self.n_kv_heads, self.head_dim)
        self.stage(layer, np.reshape(k, shape), np.reshape(v, shape))
        end = kept + n
        ls._positions[kept:end] = positions
        ls._acc[kept:end] = 0.0
        if attn is not None:
            ls._acc[:end] += attn.sum(axis=0)
            ls.push_rows(attn, end)
        ls.kept = end

    def truncate(self, drop: int):
        """Drop the newest `drop` entries from every layer (speculative
        rollback); a drop beyond some layer's kept count is a ValueError."""
        if drop <= 0:
            return
        for li, ls in enumerate(self.layers):
            if drop > ls.kept:
                raise ValueError(f"cannot drop {drop} entries: layer {li} keeps "
                                 f"{ls.kept}")
        for ls in self.layers:
            ls.truncate(ls.kept - drop)

    def total_kept(self) -> int:
        return sum(ls.kept for ls in self.layers)


def cache_bytes(cache: KvCache, bytes_per_element: int) -> int:
    """K + V storage: kept * n_kv_heads * head_dim * 2 * bytes, summed over layers."""
    if bytes_per_element <= 0:
        raise ValueError("bytes_per_element must be positive")
    per_entry = cache.n_kv_heads * cache.head_dim * 2 * bytes_per_element
    return cache.total_kept() * per_entry


# --- scoring -----------------------------------------------------------------

def _minmax(x: np.ndarray) -> np.ndarray:
    lo, hi = x.min(), x.max()
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def score_hybrid(sink_ind, recency, acc, win, weights: Hybrid) -> np.ndarray:
    """Weighted sum of min-max normalized components (constant components -> 0)."""
    comps = [np.asarray(c, dtype=np.float64) for c in (sink_ind, recency, acc, win)]
    n = comps[0].size
    if any(c.size != n for c in comps):
        raise ValueError("component vectors must have equal length")
    lams = (weights.lambda_sink, weights.lambda_recent,
            weights.lambda_acc, weights.lambda_win)
    if sum(lams) == 0:
        raise ConfigError("hybrid weights must not all be zero")
    out = np.zeros(n)
    for lam, c in zip(lams, comps):
        if lam > 0:
            out += lam * _minmax(c)
    return out


def _pooled_window_score(ls: _LayerStore, obs: int, kernel: int) -> np.ndarray:
    """Mean attention over the last `obs` rows, then clipped 1-D mean pooling:
    each position averages the entries of its `kernel`-wide window that lie
    inside the cache. The rows are summed oldest first, and their zeros past
    each row's length and the padding add exact zeros; numpy sums fewer than
    8 terms in order, so for kernels up to 7 every mean is bit-identical to
    the mean of the clipped slice."""
    n, h = ls.kept, kernel // 2
    slots = ls.slots()[-obs:]
    m = np.zeros(h + n + h)             # the mean row, zero-padded by h
    if slots:
        # numpy adds the rows in order only when it sums two columns or more;
        # past n every slot is zero, and the capacity is at least 16
        m[h:h + n] = ls._rows[slots, :max(n, 2)].sum(axis=0)[:n] / len(slots)
    j = np.arange(n)
    width = np.minimum(j + h, n - 1) - np.maximum(j - h, 0) + 1
    return m[j[:, None] + np.arange(kernel)].sum(-1) / width


def _layer_kept_indices(ls: _LayerStore, policy: EvictionPolicy, budget: int,
                        layer: int) -> np.ndarray:
    n = ls.kept
    if n <= budget:
        return np.arange(n)
    idx = np.arange(n)
    keep = np.zeros(n, dtype=bool)                 # the mandatory entries
    if isinstance(policy, AttentionSink):
        keep[:policy.sinks] = keep[n - policy.window:] = True
        scores = idx.astype(np.float64)            # fill spare budget by recency
    else:
        keep[n - policy.floor():] = True
    if isinstance(policy, HeavyHitter):
        scores = ls.acc
    elif isinstance(policy, ObsWindow):
        scores = _pooled_window_score(ls, policy.obs, policy.pool_kernel)
    elif isinstance(policy, Hybrid):
        sink_ind = (idx < policy.sinks).astype(np.float64)
        recency = idx.astype(np.float64)
        win = _pooled_window_score(ls, policy.obs, policy.pool_kernel)
        scores = score_hybrid(sink_ind, recency, ls.acc, win, policy)
    elif isinstance(policy, RandomPolicy):
        rng = np.random.default_rng(
            np.random.SeedSequence([policy.seed & (2**64 - 1), layer, n]))
        scores = rng.random(n)
    elif not isinstance(policy, AttentionSink):
        raise ConfigError(f"unknown policy {policy!r}")

    cand = np.flatnonzero(~keep)
    # highest score first; ties toward more recent (larger index)
    order = np.lexsort((-cand, -scores[cand]))
    keep[cand[order[:budget - keep.sum()]]] = True
    return np.flatnonzero(keep)


def evict(cache: KvCache, policy: EvictionPolicy, budget: int) -> EvictionReport:
    """Shrink every layer to at most `budget` entries, per the policy."""
    if budget < 1:
        raise ConfigError("budget must be positive")
    if budget < policy.floor():
        raise ConfigError(
            f"budget {budget} below the policy's mandatory floor {policy.floor()}")
    scores_rows = isinstance(policy, ObsWindow) or (
        isinstance(policy, Hybrid) and policy.lambda_win > 0)
    if scores_rows and policy.obs > cache.window:
        raise ConfigError(f"observation window {policy.obs} exceeds the cache's "
                          f"{cache.window}-row window")
    reports = []
    for li, ls in enumerate(cache.layers):
        n = ls.kept
        kept = _layer_kept_indices(ls, policy, budget, li)
        evicted = n - kept.size
        if evicted > 0:
            ls.gather(kept)
        reports.append(LayerReport(kept_indices=kept.tolist(), evicted_count=evicted))
    return EvictionReport(layers=reports)


def eviction_ratio(report: EvictionReport) -> float:
    kept = sum(len(l.kept_indices) for l in report.layers)
    evicted = sum(l.evicted_count for l in report.layers)
    if kept + evicted == 0:
        raise ValueError("eviction ratio undefined for an empty cache")
    return evicted / (kept + evicted)

