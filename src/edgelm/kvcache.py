"""Budgeted per-layer KV store and eviction policies.

Policies: attention-sink (positional), heavy-hitter (accumulated attention
mass), observation-window (pooled attention of the last W queries), a
weighted hybrid over all four signal types, and a random control. Each
policy keeps its own rule as a score: ``evict`` scores all the layers over
budget that hold the same count in one pass, through the policy's
``score(layer_stores, layers)``, which returns their [layers, n] score
matrix and the policy's mandatory tail (attention-sink scores recency, its
sinks above every other entry, and has no tail; the hybrid computes only
its weighted terms). One selection rule, :func:`_tail_and_best`, then picks
every layer's kept set: its tail plus its best-scoring other entries. A
one-drop, each decode step's eviction under a budget, is one ``argmin``
over the rows, and moves each buffer's tail back by one slice. Layers of
different counts (single-layer appends) are scored as groups of one.

Each layer keeps its entries in capacity-doubling buffers (a single-sequence
take on PagedAttention's KV blocks): ``stage``, the one write of keys and
values, puts a forward's new ones in spare capacity, the forward attends
over one view of the layer, ``append_block`` commits the staged block,
``truncate`` shortens the kept length and ``evict`` gathers the kept
entries in place, moving only those past the first dropped one, by one
slice per buffer when they form one run. Keys sit in one [head_dim,
capacity] panel per KV head, so QK reads them unit-strided; values stay
[capacity, n_kv_heads, head_dim], which PV reads as fast and eviction
gathers faster. The arrays a layer exposes are views. Every decode's
cache is built by :func:`~edgelm.model.decode_cache`, which reserves
(:meth:`KvCache.reserve`) every entry the decode forwards before its first
forward, so its arena is allocated once and never copied mid-request.

Score state lives with the cache: an accumulated-mass vector and a ring of
the last ``window`` head-averaged attention rows. The ring is one
[window, capacity] buffer in the same arena, one slot per row with the
position of its query, which appends and evictions leave alone, and every
slot is zero past the kept count. A row's length, the count of kept
positions up to its query's, is read when the row is. Each forward hands
``append_block`` both per layer, never an [n, kept+n] block: the column
mass of its head-averaged attention, added to the vector, and the rows of
its last ``window`` queries, pushed into the ring. ``truncate`` zeros the
dropped columns and pops the rows of dropped queries, and ``evict``
gathers the kept columns of every slot.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, at_least


# --- policies ----------------------------------------------------------------

def _check_window(obs: int, pool_kernel: int):
    """The observation-window rule ObsWindow and Hybrid share."""
    at_least(1, obs=obs, pool_kernel=pool_kernel)
    if pool_kernel % 2 == 0:
        raise ConfigError(f"pool_kernel ({pool_kernel}) must be odd")


@dataclass(frozen=True)
class AttentionSink:
    sinks: int = 4
    window: int = 4

    def __post_init__(self):
        at_least(0, sinks=self.sinks, window=self.window)

    def floor(self) -> int:
        return self.sinks + self.window

    def score(self, stores: list[_LayerStore], layers: list[int]):
        # recency, the sinks above every other entry: they, then the most
        # recent entries fill the budget; no mandatory tail
        n = stores[0].kept
        scores = np.arange(n, dtype=np.float64)
        scores[:self.sinks] = n
        return np.broadcast_to(scores, (len(stores), n)), 0


@dataclass(frozen=True)
class HeavyHitter:
    recent: int = 1

    def __post_init__(self):
        at_least(0, recent=self.recent)

    def floor(self) -> int:
        return self.recent

    def score(self, stores: list[_LayerStore], layers: list[int]):
        return np.stack([ls.acc for ls in stores]), self.recent


@dataclass(frozen=True)
class ObsWindow:
    obs: int = 16
    pool_kernel: int = 5

    def __post_init__(self):
        _check_window(self.obs, self.pool_kernel)

    def floor(self) -> int:
        return self.obs

    def score(self, stores: list[_LayerStore], layers: list[int]):
        return _pooled_window_score(stores, self.obs, self.pool_kernel), self.obs


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
        if not all(0 <= l < np.inf for l in lams):
            raise ConfigError(f"hybrid weights {lams} must be finite and nonnegative")
        if sum(lams) == 0:
            raise ConfigError("hybrid weights must not all be zero")
        at_least(0, sinks=self.sinks)
        _check_window(self.obs, self.pool_kernel)

    def floor(self) -> int:
        # observation window stays resident whenever it contributes a score
        return self.obs if self.lambda_win > 0 else 1

    def score(self, stores: list[_LayerStore], layers: list[int]):
        """The weighted sum of the four min-max normalised components. The
        sink indicator normalises to itself unless every entry is a sink (a
        constant normalises to 0), recency i to i / (n - 1); a term with
        weight 0 is not computed."""
        n = stores[0].kept
        scores = np.zeros((len(stores), n))
        if self.lambda_sink > 0 and self.sinks < n:
            scores[:, :self.sinks] = self.lambda_sink
        if self.lambda_recent > 0:
            scores += self.lambda_recent * _count_terms(n, self.pool_kernel)[0]
        if self.lambda_acc > 0:
            scores += self.lambda_acc * _minmax(np.stack([ls.acc for ls in stores]))
        if self.lambda_win > 0:
            scores += self.lambda_win * _minmax(
                _pooled_window_score(stores, self.obs, self.pool_kernel))
        return scores, self.floor()


@dataclass(frozen=True)
class RandomPolicy:
    seed: int = 0

    def floor(self) -> int:
        return 1

    def score(self, stores: list[_LayerStore], layers: list[int]):
        n = stores[0].kept
        return np.stack([np.random.default_rng(np.random.SeedSequence(
            [self.seed & (2**64 - 1), layer, n])).random(n) for layer in layers]), 1


EvictionPolicy = Union[AttentionSink, HeavyHitter, ObsWindow, Hybrid, RandomPolicy]


@dataclass
class LayerReport:
    kept_count: int
    evicted_count: int


@dataclass
class EvictionReport:
    layers: list[LayerReport]


# --- cache -------------------------------------------------------------------

class _LayerStore:
    """One layer's entries in the first ``kept`` slots of capacity-doubling
    buffers: key panels ``_keys[n_kv_heads, head_dim, capacity]`` and values
    ``_values[capacity, n_kv_heads, head_dim]``. ``keys`` ([kept,
    n_kv_heads, head_dim]), ``values``, ``positions`` and ``acc`` are views
    over those slots, valid until the next append, truncate or evict.

    The window of recent attention rows is a ring: slot s holds the row of
    the query at position ``_qpos[s]``, over the kept entries up to it, the
    newest row sits just before ``_head`` and ``_count`` slots are live.
    Every slot, live or not, is zero past ``kept``, so writing a new row's
    ``[:kept + n]`` overwrites all a reused slot held, and a sum over slots
    needs no per-row cut.

    ``next_position`` is one past the last appended position. Eviction
    leaves it alone, even when it drops the newest entries; truncation sets
    it one past the newest entry it keeps. ``staged`` counts the entries
    staged past ``kept``; a truncate or gather drops them."""

    def __init__(self, n_kv_heads: int, head_dim: int, window: int):
        self.kept = self.next_position = self.staged = 0
        self._keys = np.zeros((n_kv_heads, head_dim, 0))
        self._values = np.zeros((0, n_kv_heads, head_dim))
        self._positions = np.zeros(0, dtype=np.int64)
        self._acc = np.zeros(0)                      # accumulated attention mass
        self._rows = np.zeros((window, 0))
        self._qpos = np.zeros(window, dtype=np.int64)   # each slot's query position
        self._head = self._count = 0

    keys = property(lambda self: self._keys[..., :self.kept].transpose(2, 0, 1))
    values = property(lambda self: self._values[:self.kept])
    positions = property(lambda self: self._positions[:self.kept])
    acc = property(lambda self: self._acc[:self.kept])

    def slots(self) -> range:
        """The live ring slots, oldest row first; a negative slot wraps."""
        return range(self._head - self._count, self._head)

    @property
    def rows(self) -> list[np.ndarray]:
        """The window's rows, oldest first, each cut after its query (views)."""
        ends = np.searchsorted(self.positions, self._qpos, "right")
        return [self._rows[s, :ends[s]] for s in self.slots()]

    def reserve(self, n: int):
        """Make room for n more entries, doubling the capacity when it grows."""
        need = self.kept + n
        if need <= self._positions.size:
            return
        cap = max(need, 2 * self._positions.size, 16)
        values = np.empty((cap,) + self._values.shape[1:])
        values[:self.kept] = self._values[:self.kept]
        self._values = values
        for name in ("_keys", "_positions", "_acc", "_rows"):   # capacity last
            old = getattr(self, name)
            new = np.zeros(old.shape[:-1] + (cap,), dtype=old.dtype)
            new[..., :self.kept] = old[..., :self.kept]
            setattr(self, name, new)

    def push_rows(self, rows: np.ndarray, end: int):
        """Write the last ``window`` of ``rows``, the attention rows of the
        queries at the last r of the first ``end`` entries, into the ring;
        each is zero past its query."""
        w, r = self._qpos.size, rows.shape[0]
        for i in range(max(0, r - w), r):
            self._rows[self._head, :end] = rows[i]
            self._qpos[self._head] = self._positions[end - r + i]
            self._head = (self._head + 1) % w
        self._count = min(self._count + r, w)

    def truncate(self, kept: int):
        """Shorten to the first ``kept`` (fewer than now) entries: zero the
        dropped columns and pop the newest rows, those whose query is at or
        past the first dropped entry. A row left whose query lies past the
        newest kept entry (it was evicted) takes that entry's position, or
        -1, which counts the same kept entries, so that no entry appended
        later at its query's position or before joins it."""
        self._rows[:, kept:self.kept] = 0.0
        while self._count and self._qpos[self._head - 1] >= self._positions[kept]:
            self._head = (self._head - 1) % self._qpos.size
            self._count -= 1
        self.kept, self.staged = kept, 0
        self.next_position = int(self._positions[kept - 1]) + 1 if kept else 0
        # query positions rise along the ring: the newest row has the largest
        if self._count and self._qpos[self._head - 1] >= self.next_position:
            np.minimum(self._qpos, self.next_position - 1, out=self._qpos)

    def gather(self, keep):
        """Keep only the entries at the sorted indices ``keep``, in place; an
        int ``keep`` is instead a one-drop's dropped index. Those before the
        first dropped index stay; the rest move back by one slice per buffer
        when they form one run (every one-drop), else by a gather. The ring's
        query positions hold, so only entries move."""
        if isinstance(keep, int):
            return self._move(keep, slice(keep + 1, self.kept), self.kept - 1)
        shift = keep - np.arange(keep.size)     # nondecreasing: how far each moves
        i = int(np.searchsorted(shift, 0, side="right"))
        run = i < keep.size and shift[i] == shift[-1]
        self._move(i, slice(keep[i], keep[-1] + 1) if run else keep[i:], keep.size)

    def _move(self, i: int, src, kept: int):
        """Move the entries at src (a slice or indices) to slots i..kept - 1,
        then cut the layer to its first ``kept`` entries."""
        self._values[i:kept] = self._values[src]
        for buf in (self._keys, self._positions, self._acc, self._rows):
            buf[..., i:kept] = buf[..., src]
        self._rows[:, kept:self.kept] = 0.0
        self.kept, self.staged = kept, 0


WINDOW = 32  # a cache's default window of recent attention rows


class KvCache:
    def __init__(self, n_layers: int, n_kv_heads: int, head_dim: int,
                 window: int = WINDOW):
        at_least(0, window=window)
        self.n_layers = n_layers
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.window = window
        self.layers = [_LayerStore(n_kv_heads, head_dim, window) for _ in range(n_layers)]

    @classmethod
    def for_model(cls, config, window: int = WINDOW) -> "KvCache":
        return cls(config.n_layers, config.n_kv_heads, config.head_dim, window)

    def next_position(self) -> int:
        """Where the next forward continues: one past the last position any
        layer appended, evicted or not."""
        return max((ls.next_position for ls in self.layers), default=0)

    def reserve(self, n: int):
        """Make room for n more entries in every layer, so that staging up to
        n more copies no buffer. ``decode_cache`` reserves, before a decode's
        first forward, the most entries the decode can hold: its arena then
        never copies itself mid-request."""
        for ls in self.layers:
            ls.reserve(n)

    def layer_kv(self, layer: int):
        """Views of the layer's keys, values and positions (see _LayerStore)."""
        ls = self.layers[layer]
        return ls.keys, ls.values, ls.positions

    def stage(self, layer: int, k: np.ndarray, v: np.ndarray):
        """The one write of keys and values: n new ones, each [n, n_kv_heads,
        head_dim] (any other shape is a ValueError), go in the layer's spare
        capacity until :meth:`append_block` commits them. Returns views of the
        kept+n entries, the kept ones not copied: key panels [n_kv_heads,
        head_dim, kept+n], unit-strided, and values [n_kv_heads, kept+n,
        head_dim]."""
        shape = (len(k), self.n_kv_heads, self.head_dim)
        if k.shape != shape or v.shape != shape:
            raise ValueError(f"keys {k.shape} and values {v.shape} are not "
                             f"[n, n_kv_heads, head_dim] = {shape}")
        ls = self.layers[layer]
        ls.reserve(len(k))
        end = ls.kept + len(k)
        ls._keys[..., ls.kept:end] = k.transpose(1, 2, 0)
        ls._values[ls.kept:end] = v
        ls.staged = len(k)
        return ls._keys[..., :end], ls._values[:end].transpose(1, 0, 2)

    def kept(self, layer: int) -> int:
        return self.layers[layer].kept

    def kept_positions(self, layer: int) -> np.ndarray:
        return self.layers[layer].positions.copy()

    def append(self, layer: int, k, v, position: int, attn_row):
        """Stage one entry and commit it: :meth:`append_block` with n = 1,
        whose mass and one row are both ``attn_row``."""
        shape = (1, self.n_kv_heads, self.head_dim)
        self.stage(layer, np.reshape(k, shape), np.reshape(v, shape))
        self.append_block(layer, [position], attn_row, [attn_row])

    def append_block(self, layer: int, positions, mass, rows):
        """Commit the n >= 1 entries the layer's last :meth:`stage` wrote, at
        strictly rising integer positions beyond the last appended one, writing
        no key or value. Any other block, or an n other than the staged count
        (0 after a commit, a truncate, or an evict that gathered the layer) is a
        ValueError that changes nothing.

        ``mass`` and ``rows`` are the cache's reads of the head-averaged
        attention of the n new queries over the kept+n keys. ``mass``
        [kept+n] is its column sums, which extend the accumulated mass.
        ``rows`` [r, kept+n], with min(n, window) <= r <= n, is its last r
        rows, zero above the causal diagonal; the last ``window`` of them
        enter the window of recent rows, each cut at its own query.
        """
        ls = self.layers[layer]
        positions = np.asarray(positions)
        n, kept = positions.size, ls.kept
        end = kept + n
        if n == 0 or positions.dtype.kind not in "iu":
            raise ValueError(f"positions must be a nonempty block of integers, "
                             f"got {positions!r}")
        if n > 1 and (positions[1:] <= positions[:-1]).any():
            raise ValueError(f"positions {positions.tolist()} do not rise")
        if positions[0] < ls.next_position:
            raise ValueError(f"position {int(positions[0])} not beyond last appended "
                             f"position {ls.next_position - 1}")
        if n != ls.staged:
            raise ValueError(f"{n} positions for {ls.staged} staged entries")
        mass = np.asarray(mass, dtype=np.float64)
        rows = np.asarray(rows, dtype=np.float64)
        if mass.shape != (end,):
            raise ValueError(f"attention mass shape {mass.shape} != "
                             f"(kept+n,) = {(end,)}")
        if (rows.ndim != 2 or rows.shape[1] != end
                or not min(n, self.window) <= rows.shape[0] <= n):
            raise ValueError(f"attention rows shape {rows.shape} != (r, kept+n) "
                             f"with {min(n, self.window)} <= r <= {n}, kept+n = {end}")
        ls._positions[kept:end] = positions
        ls._acc[kept:end] = 0.0
        ls._acc[:end] += mass
        ls.push_rows(rows, end)
        ls.kept, ls.staged = end, 0
        ls.next_position = int(positions[-1]) + 1

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
    """Each row of x[g, n] min-max normalised; a constant row to 0."""
    lo, hi = x.min(axis=1, keepdims=True), x.max(axis=1, keepdims=True)
    return np.divide(x - lo, hi - lo, out=np.zeros(x.shape), where=hi != lo)


@functools.lru_cache(maxsize=16)
def _count_terms(n: int, kernel: int) -> tuple[np.ndarray, np.ndarray]:
    """The score terms an n-entry layer's count alone fixes, built once and
    read-only: the recency ramp i / (n - 1) and the clipped pooling widths."""
    j, h = np.arange(n), kernel // 2
    terms = j / max(n - 1, 1), np.minimum(j + h, n - 1) - np.maximum(j - h, 0) + 1.0
    for t in terms:
        t.flags.writeable = False
    return terms


def _pooled_window_score(stores: list[_LayerStore], obs: int, kernel: int) -> np.ndarray:
    """Per layer of ``stores``, all n entries long, the mean attention over
    its last `obs` rows, then clipped 1-D mean pooling: each position
    averages the entries of its `kernel`-wide window that lie inside the
    cache. The rows are summed oldest first, then the kernel's shifted
    slices of the zero-padded mean rows in order; the zeros past each row's
    length and the padding add exact zeros, so every mean is bit-identical
    to the in-order mean of the clipped slice (numpy's ``mean`` for kernels
    up to 7). Returns [layers, n]."""
    n, h = stores[0].kept, kernel // 2
    if obs > stores[0]._qpos.size:
        raise ConfigError(f"observation window {obs} exceeds the cache's "
                          f"{stores[0]._qpos.size}-row window")
    m = np.zeros((len(stores), h + n + h))      # the mean rows, zero-padded by h
    for mean, ls in zip(m, stores):
        count = min(obs, ls._count)
        if count:
            # numpy adds the rows in order only when it sums two columns or
            # more; past n every slot is zero, and the capacity is at least 16
            slots = np.arange(ls._head - count, ls._head)
            mean[h:h + n] = ls._rows[slots, :max(n, 2)].sum(axis=0)[:n] / count
    pooled = m[:, :n].copy()
    for d in range(1, kernel):
        pooled += m[:, d:d + n]
    return pooled / _count_terms(n, kernel)[1]


def _tail_and_best(scores: np.ndarray, tail: int, budget: int):
    """Per row of scores [layers, n], the sorted indices [layers, budget] of
    the last ``tail`` entries and of the ``budget - tail`` best-scoring
    others: highest score first, ties toward the more recent (larger)
    index. A one-drop (``budget`` one below n) gives instead each row's
    dropped index, as a list of ints: its lowest-scoring other entry, the
    oldest on a tie, the last in that order (one ``argmin`` over rows)."""
    g, n = scores.shape
    m = n - tail
    if budget == n - 1:
        return scores[:, :m].argmin(axis=1).tolist()
    order = np.lexsort((np.broadcast_to(-np.arange(m), (g, m)), -scores[:, :m]))
    return np.hstack([np.sort(order[:, :budget - tail]),
                      np.broadcast_to(np.arange(m, n), (g, tail))])


def evict(cache: KvCache, policy: EvictionPolicy, budget: int) -> EvictionReport:
    """Shrink every layer to at most `budget` entries, per the policy: the
    layers over budget that hold the same count are scored in one pass
    (``policy.score`` gives their [layers, n] scores and the mandatory tail)
    and :func:`_tail_and_best` picks each one's kept set."""
    at_least(1, budget=budget)
    if budget < policy.floor():
        raise ConfigError(
            f"budget {budget} below the policy's mandatory floor {policy.floor()}")
    counts = [ls.kept for ls in cache.layers]
    for n in dict.fromkeys(c for c in counts if c > budget):    # each count once
        layers = [li for li, c in enumerate(counts) if c == n]
        stores = [cache.layers[li] for li in layers]
        for ls, keep in zip(stores, _tail_and_best(*policy.score(stores, layers), budget)):
            ls.gather(keep)
    return EvictionReport(layers=[LayerReport(kept_count=ls.kept, evicted_count=n - ls.kept)
                                  for ls, n in zip(cache.layers, counts)])


def eviction_ratio(report: EvictionReport) -> float:
    kept = sum(l.kept_count for l in report.layers)
    evicted = sum(l.evicted_count for l in report.layers)
    if kept + evicted == 0:
        raise ValueError("eviction ratio undefined for an empty cache")
    return evicted / (kept + evicted)

