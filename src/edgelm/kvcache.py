"""Budgeted per-layer KV store and eviction policies.

Policies: attention-sink (positional), heavy-hitter (accumulated attention
mass), observation-window (pooled attention of the last W queries), a
weighted hybrid over all four signal types, and a random control. Each
policy keeps its own rule: ``evict`` asks its ``keep(layer_store, budget,
layer)`` for the sorted kept indices of every layer over budget.
Attention-sink keeps its sinks and the most recent entries; the others keep
their mandatory tail plus their best-scoring other entries (see
:func:`_tail_and_best`; a one-drop, each decode step's eviction under a
budget, is one ``argmin``), and the hybrid computes only its weighted terms.

Each layer keeps its entries in capacity-doubling buffers (a single-sequence
take on PagedAttention's KV blocks): ``stage``, the one write of keys and
values, puts a forward's new ones in spare capacity, the forward attends
over one view of the layer, ``append_block`` commits the staged block,
``truncate`` shortens the kept length and ``evict`` gathers the kept
entries in place, moving only those past the first dropped one, by one
slice per buffer when they form one run. Keys sit in one [head_dim,
capacity] panel per KV head, so QK reads them unit-strided; values stay
[capacity, n_kv_heads, head_dim + 1], which PV reads as fast and eviction
gathers faster, the last lane a 1 so that PV also sums each row
(``values``, ``layer_kv`` and ``cache_bytes`` never show it). The arrays a
layer exposes are views.

Score state lives with the cache: an accumulated-mass vector and a ring of
the last ``window`` head-averaged attention rows. The ring is one
[window, capacity] buffer in the same arena, one slot per row with its
length, and every slot is zero past the kept count. Each forward hands
``append_block`` both per layer, never an [n, kept+n] block: the column
mass of its head-averaged attention, added to the vector, and the rows of
its last ``window`` queries, pushed into the ring. ``truncate`` zeros the
dropped columns and pops the newest rows, and ``evict`` gathers the kept
columns of every slot.
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

    def keep(self, ls: _LayerStore, budget: int, layer: int) -> np.ndarray:
        # the sinks, then the most recent entries fill the rest of the budget
        return np.r_[:self.sinks, ls.kept - budget + self.sinks:ls.kept]


@dataclass(frozen=True)
class HeavyHitter:
    recent: int = 1

    def __post_init__(self):
        at_least(0, recent=self.recent)

    def floor(self) -> int:
        return self.recent

    def keep(self, ls: _LayerStore, budget: int, layer: int) -> np.ndarray:
        return _tail_and_best(ls.acc, self.recent, budget)


@dataclass(frozen=True)
class ObsWindow:
    obs: int = 16
    pool_kernel: int = 5

    def __post_init__(self):
        _check_window(self.obs, self.pool_kernel)

    def floor(self) -> int:
        return self.obs

    def keep(self, ls: _LayerStore, budget: int, layer: int) -> np.ndarray:
        return _tail_and_best(_pooled_window_score(ls, self.obs, self.pool_kernel),
                              self.obs, budget)


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

    def keep(self, ls: _LayerStore, budget: int, layer: int) -> np.ndarray:
        """The weighted sum of the four min-max normalised components. The
        sink indicator normalises to itself unless every entry is a sink (a
        constant normalises to 0), recency i to i / (n - 1); a term with
        weight 0 is not computed."""
        n = ls.kept
        scores = np.zeros(n)
        if self.lambda_sink > 0 and self.sinks < n:
            scores[:self.sinks] = self.lambda_sink
        if self.lambda_recent > 0:
            scores += self.lambda_recent * _count_terms(n, self.pool_kernel)[0]
        if self.lambda_acc > 0:
            scores += self.lambda_acc * _minmax(ls.acc)
        if self.lambda_win > 0:
            scores += self.lambda_win * _minmax(
                _pooled_window_score(ls, self.obs, self.pool_kernel))
        return _tail_and_best(scores, self.floor(), budget)


@dataclass(frozen=True)
class RandomPolicy:
    seed: int = 0

    def floor(self) -> int:
        return 1

    def keep(self, ls: _LayerStore, budget: int, layer: int) -> np.ndarray:
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed & (2**64 - 1), layer, ls.kept]))
        return _tail_and_best(rng.random(ls.kept), 1, budget)


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
    buffers: key panels ``_keys[n_kv_heads, head_dim, capacity]``, values
    ``_values[capacity, n_kv_heads, head_dim + 1]`` with a last lane of 1.
    ``keys`` ([kept, n_kv_heads, head_dim]), ``values``, ``positions`` and
    ``acc`` are views over those slots, valid until the next append,
    truncate or evict.

    The window of recent attention rows is a ring: ``_rows[s, :_lens[s]]``
    is the row in slot s, the newest row sits just before ``_head`` and
    ``_count`` slots are live. Every slot, live or not, is zero past
    ``kept``, so writing a new row's ``[:kept + n]`` overwrites all a reused
    slot held, and a sum over slots needs no per-row cut.

    ``next_position`` is one past the last appended position. Eviction
    leaves it alone, even when it drops the newest entries; truncation sets
    it one past the newest entry it keeps. ``staged`` counts the entries
    staged past ``kept``; a truncate or gather drops them."""

    def __init__(self, n_kv_heads: int, head_dim: int, window: int):
        self.kept = self.next_position = self.staged = 0
        self._keys = np.zeros((n_kv_heads, head_dim, 0))
        self._values = np.zeros((0, n_kv_heads, head_dim + 1))
        self._positions = np.zeros(0, dtype=np.int64)
        self._acc = np.zeros(0)                      # accumulated attention mass
        self._rows = np.zeros((window, 0))
        self._lens = np.zeros(window, dtype=np.int64)
        self._head = self._count = 0

    keys = property(lambda self: self._keys[..., :self.kept].transpose(2, 0, 1))
    values = property(lambda self: self._values[:self.kept, :, :-1])
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
        last new queries, into the ring. The last row has length end, each
        one before it one less, and each is zero past its length."""
        w, r = self._lens.size, rows.shape[0]
        for i in range(max(0, r - w), r):
            self._rows[self._head, :end] = rows[i]
            self._lens[self._head] = end - r + i + 1
            self._head = (self._head + 1) % w
        self._count = min(self._count + r, w)

    def truncate(self, kept: int):
        """Shorten to the first ``kept`` entries: zero the dropped columns and
        pop the newest rows longer than ``kept``."""
        self._rows[:, kept:self.kept] = 0.0
        while self._count and self._lens[self._head - 1] > kept:
            self._head = (self._head - 1) % self._lens.size
            self._count -= 1
        self.kept, self.staged = kept, 0
        self.next_position = int(self._positions[kept - 1]) + 1 if kept else 0

    def gather(self, idx: np.ndarray):
        """Keep only the entries at the sorted indices idx, in place. Those
        before the first dropped index stay; the rest move back by one slice
        per buffer when they form one run (every one-drop), else by a gather."""
        shift = idx - np.arange(idx.size)       # nondecreasing: how far each moves
        i = int(np.searchsorted(shift, 0, side="right"))
        if i < idx.size:
            src = slice(idx[i], idx[-1] + 1) if shift[i] == shift[-1] else idx[i:]
            self._values[i:idx.size] = self._values[src]
            for buf in (self._keys, self._positions, self._acc, self._rows):
                buf[..., i:idx.size] = buf[..., src]
        self._rows[:, idx.size:self.kept] = 0.0
        self._lens = np.searchsorted(idx, self._lens)
        self.kept, self.staged = idx.size, 0


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
        head_dim + 1], the last lane 1 so that PV also sums each row."""
        shape = (len(k), self.n_kv_heads, self.head_dim)
        if k.shape != shape or v.shape != shape:
            raise ValueError(f"keys {k.shape} and values {v.shape} are not "
                             f"[n, n_kv_heads, head_dim] = {shape}")
        ls = self.layers[layer]
        ls.reserve(len(k))
        end = ls.kept + len(k)
        ls._keys[..., ls.kept:end] = k.transpose(1, 2, 0)
        ls._values[ls.kept:end, :, :-1] = v
        ls._values[ls.kept:end, :, -1] = 1.0
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
    lo, hi = x.min(), x.max()
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


@functools.lru_cache(maxsize=16)
def _count_terms(n: int, kernel: int) -> tuple[np.ndarray, np.ndarray]:
    """The score terms an n-entry layer's count alone fixes, built once and
    read-only: the recency ramp i / (n - 1) and the clipped pooling widths."""
    j, h = np.arange(n), kernel // 2
    terms = j / max(n - 1, 1), np.minimum(j + h, n - 1) - np.maximum(j - h, 0) + 1.0
    for t in terms:
        t.flags.writeable = False
    return terms


def _pooled_window_score(ls: _LayerStore, obs: int, kernel: int) -> np.ndarray:
    """Mean attention over the last `obs` rows, then clipped 1-D mean pooling:
    each position averages the entries of its `kernel`-wide window that lie
    inside the cache. The rows are summed oldest first, then the kernel's
    shifted slices of the zero-padded mean row in order; the zeros past each
    row's length and the padding add exact zeros, so every mean is
    bit-identical to the in-order mean of the clipped slice (numpy's ``mean``
    for kernels up to 7)."""
    n, h = ls.kept, kernel // 2
    if obs > ls._lens.size:
        raise ConfigError(f"observation window {obs} exceeds the cache's "
                          f"{ls._lens.size}-row window")
    count = min(obs, ls._count)
    m = np.zeros(h + n + h)             # the mean row, zero-padded by h
    if count:
        # numpy adds the rows in order only when it sums two columns or more;
        # past n every slot is zero, and the capacity is at least 16
        slots = np.arange(ls._head - count, ls._head)
        m[h:h + n] = ls._rows[slots, :max(n, 2)].sum(axis=0)[:n] / count
    pooled = m[:n].copy()
    for d in range(1, kernel):
        pooled += m[d:d + n]
    return pooled / _count_terms(n, kernel)[1]


def _tail_and_best(scores: np.ndarray, tail: int, budget: int) -> np.ndarray:
    """The sorted indices of the last ``tail`` entries and of the
    ``budget - tail`` best-scoring others: highest score first, ties toward
    the more recent (larger) index. A one-drop (``budget`` one below the
    size) drops the lowest-scoring other entry, the oldest on a tie: the
    last in that order."""
    m = scores.size - tail
    if budget == scores.size - 1:
        keep = np.arange(budget)
        keep[np.argmin(scores[:m]):] += 1
        return keep
    order = np.lexsort((-np.arange(m), -scores[:m]))
    return np.concatenate([np.sort(order[:budget - tail]), np.arange(m, scores.size)])


def evict(cache: KvCache, policy: EvictionPolicy, budget: int) -> EvictionReport:
    """Shrink every layer to at most `budget` entries, per the policy."""
    at_least(1, budget=budget)
    if budget < policy.floor():
        raise ConfigError(
            f"budget {budget} below the policy's mandatory floor {policy.floor()}")
    reports = []
    for li, ls in enumerate(cache.layers):
        n = ls.kept
        if n > budget:
            ls.gather(policy.keep(ls, budget, li))
        reports.append(LayerReport(kept_count=ls.kept, evicted_count=n - ls.kept))
    return EvictionReport(layers=reports)


def eviction_ratio(report: EvictionReport) -> float:
    kept = sum(l.kept_count for l in report.layers)
    evicted = sum(l.evicted_count for l in report.layers)
    if kept + evicted == 0:
        raise ValueError("eviction ratio undefined for an empty cache")
    return evicted / (kept + evicted)

