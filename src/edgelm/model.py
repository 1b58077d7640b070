"""Deterministic toy decoder-only transformer.

Grouped-query attention, rotary position embeddings, RMS pre-norm, SiLU-gated
MLP, optionally tied embeddings. Weights are stored as float32; all compute
runs in float64 so that blockwise and token-by-token decoding agree to well
inside the 1e-5 contract.

Attention (``_attend``) runs one tile body (``_tile``) on each tile of 16
query rows. Each tile does the whole job over only the keys it can see:
its own QK matmul, which batches the KV heads over the queries of their
groups, exp in place, and its own PV matmul on the unnormalised exp,
normalised after PV by the row totals it sums from the same exp, as in
FlashAttention. So no [heads, n, m+n] score array and no [n, m+n]
head-averaged block is built, and no masked column past a tile goes
through a matmul. QK is a plain GEMM on the cache's unit-strided
[head_dim, capacity] key panels. A forward of up to 16 tokens (a decode
step, a draft step, a verify) calls the body once, with no loop and no
buffer; the tiles of a longer call share one score buffer, and skip the
row max when their scores are bounded so that nothing can overflow
(``_exp_bounded``), as FlashDecoding++'s unified max does. SiLU runs in
place, and rope is one complex multiply per pair. The RMS norm of one row
takes its mean square and root as Python floats, which round as the
block's do.

A layer runs as two functions, its attention half and its FFN half, so
that each half's temporaries are freed when it returns and none of the
attention's is alive through the FFN. The FFN half normalises all rows at
once, then runs the MLP over blocks of ``_FFN_ROWS`` rows into one output,
bit-identical to one pass. So no [n, 2 ffn_dim] gate/up product is built,
and a forward's working memory is set by the attention half's [n,
d_model]-wide arrays. A forward of up to 128 tokens (a decode step, a draft
step, a verify) is one block, with no loop.

Every forward runs on a :class:`~edgelm.kvcache.KvCache`, by default a
scratch one with no window of rows: each layer stages its new keys and
values once, attends over one view of the cached and new entries, then
commits them with the eviction policies' reads of the head-averaged
attention: the new queries' column mass and the last ``window`` rows.

A one-token forward costs numpy calls more than arithmetic, so each model
keeps a per-layer plan (:meth:`TinyLM.plan`): its fused float64 weights,
with the active adapter's deltas merged in, and its norm scales (none for a
unit one), checked by identity once per forward and rebuilt from the
float64 memo once one changed. Rope reads cached inverse frequencies.
"""
from __future__ import annotations

import functools
import hashlib
import math
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _manifest
from .errors import ConfigError, ManifestError, ShapeError, at_least
from .kvcache import KvCache


def slot_rng(seed: int, name: str) -> np.random.Generator:
    """Deterministic per-slot PRNG stream keyed by (seed, slot name)."""
    key = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), key]))


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 256
    d_model: int = 64
    n_layers: int = 4
    n_heads: int = 4
    n_kv_heads: int = 2
    head_dim: int = 16
    ffn_mult: int = 4
    rope_theta: float = 10000.0
    tie_embeddings: bool = True
    max_seq: int = 4096

    def __post_init__(self):
        at_least(1, vocab_size=self.vocab_size, d_model=self.d_model,
                 n_layers=self.n_layers, n_heads=self.n_heads,
                 n_kv_heads=self.n_kv_heads, head_dim=self.head_dim,
                 ffn_mult=self.ffn_mult, max_seq=self.max_seq)
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigError(
                f"n_heads ({self.n_heads}) must be divisible by n_kv_heads ({self.n_kv_heads})")
        if self.d_model != self.n_heads * self.head_dim:
            raise ConfigError(
                f"d_model ({self.d_model}) != n_heads * head_dim ({self.n_heads * self.head_dim})")
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim ({self.head_dim}) must be even: rope rotates pairs")
        if not 0 < self.rope_theta < np.inf:
            raise ConfigError(f"rope_theta ({self.rope_theta}) must be finite and positive")

    @property
    def ffn_dim(self) -> int:
        return self.d_model * self.ffn_mult

    def slot_shapes(self) -> dict[str, tuple[int, ...]]:
        d, f = self.d_model, self.ffn_dim
        qd = self.n_heads * self.head_dim
        kd = self.n_kv_heads * self.head_dim
        shapes: dict[str, tuple[int, ...]] = {"token_embed": (self.vocab_size, d)}
        for i in range(self.n_layers):
            p = f"layers.{i}."
            shapes[p + "attn_norm"] = (d,)
            shapes[p + "wq"] = (d, qd)
            shapes[p + "wk"] = (d, kd)
            shapes[p + "wv"] = (d, kd)
            shapes[p + "wo"] = (qd, d)
            shapes[p + "ffn_norm"] = (d,)
            shapes[p + "w_gate"] = (d, f)
            shapes[p + "w_up"] = (d, f)
            shapes[p + "w_down"] = (f, d)
        shapes["final_norm"] = (d,)
        if not self.tie_embeddings:
            shapes["lm_head"] = (d, self.vocab_size)
        return shapes

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TinyLM:
    """Config plus weights; ``forward`` reads the weights as float64.

    The float64 copies are the model's one dense copy of each weight: made
    once, read-only, and memoised per group of slots. An entry is used only
    while every one of its slots still holds the object it was built from, so
    rebinding ``weights[name]`` to another array or ``QuantTensor`` is picked
    up; an array or encoding mutated in place after the first forward is not.

    :meth:`plan` is the one way to them: one record per layer, then one for
    the head, each holding its fused float64 projections ([wq|wk|wv], wo,
    [w_gate|w_up], w_down; the embedding and the head), the memo's own or a
    copy with one adapter's deltas merged in, and the scale of each norm,
    None for a unit one, which every served model has, quantized ones
    included, so that no forward multiplies by ones. Once the adapter, a
    factor or a slot is another object, every record is rebuilt from the
    memo, which converts only a rebound slot's group again, after dropping
    the old records, so that a switch never holds two adapters' merged
    copies. A layer's two halves are functions, so that their temporaries
    are freed when they return.
    """
    config: ModelConfig
    weights: dict  # slot name -> np.ndarray (float32) or QuantTensor
    stats: dict = field(default_factory=lambda: {"forwards": 0})
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _plan: tuple = field(default=((), (), ()), init=False, repr=False, compare=False)

    def weight(self, name: str) -> np.ndarray:
        """Resolve a slot to a dense float array, dequantizing if needed."""
        w = self.weights[name]
        if isinstance(w, np.ndarray):
            return w
        return w.dequantize()  # QuantTensor

    def _resolve(self, *names: str) -> np.ndarray:
        """The named slots as one float64 array, side by side along the last
        axis, memoised (see the class docstring)."""
        entry = self._memo.get(names)
        if entry is not None:
            for name, source in zip(names, entry[0]):
                if self.weights[name] is not source:
                    break
            else:
                return entry[1]
        parts = [self.weight(n).astype(np.float64) for n in names]
        out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        out.setflags(write=False)
        self._memo[names] = (tuple(self.weights[n] for n in names), out)
        return out

    def plan(self, adapter=None) -> list:
        """Each layer's record, then the head's (see the class docstring), for
        ``adapter``, kept while it, its factors and every slot are the objects
        they were built from: a layer's is (attn_norm scale, qkv, wo, ffn_norm
        scale, gate_up, down), the head's (embedding, final_norm scale, head:
        the tied embedding's transpose or ``lm_head``); a scale is None for a unit one."""
        names, sources, records = self._plan
        factors = () if adapter is None else (*adapter.A.values(), *adapter.B.values())
        if records and all(map(operator.is_, sources, (
                adapter, *factors, *map(self.weights.__getitem__, names)))):
            return records
        # drop the old records before building the new, so that a switch holds
        # one adapter's merged copies, not two; a rebuild that raises leaves none
        del records
        self._plan = ((), (), ())
        groups = [tuple(f"layers.{i}.{slot}" for slot in _LAYER_SLOTS)
                  for i in range(self.config.n_layers)]
        groups.append(("token_embed", "final_norm", "lm_head")[:3 - self.config.tie_embeddings])
        records = [_record(self, adapter, *group) for group in groups]
        names = sum(groups, ())
        self._plan = (names, (adapter, *factors, *map(self.weights.__getitem__, names)), records)
        return records

    def reset_counters(self):
        self.stats["forwards"] = 0


_LAYER_SLOTS = ("attn_norm", "wq", "wk", "wv", "wo", "ffn_norm", "w_gate", "w_up",
                "w_down")


def _projection(model: TinyLM, adapter, *slots: str):
    """The slots side by side: the memo's array, or a copy with W + (alpha /
    r) (B A)^T in each slot ``adapter`` targets, whose factors it sets read-only."""
    w, end = model._resolve(*slots), 0
    for slot in slots:
        first, end = end, end + model.weights[slot].shape[-1]
        if adapter is not None and slot in adapter.target_slots:
            w = w if w.flags.writeable else w.copy()
            delta = (adapter.alpha / adapter.r) * np.matmul(
                adapter.B[slot], adapter.A[slot], dtype=np.float64).T
            if not np.isfinite(delta).all():
                raise ConfigError(f"adapter {adapter.name} slot {slot!r}: delta is not finite")
            w[:, first:end] += delta
            for factor in (adapter.A[slot], adapter.B[slot]):
                factor.setflags(write=False)
    return w


def _scale(model: TinyLM, norm: str):
    """The norm slot's scale, or None for a unit one, which is skipped."""
    scale = model._resolve(norm)
    return scale if (scale != 1.0).any() else None


def _record(model: TinyLM, adapter, *names: str):
    """The plan record of one layer's nine slots, or of the head's."""
    if names[0] == "token_embed":
        embed = model._resolve("token_embed")
        return (embed, _scale(model, "final_norm"),
                _projection(model, adapter, *names[2:]) if names[2:] else embed.T)
    return (_scale(model, names[0]), _projection(model, adapter, *names[1:4]),
            _projection(model, adapter, names[4]), _scale(model, names[5]),
            _projection(model, adapter, *names[6:8]), _projection(model, adapter, names[8]))


@dataclass
class ForwardOutput:
    logits: np.ndarray                 # [new_positions, vocab]
    final_hidden: np.ndarray           # [new_positions, d_model], post final norm


@dataclass
class PatchGrid:
    rows: int
    cols: int
    dim: int
    data: np.ndarray  # [rows, cols, dim]

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0 or self.dim <= 0:
            raise ShapeError("PatchGrid dimensions must be positive")
        self.data = np.asarray(self.data)
        if self.data.shape != (self.rows, self.cols, self.dim):
            raise ShapeError(
                f"data shape {self.data.shape} != ({self.rows}, {self.cols}, {self.dim})")


def init_model(config: ModelConfig, seed: int) -> TinyLM:
    """All weights ~ Normal(0, 0.02) from per-slot streams; norm scales = 1."""
    weights = {}
    for name, shape in config.slot_shapes().items():
        if name.endswith("norm"):
            weights[name] = np.ones(shape, dtype=np.float32)
        else:
            rng = slot_rng(seed, name)
            weights[name] = rng.normal(0.0, 0.02, size=shape).astype(np.float32)
    return TinyLM(config=config, weights=weights)


def rms_norm(x: np.ndarray, scale, eps: float = 1e-6) -> np.ndarray:
    """x over the root mean square of its rows, times ``scale``; None, a
    plan's unit scale, is not multiplied."""
    if 0 < x.size == x.shape[-1]:
        # one row: the same sum, then its mean and root in Python floats,
        # which round as numpy's do
        h = x / math.sqrt(float(np.add.reduce(x * x, None)) / x.size + eps)
    else:
        h = x / np.sqrt(np.add.reduce(x * x, -1, None, None, True) / x.shape[-1] + eps)
    return h if scale is None else h * scale


def apply_rope(vec: np.ndarray, position: int, theta: float) -> np.ndarray:
    """Rotate consecutive pairs of an even-length vector by position-scaled angles."""
    vec = np.ascontiguousarray(vec, dtype=np.float64)
    d = vec.shape[-1]
    if d % 2 != 0:
        raise ShapeError("apply_rope requires an even-length vector")
    rows = vec.reshape(1, -1, d)
    return _rope_block(rows, _rope_table(np.array([position]), d, theta)).reshape(vec.shape)


def _rope_table(positions: np.ndarray, d: int, theta: float) -> np.ndarray:
    """cos + i sin of the rope angles at positions[n], shaped [n, 1, d/2]."""
    ang = positions[:, None, None] * _inverse_frequencies(d, theta)
    return np.cos(ang) + 1j * np.sin(ang)


@functools.lru_cache(maxsize=8)
def _inverse_frequencies(d: int, theta: float) -> np.ndarray:
    """theta ** (-2p / d) for each rope pair p, built once and read-only."""
    out = theta ** (-2.0 * np.arange(d // 2) / d)
    out.setflags(write=False)
    return out


def _rope_block(x: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Rope over x[n, heads, head_dim], unit-strided along head_dim, with a
    :func:`_rope_table`: one complex multiply of each pair x0 + i x1."""
    return (x.view(np.complex128) * rot).view(np.float64)


def _silu(x: np.ndarray) -> np.ndarray:
    """x / (1 + exp(-x)), computed in place in one new array."""
    y = np.negative(x)
    np.add(np.exp(y, y), 1.0, y)
    return np.divide(x, y, y)


def _proj(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """h @ a plan projection (see :meth:`TinyLM.plan`)."""
    return h @ w


_ROW_TILE = 16  # query rows per attention tile (8, 32 and 64 measured slower)
_CAUSAL_TILE = np.triu(np.ones((_ROW_TILE, _ROW_TILE), dtype=bool), 1)
_EXP_LIMIT = 700.0  # below ln 2^1021 = 707.7, see _exp_bounded


def _exp_bounded(q, Kt, Vt) -> bool:
    """Whether exp may skip the row max for scaled queries q[n, H, hd] over
    Kt[kv, hd, L] and Vt[kv, L, hd]: B + ln(H L V) <= 700, for B =
    max|q_i| max|k_j| >= every |score| and V = max(max|Vt|, 1), at least 1
    so that the bound covers H σ as well as PV (all-zero values too). Then
    each exp is in [e^-B, e^B], a row's σ (its diagonal is never masked) in
    [e^-B, L e^B] and its PV in ±L e^B V; as H L e^B V <= 2^1021, even with
    rounding σ, H σ, PV and 1 / (H σ) stay finite and σ and 1 / (H σ)
    normal, for any finite keys and values. Overflow or NaN reads as
    unbounded."""
    qq = float(np.einsum("nhd,nhd->nh", q, q).max())
    kk = float(np.einsum("khl,khl->kl", Kt, Kt).max())
    hlv = q.shape[1] * Kt.shape[2] * max(float(Vt.max()), -float(Vt.min()), 1.0)
    return math.sqrt(qq * kk) + math.log(hlv) <= _EXP_LIMIT


def _attend(q, Kt, Vt, scale, window):
    """Attention of queries q[n, H, hd] over key panels Kt[kv, hd, m+n] and
    values Vt[kv, m+n, hd], query i seeing keys j <= m + i; head h reads
    kv head h // (H // kv). Returns the output [n, H * hd] and all the cache
    reads of the head-averaged probabilities, which are never built as one
    [n, m+n] block: their column sums over the n queries (the mass, [m+n])
    and the rows of the last min(n, window) queries, zero above the diagonal.

    One tile body, :func:`_tile`, runs each tile of ``_ROW_TILE`` query rows
    r0..r1 over only the keys it can see, Kt[..., :m + r1]. The weights
    1 / (H σ) times its exp give the tile's mass, and only a tile holding
    some of the last ``window`` queries builds their rows, by one batched
    matmul. A forward of up to 16 tokens is one call of the body over all
    keys, with no loop and no buffer: its mass is the product itself, and
    for one token its one row is the mass. A call of several tiles shares
    one score buffer, which nothing returned views, and runs exp on the raw
    scores when :func:`_exp_bounded` admits it.
    """
    n, H, hd = q.shape
    L = Kt.shape[2]
    m = L - n
    first = n - min(n, window)                          # the first query with a row
    q = q * scale               # exact for a power-of-two scale, as head_dim 16's
    if n <= _ROW_TILE:
        out, w, s = _tile(q, Kt, Vt, m)
        out, mass = out.reshape(n, H * hd), w.reshape(-1) @ s.reshape(H * n, L)
        if first == n:                  # no window: no rows, an empty [0, L] view
            return out, mass, s[0, n:]
        return out, mass, mass[None] if n == 1 else _head_mean(w[:, first:], s[:, first:])
    out = np.empty((n, H * hd))
    max_free = _exp_bounded(q, Kt, Vt)
    mass, rows = np.zeros(L), np.zeros((n - first, L))
    # every tile's scores, allocated after the arrays that outlive it: first,
    # it raised a 2,048-token request's peak RSS by 1 MB (glibc, 2 vCPUs)
    buf = np.empty(H * _ROW_TILE * L)
    for r0 in range(0, n, _ROW_TILE):
        r1 = min(r0 + _ROW_TILE, n)
        t, seen = r1 - r0, m + r1
        _, w, s = _tile(q[r0:r1], Kt[..., :seen], Vt[:, :seen], m + r0, max_free,
                        buf[:H * t * seen], out[r0:r1])
        mass[:seen] += w.reshape(-1) @ s.reshape(H * t, seen)
        lo = max(first - r0, 0)                         # first tile row in the window
        if lo < t:
            rows[r0 + lo - first:r1 - first, :seen] = _head_mean(w[:, lo:], s[:, lo:])
    return out, mass, rows


def _tile(q, Kt, Vt, d, max_free=False, buf=None, out=None):
    """The tile body of :func:`_attend`: queries q[t, H, hd] over the keys
    Kt[kv, hd, seen] and values Vt[kv, seen, hd] they see, the query i
    seeing keys j <= d + i. One batched QK GEMM into ``buf`` (None: a new
    array), exp in place, its row totals σ, and one batched PV matmul on the
    unnormalised exp: only PV is divided by σ, into ``out`` [t, H * hd]
    (None: a new array). Unless ``max_free``, -inf is written over the
    masked scores before the row max, and exp turns them into 0; with it,
    exp runs on the raw scores and zeroes them after. Returns
    the output, laid out [t, kv, group, hd], the weights 1 / (H σ) [H, t] and
    the exp [H, t, seen]."""
    t, H, hd = q.shape
    n_kv, seen = Kt.shape[0], Kt.shape[2]
    group = H // n_kv
    qg = q.reshape(t, n_kv, group, hd).transpose(1, 2, 0, 3).reshape(n_kv, group * t, hd)
    scores = np.matmul(qg, Kt, None if buf is None else buf.reshape(n_kv, group * t, seen))
    s = scores.reshape(H, t, seen)
    if t > 1:
        diag, mask = s[..., d:], _CAUSAL_TILE[:t, :t]
    if not max_free:
        if t > 1:
            np.copyto(diag, -np.inf, where=mask)
        s -= np.maximum.reduce(s, -1, None, None, True)    # the row max
    np.exp(s, s)
    if t > 1 and max_free:
        np.copyto(diag, 0.0, where=mask)
    sigma = np.add.reduce(scores, -1).reshape(n_kv, group, t)
    pv = (scores @ Vt).reshape(n_kv, group, t, hd)
    out = np.divide(pv.transpose(2, 0, 1, 3), sigma.transpose(2, 0, 1)[..., None],
                    None if out is None else out.reshape(t, n_kv, group, hd))
    return out, 1.0 / (H * sigma.reshape(H, t)), s


def _head_mean(w, s):
    """Rows [t, seen] of the head-averaged probabilities: each row's weights
    w[H, t] times its exp s[H, t, seen], summed over the heads."""
    t, seen = s.shape[1:]
    return (w.T[:, None, :] @ s.transpose(1, 0, 2)).reshape(t, seen)


def token_ids(tokens) -> np.ndarray:
    """``tokens`` as a nonempty 1-D integer array. A float, string or bool
    token is a ValueError, not rounded or parsed into an id."""
    ids = np.asarray(tokens)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("tokens must be a nonempty 1-D sequence")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"token ids must be integers, got {ids.dtype} tokens")
    return ids


def in_vocab(ids: np.ndarray, vocab_size: int) -> np.ndarray:
    """``ids`` (from :func:`token_ids`), if each lies in [0, vocab_size)."""
    if ids.astype(np.uint64).max() >= vocab_size:      # a negative id wraps past it
        raise ValueError(f"token id out of range [0, {vocab_size})")
    return ids


def _layer(cfg: ModelConfig, record, li: int, x, rope, positions, cache):
    """Layer li over the residual stream x [n, d_model], from its plan
    record: its attention half, then its FFN half. Each half's temporaries
    are freed when it returns, so none of the attention's is alive while the
    FFN runs, and the FFN half runs over blocks of ``_FFN_ROWS`` rows, so
    none of its own grows past a block: a long forward holds no more at
    once than its attention half does."""
    return _ffn_half(cfg, record, _attention_half(cfg, record, li, x, rope, positions, cache))


def _attention_half(cfg: ModelConfig, record, li: int, x, rope, positions, cache):
    """x plus layer li's attention over its cached and new keys, which it
    stages and commits on ``cache``."""
    attn_scale, qkv_proj, wo = record[:3]
    n, hd = x.shape[0], cfg.head_dim
    n_qk = cfg.n_heads + cfg.n_kv_heads
    qkv = _proj(rms_norm(x, attn_scale), qkv_proj)
    qk = _rope_block(qkv[:, :n_qk * hd].reshape(n, n_qk, hd), rope)
    q, k = qk[:, :cfg.n_heads], qk[:, cfg.n_heads:]
    v = qkv[:, n_qk * hd:].reshape(n, cfg.n_kv_heads, hd)

    # views of the cached and new keys, as [kv, hd, m+n] panels, and values
    Kt, Vt = cache.stage(li, k, v)
    out, mass, rows = _attend(q, Kt, Vt, 1.0 / math.sqrt(hd), cache.window)
    cache.append_block(li, positions, mass, rows)
    return x + _proj(out, wo)


# rows per FFN block: a [128, 2 ffn_dim] gate/up product is 512 KB at d_model 64;
# blocks of 32 and 64 rows traced the same forward peak and ran slower
_FFN_ROWS = 128


def _ffn_half(cfg: ModelConfig, record, x):
    """x plus the layer's SiLU-gated MLP of its normalised rows. Past
    ``_FFN_ROWS`` rows, the MLP runs over blocks of that many into one
    output, so no [n, 2 ffn_dim] product is built; the rows are normalised
    at once, and the last block takes a one-row remainder, which would run
    as a GEMV and round otherwise: so every row is bit-identical to one
    pass over all of them."""
    scale, gate_up_proj, down = record[3:]
    h, n = rms_norm(x, scale), x.shape[0]
    if n <= _FFN_ROWS:
        return _mlp(x, h, gate_up_proj, down, cfg.ffn_dim)
    out = np.empty_like(x)
    bounds = [*range(0, n - 1, _FFN_ROWS), n]
    for r0, r1 in zip(bounds, bounds[1:]):
        _mlp(x[r0:r1], h[r0:r1], gate_up_proj, down, cfg.ffn_dim, out[r0:r1])
    return out


def _mlp(x, h, gate_up_proj, down, ffn_dim: int, out=None):
    """x + (silu(h W_gate) * h W_up) W_down, into ``out`` (None: a new array)."""
    gate_up = _proj(h, gate_up_proj)
    gate = _silu(gate_up[:, :ffn_dim])
    gate *= gate_up[:, ffn_dim:]
    return np.add(x, _proj(gate, down), out)


def forward(model: TinyLM, tokens, cache=None, adapter=None) -> ForwardOutput:
    """Run the model over new tokens, extending a KV cache (by default a scratch
    one) of the model's layers, KV heads and head dim.

    Positions continue one past the last position the cache appended, even
    when eviction dropped that entry; keys are stored post-rotation, so
    evicted positions are never re-indexed.
    """
    cfg = model.config
    tokens = in_vocab(token_ids(tokens), cfg.vocab_size)
    n = tokens.size
    if cache is None:
        cache = KvCache.for_model(cfg, window=0)
    layout = (cfg.n_layers, cfg.n_kv_heads, cfg.head_dim)
    if (cache.n_layers, cache.n_kv_heads, cache.head_dim) != layout:
        raise ValueError(f"cache (n_layers, n_kv_heads, head_dim) ({cache.n_layers}, "
                         f"{cache.n_kv_heads}, {cache.head_dim}) does not fit the "
                         f"model's {layout}")
    start = cache.next_position()
    if start + n > cfg.max_seq:
        raise ValueError(f"sequence exceeds max_seq ({cfg.max_seq})")
    positions = np.arange(start, start + n)

    model.stats["forwards"] += 1
    *layers, (embed, final_scale, head) = model.plan(adapter)
    rope = _rope_table(positions, cfg.head_dim, cfg.rope_theta)
    x = embed[tokens]
    for li, record in enumerate(layers):
        x = _layer(cfg, record, li, x, rope, positions, cache)
    h = rms_norm(x, final_scale)
    return ForwardOutput(logits=_proj(h, head), final_hidden=h)


def greedy_continue(model: TinyLM, cache, tokens, n: int, adapter=None) -> list[int]:
    """The next n argmax tokens after ``tokens``, extending ``cache``.

    One forward over ``tokens``, then n-1 single-token forwards; ties go to
    the lowest id.
    """
    out: list[int] = []
    step = list(tokens)
    for _ in range(n):
        fo = forward(model, step, cache=cache, adapter=adapter)
        out.append(int(np.argmax(fo.logits[-1])))
        step = out[-1:]
    return out


def check_decode_fits(config: ModelConfig, prompt_len: int, max_new: int, role: str):
    """Reject, before any forward, a decode of ``max_new`` tokens after
    ``prompt_len`` that would pass ``max_seq``. The last token emitted is never
    forwarded, so the last position forwarded is prompt_len + max_new - 2."""
    top = prompt_len + max_new - 2
    if max_new >= 1 and top >= config.max_seq:
        raise ConfigError(f"{role} max_seq {config.max_seq} is too short: "
                          f"decoding needs {role} position {top}")


def decode_cache(config: ModelConfig, prompt_len: int, max_new: int, role: str) -> KvCache:
    """The KV cache of a decode of ``max_new`` tokens after ``prompt_len``,
    the one rule for every decode's cache: the decode must fit ``max_seq``
    (:func:`check_decode_fits`), the cache keeps no window of rows, as
    nothing evicts it, and it is reserved for every entry the decode
    forwards, so its arena is never copied mid-request."""
    check_decode_fits(config, prompt_len, max_new, role)
    cache = KvCache.for_model(config, window=0)
    if max_new >= 1:
        cache.reserve(prompt_len + max_new - 1)    # the last token is never forwarded
    return cache


def greedy_decode(model: TinyLM, prompt, max_new: int, adapter=None) -> list[int]:
    """Argmax decoding with a full cache, a :func:`decode_cache`; ties go to
    the lowest id."""
    prompt = token_ids(prompt).tolist()
    if max_new < 0:
        raise ValueError("max_new must be nonnegative")
    cache = decode_cache(model.config, len(prompt), max_new, "model")
    return prompt + greedy_continue(model, cache, prompt, max_new, adapter)


def pixel_shuffle(grid: PatchGrid, r: int) -> PatchGrid:
    """Merge each r x r patch block into one patch of dim r^2 * dim.

    Blocks are concatenated in row-major block order, shrinking the sequence
    length by r^2 (r=2 gives the quarter-length reduction).
    """
    if r <= 0:
        raise ShapeError("r must be positive")
    if grid.rows % r != 0 or grid.cols % r != 0:
        raise ShapeError(f"grid {grid.rows}x{grid.cols} not divisible by r={r}")
    R, C, d = grid.rows // r, grid.cols // r, grid.dim
    x = grid.data.reshape(R, r, C, r, d)
    x = x.transpose(0, 2, 1, 3, 4).reshape(R, C, r * r * d)
    return PatchGrid(rows=R, cols=C, dim=r * r * d, data=x)


def pixel_unshuffle(grid: PatchGrid, r: int) -> PatchGrid:
    """Exact inverse of :func:`pixel_shuffle` with the same r."""
    if r <= 0:
        raise ShapeError("r must be positive")
    if grid.dim % (r * r) != 0:
        raise ShapeError(f"dim {grid.dim} not divisible by r^2={r * r}")
    d = grid.dim // (r * r)
    R, C = grid.rows, grid.cols
    x = grid.data.reshape(R, C, r, r, d).transpose(0, 2, 1, 3, 4)
    return PatchGrid(rows=R * r, cols=C * r, dim=d, data=x.reshape(R * r, C * r, d))


# --- weight manifest (little-endian float32, row-major) -----------------------

_MAGIC = b"EDGELM01"


def read_slots(header: dict, **kinds) -> tuple[ModelConfig, list[dict]]:
    """A model manifest's config and slot entries. Each entry needs a ``name``,
    a ``shape`` and the fields in ``kinds`` (name -> type), and the entries
    must list exactly the config's slots, each once, with their shapes."""
    config, slots = _manifest.fields(header, "header", config=dict, slots=list)
    config = _manifest.dataclass_from(ModelConfig, config, "config")
    shapes = {}
    for i, entry in enumerate(slots):
        name, shape = _manifest.fields(entry, f"slots[{i}]", name=str, shape=list,
                                       **kinds)[:2]
        if name in shapes:
            raise ManifestError(f"slot {name} is listed twice")
        shapes[name] = shape
    expected = config.slot_shapes()
    if set(shapes) != set(expected):
        raise ManifestError("manifest slots do not match config: "
                            f"{sorted(set(shapes) ^ set(expected))}")
    for name, shape in shapes.items():
        if shape != list(expected[name]):
            raise ManifestError(f"slot {name} has shape {shape}, config "
                                f"expects {list(expected[name])}")
    return config, slots


def save_model(model: TinyLM, path):
    """Flat binary manifest: magic, JSON header (config + slot table), raw data."""
    slots = []
    blobs = _manifest.Blobs()
    for name in sorted(model.weights):
        w = model.weights[name]
        if not isinstance(w, np.ndarray):
            raise ValueError("save_model handles float models; use quant manifests "
                             "for quantized weights")
        raw = np.ascontiguousarray(w, dtype="<f4").tobytes()
        slots.append({"name": name, "shape": list(w.shape), "offset": blobs.add(raw)[0]})
    _manifest.write(path, _MAGIC, {"config": model.config.to_dict(), "slots": slots},
                    blobs)


def load_model(path) -> TinyLM:
    header, blobs = _manifest.read(path, _MAGIC)
    config, slots = read_slots(header, offset=int)
    weights = {s["name"]: blobs.array("<f4", s["shape"], s["offset"]) for s in slots}
    return TinyLM(config=config, weights=weights)
