"""Deterministic toy decoder-only transformer.

Grouped-query attention, rotary position embeddings, RMS pre-norm, SiLU-gated
MLP, optionally tied embeddings. Weights are stored as float32; all compute
runs in float64 so that blockwise and token-by-token decoding agree to well
inside the 1e-5 contract.

Attention (``_attend``) runs on tiles of 16 query rows. Each tile does
the whole job over only the keys it can see: its own QK matmul, which
batches the KV heads over the queries of their groups, exp in place, and
its own PV matmul on the unnormalised exp, normalised after PV as in
FlashAttention; a ones lane beside the values makes it sum each row. So no
[heads, n, m+n] score array and no [n, m+n] head-averaged block is built,
and no masked column past a tile goes through a matmul. QK is a plain GEMM
on the cache's unit-strided [head_dim, capacity] key panels, the tiles'
scores share one buffer per call and SiLU runs in place. A call of several
tiles skips the row max when its scores are bounded so that nothing can
overflow (``_exp_bounded``), as FlashDecoding++'s unified max does. Rope is
one complex multiply per pair.

Every forward runs on a :class:`~edgelm.kvcache.KvCache`, by default a
scratch one with no window of rows: each layer stages its new keys and
values once, attends over one view of the cached and new entries, then
commits them with the eviction policies' reads of the head-averaged
attention: the new queries' column mass and the last ``window`` rows.
"""
from __future__ import annotations

import hashlib
import math
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
    """
    config: ModelConfig
    weights: dict  # slot name -> np.ndarray (float32) or QuantTensor
    stats: dict = field(default_factory=lambda: {"forwards": 0})
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def weight(self, name: str) -> np.ndarray:
        """Resolve a slot to a dense float array, dequantizing if needed."""
        w = self.weights[name]
        if isinstance(w, np.ndarray):
            return w
        return w.dequantize()  # QuantTensor

    def resolve(self, *names: str) -> np.ndarray:
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

    def reset_counters(self):
        self.stats["forwards"] = 0


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


def rms_norm(x: np.ndarray, scale: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    rms = np.sqrt((x * x).sum(axis=-1, keepdims=True) / x.shape[-1] + eps)
    return (x / rms) * scale


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
    ang = positions[:, None, None] * theta ** (-2.0 * np.arange(d // 2) / d)
    return np.cos(ang) + 1j * np.sin(ang)


def _rope_block(x: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Rope over x[n, heads, head_dim], unit-strided along head_dim, with a
    :func:`_rope_table`: one complex multiply of each pair x0 + i x1."""
    return (x.view(np.complex128) * rot).view(np.float64)


def _silu(x: np.ndarray) -> np.ndarray:
    """x / (1 + exp(-x)), computed in place in one new array."""
    y = np.negative(x)
    np.add(np.exp(y, out=y), 1.0, out=y)
    return np.divide(x, y, out=y)


def _proj(h: np.ndarray, model: TinyLM, slots: tuple[str, ...], adapter=None) -> np.ndarray:
    """h @ the slots side by side; each slot's columns add its adapter delta."""
    y = h @ model.resolve(*slots)
    if adapter is None:
        return y
    col = 0
    for slot in slots:
        width = model.weights[slot].shape[-1]
        if slot in adapter.target_slots:
            # [r, in] and [out, r]; a float32 factor assigned by hand is cast,
            # since a mixed-dtype matmul sums in another order
            a = adapter.A[slot].astype(np.float64, copy=False)
            b = adapter.B[slot].astype(np.float64, copy=False)
            y[:, col:col + width] += (adapter.alpha / adapter.r) * ((h @ a.T) @ b.T)
        col += width
    return y


_ROW_TILE = 16  # query rows per attention tile (8, 32 and 64 measured slower)
_CAUSAL_TILE = np.triu(np.ones((_ROW_TILE, _ROW_TILE), dtype=bool), 1)
_EXP_LIMIT = 700.0  # below ln 2^1021 = 707.7, see _exp_bounded


def _exp_bounded(q, Kt, Vt) -> bool:
    """Whether exp may skip the row max for scaled queries q[n, H, hd] over
    Kt[kv, hd, L] and Vt[kv, L, hd + 1]: B + ln(H L V) <= 700, for B =
    max|q_i| max|k_j| >= every |score| and V = max|Vt| >= 1. Then each exp
    is in [e^-B, e^B], a row's σ (its diagonal is never masked) in [e^-B, L
    e^B] and its PV in ±L e^B V; as H L e^B V <= 2^1021, even with rounding
    σ, H σ, PV and 1 / (H σ) stay finite and σ and 1 / (H σ) normal, for
    any finite keys and values. Overflow or NaN reads as unbounded."""
    qq = float(np.einsum("nhd,nhd->nh", q, q).max())
    kk = float(np.einsum("khl,khl->kl", Kt, Kt).max())
    hlv = q.shape[1] * Kt.shape[2] * max(float(Vt.max()), -float(Vt.min()))
    return math.sqrt(qq * kk) + math.log(hlv) <= _EXP_LIMIT


def _attend(q, Kt, Vt, scale, window):
    """Attention of queries q[n, H, hd] over key panels Kt[kv, hd, m+n] and
    values Vt[kv, m+n, hd + 1], query i seeing keys j <= m + i; head h reads
    kv head h // (H // kv). Returns the output [n, H * hd] and all the cache
    reads of the head-averaged probabilities, which are never built as one
    [n, m+n] block: their column sums over the n queries (the mass, [m+n])
    and the rows of the last min(n, window) queries, zero above the diagonal.

    Each tile of ``_ROW_TILE`` query rows r0..r1 does the whole job over
    only the keys it can see, Kt[..., :m + r1]: one batched QK GEMM into its
    [H, r1 - r0, m + r1] scores in the call's one score buffer (which nothing
    returned views), exp in place, and one batched PV matmul on the
    unnormalised exp, whose ones lane gives the row totals σ: only PV is
    divided by them. The weights 1 / (H σ) times the scores give the tile's
    mass, and only a tile holding some of the last ``window`` queries builds
    their rows, by one batched matmul. A call of several tiles that
    :func:`_exp_bounded` admits runs exp on the raw scores and zeroes the
    masked ones after it. Any other writes -inf over them before the row
    max, and exp turns them into 0. A forward of up to 16 tokens is one
    tile over all keys: its mass is the product itself, and for one token
    its one row is the mass.
    """
    n, H, hd = q.shape
    n_kv, L = Kt.shape[0], Kt.shape[2]
    m, group = L - n, H // n_kv
    first = n - min(n, window)                          # the first query with a row
    q = q * scale               # exact for a power-of-two scale, as head_dim 16's
    out = np.empty((n, H * hd))
    max_free = n > _ROW_TILE and _exp_bounded(q, Kt, Vt)
    if n > _ROW_TILE:
        mass, rows = np.zeros(L), np.zeros((n - first, L))
    # every tile's scores, allocated after the arrays that outlive it: first,
    # it raised a 2,048-token request's peak RSS by 1 MB (glibc, 2 vCPUs)
    buf = np.empty(H * min(n, _ROW_TILE) * L)
    for r0 in range(0, n, _ROW_TILE):
        r1 = min(r0 + _ROW_TILE, n)
        t, seen = r1 - r0, m + r1
        qg = q[r0:r1].reshape(t, n_kv, group, hd).transpose(1, 2, 0, 3)
        scores = np.matmul(qg.reshape(n_kv, group * t, hd), Kt[..., :seen],
                           out=buf[:H * t * seen].reshape(n_kv, group * t, seen))
        s = scores.reshape(H, t, seen)
        if t > 1:
            diag, mask = s[..., m + r0:], _CAUSAL_TILE[:t, :t]
        if not max_free:
            if t > 1:
                np.copyto(diag, -np.inf, where=mask)
            s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        if t > 1 and max_free:
            np.copyto(diag, 0.0, where=mask)
        pv = (scores @ Vt[:, :seen]).reshape(n_kv, group, t, hd + 1)
        sigma = pv[..., hd]                             # [kv, group, t]
        np.divide(pv[..., :hd].transpose(2, 0, 1, 3), sigma.transpose(2, 0, 1)[..., None],
                  out=out[r0:r1].reshape(t, n_kv, group, hd))
        w = 1.0 / (H * sigma.reshape(H, t))
        tile_mass = w.reshape(-1) @ scores.reshape(H * t, seen)
        if n <= _ROW_TILE:
            return out, tile_mass, (tile_mass[None] if n == 1
                                    else _head_mean(w[:, first:], s[:, first:]))
        mass[:seen] += tile_mass
        lo = max(first - r0, 0)                         # first tile row in the window
        if lo < t:
            rows[r0 + lo - first:r1 - first, :seen] = _head_mean(w[:, lo:], s[:, lo:])
    return out, mass, rows


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
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise ValueError(f"token id out of range [0, {vocab_size})")
    return ids


def _layer(model: TinyLM, li: int, x, rope, positions, cache, adapter):
    """Layer li over the residual stream x [n, d_model]; its temporaries
    are freed when it returns."""
    cfg = model.config
    n, hd = x.shape[0], cfg.head_dim
    n_qk = cfg.n_heads + cfg.n_kv_heads
    p = f"layers.{li}."
    h = rms_norm(x, model.resolve(p + "attn_norm"))
    qkv = _proj(h, model, (p + "wq", p + "wk", p + "wv"), adapter)
    qk = _rope_block(qkv[:, :n_qk * hd].reshape(n, n_qk, hd), rope)
    q, k = qk[:, :cfg.n_heads], qk[:, cfg.n_heads:]
    v = qkv[:, n_qk * hd:].reshape(n, cfg.n_kv_heads, hd)

    # views of the cached and new keys, as [kv, hd, m+n] panels, and values
    Kt, Vt = cache.stage(li, k, v)
    out, mass, rows = _attend(q, Kt, Vt, 1.0 / np.sqrt(hd), cache.window)
    x = x + _proj(out, model, (p + "wo",), adapter)
    cache.append_block(li, positions, mass, rows)

    h2 = rms_norm(x, model.resolve(p + "ffn_norm"))
    gate_up = _proj(h2, model, (p + "w_gate", p + "w_up"), adapter)
    gate = _silu(gate_up[:, :cfg.ffn_dim])
    gate *= gate_up[:, cfg.ffn_dim:]
    return x + _proj(gate, model, (p + "w_down",), adapter)


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
    positions = np.arange(start, start + n)
    if positions[-1] >= cfg.max_seq:
        raise ValueError(f"sequence exceeds max_seq ({cfg.max_seq})")

    model.stats["forwards"] += 1
    rope = _rope_table(positions, cfg.head_dim, cfg.rope_theta)
    x = model.resolve("token_embed")[tokens]
    for li in range(cfg.n_layers):
        x = _layer(model, li, x, rope, positions, cache, adapter)

    fh = rms_norm(x, model.resolve("final_norm"))
    if cfg.tie_embeddings:
        logits = fh @ model.resolve("token_embed").T
    else:
        logits = _proj(fh, model, ("lm_head",), adapter)
    return ForwardOutput(logits=logits, final_hidden=fh)


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


def greedy_decode(model: TinyLM, prompt, max_new: int, adapter=None) -> list[int]:
    """Argmax decoding with a full (non-evicting) cache; ties go to the lowest id."""
    prompt = token_ids(prompt).tolist()
    if max_new < 0:
        raise ValueError("max_new must be nonnegative")
    check_decode_fits(model.config, len(prompt), max_new, "model")
    cache = KvCache.for_model(model.config)
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
