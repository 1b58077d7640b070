"""1+N low-rank adapter registry over a frozen base, plus a fine-tuning demo
on a frozen quantized linear map with analytic gradients.

The base model (float or quantized) is never mutated: a forward merges the
adapter's deltas into copies of the projections they target, from factors
held as float64 in memory and written as float32 on disk. A cryptographic
hash of the base weights is exposed so deployments can assert the frozen contract.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _manifest
from .errors import ConfigError, FrozenEncodingError, ManifestError, at_least
from .model import TinyLM, ForwardOutput, forward, slot_rng
from .quant import QuantTensor


@dataclass(frozen=True)
class LoraAdapter:
    """Factors per target slot, float64 holding float32 values, which a
    forward merges into the plan and sets read-only: rebind one to change it,
    as a weight is rebound. Frozen, as the plan reads r, alpha and slots once."""
    name: str
    r: int
    alpha: float
    target_slots: tuple[str, ...]
    A: dict[str, np.ndarray]  # slot -> [r, in_dim]
    B: dict[str, np.ndarray]  # slot -> [out_dim, r]


def _projected_shapes(config) -> dict[str, tuple[int, ...]]:
    """The slots forward multiplies through an adapter's delta: every matrix
    but the embedding, which it reads by row (and, tied, as the head)."""
    return {slot: shape for slot, shape in config.slot_shapes().items()
            if len(shape) == 2 and slot != "token_embed"}


def create_adapter(model: TinyLM, target_slots, r: int, alpha: float,
                   seed: int, name: str = "adapter") -> LoraAdapter:
    """A ~ Normal(0, 0.02) seeded per slot, drawn as float32; B = 0 (identity
    at creation)."""
    shapes = _projected_shapes(model.config)
    target_slots = tuple(target_slots)
    if len(set(target_slots)) != len(target_slots):
        raise ConfigError(f"target slots {list(target_slots)} list a slot twice")
    at_least(1, r=r)
    if not np.isfinite(alpha):
        raise ConfigError(f"alpha ({alpha}) must be finite")
    A, B = {}, {}
    for slot in target_slots:
        if slot not in shapes:
            raise ConfigError(f"slot {slot!r} is not a projection the forward adapts")
        in_dim, out_dim = shape = shapes[slot]
        if r > min(in_dim, out_dim):
            raise ConfigError(f"rank {r} exceeds slot {slot!r} dims {shape}")
        rng = slot_rng(seed, f"lora.{name}.{slot}")
        A[slot] = rng.normal(0, 0.02, (r, in_dim)).astype(np.float32).astype(np.float64)
        B[slot] = np.zeros((out_dim, r))
    return LoraAdapter(name=name, r=r, alpha=alpha, target_slots=target_slots,
                       A=A, B=B)


class AdapterRegistry:
    """One frozen base, N named adapters, at most one active."""

    def __init__(self, base: TinyLM):
        self.base = base
        self.adapters: dict[str, LoraAdapter] = {}
        self.active: Optional[str] = None

    def register(self, adapter: LoraAdapter):
        """Add an adapter whose every slot has factors A [r, in] and B [out, r]
        and the shape of a base slot the forward projects through."""
        shapes, r = _projected_shapes(self.base.config), adapter.r
        for slot in adapter.target_slots:
            if slot not in adapter.A or slot not in adapter.B:
                raise ConfigError(f"adapter {adapter.name} slot {slot!r}: no A or B factor")
            a, b = adapter.A[slot].shape, adapter.B[slot].shape
            if len(a) != 2 or len(b) != 2 or (a[0], b[1]) != (r, r):
                raise ConfigError(f"adapter {adapter.name} slot {slot!r}: A {list(a)} and "
                                  f"B {list(b)} are not [r, in] and [out, r] with r = {r}")
            if shapes.get(slot) != (a[1], b[0]):
                raise ConfigError(f"adapter {adapter.name} slot {slot!r}: delta shape "
                                  f"{a[1], b[0]}, projected base shape {shapes.get(slot)}")
        self.adapters[adapter.name] = adapter

    def activate(self, name: Optional[str]):
        if name is not None and name not in self.adapters:
            raise KeyError(f"unknown adapter {name!r}")
        self.active = name

    def active_adapter(self) -> Optional[LoraAdapter]:
        return self.adapters[self.active] if self.active is not None else None

    def apply_forward(self, tokens, cache=None) -> ForwardOutput:
        """Forward with the active adapter; the base weights are never touched."""
        return forward(self.base, tokens, cache=cache, adapter=self.active_adapter())

    def base_hash(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.base.weights):
            w = self.base.weights[name]
            h.update(name.encode())
            if isinstance(w, QuantTensor):
                h.update(w.encoding_bytes())
            else:
                h.update(np.ascontiguousarray(w, dtype="<f4").tobytes())
        return h.hexdigest()


# --- fine-tuning a low-rank delta over a frozen quantized linear map ---------

@dataclass
class LinearFit:
    A: np.ndarray          # [r, in_dim]
    B: np.ndarray          # [out_dim, r]
    r: int
    alpha: float
    losses: list[float] = field(default_factory=list)


def _fit_loss_and_grads(W, A, B, X, Y, alpha, r):
    n = X.shape[0]
    scale = alpha / r
    W_eff = W + scale * (B @ A)
    P = W_eff @ X.T - Y.T                       # [out, n]
    loss = float(np.sum(P * P) / n)
    G = (2.0 / n) * (P @ X)                      # dL/dW_eff, [out, in]
    gB = scale * (G @ A.T)
    gA = scale * (B.T @ G)
    return loss, gA, gB


def qalft_fit(w_q: QuantTensor, data, r: int, alpha: float, steps: int,
              learning_rate: float, seed: int = 0) -> LinearFit:
    """Fit a float low-rank delta over a frozen quantized [out, in] linear map.

    Full-batch gradient descent with analytic gradients and backtracking on
    the step size, minimizing mean squared error of (W + (alpha/r) B A) x vs y.
    The quantized encodings are never touched (and cannot be: frozen arrays
    reject writes). ``learning_rate`` must be positive and finite.
    """
    if not 0 < learning_rate < np.inf:
        raise ConfigError(f"learning_rate ({learning_rate}) must be positive and finite")
    if not w_q.frozen:
        raise FrozenEncodingError("qalft_fit requires a frozen quantized base")
    pairs = list(data)
    if not pairs:
        raise ValueError("data must be nonempty")
    X = np.stack([np.asarray(x, dtype=np.float64) for x, _ in pairs])
    Y = np.stack([np.asarray(y, dtype=np.float64) for _, y in pairs])
    W = w_q.dequantize().astype(np.float64)      # [out, in]
    out_dim, in_dim = W.shape
    if r > min(in_dim, out_dim):
        raise ConfigError(f"rank {r} exceeds map dims {W.shape}")

    rng = slot_rng(seed, "qalft.A")
    A = rng.normal(0, 0.02, (r, in_dim))
    B = np.zeros((out_dim, r))

    loss, gA, gB = _fit_loss_and_grads(W, A, B, X, Y, alpha, r)
    losses = [loss]
    lr = learning_rate
    for _ in range(steps):
        while True:
            A2, B2 = A - lr * gA, B - lr * gB
            new_loss, ngA, ngB = _fit_loss_and_grads(W, A2, B2, X, Y, alpha, r)
            if new_loss <= loss:
                break
            if lr < 1e-12:
                return LinearFit(A=A, B=B, r=r, alpha=alpha, losses=losses)
            lr *= 0.5
        A, B, loss, gA, gB = A2, B2, new_loss, ngA, ngB
        losses.append(loss)
        lr = min(lr * 1.05, learning_rate)  # creep back toward the requested rate
    return LinearFit(A=A, B=B, r=r, alpha=alpha, losses=losses)


def qalft_gradient_check(w_q: QuantTensor, data, r: int, alpha: float,
                         seed: int = 0, h: float = 1e-4) -> float:
    """Max relative error of analytic gradients vs central finite differences
    of step ``h``."""
    if not 0 < h < np.inf:
        raise ConfigError(f"h ({h}) must be positive and finite")
    pairs = list(data)
    X = np.stack([np.asarray(x, dtype=np.float64) for x, _ in pairs])
    Y = np.stack([np.asarray(y, dtype=np.float64) for _, y in pairs])
    W = w_q.dequantize().astype(np.float64)
    out_dim, in_dim = W.shape
    rng = np.random.default_rng(seed)
    A = rng.normal(0, 0.5, (r, in_dim))
    B = rng.normal(0, 0.5, (out_dim, r))
    _, gA, gB = _fit_loss_and_grads(W, A, B, X, Y, alpha, r)

    def loss_at(Ax, Bx):
        l, _, _ = _fit_loss_and_grads(W, Ax, Bx, X, Y, alpha, r)
        return l

    max_rel = 0.0
    for M, g in ((A, gA), (B, gB)):
        it = np.nditer(M, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = M[ix]
            M[ix] = orig + h
            lp = loss_at(A, B)
            M[ix] = orig - h
            lm = loss_at(A, B)
            M[ix] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(g[ix]), 1e-8)
            max_rel = max(max_rel, abs(fd - g[ix]) / denom)
    return max_rel


# --- adapter file format -----------------------------------------------------

_MAGIC = b"EDGELMA1"


def save_adapter(adapter: LoraAdapter, path):
    """JSON header + row-major little-endian float32 A/B blobs (the factors'
    values are float32, so this is exact)."""
    slots = []
    blobs = _manifest.Blobs()
    for slot in adapter.target_slots:
        a, b = adapter.A[slot], adapter.B[slot]
        slots.append({"slot": slot, "a_shape": list(a.shape),
                      "a_offset": blobs.add(np.ascontiguousarray(a, "<f4").tobytes())[0],
                      "b_shape": list(b.shape),
                      "b_offset": blobs.add(np.ascontiguousarray(b, "<f4").tobytes())[0]})
    _manifest.write(path, _MAGIC, {"name": adapter.name, "r": adapter.r,
                                   "alpha": adapter.alpha, "slots": slots}, blobs)


def load_adapter(path) -> LoraAdapter:
    """The adapter :func:`save_adapter` wrote, its factors cast to float64."""
    header, blobs = _manifest.read(path, _MAGIC)
    name, r, alpha, slots = _manifest.fields(header, "header", name=str, r=int,
                                             alpha=float, slots=list)
    if r < 1:
        raise ManifestError(f"adapter {name}: rank {r} must be >= 1")
    A, B = {}, {}
    for i, s in enumerate(slots):
        slot, a_shape, a_offset, b_shape, b_offset = _manifest.fields(
            s, f"slots[{i}]", slot=str, a_shape=list, a_offset=int, b_shape=list,
            b_offset=int)
        if slot in A:
            raise ManifestError(f"slot {slot} is listed twice")
        A[slot] = blobs.array("<f4", a_shape, a_offset).astype(np.float64)
        B[slot] = blobs.array("<f4", b_shape, b_offset).astype(np.float64)
        if A[slot].shape[:1] + B[slot].shape[1:] != (r, r) or A[slot].ndim != 2:
            raise ManifestError(f"slot {slot}: A {a_shape} and B {b_shape} are "
                                f"not [r, in] and [out, r] with r = {r}")
    return LoraAdapter(name=name, r=r, alpha=alpha, target_slots=tuple(A), A=A, B=B)
