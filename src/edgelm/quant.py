"""Low-bit weight quantization, sparsification, and accounting metrics.

Symmetric codes live in [-qmax, qmax] (restricted range, exact sign symmetry);
asymmetric codes in [0, 2^b - 1] with an integer zero point. Rounding is
half-to-even throughout. Bits-per-weight is exact rational arithmetic over
code, scale, zero-point, and mask bits.
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import _manifest
from .errors import ConfigError, ManifestError, ShapeError, at_least
from .model import TinyLM, forward, read_slots

_ALLOWED_BITS = (2, 3, 4, 8)
_SCHEMES = ("symmetric", "asymmetric")


@dataclass(frozen=True)
class QuantSpec:
    bits: int = 4
    scheme: str = "symmetric"            # symmetric | asymmetric
    granularity: str = "per-group"       # per-tensor | per-row | per-group
    group_size: int = 128
    scale_bits: int = 16
    zero_point_bits: int = 16

    def __post_init__(self):
        if self.bits not in _ALLOWED_BITS:
            raise ConfigError(f"bits must be one of {_ALLOWED_BITS}")
        if self.scheme not in _SCHEMES:
            raise ConfigError("scheme must be symmetric or asymmetric")
        if self.granularity not in ("per-tensor", "per-row", "per-group"):
            raise ConfigError("granularity must be per-tensor, per-row, or per-group")
        at_least(1, group_size=self.group_size, scale_bits=self.scale_bits,
                 zero_point_bits=self.zero_point_bits)


@dataclass(frozen=True)
class Unstructured:
    keep_ratio: float

    def __post_init__(self):
        if not (0 < self.keep_ratio <= 1):
            raise ConfigError("keep_ratio must be in (0, 1]")

    def kept(self, total: int) -> int:
        # exact over the ratio as written: in floats 0.07 * 100 is 7.000000000000001
        return math.ceil(Fraction(str(float(self.keep_ratio))) * total)

    def mask_bits_per_weight(self) -> Fraction:
        return Fraction(1)


@dataclass(frozen=True)
class Structured:
    n: int
    m: int

    def __post_init__(self):
        if not (1 <= self.n <= self.m):
            raise ConfigError("need 1 <= n <= m")

    def kept(self, total: int) -> int:
        return total * self.n // self.m

    def mask_bits_per_weight(self) -> Fraction:
        return Fraction(math.ceil(math.log2(math.comb(self.m, self.n))), self.m)


SparsitySpec = Union[Unstructured, Structured]


class QuantTensor:
    """Bit-coded weight tensor: exactly the encodings its manifest stores.

    The tensor's shape is ``codes.shape``; each element's group follows from
    the shape and spec (:attr:`group_index`). :meth:`dequantize` decodes on
    every call; a model keeps the one dense copy (:meth:`TinyLM.plan`).
    Freezing makes every encoding array read-only.
    """

    def __init__(self, codes: np.ndarray, scales: np.ndarray,
                 zero_points: Optional[np.ndarray], spec: QuantSpec,
                 mask: Optional[np.ndarray] = None, frozen: bool = False):
        self.codes = np.asarray(codes, dtype=np.int32)
        self.scales = np.asarray(scales, dtype=np.float64)
        self.zero_points = None if zero_points is None else np.asarray(
            zero_points, dtype=np.int32)
        self.spec = spec
        self.mask = None if mask is None else np.asarray(mask, dtype=bool)
        if self.mask is not None and self.mask.shape != self.codes.shape:
            raise ShapeError(f"mask shape {self.mask.shape} != codes shape "
                             f"{self.codes.shape}")
        self.frozen = False
        if frozen:
            self.freeze()

    @property
    def shape(self) -> tuple:
        return self.codes.shape

    @property
    def group_index(self) -> np.ndarray:
        """Group of each element of the flattened tensor (shared, read-only)."""
        return _group_index(self.shape, self.spec)[0]

    def freeze(self):
        for arr in (self.codes, self.scales, self.zero_points, self.mask):
            if arr is not None:
                arr.setflags(write=False)
        self.frozen = True

    def dequantize(self) -> np.ndarray:
        """A new float32 array of the decoded (and masked) weights: each code,
        less its group's zero point, times its group's scale (in float64)."""
        group_index = self.group_index
        deq = self.codes.ravel().astype(np.float64)
        if self.zero_points is not None:
            deq = deq - self.zero_points[group_index]
        deq = (deq * self.scales[group_index]).reshape(self.shape)
        if self.mask is not None:
            deq = deq * self.mask
        return deq.astype(np.float32)

    def encoding_bytes(self) -> bytes:
        parts = [self.codes.astype("<i4").tobytes(),
                 self.scales.astype("<f8").tobytes()]
        if self.zero_points is not None:
            parts.append(self.zero_points.astype("<i4").tobytes())
        if self.mask is not None:
            parts.append(np.packbits(self.mask.ravel()).tobytes())
        return b"".join(parts)


@functools.cache
def _group_index(shape: tuple, spec: QuantSpec) -> tuple[np.ndarray, int]:
    """Quantization group of each element of the flattened (row-major) tensor,
    read-only and shared by every caller with the same shape and spec, and
    the number of groups. Groups tile each row from the left, so a row's last
    group may be narrower than the group size."""
    total = int(np.prod(shape))
    per_tensor = spec.granularity == "per-tensor" or len(shape) < 2
    rowlen = total if per_tensor else shape[-1]
    width = spec.group_size if spec.granularity == "per-group" else rowlen
    if width > rowlen:
        raise ConfigError(f"group size {width} exceeds row length {rowlen}")
    per_row = -(-rowlen // width)
    index = (np.arange(total // rowlen)[:, None] * per_row
             + np.arange(rowlen) // width).ravel()
    index.setflags(write=False)
    return index, total // rowlen * per_row


def _checked_scales(scales: np.ndarray) -> np.ndarray:
    """The scales, if each is positive and finite: a group's range can
    underflow to a zero scale or overflow to an infinite one."""
    if not ((scales > 0) & (scales < np.inf)).all():
        raise ShapeError("a group's range underflows or overflows its scale")
    return scales


def _encode(flat: np.ndarray, group_index: np.ndarray, bits: int, scheme: str):
    """(codes, scales, zero points or None) of a flat float64 array, one scale
    per group; codes and zero points are integer-valued floats."""
    if not np.isfinite(flat).all():
        raise ShapeError("cannot quantize non-finite values")
    starts = np.flatnonzero(np.diff(group_index, prepend=-1))
    if scheme == "symmetric":
        qmax = 2 ** (bits - 1) - 1
        amax = np.maximum.reduceat(np.abs(flat), starts)
        scales = _checked_scales(np.where(amax > 0, amax / qmax, 1.0))
        return np.clip(np.rint(flat / scales[group_index]), -qmax, qmax), scales, None
    hi = 2 ** bits - 1
    mn = np.minimum.reduceat(flat, starts)
    mx = np.maximum.reduceat(flat, starts)
    spread = mx > mn
    # a constant group c stores scale |c| (1 when c = 0) and a code that
    # decodes to c exactly: 1 with zero point 0 for c > 0, 0 with zero point 1
    # for c < 0, and c itself (a signed zero) for c = 0
    with np.errstate(over="ignore"):      # an infinite scale is rejected below
        scales = np.where(spread, (mx - mn) / hi, np.where(mn == 0, 1.0, np.abs(mn)))
    scales = _checked_scales(scales)
    zps = np.where(spread, np.rint(-mn / scales), mn < 0)
    codes = np.where(spread[group_index],
                     np.clip(np.rint(flat / scales[group_index]) + zps[group_index],
                             0, hi),
                     np.heaviside(flat, flat))
    return codes, scales, zps


def quantize(tensor: np.ndarray, spec: QuantSpec,
             mask: Optional[np.ndarray] = None) -> QuantTensor:
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.size == 0:
        raise ShapeError("cannot quantize an empty tensor")
    group_index, _ = _group_index(tensor.shape, spec)
    codes, scales, zps = _encode(tensor.ravel(), group_index, spec.bits, spec.scheme)
    if zps is not None and not ((zps >= -2**31) & (zps < 2**31)).all():
        raise ShapeError("a zero point falls outside int32: a group's range is too "
                         "narrow for its distance from zero")
    return QuantTensor(codes=codes.reshape(tensor.shape), scales=scales,
                       zero_points=zps, spec=spec, mask=mask)


def sparsify(tensor: np.ndarray, spec: SparsitySpec
             ) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude pruning; ties keep the lower index. Returns (pruned, mask)."""
    tensor = np.asarray(tensor, dtype=np.float64)
    mask = np.zeros(tensor.shape, dtype=bool)
    if isinstance(spec, Unstructured):
        blocks, keep = tensor.reshape(1, -1), spec.kept(tensor.size)
    else:
        rowlen = tensor.shape[-1] if tensor.ndim > 1 else tensor.size
        if rowlen % spec.m != 0:
            raise ShapeError(f"row length {rowlen} not divisible by m={spec.m}")
        blocks, keep = tensor.reshape(-1, spec.m), spec.n
    order = np.argsort(-np.abs(blocks), axis=1, kind="stable")
    np.put_along_axis(mask.reshape(blocks.shape), order[:, :keep], True, axis=1)
    return (tensor * mask).astype(tensor.dtype), mask


def _tensor_bits(shape: tuple, qspec: QuantSpec,
                 sparsity: Optional[SparsitySpec] = None,
                 mask: Optional[np.ndarray] = None) -> Fraction:
    """Code bits of the stored weights, per-group scale (and zero-point) bits,
    and mask bits over every weight. A stored mask counts what it keeps, at 1
    bit per weight unless a declared scheme encodes it more compactly."""
    total = int(np.prod(shape))
    stored = total if sparsity is None else sparsity.kept(total)
    if mask is not None:
        stored = int(mask.sum())
    mask_bpw = (Fraction(int(mask is not None)) if sparsity is None
                else sparsity.mask_bits_per_weight())
    n_groups = _group_index(shape, qspec)[1]
    group_bits = qspec.scale_bits
    if qspec.scheme == "asymmetric":
        group_bits += qspec.zero_point_bits
    return Fraction(stored * qspec.bits + n_groups * group_bits) + mask_bpw * total


def bpw_exact(qt: QuantTensor,
              sparsity: Optional[SparsitySpec] = None) -> Fraction:
    return _tensor_bits(qt.shape, qt.spec, sparsity, qt.mask) / qt.codes.size


@dataclass
class PrecisionPlan:
    specs: dict[str, QuantSpec]
    sparsity: dict[str, SparsitySpec] = field(default_factory=dict)

    def validate_for(self, model: TinyLM):
        slots = set(model.config.slot_shapes())
        missing = slots - set(self.specs)
        extra = set(self.specs) - slots
        if missing:
            raise ConfigError(f"plan missing slots: {sorted(missing)}")
        if extra:
            raise ConfigError(f"plan has unknown slots: {sorted(extra)}")


def uniform_plan(model: TinyLM, bits: int, scheme: str = "symmetric",
                 group_size: int = 128) -> PrecisionPlan:
    """Per-group specs for matrices, per-tensor for 1-D norm scales."""
    specs = {}
    for name, shape in model.config.slot_shapes().items():
        if len(shape) > 1 and shape[-1] >= group_size:
            specs[name] = QuantSpec(bits=bits, scheme=scheme,
                                    granularity="per-group", group_size=group_size)
        else:
            specs[name] = QuantSpec(bits=bits, scheme=scheme, granularity="per-tensor")
    return PrecisionPlan(specs=specs)


def plan_bpw_exact(model: TinyLM, plan: PrecisionPlan) -> Fraction:
    shapes = model.config.slot_shapes()
    total_bits = sum(_tensor_bits(shape, plan.specs[name], plan.sparsity.get(name))
                     for name, shape in shapes.items())
    return total_bits / sum(int(np.prod(shape)) for shape in shapes.values())


def plan_bpw(model: TinyLM, plan: PrecisionPlan) -> float:
    return float(plan_bpw_exact(model, plan))


def ptq_model(model: TinyLM, plan: PrecisionPlan, freeze: bool = False) -> TinyLM:
    """Replace every weight with a QuantTensor per its plan entry."""
    plan.validate_for(model)
    weights = {}
    for name in model.config.slot_shapes():
        w = np.asarray(model.weight(name), dtype=np.float64)
        sspec = plan.sparsity.get(name)
        mask = None
        if sspec is not None:
            w, mask = sparsify(w, sspec)
        qt = quantize(w, plan.specs[name], mask=mask)
        if freeze:
            qt.freeze()
        weights[name] = qt
    return TinyLM(config=model.config, weights=weights)


def _argmaxes(model: TinyLM, sequences) -> list[np.ndarray]:
    return [np.argmax(forward(model, seq).logits, axis=-1) for seq in sequences]


def _agreement(model: TinyLM, sequences, ref_preds) -> float:
    """Teacher-forced share of positions where the model's argmax equals the
    reference argmaxes ``ref_preds`` (one array per sequence)."""
    agree = sum(int(np.sum(preds == ref))
                for preds, ref in zip(_argmaxes(model, sequences), ref_preds))
    return agree / sum(len(seq) for seq in sequences)


def top1_overlap(model_a: TinyLM, model_b: TinyLM, sequences) -> float:
    """Teacher-forced argmax agreement over the supplied token sequences."""
    sequences = [seq for seq in map(list, sequences) if seq]
    if not sequences:
        raise ValueError("top1_overlap needs at least one scoreable position")
    return _agreement(model_b, sequences, _argmaxes(model_a, sequences))


_LADDER = (8, 4, 3, 2)


def assign_precision(model: TinyLM, calibration, bpw_budget: float,
                     scheme: str = "symmetric", group_size: int = 128
                     ) -> PrecisionPlan:
    """Greedy sensitivity-based mixed-precision assignment.

    Start all slots at 8 bits; repeatedly demote the slot whose one-step
    reduction costs the least Top-1 overlap on the calibration set, until the
    model bpw meets the budget; then promote back any slot that fits.
    """
    calibration = [list(s) for s in calibration]
    if not calibration:
        raise ValueError("calibration set must be nonempty")
    base = uniform_plan(model, 8, scheme=scheme, group_size=group_size).specs
    slots = list(base)

    def make_plan(levels: dict[str, int]) -> PrecisionPlan:
        return PrecisionPlan(specs={s: replace(base[s], bits=levels[s]) for s in slots})

    def fits(levels: dict[str, int]) -> bool:
        return plan_bpw(model, make_plan(levels)) <= bpw_budget

    lo = plan_bpw(model, make_plan(dict.fromkeys(slots, 2)))
    if not bpw_budget >= lo:  # a NaN budget fails here too
        raise ConfigError(f"budget {bpw_budget} below minimum achievable {lo}")

    ref_preds = _argmaxes(model, calibration)

    @functools.cache
    def quantized_slot(name: str, bits: int) -> QuantTensor:
        return quantize(np.asarray(model.weight(name), dtype=np.float64),
                        replace(base[name], bits=bits))

    # one trial model: a trial rebinds the slot it moves, then rebinds it
    # back, so each forward's plan converts only that slot's group again
    trial_model = TinyLM(config=model.config, weights={})

    def best_step(levels: dict[str, int], step: int):
        """Levels with the one-rung move (+1 demotes, -1 promotes within the
        budget) that keeps the most overlap, first slot on ties; None if none."""
        trial_model.weights.update((s, quantized_slot(s, levels[s])) for s in slots)
        best, best_ov = None, None
        for s in slots:
            i = _LADDER.index(levels[s]) + step
            if not 0 <= i < len(_LADDER):
                continue
            trial = {**levels, s: _LADDER[i]}
            if step < 0 and not fits(trial):
                continue
            trial_model.weights[s] = quantized_slot(s, trial[s])
            ov = _agreement(trial_model, calibration, ref_preds)
            trial_model.weights[s] = quantized_slot(s, levels[s])
            if best is None or ov > best_ov:
                best, best_ov = trial, ov
        return best

    # every slot at 2 bits fits (checked above), so demotion always finds a move
    levels = dict.fromkeys(slots, 8)
    while not fits(levels):
        levels = best_step(levels, +1)
    # local maximality: promote back anything that still fits the budget
    while (promoted := best_step(levels, -1)) is not None:
        levels = promoted
    return make_plan(levels)


# --- packed manifest ----------------------------------------------------------

_MAGIC = b"EDGELMQ1"


def pack_bits(values: np.ndarray, bits: int) -> bytes:
    """LSB-first bit packing of ints in [0, 2**bits), little-endian byte
    order; any other value is a ValueError."""
    values = np.asarray(values).ravel()
    if values.size and not 0 <= values.min() <= values.max() < 2 ** bits:
        raise ValueError(f"values in [{values.min()}, {values.max()}] do not fit "
                         f"{bits} unsigned bits")
    planes = np.unpackbits(values.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1,
                           count=bits, bitorder="little")
    return np.packbits(planes, bitorder="little").tobytes()


def unpack_bits(data: bytes, bits: int, count: int) -> np.ndarray:
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.size * 8 < count * bits:
        raise ShapeError(f"{buf.size} bytes cannot hold {count} {bits}-bit values")
    planes = np.unpackbits(buf, count=count * bits, bitorder="little")
    return planes.reshape(count, bits).astype(np.int64) @ (1 << np.arange(bits))


def save_quant_model(model: TinyLM, path):
    """Quantized manifest: per-slot spec, packed codes, scales, zero points."""
    header_slots = []
    blobs = _manifest.Blobs()
    for name in sorted(model.weights):
        qt = model.weights[name]
        if not isinstance(qt, QuantTensor):
            raise ValueError(f"slot {name} is not quantized")
        qmax = 2 ** (qt.spec.bits - 1) - 1
        raw = qt.codes.ravel().astype(np.int64)
        if qt.spec.scheme == "symmetric":
            raw = raw + qmax  # shift to nonnegative for packing
        codes = pack_bits(raw, qt.spec.bits)
        if qt.spec.scheme == "symmetric" and raw.size and raw.max() > 2 * qmax:
            # 2**bits - 1 fits the width but is qmax + 1
            raise ValueError(f"slot {name}: symmetric code {int(raw.max()) - qmax} is "
                             f"outside [-{qmax}, {qmax}]")
        entry = {
            "name": name, "shape": list(qt.shape), "frozen": qt.frozen,
            "spec": asdict(qt.spec), "codes": blobs.add(codes),
            "scales": blobs.add(np.asarray(qt.scales, dtype="<f8").tobytes()),
        }
        if qt.zero_points is not None:
            entry["zero_points"] = blobs.add(
                np.asarray(qt.zero_points, dtype="<i4").tobytes())
        if qt.mask is not None:
            entry["mask"] = blobs.add(np.packbits(qt.mask.ravel()).tobytes())
        header_slots.append(entry)
    _manifest.write(path, _MAGIC, {"config": model.config.to_dict(),
                                   "slots": header_slots}, blobs)


def _blob(blobs: _manifest.Blobs, entry: dict, key: str, dtype, shape) -> np.ndarray:
    """The array a slot entry locates with an ``[offset, length]`` pair."""
    at, = _manifest.fields(entry, f"slot {entry['name']}", **{key: list})
    if len(at) != 2:
        raise ManifestError(f"slot {entry['name']}: field {key!r} is not an "
                            "[offset, length] pair")
    return blobs.array(dtype, shape, *at)


def load_quant_model(path) -> TinyLM:
    header, blobs = _manifest.read(path, _MAGIC)
    config, slots = read_slots(header, frozen=bool, spec=dict)
    weights = {}
    for entry in slots:
        spec = _manifest.dataclass_from(QuantSpec, entry["spec"],
                                        f"slot {entry['name']} spec")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape))
        try:
            n_groups = _group_index(shape, spec)[1]
        except ConfigError as e:
            raise ManifestError(f"slot {entry['name']} spec: {e}") from e
        packed = _blob(blobs, entry, "codes", np.uint8, [(count * spec.bits + 7) // 8])
        codes = unpack_bits(packed, spec.bits, count)
        if spec.scheme == "symmetric":
            qmax = 2 ** (spec.bits - 1) - 1
            codes = codes - qmax
            if codes.max() > qmax:
                raise ManifestError(f"slot {entry['name']}: symmetric code "
                                    f"{int(codes.max())} exceeds qmax {qmax}")
        scales = _blob(blobs, entry, "scales", "<f8", [n_groups])
        if not (scales > 0).all():
            raise ManifestError(f"slot {entry['name']}: scales must be positive")
        zps = None
        if spec.scheme == "asymmetric":
            zps = _blob(blobs, entry, "zero_points", "<i4", [n_groups])
        mask = None
        if "mask" in entry:
            packed = _blob(blobs, entry, "mask", np.uint8, [(count + 7) // 8])
            mask = np.unpackbits(packed, count=count).astype(bool).reshape(shape)
        weights[entry["name"]] = QuantTensor(
            codes=codes.reshape(shape), scales=scales, zero_points=zps,
            spec=spec, mask=mask, frozen=entry["frozen"])
    return TinyLM(config=config, weights=weights)
