"""The one binary envelope behind the model, quant and adapter files, and the
one reader of typed fields from JSON objects (headers, configs, policy specs).

Layout: ``magic (8 bytes) | header length (uint32 LE) | JSON header | blobs``.
Blob offsets in the header count from the start of the blob region. Reading
is bounds-checked, header fields are checked for presence and type, and every
failure raises :class:`ManifestError` (a config reader passes ``ConfigError``).
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import struct
import sys
import types
import typing

import numpy as np

from .errors import ConfigError, ManifestError

_HEADER_LEN = struct.Struct("<I")


class Blobs:
    """The blob region: appended to when writing, read back with bounds checks."""

    def __init__(self, data=None):
        self.data = bytearray() if data is None else data

    def add(self, raw: bytes) -> list[int]:
        """Append one blob and return its ``[offset, length]``."""
        loc = [len(self.data), len(raw)]
        self.data += raw
        return loc

    def array(self, dtype, shape, offset, length=None) -> np.ndarray:
        """Copy out the array of ``dtype`` and ``shape`` stored at ``offset``.

        ``length``, when the header records one, must equal the array's size.
        A float array must be finite.
        """
        if (not isinstance(shape, (list, tuple))
                or not all(type(n) is int and n >= 0 for n in shape)):
            raise ManifestError(f"bad blob shape {shape!r}")
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        size = dtype.itemsize * count
        if length is not None and length != size:
            raise ManifestError(f"blob length {length} != {size} bytes for shape {shape}")
        if type(offset) is not int or offset < 0 or offset + size > len(self.data):
            raise ManifestError(f"blob of {size} bytes at offset {offset!r} lies "
                                f"outside the {len(self.data)}-byte blob region")
        arr = np.frombuffer(self.data, dtype, count, offset).reshape(shape).copy()
        if dtype.kind == "f" and not np.isfinite(arr).all():
            raise ManifestError(f"blob at offset {offset} holds non-finite values")
        return arr


def write(path, magic: bytes, header: dict, blobs: Blobs):
    head = json.dumps(header).encode()
    with open(path, "wb") as f:
        f.write(magic)
        f.write(_HEADER_LEN.pack(len(head)))
        f.write(head)
        f.write(blobs.data)


def read(path, magic: bytes) -> tuple[dict, Blobs]:
    with open(path, "rb") as f:
        data = f.read()
    if data[:len(magic)] != magic:
        raise ManifestError(f"{path}: not a {magic.decode()} file")
    start = len(magic) + _HEADER_LEN.size
    if len(data) < start:
        raise ManifestError(f"{path}: truncated before the header length")
    end = start + _HEADER_LEN.unpack_from(data, len(magic))[0]
    if len(data) < end:
        raise ManifestError(f"{path}: truncated inside the header")
    try:
        header = json.loads(data[start:end])
    except ValueError as e:  # JSON or UTF-8 decoding
        raise ManifestError(f"{path}: unreadable header: {e}") from e
    if not isinstance(header, dict):
        raise ManifestError(f"{path}: header is not a JSON object")
    return header, Blobs(memoryview(data)[end:])


def _is(value, kind) -> bool:
    """Whether a JSON value has a field's kind. An int or float takes no bool
    and no value beyond the finite float range, an int no float either; a
    dataclass takes an object, ``tuple[k, ...]`` a list of k and ``k | None``
    also null."""
    if kind in (int, float):
        return type(value) in (int, kind) and abs(value) <= sys.float_info.max
    if isinstance(kind, type):
        return isinstance(value, dict if dataclasses.is_dataclass(kind) else kind)
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        return isinstance(value, list) and all(_is(v, args[0]) for v in value)
    return any(_is(value, k) for k in args)


def fields(obj, where: str, error=ManifestError, **kinds) -> list:
    """The values of the named fields of the JSON object ``obj``, in order;
    each must be present and of its kind (see :func:`_is`)."""
    if not isinstance(obj, dict):
        raise error(f"{where} is not a JSON object")
    for key, kind in kinds.items():
        if key not in obj:
            raise error(f"{where}: missing field {key!r}")
        if not _is(obj[key], kind):
            raise error(f"{where}: field {key!r} has the wrong type or value "
                        f"{obj[key]!r:.40}")
    return [obj[key] for key in kinds]


@functools.cache
def _hints(cls) -> types.MappingProxyType:
    """The annotated kind of each field of the dataclass ``cls``, resolved once."""
    return types.MappingProxyType(typing.get_type_hints(cls))


def dataclass_from(cls, obj, where: str, error=ManifestError, defaults=False):
    """``cls(**obj)`` for a JSON object whose keys are fields of the dataclass,
    each of its annotated kind (a list read as a tuple, an object under a
    dataclass kind as that dataclass) and within the range the dataclass
    accepts. With ``defaults`` an omitted field takes its default."""
    if not isinstance(obj, dict):
        raise error(f"{where} is not a JSON object")
    hints = _hints(cls)
    unknown = sorted(set(obj) - set(hints))
    if unknown:
        raise error(f"{where}: unknown fields {unknown}")
    kinds = {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.name in obj
             or not defaults or f.default is f.default_factory is dataclasses.MISSING}
    values = dict(zip(kinds, fields(obj, where, error, **kinds)))
    for key, value in values.items():
        if isinstance(value, list):
            values[key] = tuple(value)
        elif isinstance(value, dict) and dataclasses.is_dataclass(kinds[key]):
            values[key] = dataclass_from(kinds[key], value, f"{where}.{key}", error,
                                         defaults)
    try:
        return cls(**values)
    except ConfigError as e:
        raise error(f"{where}: {e}") from e
