"""The one binary envelope behind the model, quant and adapter files.

Layout: ``magic (8 bytes) | header length (uint32 LE) | JSON header | blobs``.
Blob offsets in the header count from the start of the blob region. Reading
is bounds-checked, header fields are checked for presence and type, and every
failure raises :class:`ManifestError`.
"""
from __future__ import annotations

import dataclasses
import json
import math
import struct

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


def fields(obj, where: str, **kinds) -> list:
    """The values of the named fields of the header object ``obj``, in order;
    each must be present and an instance of its kind."""
    if not isinstance(obj, dict):
        raise ManifestError(f"{where} is not a JSON object")
    for key, kind in kinds.items():
        if key not in obj:
            raise ManifestError(f"{where}: missing field {key!r}")
        if not isinstance(obj[key], kind):
            raise ManifestError(f"{where}: field {key!r} has the wrong type "
                                f"{type(obj[key]).__name__}")
    return [obj[key] for key in kinds]


def dataclass_from(cls, obj, where: str):
    """``cls(**obj)`` for a header object with exactly the dataclass's fields,
    each of its default's type (an int passes for a float) and within the
    range the dataclass accepts."""
    kinds = {f.name: (int, float) if type(f.default) is float else type(f.default)
             for f in dataclasses.fields(cls)}
    values = fields(obj, where, **kinds)
    unknown = sorted(set(obj) - set(kinds))
    if unknown:
        raise ManifestError(f"{where}: unknown fields {unknown}")
    try:
        return cls(**dict(zip(kinds, values)))
    except ConfigError as e:
        raise ManifestError(f"{where}: {e}") from e
