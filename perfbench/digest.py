"""Structural digests of benchmark outputs.

A digest walks a value through its dataclass fields, containers and
ndarray bytes, so a new field, a changed dtype or a flipped bit all
change it.  Types it does not know raise ``TypeError`` instead of being
skipped: a result that grows a field of a new type must be taught to the
digest before the benchmark passes again.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from collections.abc import Mapping

import numpy as np


def digest(value) -> str:
    """Hex digest (16 characters) of ``value``'s full structure."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()[:16]


def _tag(h, tag: bytes, payload: bytes = b"") -> None:
    h.update(tag)
    h.update(struct.pack("<Q", len(payload)))
    h.update(payload)


def _feed(h, value) -> None:
    if value is None:
        _tag(h, b"N")
    elif isinstance(value, bool):
        _tag(h, b"B", b"1" if value else b"0")
    elif isinstance(value, int):
        _tag(h, b"I", str(value).encode())
    elif isinstance(value, float):
        _tag(h, b"F", struct.pack("<d", value))
    elif isinstance(value, str):
        _tag(h, b"S", value.encode())
    elif isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            raise TypeError("digest: object arrays are not supported")
        _tag(h, b"A", f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, np.generic):
        _feed(h, np.asarray(value))
    elif isinstance(value, (list, tuple)):
        _tag(h, b"L" if isinstance(value, list) else b"T", str(len(value)).encode())
        for item in value:
            _feed(h, item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        _tag(h, b"C", type(value).__qualname__.encode())
        for field in dataclasses.fields(value):
            _tag(h, b"f", field.name.encode())
            _feed(h, getattr(value, field.name))
    elif isinstance(value, Mapping):
        # dicts keep insertion order (it is part of the result); other
        # mappings (VariantSpec) are fed by their canonical item order.
        items = value.items() if isinstance(value, dict) else sorted(value.items())
        _tag(h, b"D" if isinstance(value, dict) else b"M", type(value).__qualname__.encode())
        for key, item in items:
            _feed(h, key)
            _feed(h, item)
    else:
        raise TypeError(f"digest: unsupported type {type(value).__qualname__}")
