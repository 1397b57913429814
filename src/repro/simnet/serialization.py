"""Byte-size accounting for remoted API payloads.

The simulator never pickles anything across its in-process "network" — it
only needs to know *how many bytes* a message would occupy on the wire so
the NIC model can charge serialization time.  ``payload_size`` estimates
that from the Python value, mirroring a compact binary RPC encoding
(fixed-width scalars, length-prefixed buffers).
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["payload_size", "MESSAGE_HEADER_BYTES"]

#: Per-message framing overhead: message id, kind, method id, lengths.
MESSAGE_HEADER_BYTES = 64

_SCALAR_BYTES = 8
_CONTAINER_OVERHEAD = 8  # length prefix
#: size of each exact built-in scalar type, ``None`` included
_FIXED_SIZES = {int: _SCALAR_BYTES, float: _SCALAR_BYTES, bool: _SCALAR_BYTES,
                type(None): 1}


def payload_size(value: Any) -> int:
    """Estimated on-the-wire size of ``value`` in bytes (excl. header).

    Numpy arrays count their buffer size; containers add a length prefix
    and sum their elements; scalars are fixed-width.  Unknown objects that
    declare ``wire_size`` (e.g. protocol messages) are asked directly.

    The exact built-in types every remoted call carries (scalars, ``None``,
    ASCII ``str``, tuples and lists) are matched by ``type`` first, and
    scalars inside a tuple or list are summed in place rather than by a
    recursive call; subclasses and every other value take the
    ``isinstance`` chain.
    """
    cls = type(value)
    fixed = _FIXED_SIZES.get(cls)
    if fixed is not None:
        return fixed
    if cls is str and value.isascii():
        return _CONTAINER_OVERHEAD + len(value)
    if cls is tuple or cls is list:
        size = _CONTAINER_OVERHEAD
        for item in value:
            size += _FIXED_SIZES.get(type(item)) or payload_size(item)
        return size
    if isinstance(value, (bool, int, float)):
        return _SCALAR_BYTES
    if isinstance(value, str):
        return _CONTAINER_OVERHEAD + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return _CONTAINER_OVERHEAD + len(value)
    if isinstance(value, np.ndarray):
        return _CONTAINER_OVERHEAD + int(value.nbytes)
    if isinstance(value, np.generic):
        return _SCALAR_BYTES
    if isinstance(value, dict):
        return _CONTAINER_OVERHEAD + sum(
            payload_size(k) + payload_size(v) for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return _CONTAINER_OVERHEAD + sum(payload_size(v) for v in value)
    wire = getattr(value, "wire_size", None)
    if wire is not None:
        return int(wire() if callable(wire) else wire)
    # Conservative default for opaque handles and small structs.
    return 32
