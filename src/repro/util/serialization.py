"""Payload serialization with size accounting.

Globus Compute limits the size of serialized task arguments and results
(about 10 MB at the time of the paper). We model that limit: payloads are
serialized to a JSON-like canonical text, their size measured, and the FaaS
layer rejects oversized payloads with :class:`repro.errors.PayloadTooLarge`.

Only JSON-compatible data plus tuples/bytes are supported; remote functions
in this simulation exchange plain data, mirroring how CORRECT passes shell
commands in and stdout/stderr text out.
"""

from __future__ import annotations

import base64
import json
from json.encoder import encode_basestring_ascii
from typing import Any

# Matches Globus Compute's documented task/result payload ceiling.
DEFAULT_PAYLOAD_LIMIT = 10 * 1024 * 1024

_INF = float("inf")
_NEG_INF = float("-inf")


def _encode(value: Any) -> Any:
    """Pre-transform values json would mis-serialize (tuples become lists
    natively, so an encoder ``default`` hook never sees them)."""
    if isinstance(value, bytes):
        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(v) for v in value]}
    if isinstance(value, set):
        return {"__set__": [_encode(v) for v in sorted(value, key=repr)]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def _decode_hook(obj: dict) -> Any:
    if "__bytes__" in obj and len(obj) == 1:
        return base64.b64decode(obj["__bytes__"])
    if "__tuple__" in obj and len(obj) == 1:
        return tuple(obj["__tuple__"])
    if "__set__" in obj and len(obj) == 1:
        return set(obj["__set__"])
    return obj


# The C encoder ``json.dumps(value, sort_keys=True)`` renders through (same
# separators, ``sort_keys``, ``ensure_ascii`` and ``allow_nan``), built once:
# ``JSONEncoder.encode`` builds it and a closure on every call. It keeps no
# circular-reference markers: every caller hands it acyclic data (flat data,
# the fresh copy :func:`_encode` builds, ``json.loads`` output or a scalar),
# and a cyclic value recurses forever in :func:`_encode` before it gets here.
_encoder = json.encoder.c_make_encoder(
    None,  # markers: no circular-reference check
    json.JSONEncoder().default,  # raises TypeError for non-data objects
    encode_basestring_ascii,
    None,  # indent
    ": ",
    ", ",
    True,  # sort_keys
    False,  # skipkeys
    True,  # allow_nan
)


def _canonical_dumps(value: Any) -> str:
    """The text of ``json.dumps(value, sort_keys=True)``."""
    return "".join(_encoder(value, 0))  # the encoder returns chunks


_PLAIN_TYPES = (str, int, float, bool)


def _all_plain(values) -> bool:
    """Whether every value is ``None`` or a plain scalar: json renders
    such values identically with or without the encode walk."""
    for value in values:
        if value is not None and type(value) not in _PLAIN_TYPES:
            return False
    return True


def serialize(value: Any) -> str:
    """Serialize ``value`` to canonical text.

    Raises ``TypeError`` for objects that are not data (open handles, live
    simulation objects...) — remote task payloads must be plain data.
    A scalar, or a list or dict of plain scalars, skips the encode walk.
    """
    t = type(value)
    items = value if t is list else value.values() if t is dict else (value,)
    return _canonical_dumps(value if _all_plain(items) else _encode(value))


def deserialize(text: str) -> Any:
    """Inverse of :func:`serialize`."""
    return json.loads(text, object_hook=_decode_hook)


def serialize_call(args: tuple, kwargs: dict) -> str:
    """Canonical payload text for one function call.

    Byte-identical to ``serialize({"args": list(args), "kwargs":
    kwargs})``, but calls whose arguments are all plain scalars — the
    overwhelmingly common case — skip the recursive encode walk.
    """
    call = {"args": list(args), "kwargs": kwargs}
    if _all_plain(args) and _all_plain(kwargs.values()):
        return _canonical_dumps(call)
    return _canonical_dumps(_encode(call))


def serialized_size(value: Any) -> int:
    """Size in bytes of the serialized representation of ``value``."""
    # Scalars (the overwhelmingly common task result shape) need neither
    # the encode walk nor a json render: json writes finite floats and
    # ints via repr, booleans as true/false (same lengths as True/False),
    # and null for None.
    t = type(value)
    if t is float:
        if value == value and value not in (_INF, _NEG_INF):
            return len(repr(value))
        return len(_canonical_dumps(value))  # nan/inf render as NaN/Infinity
    if t is int or t is bool:
        return len(repr(value))
    if value is None:
        return 4
    # the canonical text is ASCII (``ensure_ascii``): one byte per character
    if t is str:
        return len(encode_basestring_ascii(value))
    return len(serialize(value))
