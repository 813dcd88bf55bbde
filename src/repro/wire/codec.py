"""The payload codec for the wire layer: compact UTF-8 JSON.

A wire message body is one flat payload dict (plain strings, numbers, lists,
and dicts — see :mod:`repro.wire.messages`); this module turns that dict into
bytes and back.

Every encoded message starts with a one-byte codec id (see
:mod:`repro.net.frames` and the journal record format).  The only codec is
JSON, id ``0``; decoding rejects any other id, so a frame or journal record
that names something else fails loudly instead of being misread.  Encoding a
value JSON cannot represent raises :class:`WireEncodeError` rather than
shipping a lossy approximation — the wire schema is restricted to JSON-safe
scalars by design (fingerprints must agree across the wire).
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "WIRE_VERSION",
    "CODEC_JSON",
    "WireError",
    "WireEncodeError",
    "WireDecodeError",
    "SchemaVersionError",
    "encode_payload",
    "decode_payload",
]

#: The current wire schema version.  Every message payload carries it as
#: ``"v"``; decoding rejects any other value (rolling upgrades within one
#: version instead rely on unknown-field tolerance).
WIRE_VERSION = 1

#: The codec id byte every encoded message starts with.
CODEC_JSON = 0


class WireError(Exception):
    """Base class for every wire-layer failure."""


class WireEncodeError(WireError):
    """A value cannot be represented in the wire schema (not JSON-safe)."""


class WireDecodeError(WireError):
    """Received bytes do not decode to a valid wire payload."""


class SchemaVersionError(WireDecodeError):
    """The peer speaks a different wire schema version."""


def encode_payload(payload: dict[str, Any]) -> bytes:
    """Encode one payload dict as a JSON body (without the codec id byte)."""
    try:
        body = json.dumps(payload, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as error:
        raise WireEncodeError(f"payload is not JSON-serializable: {error}") from error
    return body.encode("utf-8")


def decode_payload(codec: int, body: bytes) -> dict[str, Any]:
    """Decode one body back into its payload dict; ``codec`` must be JSON."""
    if codec != CODEC_JSON:
        raise WireDecodeError(f"unknown codec id {codec}")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireDecodeError(f"invalid JSON body: {error}") from error
    if not isinstance(payload, dict):
        raise WireDecodeError(f"wire payload must be a dict, got {type(payload).__name__}")
    return payload
