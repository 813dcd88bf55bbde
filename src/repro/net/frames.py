"""Length-prefixed message framing over sockets (async and blocking).

One frame is::

    +----------------+-------------+------------------+
    | length (4B BE) | codec (1B)  | payload bytes    |
    +----------------+-------------+------------------+

where ``length`` counts the codec byte plus the payload — exactly the bytes
:meth:`~repro.wire.messages.WireMessage.to_wire` produces.  The codec byte is
always ``0`` (JSON, see :mod:`repro.wire.codec`); there is no per-connection
negotiation and no handshake, so the first frame on a connection is already a
request.  Frames are read
one at a time per connection; a peer that wants pipelining opens more
connections (that per-connection serialisation is the transport's natural
backpressure: a slow consumer stops reading and TCP stops the producer).

Both an asyncio flavour (:func:`read_frame` / :func:`write_frame`, used by
the servers) and a blocking flavour (:func:`recv_frame` / :func:`send_frame`,
used by the coordinator-side shard handles and :class:`~repro.net.client.ClusterClient`)
are provided; they are wire-compatible by construction.

:class:`NetInstruments` owns the ``repro_net_*`` metric families — frames and
bytes by direction, open connections, and deadline expirations — labeled by
``role`` (``gateway``, ``shard``, ``coordinator``, ``client``) so one shared
registry can tell the tiers apart.
"""

from __future__ import annotations

import asyncio
import socket

from repro.metrics import MetricsRegistry, default_registry
from repro.wire.codec import WireDecodeError, WireEncodeError
from repro.wire.messages import WireMessage, message_from_wire

__all__ = [
    "MAX_FRAME_BYTES",
    "NetInstruments",
    "pack_frame",
    "pack_frame_into",
    "read_frame",
    "write_frame",
    "recv_frame",
    "send_frame",
]

#: Hard cap on one frame's body; a peer announcing more is treated as corrupt
#: (a length prefix of garbage bytes must not trigger a giant allocation).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH_BYTES = 4


class NetInstruments:
    """The ``repro_net_*`` metric families, bound to one transport role."""

    def __init__(self, metrics: MetricsRegistry | None = None, role: str = "client") -> None:
        metrics = metrics if metrics is not None else default_registry()
        self.role = role
        self._frames = metrics.counter(
            "repro_net_frames_total",
            "Wire frames by transport role and direction.",
            labels=("role", "direction"),
        )
        self._bytes = metrics.counter(
            "repro_net_bytes_total",
            "Wire bytes (including frame headers) by role and direction.",
            labels=("role", "direction"),
        )
        self._connections = metrics.gauge(
            "repro_net_connections", "Open transport connections per role.", labels=("role",)
        )
        self._deadlines = metrics.counter(
            "repro_net_deadline_expirations_total",
            "Requests that hit their deadline before being served.",
            labels=("role", "phase"),
        )
        self._coalesced = metrics.counter(
            "repro_net_coalesced_batches_total",
            "Cross-connection micro-batches admitted in one coordinator pass.",
            labels=("role",),
        )
        self._coalesced_submits = metrics.counter(
            "repro_net_coalesced_submits_total",
            "Submissions that rode inside a coalesced micro-batch.",
            labels=("role",),
        )
        self._deduped = metrics.counter(
            "repro_net_payloads_deduped_total",
            "Graph payloads elided from the wire by fingerprint negotiation.",
            labels=("role",),
        )
        self._uploads = metrics.counter(
            "repro_net_graph_uploads_total",
            "Full graph payloads shipped over the wire (first sight or re-upload).",
            labels=("role",),
        )
        self._need_graph = metrics.counter(
            "repro_net_need_graph_total",
            "need-graph round trips (a fingerprint missed the peer's cache).",
            labels=("role",),
        )
        self._open = 0

    def frame_sent(self, nbytes: int) -> None:
        self._frames.labels(role=self.role, direction="sent").inc()
        self._bytes.labels(role=self.role, direction="sent").inc(nbytes)

    def frame_received(self, nbytes: int) -> None:
        self._frames.labels(role=self.role, direction="received").inc()
        self._bytes.labels(role=self.role, direction="received").inc(nbytes)

    def connection_opened(self) -> None:
        self._open += 1
        self._connections.labels(role=self.role).set(self._open)

    def connection_closed(self) -> None:
        self._open = max(0, self._open - 1)
        self._connections.labels(role=self.role).set(self._open)

    def deadline_expired(self, phase: str) -> None:
        self._deadlines.labels(role=self.role, phase=phase).inc()

    def coalesced_batch(self, size: int) -> None:
        self._coalesced.labels(role=self.role).inc()
        self._coalesced_submits.labels(role=self.role).inc(size)

    def payload_deduped(self) -> None:
        self._deduped.labels(role=self.role).inc()

    def graph_uploaded(self, count: int = 1) -> None:
        self._uploads.labels(role=self.role).inc(count)

    def need_graph(self) -> None:
        self._need_graph.labels(role=self.role).inc()


def pack_frame(message: WireMessage) -> bytes:
    """One message as a complete frame (header + codec byte + payload)."""
    data = message.to_wire()
    if len(data) > MAX_FRAME_BYTES:
        raise WireEncodeError(f"frame of {len(data)} bytes exceeds MAX_FRAME_BYTES")
    return len(data).to_bytes(_LENGTH_BYTES, "big") + data


def pack_frame_into(buffer: bytearray, message: WireMessage) -> memoryview:
    """Encode one frame into a caller-owned reusable buffer.

    Clears ``buffer``, encodes the frame into it, and returns a memoryview of
    the encoded bytes — a hot sender (the coordinator-side shard handle ships
    one frame per queue slice) reuses one buffer across calls instead of
    allocating a fresh ``bytes`` per frame.  The view is valid until the next
    call with the same buffer.
    """
    data = message.to_wire()
    if len(data) > MAX_FRAME_BYTES:
        raise WireEncodeError(f"frame of {len(data)} bytes exceeds MAX_FRAME_BYTES")
    buffer.clear()
    buffer += len(data).to_bytes(_LENGTH_BYTES, "big")
    buffer += data
    return memoryview(buffer)


def _check_length(length: int) -> None:
    if length == 0:
        raise WireDecodeError("zero-length frame")
    if length > MAX_FRAME_BYTES:
        raise WireDecodeError(f"peer announced a {length}-byte frame; refusing")


# -- asyncio flavour ---------------------------------------------------------------


async def write_frame(
    writer: asyncio.StreamWriter,
    message: WireMessage,
    instruments: NetInstruments | None = None,
) -> None:
    """Send one message and drain (the drain is the backpressure point)."""
    frame = pack_frame(message)
    writer.write(frame)
    await writer.drain()
    if instruments is not None:
        instruments.frame_sent(len(frame))


async def read_frame(
    reader: asyncio.StreamReader, instruments: NetInstruments | None = None
) -> WireMessage | None:
    """Read one message; ``None`` on clean EOF (peer closed between frames)."""
    try:
        header = await reader.readexactly(_LENGTH_BYTES)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise WireDecodeError("connection closed mid frame header") from error
    length = int.from_bytes(header, "big")
    _check_length(length)
    try:
        data = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise WireDecodeError("connection closed mid frame body") from error
    if instruments is not None:
        instruments.frame_received(_LENGTH_BYTES + length)
    return message_from_wire(data)


# -- blocking flavour --------------------------------------------------------------


def send_frame(
    sock: socket.socket,
    message: WireMessage,
    instruments: NetInstruments | None = None,
) -> None:
    """Blocking counterpart of :func:`write_frame`."""
    frame = pack_frame(message)
    sock.sendall(frame)
    if instruments is not None:
        instruments.frame_sent(len(frame))


def _recv_exact(sock: socket.socket, length: int) -> bytes | None:
    """Exactly ``length`` bytes, or ``None`` on EOF before the first byte."""
    chunks: list[bytes] = []
    remaining = length
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if not chunks:
                return None
            raise WireDecodeError("connection closed mid frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, instruments: NetInstruments | None = None
) -> WireMessage | None:
    """Blocking counterpart of :func:`read_frame` (``None`` on clean EOF)."""
    header = _recv_exact(sock, _LENGTH_BYTES)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    _check_length(length)
    data = _recv_exact(sock, length)
    if data is None:
        raise WireDecodeError("connection closed mid frame body")
    if instruments is not None:
        instruments.frame_received(_LENGTH_BYTES + length)
    return message_from_wire(data)
