"""A shard as a real server process: asyncio frames around a :class:`ShardWorker`.

The in-process cluster keeps every shard in the coordinator's interpreter;
this module promotes one shard to its own **spawned** process running an
asyncio frame server.  The division of labour is unchanged — placement,
admission, and planning stay coordinator-side; the shard owns its service,
artifact cache, and metrics — but the :class:`~repro.cluster.ShardQuery`
hand-off now crosses the wire as a
:class:`~repro.wire.messages.ShardProcessRequest`.

Three pieces:

* :class:`ShardServerConfig` — everything the child needs, picklable for the
  ``spawn`` start method (``fork`` is unsafe here: the parent holds live
  thread pools).
* :func:`serve_shard` / ``_shard_server_main`` — the child entrypoint: build
  the worker, bind (unix socket or TCP port 0), report the actual bound
  address through the ready pipe, serve until :class:`~repro.wire.messages.Shutdown`.
* :class:`RemoteShard` — the coordinator-side handle with the same
  ``process`` / ``as_row`` / ``close`` surface as :class:`ShardWorker`, so the
  coordinator's scatter/gather code cannot tell local from remote.

Remote limitations, by design: the cluster's shared
:class:`~repro.planner.QueryPlanner` does not cross the process boundary
(plans ship inside each query; the ``adaptive`` policy's timing feedback only
calibrates from local shards), and remote shards must execute with thread
parallelism (a daemonic server process cannot fork process pools).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx

from repro.cluster.worker import ShardQuery, ShardWorker, WarmHandoff
from repro.hierarchy.builder import HierarchyParameters
from repro.metrics import MetricsRegistry, default_registry
from repro.net import address as net_address
from repro.net.frames import (
    NetInstruments,
    pack_frame_into,
    read_frame,
    recv_frame,
    send_frame,
    write_frame,
)
from repro.planner import ExecutionPlan
from repro.service.service import BatchReport
from repro.wire.messages import (
    ArtifactAdoptReply,
    ArtifactAdoptRequest,
    ArtifactExportReply,
    ArtifactExportRequest,
    ErrorReply,
    FaultInjectReply,
    FaultInjectRequest,
    HeartbeatReply,
    HeartbeatRequest,
    NeedGraphReply,
    Ping,
    Pong,
    ShardProcessReply,
    ShardProcessRequest,
    ShardStatsReply,
    ShardStatsRequest,
    Shutdown,
    ShutdownAck,
    WireBatchReport,
    WireGraph,
    WireMessage,
    WireShardQuery,
    wire_graph_of,
)

__all__ = [
    "ShardServerConfig",
    "ShardSpawnError",
    "serve_shard",
    "start_shard_server",
    "RemoteShard",
]

#: How long the parent waits for a child to report its bound address.
READY_TIMEOUT_SECONDS = 60.0


class ShardSpawnError(RuntimeError):
    """A shard server process failed to come up (died or never bound).

    Raised by :func:`start_shard_server` after the dead or wedged child has
    been reaped — the caller gets a clear failure, not a zombie process and
    a :class:`TimeoutError` with no cause.
    """


@dataclass(frozen=True)
class ShardServerConfig:
    """Everything one shard server process needs (picklable for ``spawn``).

    ``family`` picks the listener: ``"unix"`` binds ``socket_path`` (required)
    and ``"inet"`` binds ``host`` on an ephemeral port; either way the child
    reports the actual bound address back before serving.
    """

    shard_id: str
    family: str = "unix"
    socket_path: str | None = None
    host: str = "127.0.0.1"
    epsilon: float = 0.5
    psi: float | None = None
    hierarchy_params: HierarchyParameters | None = None
    cache_capacity: int = 8
    default_plan: ExecutionPlan | None = None
    backend_params: dict = field(default_factory=dict)
    #: LRU capacity of the server's decoded-graph cache (fingerprint → graph).
    #: Evicting a ref the coordinator believes acknowledged costs one
    #: need-graph round trip; it never costs correctness.
    graph_cache_size: int = 128
    #: Where warm-handoff exports are written as spill files (owned and
    #: removed by the coordinator); ``None`` disables cross-process handoff.
    handoff_dir: str | None = None

    def __post_init__(self) -> None:
        if self.family not in net_address.FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; use one of {net_address.FAMILIES}")
        if self.family == "unix" and not self.socket_path:
            raise ValueError("a unix shard server needs socket_path")
        if self.default_plan is not None and self.default_plan.parallelism == "processes":
            raise ValueError(
                "remote shards run as daemonic server processes and cannot fork "
                "process pools; use parallelism='threads' in the default plan"
            )


async def serve_shard(config: ShardServerConfig, ready=None) -> None:
    """Serve one shard until a ``Shutdown`` frame arrives (the child's main loop)."""
    worker = ShardWorker(
        config.shard_id,
        epsilon=config.epsilon,
        psi=config.psi,
        hierarchy_params=config.hierarchy_params,
        cache_capacity=config.cache_capacity,
        default_plan=config.default_plan,
        metrics=default_registry(),
    )
    instruments = NetInstruments(worker.metrics, role="shard")
    stop = asyncio.Event()
    # One slice at a time: the worker's service batches internally, and
    # serialising slices keeps per-shard signatures deterministic.
    process_lock = asyncio.Lock()
    # fingerprint -> decoded graph, LRU.  Queries that ship only a
    # ``graph_ref`` resolve here; a request's ``graphs`` table feeds it.
    # Shared across connections — the cache is content-addressed, so any
    # coordinator's upload serves every connection.
    graph_cache: "OrderedDict[str, nx.Graph]" = OrderedDict()

    def _resolve_queries(
        message: ShardProcessRequest,
    ) -> tuple[list[ShardQuery], tuple[str, ...]]:
        """Decode a slice against the graph cache; returns (queries, missing refs)."""
        for ref, wire_graph in message.graphs.items():
            if ref not in graph_cache:
                graph_cache[ref] = wire_graph.to_graph()
            graph_cache.move_to_end(ref)
        while len(graph_cache) > config.graph_cache_size:
            graph_cache.popitem(last=False)
        missing = tuple(
            dict.fromkeys(
                query.graph_ref
                for query in message.queries
                if query.graph is None and query.graph_ref not in graph_cache
            )
        )
        if missing:
            return [], missing
        queries: list[ShardQuery] = []
        for query in message.queries:
            if query.graph is None:
                graph_cache.move_to_end(query.graph_ref)
                queries.append(query.to_shard_query(graph=graph_cache[query.graph_ref]))
                instruments.payload_deduped()
            else:
                queries.append(query.to_shard_query())
        return queries, ()

    async def reply_for(message: WireMessage) -> WireMessage:
        if isinstance(message, ShardProcessRequest):
            queries, missing = _resolve_queries(message)
            if missing:
                # Cache miss (restart or eviction): ask for the payloads
                # instead of failing the slice — the sender retries once.
                instruments.need_graph()
                return NeedGraphReply(fingerprints=missing)
            async with process_lock:
                report = await asyncio.to_thread(worker.process, queries)
            return ShardProcessReply(report=WireBatchReport.from_report(report))
        if isinstance(message, ShardStatsRequest):
            return ShardStatsReply(row=dict(worker.as_row()))
        if isinstance(message, HeartbeatRequest):
            return HeartbeatReply(
                shard_id=worker.shard_id,
                healthy=worker.healthy(),
                batches_served=worker.batches_served,
                queries_served=worker.queries_served,
            )
        if isinstance(message, FaultInjectRequest):
            worker.inject_fault(message.kind, seconds=message.seconds)
            return FaultInjectReply(applied=True)
        if isinstance(message, ArtifactExportRequest):
            if config.handoff_dir is None:
                return ArtifactExportReply(fingerprint=message.fingerprint, found=False)
            async with process_lock:
                handoff = await asyncio.to_thread(
                    worker.export_artifact, message.fingerprint, config.handoff_dir
                )
            if handoff is None:
                return ArtifactExportReply(fingerprint=message.fingerprint, found=False)
            return ArtifactExportReply(
                fingerprint=message.fingerprint, path=handoff.spill_file, found=True
            )
        if isinstance(message, ArtifactAdoptRequest):
            # Unpickling runs code: load only files from the handoff directory.
            if config.handoff_dir is None or (
                Path(message.path).resolve().parent != Path(config.handoff_dir).resolve()
            ):
                return ArtifactAdoptReply(adopted=False)
            handoff = WarmHandoff(fingerprint=message.fingerprint, spill_file=message.path)
            async with process_lock:
                adopted = await asyncio.to_thread(worker.adopt_artifact, handoff)
            return ArtifactAdoptReply(adopted=bool(adopted))
        if isinstance(message, Ping):
            return Pong()
        if isinstance(message, Shutdown):
            return ShutdownAck()
        return ErrorReply(code="unsupported", message=f"shard cannot serve {message.type!r}")

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        instruments.connection_opened()
        try:
            while True:
                message = await read_frame(reader, instruments)
                if message is None:
                    break
                try:
                    reply = await reply_for(message)
                except Exception as error:  # noqa: BLE001 - reported to the peer
                    reply = ErrorReply(
                        code="shard-error", message=f"{type(error).__name__}: {error}"
                    )
                await write_frame(writer, reply, instruments=instruments)
                if isinstance(reply, ShutdownAck):
                    stop.set()
                    break
        finally:
            instruments.connection_closed()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    if config.family == "unix":
        server = await asyncio.start_unix_server(handle, path=config.socket_path)
        bound = ("unix", config.socket_path)
    else:
        server = await asyncio.start_server(handle, host=config.host, port=0)
        bound = ("inet", config.host, server.sockets[0].getsockname()[1])
    if ready is not None:
        ready.send(bound)
        ready.close()
    try:
        async with server:
            await stop.wait()
    finally:
        worker.close()


def _shard_server_main(config: ShardServerConfig, ready) -> None:
    """Child-process entrypoint (module-level so ``spawn`` can import it)."""
    asyncio.run(serve_shard(config, ready))


class RemoteShard:
    """The coordinator-side handle of one shard server process.

    Drop-in for :class:`~repro.cluster.ShardWorker` where the coordinator is
    concerned: ``process(items)`` ships the slice as one
    :class:`ShardProcessRequest` and returns the decoded
    :class:`~repro.service.BatchReport`; ``as_row()`` fetches the shard's
    lifetime stats over the wire.  One connection, one in-flight request
    (guarded by a lock) — the coordinator already fans out across shards, not
    within one.
    """

    def __init__(
        self,
        shard_id: str,
        process: multiprocessing.process.BaseProcess,
        address: tuple,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.child = process
        self.address = address
        self.metrics = metrics if metrics is not None else default_registry()
        self._instruments = NetInstruments(self.metrics, role="coordinator")
        self._lock = threading.Lock()
        self._sock = None
        self._closed = False
        self._partitioned = False
        # Ship each distinct graph's payload once: refs the server has
        # acknowledged (by serving a slice that referenced them) are elided
        # from later requests.  A server-side eviction or restart answers
        # ``NeedGraphReply`` and the slice retries with the payloads.
        self._acked: set[str] = set()
        # One frame in flight at a time (the lock), so one encode buffer
        # serves every send without a per-frame bytes allocation.
        self._send_buffer = bytearray()

    def _connection(self):
        if self._sock is None:
            self._sock = net_address.connect(self.address, timeout=READY_TIMEOUT_SECONDS)
            self._instruments.connection_opened()
            self._acked.clear()
        return self._sock

    def _send_locked(self, sock, message: WireMessage) -> None:
        view = pack_frame_into(self._send_buffer, message)
        sock.sendall(view)
        self._instruments.frame_sent(len(view))

    def _request(self, message: WireMessage) -> WireMessage:
        if self._closed:
            raise RuntimeError(f"shard {self.shard_id} handle is closed")
        if self._partitioned:
            raise ConnectionError(f"shard {self.shard_id} is partitioned from the coordinator")
        with self._lock:
            sock = self._connection()
            self._send_locked(sock, message)
            reply = recv_frame(sock, instruments=self._instruments)
        if reply is None:
            raise ConnectionError(f"shard {self.shard_id} closed the connection")
        if isinstance(reply, ErrorReply):
            raise RuntimeError(f"shard {self.shard_id}: [{reply.code}] {reply.message}")
        return reply

    def ping(self) -> bool:
        return isinstance(self._request(Ping()), Pong)

    def _encode_slice(
        self, items: list[ShardQuery], force_refs: tuple[str, ...] = ()
    ) -> ShardProcessRequest:
        """One slice as a request: refs for every query, payloads only as needed.

        Each distinct graph is shipped at most once per request (the
        ``graphs`` table), and not at all once the server acknowledged the
        ref; ``force_refs`` re-includes payloads a ``NeedGraphReply`` asked
        for.
        """
        queries: list[WireShardQuery] = []
        graphs: dict[str, WireGraph] = {}
        elided = 0
        for item in items:
            wire_graph = wire_graph_of(item.graph)
            ref = wire_graph.fingerprint()
            queries.append(
                WireShardQuery.from_shard_query(item, wire_graph=wire_graph, omit_graph=True)
            )
            if ref in graphs:
                elided += 1
            elif ref in self._acked and ref not in force_refs:
                elided += 1
            else:
                graphs[ref] = wire_graph
        if elided:
            for _ in range(elided):
                self._instruments.payload_deduped()
        if graphs:
            self._instruments.graph_uploaded(len(graphs))
        return ShardProcessRequest(queries=tuple(queries), graphs=graphs)

    def process(self, items: list[ShardQuery]) -> BatchReport:
        """Serve one scatter slice remotely; same contract as ``ShardWorker.process``."""
        request = self._encode_slice(items)
        reply = self._request(request)
        if isinstance(reply, NeedGraphReply):
            # Evicted or restarted server: one retry carrying the payloads.
            self._instruments.need_graph()
            self._acked.difference_update(reply.fingerprints)
            reply = self._request(self._encode_slice(items, force_refs=reply.fingerprints))
        if isinstance(reply, ShardProcessReply):
            self._acked.update(query.graph_ref for query in request.queries)
        if not isinstance(reply, ShardProcessReply):
            raise RuntimeError(f"shard {self.shard_id} sent {reply.type!r}, expected a report")
        return reply.report.to_report()

    def as_row(self) -> dict[str, object]:
        reply = self._request(ShardStatsRequest())
        if not isinstance(reply, ShardStatsReply):
            raise RuntimeError(f"shard {self.shard_id} sent {reply.type!r}, expected stats")
        return dict(reply.row)

    # -- elastic surface: health, faults, warm handoff -------------------------

    def healthy(self) -> bool:
        """One heartbeat round trip; ``False`` on a dead child or any wire error."""
        if self._closed or self._partitioned:
            return False
        if not self.child.is_alive():
            return False
        try:
            reply = self._request(HeartbeatRequest())
        except (ConnectionError, OSError, RuntimeError):
            return False
        return isinstance(reply, HeartbeatReply) and reply.healthy

    def inject_fault(self, kind: str, seconds: float = 0.0) -> None:
        """Apply one chaos fault to this shard, each at its real layer.

        ``crash`` kills the actual server process (SIGKILL — no orderly
        shutdown, exactly what failover must survive); ``partition`` blocks
        this handle's connection (the server stays healthy, the coordinator
        just cannot reach it); ``slow``/``heal`` travel over the wire and are
        applied by the worker inside the server.
        """
        if kind == "crash":
            self.child.kill()
            self.child.join(timeout=10)
            return
        if kind == "partition":
            self._partitioned = True
            return
        if kind == "heal":
            self._partitioned = False
        elif kind != "slow":
            raise ValueError(f"unknown fault kind {kind!r}")
        try:
            self._request(FaultInjectRequest(kind=kind, seconds=seconds))
        except (ConnectionError, OSError):
            pass  # a dead or unreachable shard cannot be slowed or healed

    def export_artifact(self, fingerprint: str) -> WarmHandoff | None:
        """Ask the server to write ``fingerprint``'s artifact as a spill file."""
        reply = self._request(ArtifactExportRequest(fingerprint=fingerprint))
        if not isinstance(reply, ArtifactExportReply) or not reply.found:
            return None
        return WarmHandoff(fingerprint=fingerprint, spill_file=reply.path)

    def adopt_artifact(self, handoff: WarmHandoff) -> bool:
        """Have the server load a handoff's spill file into its cache.

        Direct (in-object) handoffs cannot cross the process boundary; the
        artifact is rebuilt on first use instead.
        """
        if handoff.spill_file is None:
            return False
        reply = self._request(
            ArtifactAdoptRequest(fingerprint=handoff.fingerprint, path=handoff.spill_file)
        )
        return isinstance(reply, ArtifactAdoptReply) and reply.adopted

    def close(self) -> None:
        """Orderly shutdown: ask, close the socket, reap the child; idempotent."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            if self._sock is not None:
                try:
                    send_frame(self._sock, Shutdown(), instruments=self._instruments)
                    recv_frame(self._sock, instruments=self._instruments)
                except (OSError, RuntimeError, ValueError):
                    pass
                try:
                    self._sock.close()
                finally:
                    self._sock = None
                    self._instruments.connection_closed()
        self.child.join(timeout=10)
        if self.child.is_alive():  # pragma: no cover - only on a wedged child
            self.child.terminate()
            self.child.join(timeout=5)
        if self.address[0] == "unix":
            try:
                os.unlink(self.address[1])
            except OSError:
                pass


def start_shard_server(
    config: ShardServerConfig, metrics: MetricsRegistry | None = None
) -> RemoteShard:
    """Spawn one shard server process and return its connected handle.

    Blocks until the child reports its bound address, with a bounded wait:
    a child that dies during import is reaped and surfaces as a clear
    :class:`ShardSpawnError` (carrying its exit code), and a child that
    simply never binds is terminated and reaped after
    :data:`READY_TIMEOUT_SECONDS` — never a hung dispatch, never a zombie.
    """
    context = multiprocessing.get_context("spawn")
    parent_end, child_end = context.Pipe(duplex=False)
    process = context.Process(
        target=_shard_server_main,
        args=(config, child_end),
        name=f"repro-shard-{config.shard_id}",
        daemon=True,
    )
    process.start()
    child_end.close()
    deadline = time.monotonic() + READY_TIMEOUT_SECONDS
    while not parent_end.poll(0.1):
        if not process.is_alive():
            process.join()  # reap: a dead child must not linger as a zombie
            raise ShardSpawnError(
                f"shard server {config.shard_id} died before binding "
                f"(exit code {process.exitcode})"
            )
        if time.monotonic() > deadline:
            process.terminate()
            process.join(timeout=5)
            raise ShardSpawnError(
                f"shard server {config.shard_id} did not bind within "
                f"{READY_TIMEOUT_SECONDS:.0f}s"
            )
    try:
        bound = parent_end.recv()
    except EOFError:
        # The child closed the pipe without reporting an address (crashed
        # between poll() and recv()); reap it and fail clearly.
        process.join(timeout=5)
        raise ShardSpawnError(
            f"shard server {config.shard_id} closed the ready pipe without binding "
            f"(exit code {process.exitcode})"
        ) from None
    parent_end.close()
    return RemoteShard(config.shard_id, process, tuple(bound), metrics=metrics)
