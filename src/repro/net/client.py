"""A resilient blocking cluster client speaking the gateway's frame protocol.

:class:`ClusterClient` mirrors the slice of the
:class:`~repro.cluster.ClusterCoordinator` surface that drivers use —
``submit`` / ``dispatch`` / ``admission_totals`` / ``queue_depths`` — so the
open-loop load generator (and any closed-loop driver) can point at a network
cluster without changing a line: pass the client where the coordinator went.

``dispatch()`` consumes the gateway's streamed per-shard frames and reasembles
the same :class:`~repro.cluster.ClusterReport` the in-process path returns;
``report.signature()`` is byte-identical across the two transports.  Shards
that hit the request deadline before starting are recorded on
:attr:`last_expired` (their work was requeued server-side, not lost).

Resilience (new in the durability release):

* **Retry with full jitter** — connection-level failures (the gateway died,
  the socket broke) reconnect and resend under a seeded
  :class:`~repro.net.resilience.RetryPolicy`; ``repro_client_retries_total``
  counts them by operation.
* **Exactly-once resubmission** — every submit carries an idempotency key
  (auto-generated when the caller does not supply one), so a retry that
  lands after the original was admitted dedups server-side
  (``SubmitReply.duplicate``) instead of double-enqueueing.
* **Circuit breaker** — consecutive failures open a per-target breaker
  (``repro_client_breaker_state``: 0 closed / 1 open / 2 half-open) that
  fails fast with :class:`~repro.net.resilience.CircuitOpenError` until a
  half-open probe succeeds.
* **Hedged reads** — with ``hedge_delay`` set, idempotent read requests
  (ping/stats) that stall past the delay race a second connection; the
  fresh reply wins and the stalled connection is dropped.
* **Dispatch resumption** — a dispatch stream cut mid-flight retries from a
  fresh connection; shard reports already received are kept and merged with
  the resumed stream's (the coordinator outlives the gateway, so queued
  work is still there).

One connection, one request in flight (a lock enforces it) — that is the
protocol's per-connection backpressure; open more clients for concurrency.
"""

from __future__ import annotations

import random
import threading
import time
import uuid
from typing import Any, Callable, Mapping, Sequence

import networkx as nx

from repro.cluster.admission import AdmissionStats
from repro.cluster.coordinator import ClusterReport, merge_batch_reports
from repro.metrics import MetricsRegistry, default_registry
from repro.net import address as net_address
from repro.net.frames import NetInstruments, recv_frame, send_frame
from repro.net.resilience import CircuitBreaker, CircuitOpenError, RetryPolicy
from repro.wire.codec import WireDecodeError
from repro.wire.messages import (
    DispatchDoneReply,
    DispatchRequest,
    DispatchShardReply,
    ErrorReply,
    NeedGraphReply,
    Ping,
    Pong,
    StatsReply,
    StatsRequest,
    SubmitReply,
    SubmitRequest,
    WireMessage,
    WireRequest,
    wire_graph_of,
)
from repro.service.service import BatchReport
from repro.workloads import Workload

__all__ = ["ClusterClient", "GatewayError", "DeadlineExpired", "CircuitOpenError"]


class GatewayError(RuntimeError):
    """The gateway answered with an :class:`~repro.wire.messages.ErrorReply`."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


class DeadlineExpired(GatewayError):
    """The request's deadline lapsed before the gateway served it."""


def _raise_for(reply: WireMessage) -> WireMessage:
    if isinstance(reply, ErrorReply):
        if reply.code == "deadline":
            raise DeadlineExpired(reply.code, reply.message)
        raise GatewayError(reply.code, reply.message)
    return reply


class ClusterClient:
    """Blocking client for one :class:`~repro.net.gateway.ClusterGateway`.

    Args:
        address: the gateway's bound address tuple (``("unix", path)`` or
            ``("inet", host, port)``).
        timeout: socket timeout in seconds for connect and replies.
        metrics: registry for the ``repro_net_*{role="client"}`` and
            ``repro_client_*`` series.
        retry: the backoff schedule for connection-level failures
            (``RetryPolicy(max_attempts=1)`` disables retries).
        retry_seed: seeds the jitter RNG — two clients with the same seed
            retry on the same schedule (determinism for tests).
        breaker_failures / breaker_reset: circuit-breaker threshold and
            open-interval, per client (= per target address).
        hedge_delay: seconds an idempotent read may stall before a hedge
            request races it on a fresh connection (``None`` = no hedging).

    Retries only ever resend after a **connection-level** failure
    (:class:`ConnectionError` / :class:`OSError`); gateway-level errors
    (:class:`GatewayError`) are answers, not failures, and propagate
    immediately.  Resent submits carry the same idempotency key, so the
    server dedups rather than double-admits — that is what makes
    reconnect-and-resubmit safe.
    """

    def __init__(
        self,
        address: tuple,
        timeout: float | None = 120.0,
        metrics: MetricsRegistry | None = None,
        retry: RetryPolicy | None = None,
        retry_seed: int = 0,
        breaker_failures: int = 5,
        breaker_reset: float = 1.0,
        hedge_delay: float | None = None,
    ) -> None:
        self.address = tuple(address)
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.hedge_delay = hedge_delay
        self._rng = random.Random(retry_seed)
        self._sleep: Callable[[float], None] = time.sleep
        registry = metrics if metrics is not None else default_registry()
        self._instruments = NetInstruments(registry, role="client")
        self._m_retries = registry.counter(
            "repro_client_retries_total",
            "Requests resent after a connection-level failure, by operation.",
            labels=("op",),
        )
        self._m_hedges = registry.counter(
            "repro_client_hedges_total",
            "Idempotent reads raced on a second connection after stalling.",
            labels=("op",),
        )
        target = ":".join(str(part) for part in self.address)
        breaker_gauge = registry.gauge(
            "repro_client_breaker_state",
            "Circuit-breaker state per target (0 closed, 1 open, 2 half-open).",
            labels=("target",),
        )
        self._breaker = CircuitBreaker(
            failure_threshold=breaker_failures,
            reset_timeout=breaker_reset,
            on_state=lambda state: breaker_gauge.labels(target=target).set(state),
        )
        self._lock = threading.Lock()
        self._closed = False
        self._sock = None
        # Auto idempotency keys: unique across client instances (the
        # coordinator's key space outlives any one gateway or client).
        self._key_nonce = uuid.uuid4().hex[:12]
        self._key_counter = 0
        self.last_expired: tuple[str, ...] = ()
        with self._lock:
            self._ensure_connected()

    # -- plumbing --------------------------------------------------------------

    def _ensure_connected(self) -> None:
        """Connect if needed (caller holds the lock); breaker-gated."""
        if self._sock is not None:
            return
        if not self._breaker.allow():
            raise CircuitOpenError(
                f"circuit open for {self.address}: too many consecutive failures"
            )
        try:
            self._sock = net_address.connect(self.address, timeout=self.timeout)
        except OSError:
            self._breaker.record_failure()
            raise
        self._instruments.connection_opened()

    def _drop_connection_locked(self) -> None:
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = None
        self._instruments.connection_closed()

    def _recv(self) -> WireMessage:
        reply = recv_frame(self._sock, instruments=self._instruments)
        if reply is None:
            raise ConnectionError("the gateway closed the connection")
        return reply

    def _with_retry(self, op: str, attempt_fn: Callable[[], WireMessage]) -> Any:
        """Run ``attempt_fn`` under the retry policy; reconnects between tries."""
        if self._closed:
            raise RuntimeError("the client is closed")
        last_error: Exception | None = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self._m_retries.labels(op=op).inc()
                self._sleep(self.retry.delay(attempt - 1, self._rng))
            try:
                result = attempt_fn()
                self._breaker.record_success()
                return result
            except CircuitOpenError as error:
                # The breaker already failed fast; don't count it again.
                last_error = error
            except (ConnectionError, OSError) as error:
                self._breaker.record_failure()
                with self._lock:
                    self._drop_connection_locked()
                last_error = error
        assert last_error is not None
        raise last_error

    def _request(self, message: WireMessage, op: str = "request") -> WireMessage:
        def attempt() -> WireMessage:
            with self._lock:
                self._ensure_connected()
                send_frame(self._sock, message, instruments=self._instruments)
                return _raise_for(self._recv())

        return self._with_retry(op, attempt)

    def _hedged_request(self, message: WireMessage, op: str) -> WireMessage:
        """A read request that races a second connection when the first stalls.

        Only for idempotent reads: the hedge may execute the request twice
        server-side, which must be observationally free.
        """
        if self.hedge_delay is None:
            return self._request(message, op)

        def attempt() -> WireMessage:
            with self._lock:
                self._ensure_connected()
                send_frame(self._sock, message, instruments=self._instruments)
                previous = self._sock.gettimeout()
                self._sock.settimeout(self.hedge_delay)
                try:
                    return _raise_for(self._recv())
                except (TimeoutError, OSError):
                    self._m_hedges.labels(op=op).inc()
                    hedge = net_address.connect(self.address, timeout=self.timeout)
                    try:
                        send_frame(hedge, message, instruments=self._instruments)
                        reply = recv_frame(hedge, instruments=self._instruments)
                    finally:
                        hedge.close()
                    # The stalled primary's eventual reply would desync the
                    # stream; drop the connection rather than reuse it.
                    self._drop_connection_locked()
                    if reply is None:
                        raise ConnectionError("the hedge connection closed without a reply")
                    return _raise_for(reply)
                finally:
                    if self._sock is not None:
                        self._sock.settimeout(previous)

        return self._with_retry(op, attempt)

    def _next_key(self) -> str:
        self._key_counter += 1
        return f"client-{self._key_nonce}-{self._key_counter}"

    @property
    def breaker_state(self) -> str:
        """The circuit breaker's state name (``closed``/``open``/``half-open``)."""
        return self._breaker.state

    # -- the coordinator-shaped API -------------------------------------------

    def ping(self) -> bool:
        return isinstance(self._hedged_request(Ping(), "ping"), Pong)

    def submit(
        self,
        graph: nx.Graph,
        requests: Sequence | Workload,
        load: int | None = None,
        backend: str | None = None,
        backend_params: Mapping[str, Any] | None = None,
        workload: str = "",
        deadline: float | None = None,
        idempotency_key: str | None = None,
    ) -> SubmitReply:
        """Plan/place/enqueue one query on the server; returns the admission outcome.

        The reply quacks like an admission decision: ``accepted``,
        ``shard_id``, ``shed`` (a count — the shed items themselves stay
        server-side), and ``duplicate`` (the key was already admitted or
        completed; the earlier admission stands).  Unkeyed submissions get a
        client-generated key, so a retried resubmission after a gateway
        crash can never double-enqueue.

        The submit ships only the graph's fingerprint; a
        :class:`NeedGraphReply` (cache miss, eviction, or membership-change
        invalidation) triggers a one-time re-send with the full payload under
        the **same** idempotency key.
        Two clients sharing a graph thus upload it exactly once between them.
        """
        if isinstance(requests, Workload):
            workload = requests.name
            if load is None:
                load = requests.load
            requests = requests.requests
        if idempotency_key is None:
            idempotency_key = self._next_key()
        wire_graph = wire_graph_of(graph)
        wire_requests = tuple(WireRequest.from_request(request) for request in requests)

        def build(full: bool) -> SubmitRequest:
            return SubmitRequest(
                graph=wire_graph if full else None,
                graph_fingerprint=wire_graph.fingerprint(),
                requests=wire_requests,
                load=load,
                backend=backend,
                backend_params=dict(backend_params) if backend_params is not None else None,
                workload=workload,
                deadline=deadline,
                idempotency_key=idempotency_key,
            )

        def attempt() -> WireMessage:
            with self._lock:
                self._ensure_connected()
                send_frame(self._sock, build(full=False), instruments=self._instruments)
                reply = _raise_for(self._recv())
                if isinstance(reply, NeedGraphReply):
                    self._instruments.graph_uploaded()
                    send_frame(self._sock, build(full=True), instruments=self._instruments)
                    reply = _raise_for(self._recv())
                else:
                    self._instruments.payload_deduped()
                return reply

        reply = self._with_retry("submit", attempt)
        if not isinstance(reply, SubmitReply):
            raise WireDecodeError(f"expected a submit reply, got {reply.type!r}")
        return reply

    def dispatch(self, deadline: float | None = None) -> ClusterReport:
        """One scatter/gather cycle; shard reports stream in as they complete.

        A stream cut mid-flight (gateway death) retries against a fresh
        connection: reports already received are kept, the resumed dispatch
        drains what is still queued (the coordinator outlives the gateway),
        and the merged report covers both — admitted work is never counted
        twice because completed batches are not re-dispatched.
        """
        collected: dict[str, list[BatchReport]] = {}

        def attempt() -> ClusterReport:
            if self._closed:
                raise RuntimeError("the client is closed")
            with self._lock:
                self._ensure_connected()
                request = DispatchRequest(deadline=deadline)
                send_frame(self._sock, request, instruments=self._instruments)
                while True:
                    reply = _raise_for(self._recv())
                    if isinstance(reply, DispatchShardReply):
                        collected.setdefault(reply.shard_id, []).append(
                            reply.report.to_report()
                        )
                        continue
                    if isinstance(reply, DispatchDoneReply):
                        report = ClusterReport(
                            shard_reports={
                                shard_id: merge_batch_reports(reports)
                                for shard_id, reports in collected.items()
                            },
                            dispatch_seconds=reply.dispatch_seconds,
                            admission=reply.admission.to_stats(),
                        )
                        self.last_expired = tuple(reply.expired)
                        for _ in reply.expired:
                            self._instruments.deadline_expired("dispatch")
                        return report
                    raise WireDecodeError(f"unexpected {reply.type!r} frame during dispatch")

        return self._with_retry("dispatch", attempt)

    def admission_totals(self) -> AdmissionStats:
        """Cluster-lifetime admission totals, as the coordinator reports them."""
        return self._stats().admission.to_stats()

    def queue_depths(self) -> dict[str, int]:
        return dict(self._stats().queue_depths)

    @property
    def shard_count(self) -> int:
        return self._stats().shard_count

    def _stats(self) -> StatsReply:
        reply = self._hedged_request(StatsRequest(), "stats")
        if not isinstance(reply, StatsReply):
            raise WireDecodeError(f"expected a stats reply, got {reply.type!r}")
        return reply

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Close the connection; idempotent."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            self._drop_connection_locked()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False
