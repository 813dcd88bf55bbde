"""The coordinator's write-ahead journal: durable records, torn-tail replay.

Two layers, deliberately separate:

* :class:`WriteAheadJournal` knows about **bytes**: it frames wire messages as
  ``[u32 length][u32 crc32][payload]`` records in segment-rotated files and
  replays them in order, stopping cleanly at the first torn or corrupt record
  (a crash mid-``write`` truncates the tail, it never corrupts what came
  before — classic WAL semantics).
* :class:`CoordinatorJournal` knows about the **coordinator**: every admission
  decision and completion becomes a durable record *before* the outcome is
  acted on, and a :class:`~repro.wire.messages.JournalCheckpoint` carrying the
  full recoverable state is written at segment rotation, on membership
  changes, and every ``checkpoint_interval`` records.  Checkpoints rotate to
  a fresh segment and prune everything older, which is what bounds both the
  journal's size and recovery's replay time.

Records reuse the versioned wire codec (:mod:`repro.wire.messages`), so the
journal format evolves under the same schema-version contract as the network
protocol, and the hypothesis round-trip suite covers both for free.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.metrics import MetricsRegistry, default_registry
from repro.wire.messages import (
    JournalAdmit,
    JournalCheckpoint,
    JournalComplete,
    WireDecodeError,
    WireMessage,
    WireShardQuery,
    message_from_wire,
    wire_graph_of,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.admission import AdmissionDecision
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.worker import ShardQuery

__all__ = ["WriteAheadJournal", "CoordinatorJournal", "SEGMENT_PREFIX"]

#: Journal segments are ``wal-<n:08d>.log`` under the journal directory.
SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"

#: Record framing: big-endian payload length then CRC32 of the payload.
_HEADER = struct.Struct(">II")

#: Default segment rotation threshold (bytes).
DEFAULT_SEGMENT_BYTES = 1 << 20


def _segment_index(path: Path) -> int:
    stem = path.name[len(SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        return -1


class WriteAheadJournal:
    """Length-prefixed, checksummed wire-message records in rotating segments.

    Args:
        directory: the journal directory (created if missing).  One journal
            owns the directory's ``wal-*.log`` namespace.
        segment_bytes: rotate to a new segment once the active one reaches
            this size (checks after each append, so a segment may exceed it
            by one record).
        fsync: when true, ``fsync`` after every append — real crash
            durability at real crash-latency cost.  The default flushes to
            the OS only, which is what the (single-host) chaos tests
            simulate: a SIGKILLed *process* loses nothing flushed.
        metrics: registry for the ``repro_journal_*`` families.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if segment_bytes < _HEADER.size + 1:
            raise ValueError("segment_bytes is too small to hold a single record")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self.fsync = fsync
        self.metrics = metrics if metrics is not None else default_registry()
        self._lock = threading.RLock()
        self._closed = False
        self._m_records = self.metrics.counter(
            "repro_journal_records_total",
            "Records appended to the write-ahead journal, by kind.",
            labels=("kind",),
        )
        self._m_bytes = self.metrics.counter(
            "repro_journal_bytes_total", "Bytes appended to the write-ahead journal."
        )
        self._m_segments = self.metrics.gauge(
            "repro_journal_segments", "Live journal segment files."
        )
        self._m_checkpoints = self.metrics.counter(
            "repro_journal_checkpoints_total", "Checkpoint records written."
        )
        self._m_groups = self.metrics.counter(
            "repro_journal_group_commits_total",
            "Record groups flushed as a single buffered write (one fsync each).",
        )
        self._m_group_records = self.metrics.counter(
            "repro_journal_group_records_total",
            "Records that reached disk inside a group commit.",
        )
        existing = self.segments()
        self._segment_index = _segment_index(existing[-1]) if existing else 0
        self._active_path = self.directory / (
            f"{SEGMENT_PREFIX}{self._segment_index:08d}{_SEGMENT_SUFFIX}"
        )
        self._file = open(self._active_path, "ab")
        self._m_segments.set(len(self.segments()))

    # -- the segment namespace -------------------------------------------------

    def segments(self) -> list[Path]:
        """The journal's segment files, oldest first."""
        found = [
            path
            for path in self.directory.iterdir()
            if path.name.startswith(SEGMENT_PREFIX)
            and path.name.endswith(_SEGMENT_SUFFIX)
            and _segment_index(path) >= 0
        ]
        return sorted(found, key=_segment_index)

    def size_bytes(self) -> int:
        """Total bytes across every live segment."""
        return sum(path.stat().st_size for path in self.segments())

    # -- appending ---------------------------------------------------------------

    @staticmethod
    def _frame(message: WireMessage) -> bytes:
        payload = message.to_wire()
        return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload

    def append(self, message: WireMessage) -> int:
        """Durably append one record; returns its encoded size in bytes.

        The record is framed, checksummed, written, and flushed before this
        returns — the write-ahead contract is that the caller may act on the
        outcome only once ``append`` has.
        """
        frame = self._frame(message)
        with self._lock:
            if self._closed:
                raise ValueError("journal is closed")
            self._file.write(frame)
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
            self._m_records.labels(kind=message.type).inc()
            self._m_bytes.inc(len(frame))
            if self._file.tell() >= self.segment_bytes:
                self._rotate()
        return len(frame)

    def append_group(self, messages: Sequence[WireMessage]) -> int:
        """Durably append many records as **one** buffered write and flush.

        Group commit: every record is framed and checksummed exactly as
        :meth:`append` frames it (replay cannot tell the difference), but the
        group pays for one ``write``/``flush``/``fsync`` instead of one per
        record.  A crash mid-group truncates at a record boundary inside the
        group — the intact prefix replays, the torn suffix is exactly the
        work whose outcome was never acknowledged.  Returns the group's total
        encoded size in bytes.
        """
        frames = [self._frame(message) for message in messages]
        if not frames:
            return 0
        blob = b"".join(frames)
        with self._lock:
            if self._closed:
                raise ValueError("journal is closed")
            self._file.write(blob)
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
            for message in messages:
                self._m_records.labels(kind=message.type).inc()
            self._m_bytes.inc(len(blob))
            self._m_groups.inc()
            self._m_group_records.inc(len(frames))
            if self._file.tell() >= self.segment_bytes:
                self._rotate()
        return len(blob)

    def checkpoint(self, message: WireMessage) -> None:
        """Write ``message`` as the first record of a fresh segment and prune.

        After this returns, replay starts at the checkpoint: every older
        segment is deleted (their state is subsumed by the checkpoint), so
        journal size and recovery time stay bounded by the write traffic
        since the last checkpoint, not by the coordinator's lifetime.
        """
        with self._lock:
            if self._closed:
                raise ValueError("journal is closed")
            self._rotate()
            checkpoint_path = self._active_path
            self.append(message)
            self._m_checkpoints.inc()
            for path in self.segments():
                if _segment_index(path) < _segment_index(checkpoint_path):
                    path.unlink(missing_ok=True)
            self._m_segments.set(len(self.segments()))

    def _rotate(self) -> None:
        self._file.close()
        self._segment_index += 1
        self._active_path = self.directory / (
            f"{SEGMENT_PREFIX}{self._segment_index:08d}{_SEGMENT_SUFFIX}"
        )
        self._file = open(self._active_path, "ab")
        self._m_segments.set(len(self.segments()))

    # -- replay ------------------------------------------------------------------

    def replay(self) -> Iterator[WireMessage]:
        """Yield every intact record in order; stop at the first torn one.

        A record is torn when its frame is short (crash mid-write) or its
        checksum disagrees (partial page flush).  Everything before the tear
        is intact by construction, so replay simply stops — the lost suffix
        is exactly the work the crash interrupted, which recovery re-admits
        from the last durable admit records.
        """
        for path in self.segments():
            with open(path, "rb") as handle:
                data = handle.read()
            offset = 0
            while offset + _HEADER.size <= len(data):
                length, checksum = _HEADER.unpack_from(data, offset)
                start = offset + _HEADER.size
                end = start + length
                if end > len(data):
                    return  # torn tail: the frame promises more bytes than exist
                payload = data[start:end]
                if zlib.crc32(payload) != checksum:
                    return  # corrupt record: stop, never guess past it
                try:
                    yield message_from_wire(payload)
                except WireDecodeError:
                    return  # framing survived but the codec refuses: treat as torn
                offset = end
            if offset < len(data):
                return  # trailing partial header

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Flush and close the active segment; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._file.flush()
            self._file.close()

    def abandon(self) -> None:
        """Stop writing as a crash would: no checkpoint, no shutdown tidying.

        This is the crash simulator's hook: a SIGKILLed coordinator never
        runs its clean-shutdown checkpoint, so tests abandon the journal to
        guarantee only what :meth:`append` already made durable survives.
        (Appends flush eagerly, so releasing the handle writes nothing new —
        exactly the SIGKILL contract.)
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._file.close()
            except OSError:
                pass

    def __enter__(self) -> "WriteAheadJournal":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False


class CoordinatorJournal:
    """The coordinator-facing recorder over a :class:`WriteAheadJournal`.

    Mirrors just enough coordinator state to build checkpoints without
    walking the coordinator's internals mid-flight:

    * ``pending`` — idempotency key → the admitted
      :class:`~repro.wire.messages.WireShardQuery`, in admission order
      (recovery re-admits them verbatim, in order);
    * ``warm`` — fingerprint → a one-request exemplar query, kept in
      **last-use order** by moving a fingerprint to the end on every
      completion.  Recovery replays the exemplars in this order, so the
      re-warmed LRU caches converge to the same content (and hence the same
      hit/miss stream, and hence a byte-identical report signature) as the
      crashed coordinator's.
    * ``completed`` keys are read from the coordinator at checkpoint time —
      the coordinator's set is the single source of truth for dedup.

    Args:
        directory: journal directory (shared with :func:`repro.durability.recover`).
        segment_bytes / fsync: passed through to :class:`WriteAheadJournal`.
        checkpoint_interval: write a full checkpoint every this many admit or
            complete records (in addition to rotation- and membership-driven
            checkpoints).
        metrics: registry for the ``repro_journal_*`` families.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        checkpoint_interval: int = 64,
        fsync: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1")
        self.wal = WriteAheadJournal(
            directory, segment_bytes=segment_bytes, fsync=fsync, metrics=metrics
        )
        self.checkpoint_interval = int(checkpoint_interval)
        self._lock = threading.RLock()
        self._coordinator: "ClusterCoordinator | None" = None
        self._records_since_checkpoint = 0
        self._pending: "OrderedDict[str, WireShardQuery]" = OrderedDict()
        self._warm: "OrderedDict[str, WireShardQuery]" = OrderedDict()
        self._group_owner: int | None = None
        self._group_depth = 0
        self._group_buffer: list[WireMessage] = []
        self._group_checkpoint_due = False

    @property
    def directory(self) -> Path:
        return self.wal.directory

    def attach(self, coordinator: "ClusterCoordinator") -> None:
        """Bind to the coordinator whose state checkpoints will snapshot."""
        with self._lock:
            self._coordinator = coordinator

    def seed(
        self,
        pending: "OrderedDict[str, WireShardQuery] | dict[str, WireShardQuery]",
        warm: "OrderedDict[str, WireShardQuery] | dict[str, WireShardQuery]",
    ) -> None:
        """Preload the mirrors from recovered journal state.

        Recovery attaches a *fresh* journal to the rebuilt coordinator; without
        seeding, its first checkpoint would record empty pending/warm maps and
        a second crash right after recovery would lose the re-admitted work.
        """
        with self._lock:
            self._pending = OrderedDict(pending)
            self._warm = OrderedDict(warm)

    # -- recording ---------------------------------------------------------------

    @contextmanager
    def group(self) -> Iterator[None]:
        """Group-commit window: buffer this thread's records into one flush.

        Inside the ``with`` block, ``record_admit``/``record_complete`` calls
        **from the owning thread** accumulate in memory; on exit they reach
        disk via one :meth:`WriteAheadJournal.append_group` (one buffered
        write, one flush, one optional fsync).  The write-ahead contract
        holds as long as the caller acts on the grouped outcomes only after
        the block exits — which is exactly how the coordinator's batched
        admission uses it: decisions are returned (and replies sent) only
        once the group is flushed, so a crash mid-group loses nothing that
        was acknowledged.

        Records from *other* threads (a dispatch drain completing earlier
        work while an admission group is open) bypass the buffer and append
        directly — their callers expect per-record durability, and their
        admits were flushed by an earlier group.  Checkpoints that fall due
        inside the window are deferred to the flush, keeping the window at
        one fsync.  Re-entrant use by the owner nests into one group; a
        competing ``group()`` from a second thread degrades to a no-op
        passthrough rather than interleaving buffers.
        """
        ident = threading.get_ident()
        with self._lock:
            if self._group_depth > 0 and self._group_owner != ident:
                grouped = False
            else:
                grouped = True
                self._group_owner = ident
                self._group_depth += 1
        if not grouped:
            yield
            return
        try:
            yield
        finally:
            with self._lock:
                self._group_depth -= 1
                if self._group_depth == 0:
                    buffer, self._group_buffer = self._group_buffer, []
                    self._group_owner = None
                    checkpoint_due = self._group_checkpoint_due
                    self._group_checkpoint_due = False
                    if buffer:
                        self.wal.append_group(buffer)
                    if checkpoint_due:
                        self.checkpoint_now()

    def _append(self, record: WireMessage) -> None:
        """Append one record, buffering it when the caller owns an open group."""
        if self._group_depth > 0 and self._group_owner == threading.get_ident():
            self._group_buffer.append(record)
        else:
            self.wal.append(record)

    def record_admit(
        self, key: str, decision: "AdmissionDecision", item: "ShardQuery"
    ) -> None:
        """Durably record one submit's outcome (accepted or not) before dispatch.

        Rejected submissions are recorded too (without the query payload) so a
        replayed coordinator reports the exact same lifetime admission stats —
        the load generator's delta accounting must span the crash seamlessly.
        """
        with self._lock:
            # Admits of one graph object share one encoding (the full graph
            # still ships in every record: replay needs no peer cache).
            wire_query = (
                WireShardQuery.from_shard_query(item, wire_graph=wire_graph_of(item.graph))
                if decision.accepted
                else None
            )
            shed_keys = tuple(
                shed_key
                for dropped in decision.shed
                if (shed_key := getattr(dropped, "idempotency_key", ""))
            )
            record = JournalAdmit(
                key=key,
                shard_id=decision.shard_id,
                accepted=decision.accepted,
                shed_keys=shed_keys,
                query=wire_query,
            )
            if decision.accepted and key:
                self._pending[key] = wire_query
            for shed_key in shed_keys:
                self._pending.pop(shed_key, None)
            self._append(record)
            self._maybe_checkpoint()

    def record_complete(self, item: "ShardQuery", shard_id: str) -> None:
        """Durably record one served batch; promotes its exemplar to warmest."""
        key = item.idempotency_key
        with self._lock:
            record = JournalComplete(
                key=key, fingerprint=item.fingerprint, shard_id=shard_id
            )
            exemplar = self._pending.pop(key, None)
            if exemplar is None:
                exemplar = WireShardQuery.from_shard_query(item)
            self._warm[item.fingerprint] = exemplar
            self._warm.move_to_end(item.fingerprint)
            self._append(record)
            self._maybe_checkpoint()

    def record_membership(self) -> None:
        """A shard joined or left: checkpoint immediately.

        Membership changes invalidate every placement a replayed admit record
        implies, so rather than journal them incrementally the journal folds
        the whole post-change state into one checkpoint.
        """
        self.checkpoint_now()

    def _maybe_checkpoint(self) -> None:
        self._records_since_checkpoint += 1
        if self._records_since_checkpoint >= self.checkpoint_interval:
            if self._group_depth > 0:
                self._group_checkpoint_due = True
            else:
                self.checkpoint_now()

    # -- checkpoints -------------------------------------------------------------

    def build_checkpoint(self) -> JournalCheckpoint:
        """Snapshot the attached coordinator's recoverable state as a record."""
        coordinator = self._coordinator
        if coordinator is None:
            raise RuntimeError("no coordinator attached; call attach() first")
        planner = coordinator.planner
        with self._lock:
            return JournalCheckpoint(
                shard_ids=tuple(coordinator.ring.shard_ids),
                next_shard_index=coordinator._next_shard_index,
                seen_fingerprints=tuple(sorted(coordinator._seen_fingerprints)),
                pending=tuple(self._pending.values()),
                completed_keys=tuple(sorted(coordinator._completed_keys)),
                warm=tuple(self._warm.values()),
                auto_key_counter=coordinator._auto_key_counter,
                admission=coordinator.admission.stats_snapshot(),
                lost_batches=coordinator.lost_batches,
                requeued_batches=coordinator.requeued_batches,
                failovers=coordinator.failovers,
                duplicate_results=coordinator.duplicate_results,
                hot_ewma=dict(coordinator._hot_ewma),
                replicas={
                    key: tuple(owners) for key, owners in coordinator._replicas.items()
                },
                planner_state=planner.cost_model.snapshot() if planner is not None else None,
                planner_version=planner.cost_model.version if planner is not None else 0,
            )

    def checkpoint_now(self) -> None:
        """Write a full checkpoint record and prune older segments."""
        with self._lock:
            if self._coordinator is None:
                return  # nothing to snapshot yet; attach() writes the baseline
            if self._group_depth > 0 and self._group_owner == threading.get_ident():
                # Flush the open group's buffer first: a checkpoint must never
                # precede records whose effects it already summarizes.
                if self._group_buffer:
                    buffer, self._group_buffer = self._group_buffer, []
                    self.wal.append_group(buffer)
            self.wal.checkpoint(self.build_checkpoint())
            self._records_since_checkpoint = 0

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self.wal.close()

    def abandon(self) -> None:
        """Crash-simulation hook: see :meth:`WriteAheadJournal.abandon`."""
        self.wal.abandon()
