"""Durability: the coordinator's write-ahead journal and crash recovery.

The serving tier's exactly-once story lives here:

* :class:`WriteAheadJournal` — length-prefixed, CRC-checksummed records in
  segment-rotated files, tolerant of torn tails (a crash mid-write truncates,
  never corrupts replay).
* :class:`CoordinatorJournal` — the coordinator-facing recorder: durable
  admit/complete records carrying wire-versioned
  :class:`~repro.wire.messages.WireShardQuery` payloads and idempotency keys,
  with periodic :class:`~repro.wire.messages.JournalCheckpoint` records
  (ring membership, pending/completed keys, warm-cache exemplars, admission
  stats, planner calibration).
* :func:`recover` — replays the journal tail into a fresh
  :class:`~repro.cluster.ClusterCoordinator`: re-owns unfinished batches onto
  the live ring, dedups completed idempotency keys, re-warms per-shard caches
  in last-use order (signature parity with a crash-free run).
* :class:`CoordinatorSupervisor` — owns the journal directory and the
  coordinator's lifecycle so chaos plans can SIGKILL the coordinator
  mid-stream (``coordinator-crash`` events) and bring a journal-recovered
  replacement back without the load generator noticing.
"""

from repro.durability.journal import CoordinatorJournal, WriteAheadJournal
from repro.durability.recovery import (
    CoordinatorSupervisor,
    JournalState,
    RecoveryReport,
    read_journal_state,
    recover,
)

__all__ = [
    "WriteAheadJournal",
    "CoordinatorJournal",
    "JournalState",
    "RecoveryReport",
    "read_journal_state",
    "recover",
    "CoordinatorSupervisor",
]
