"""Crash recovery: replay the journal into a fresh coordinator.

:func:`read_journal_state` folds a journal — last checkpoint plus the records
after it — into a :class:`JournalState`; :func:`recover` turns that state into
a live :class:`~repro.cluster.ClusterCoordinator`:

* membership is rebuilt from the checkpoint's ring (same shard ids, same
  placement);
* admitted-but-unfinished batches are re-admitted **in admission order** onto
  the live ring (``reason="recovery"`` requeues — at-least-once execution);
* completed idempotency keys are restored, so a re-submission or a replayed
  admit of finished work dedups instead of re-executing (exactly-once
  *results*);
* per-shard caches are re-warmed by serving a one-request exemplar of every
  warm fingerprint **in last-use order**, so the rebuilt LRU caches converge
  to the crashed coordinator's content and the post-recovery hit/miss stream
  — and therefore :meth:`~repro.cluster.ClusterReport.signature` — matches a
  crash-free run.

:class:`CoordinatorSupervisor` packages the crash/recover cycle behind the
two-method protocol the chaos :class:`~repro.elastic.FaultInjector` expects
(``crash_coordinator()``), so a fault plan can SIGKILL the coordinator
mid-stream and the load generator keeps driving the journal-recovered
replacement.

Known recovery seams (documented, deliberate):

* the submissions of the window interrupted by the crash have already bumped
  the hot-key window counts, which die with the process — the EWMA restored
  from the checkpoint lags one window (irrelevant at
  ``replication_factor=1``);
* replica read round-robin cursors restart at zero, so parity checks pin
  ``replication_factor=1``.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.cluster.coordinator import ClusterCoordinator
from repro.durability.journal import CoordinatorJournal, WriteAheadJournal
from repro.metrics import MetricsRegistry
from repro.wire.messages import (
    JournalAdmit,
    JournalCheckpoint,
    JournalComplete,
    WireShardQuery,
)

__all__ = ["JournalState", "RecoveryReport", "read_journal_state", "recover", "CoordinatorSupervisor"]


def _blank_stats() -> dict[str, int]:
    return {"offered": 0, "accepted": 0, "rejected": 0, "shed": 0}


@dataclass
class JournalState:
    """A journal folded into its recoverable state (checkpoint + tail).

    ``pending`` and ``warm`` preserve order — admission order and last-use
    order respectively — because recovery replays both in order.
    """

    checkpoint: JournalCheckpoint | None = None
    pending: "OrderedDict[str, WireShardQuery]" = field(default_factory=OrderedDict)
    completed: set[str] = field(default_factory=set)
    warm: "OrderedDict[str, WireShardQuery]" = field(default_factory=OrderedDict)
    admission: dict[str, dict[str, int]] = field(default_factory=dict)
    seen_fingerprints: set[str] = field(default_factory=set)
    auto_key_counter: int = 0
    records_total: int = 0
    records_replayed: int = 0  # records folded after the last checkpoint

    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(self.checkpoint.shard_ids) if self.checkpoint is not None else ()


def read_journal_state(directory: str | os.PathLike) -> JournalState:
    """Replay ``directory``'s journal into a :class:`JournalState`.

    Pure fold, no side effects on the journal: the truncation-robustness
    tests call this on byte-level prefixes of a real journal and assert the
    invariants (no batch both pending and completed, no resurrection of shed
    keys) hold at *every* record boundary.
    """
    state = JournalState()
    wal = WriteAheadJournal(directory)
    try:
        for record in wal.replay():
            state.records_total += 1
            if isinstance(record, JournalCheckpoint):
                state.checkpoint = record
                state.records_replayed = 0
                state.pending = OrderedDict(
                    (query.idempotency_key, query) for query in record.pending
                )
                state.completed = set(record.completed_keys)
                state.warm = OrderedDict((query.fingerprint, query) for query in record.warm)
                state.admission = {
                    shard: {**_blank_stats(), **{k: int(v) for k, v in stats.items()}}
                    for shard, stats in record.admission.items()
                }
                state.seen_fingerprints = set(record.seen_fingerprints)
                state.auto_key_counter = record.auto_key_counter
                continue
            state.records_replayed += 1
            if isinstance(record, JournalAdmit):
                stats = state.admission.setdefault(record.shard_id, _blank_stats())
                stats["offered"] += 1
                if record.accepted:
                    stats["accepted"] += 1
                else:
                    stats["rejected"] += 1
                stats["shed"] += len(record.shed_keys)
                for shed_key in record.shed_keys:
                    state.pending.pop(shed_key, None)
                if record.accepted and record.query is not None:
                    state.seen_fingerprints.add(record.query.fingerprint)
                    if record.key and record.key not in state.completed:
                        state.pending[record.key] = record.query
                if record.key.startswith("auto-"):
                    suffix = record.key[len("auto-") :]
                    if suffix.isdigit():
                        state.auto_key_counter = max(state.auto_key_counter, int(suffix) + 1)
            elif isinstance(record, JournalComplete):
                exemplar = state.pending.pop(record.key, None)
                if exemplar is not None:
                    state.warm[record.fingerprint] = exemplar
                if record.fingerprint in state.warm:
                    state.warm.move_to_end(record.fingerprint)
                if record.key:
                    state.completed.add(record.key)
    finally:
        wal.close()
    return state


@dataclass
class RecoveryReport:
    """What one :func:`recover` call found, replayed, and rebuilt."""

    checkpoint_found: bool = False
    records_total: int = 0
    records_replayed: int = 0
    batches_recovered: int = 0
    completed_keys: int = 0
    rewarmed: int = 0
    rewarm_failures: int = 0
    journal_bytes: int = 0
    replay_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def replay_records_per_second(self) -> float:
        return self.records_total / self.replay_seconds if self.replay_seconds > 0 else 0.0

    def summary(self) -> dict[str, object]:
        return {
            "checkpoint_found": self.checkpoint_found,
            "records_total": self.records_total,
            "records_replayed": self.records_replayed,
            "batches_recovered": self.batches_recovered,
            "completed_keys": self.completed_keys,
            "rewarmed": self.rewarmed,
            "rewarm_failures": self.rewarm_failures,
            "journal_bytes": self.journal_bytes,
            "replay_seconds": self.replay_seconds,
            "replay_records_per_second": self.replay_records_per_second,
            "total_seconds": self.total_seconds,
        }


def recover(
    directory: str | os.PathLike,
    coordinator_kwargs: Mapping[str, Any],
    *,
    rewarm: bool = True,
    attach: bool = True,
    journal_kwargs: Mapping[str, Any] | None = None,
) -> tuple[ClusterCoordinator, RecoveryReport]:
    """Rebuild a live coordinator from ``directory``'s journal.

    Args:
        directory: the crashed coordinator's journal directory.
        coordinator_kwargs: the constructor arguments the crashed coordinator
            was built with (the journal records state, not configuration).
            ``shard_count`` is replaced by the checkpoint's actual membership.
        rewarm: serve a one-request exemplar of every warm fingerprint on its
            current owner, in last-use order, so the rebuilt caches match the
            crashed ones (required for report-signature parity).
        attach: attach a fresh :class:`CoordinatorJournal` over the same
            directory (seeded with the recovered state) so the rebuilt
            coordinator is itself recoverable; its baseline checkpoint also
            prunes any torn tail left by the crash.
        journal_kwargs: overrides for the fresh journal (segment bytes,
            checkpoint interval, fsync).

    Returns:
        ``(coordinator, report)`` — the coordinator is live and serving; the
        report carries replay counts and timings for the recovery benchmark.
    """
    started = time.perf_counter()
    state = read_journal_state(directory)
    report = RecoveryReport(
        checkpoint_found=state.checkpoint is not None,
        records_total=state.records_total,
        records_replayed=state.records_replayed,
        completed_keys=len(state.completed),
        replay_seconds=time.perf_counter() - started,
    )

    kwargs = dict(coordinator_kwargs)
    kwargs.pop("journal", None)
    checkpoint = state.checkpoint
    if checkpoint is not None and checkpoint.shard_ids:
        kwargs.pop("shard_count", None)
        kwargs["shard_ids"] = tuple(checkpoint.shard_ids)
    coordinator = ClusterCoordinator(**kwargs)

    if checkpoint is not None:
        coordinator._next_shard_index = max(
            coordinator._next_shard_index, checkpoint.next_shard_index
        )
        coordinator._seen_fingerprints.update(state.seen_fingerprints)
        coordinator.lost_batches = checkpoint.lost_batches
        coordinator.requeued_batches = checkpoint.requeued_batches
        coordinator.failovers = checkpoint.failovers
        coordinator.duplicate_results = checkpoint.duplicate_results
        coordinator._hot_ewma.update(checkpoint.hot_ewma)
        for fingerprint, owners in checkpoint.replicas.items():
            live = tuple(sid for sid in owners if sid in coordinator.workers)
            if live:
                coordinator._replicas[fingerprint] = live
        coordinator.admission.restore_stats(state.admission)
        if coordinator.planner is not None and checkpoint.planner_state is not None:
            coordinator.planner.cost_model.restore(
                checkpoint.planner_state, version=checkpoint.planner_version
            )
    with coordinator._keys_lock:
        coordinator._completed_keys = set(state.completed)
        coordinator._auto_key_counter = state.auto_key_counter

    # Re-warm before re-admitting: the recovered batches must find the same
    # cache state they would have found in the crash-free run.
    if rewarm:
        for fingerprint, wire_query in state.warm.items():
            exemplar = wire_query.to_shard_query()
            owners = [coordinator.ring.assign(fingerprint)]
            for sid in coordinator._replicas.get(fingerprint, ()):
                if sid not in owners:
                    owners.append(sid)
            for owner in owners:
                worker = coordinator.workers.get(owner)
                if worker is None:
                    continue
                warm_item = replace(
                    exemplar,
                    requests=exemplar.requests[:1] or exemplar.requests,
                    plan=(
                        exemplar.plan.with_shard(owner)
                        if exemplar.plan is not None
                        else None
                    ),
                    idempotency_key="",
                )
                try:
                    # Straight to the worker: warm batches are not admissions
                    # and must not journal, count, or complete anything.
                    worker.process([warm_item])
                    report.rewarmed += 1
                except (ConnectionError, OSError):
                    report.rewarm_failures += 1

    pending_items = [query.to_shard_query() for query in state.pending.values()]
    report.batches_recovered = coordinator._requeue_items(pending_items, reason="recovery")
    with coordinator._keys_lock:
        for item in pending_items:
            if item.idempotency_key:
                coordinator._pending_keys[item.idempotency_key] = coordinator.ring.assign(
                    item.fingerprint
                )

    if attach:
        fresh_kwargs = dict(journal_kwargs or {})
        fresh_kwargs.setdefault("metrics", coordinator.metrics)
        journal = CoordinatorJournal(directory, **fresh_kwargs)
        journal.seed(pending=state.pending, warm=state.warm)
        coordinator.attach_journal(journal)
        report.journal_bytes = journal.wal.size_bytes()

    report.total_seconds = time.perf_counter() - started
    return coordinator, report


class CoordinatorSupervisor:
    """Owns a coordinator's journal directory and crash/recover lifecycle.

    The chaos loop's process-level counterpart to
    :class:`~repro.elastic.FaultInjector`'s shard faults: the injector calls
    :meth:`crash_coordinator` when a ``coordinator-crash`` event fires, and
    the load generator transparently continues on the replacement.

    Args:
        directory: the journal directory (shared across incarnations).
        coordinator_kwargs: constructor arguments for every incarnation.
        journal_kwargs: :class:`CoordinatorJournal` knobs (segment bytes,
            checkpoint interval, fsync).
        rewarm: passed to :func:`recover`.
        metrics: shared registry; counters therefore span incarnations.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        coordinator_kwargs: Mapping[str, Any] | None = None,
        *,
        journal_kwargs: Mapping[str, Any] | None = None,
        rewarm: bool = True,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.directory = directory
        self.coordinator_kwargs = dict(coordinator_kwargs or {})
        if metrics is not None:
            self.coordinator_kwargs.setdefault("metrics", metrics)
        self.journal_kwargs = dict(journal_kwargs or {})
        self.rewarm = rewarm
        self.coordinator: ClusterCoordinator | None = None
        self.crashes = 0
        self.recoveries: list[RecoveryReport] = []

    def start(self) -> ClusterCoordinator:
        """Build the first incarnation, journaling from its first submit."""
        if self.coordinator is not None:
            raise RuntimeError("supervisor already has a live coordinator")
        fresh_kwargs = dict(self.journal_kwargs)
        if "metrics" in self.coordinator_kwargs:
            fresh_kwargs.setdefault("metrics", self.coordinator_kwargs["metrics"])
        journal = CoordinatorJournal(self.directory, **fresh_kwargs)
        self.coordinator = ClusterCoordinator(**self.coordinator_kwargs, journal=journal)
        return self.coordinator

    def crash(self) -> None:
        """SIGKILL semantics: no clean shutdown anywhere.

        Remote shard-server children are killed (not shut down), the journal
        is abandoned (no final checkpoint), and the coordinator object is
        dropped without ``close()`` — recovery may use only what the journal
        already made durable.
        """
        coordinator = self.coordinator
        if coordinator is None:
            return
        self.coordinator = None
        self.crashes += 1
        for worker in coordinator.workers.values():
            child = getattr(worker, "child", None)
            if child is not None:
                child.kill()
                child.join(timeout=10)
        if coordinator.journal is not None:
            coordinator.journal.abandon()

    def recover(self) -> ClusterCoordinator:
        """Rebuild from the journal; the new incarnation becomes current."""
        if self.coordinator is not None:
            raise RuntimeError("cannot recover while a coordinator is live; crash() first")
        coordinator, report = recover(
            self.directory,
            self.coordinator_kwargs,
            rewarm=self.rewarm,
            journal_kwargs=self.journal_kwargs,
        )
        self.recoveries.append(report)
        self.coordinator = coordinator
        return coordinator

    def crash_coordinator(self) -> ClusterCoordinator:
        """The :class:`~repro.elastic.FaultInjector` hook: crash, then recover."""
        self.crash()
        return self.recover()

    def close(self) -> None:
        if self.coordinator is not None:
            self.coordinator.close()
            self.coordinator = None

    def __enter__(self) -> "CoordinatorSupervisor":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False
