"""The cluster front door: ring placement, admission, scatter/gather, merge.

:class:`ClusterCoordinator` is to the cluster what
:class:`~repro.service.RoutingService` is to one process:

1. **Place** — every submitted query is fingerprinted once (the same
   canonical key the per-shard caches use) and mapped to a shard by the
   :class:`~repro.cluster.ring.ConsistentHashRing`, so all traffic for one
   (graph, backend, parameters) key lands where its artifact lives.
2. **Admit** — the shard's bounded queue accepts, rejects, or sheds
   (:mod:`repro.cluster.admission`); overload degrades predictably instead of
   growing an unbounded backlog.
3. **Scatter/gather** — :meth:`ClusterCoordinator.dispatch` drains every
   queue, fans each shard's slice out to its worker concurrently, and merges
   the per-shard :class:`~repro.service.BatchReport` s into one
   :class:`ClusterReport`.
4. **Scale** — :meth:`add_shard` / :meth:`remove_shard` rebalance the ring
   and report how much artifact locality the change cost
   (:class:`~repro.cluster.ring.RebalanceStats` over every fingerprint the
   coordinator has seen).  Warm artifacts whose placement moved are handed
   to their new owners instead of being rebuilt — as the object itself
   between in-process shards, as a spill file in the coordinator's handoff
   directory between shard server processes — counted by
   ``repro_cluster_warm_handoffs_total``.

Placement, admission, and per-shard serving are all deterministic given the
same submissions and configuration — :meth:`ClusterReport.signature`
captures exactly the deterministic part (counts and rounds, not wall-clock),
which is what the cluster determinism tests compare.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import networkx as nx

from repro.analysis.reporting import format_kv, format_table
from repro.cluster.admission import AdmissionController, AdmissionDecision, AdmissionStats
from repro.cluster.ring import ConsistentHashRing, RebalanceStats
from repro.cluster.worker import ShardQuery, ShardWorker
from repro.core.tokens import RoutingRequest
from repro.hierarchy.builder import HierarchyParameters
from repro.kernels import active_kernel
from repro.metrics import MetricsRegistry, default_registry
from repro.metrics import quantile as _quantile
from repro.planner import ExecutionPlan, QueryPlanner
from repro.service.cache import ArtifactCache
from repro.service.service import DEFAULT_BACKEND, BatchReport, RoutingService
from repro.workloads import Workload

if TYPE_CHECKING:  # deferred: repro.durability imports this module
    from repro.durability.journal import CoordinatorJournal

__all__ = ["ClusterReport", "ClusterCoordinator", "TRANSPORTS", "merge_batch_reports"]


def merge_batch_reports(reports: Sequence[BatchReport]) -> BatchReport:
    """Fold one shard's reports from successive cycles into one report."""
    if len(reports) == 1:
        return reports[0]
    merged = BatchReport()
    for report in reports:
        merged.results.extend(report.results)
        merged.distinct_graphs += report.distinct_graphs
        merged.cache_hits += report.cache_hits
        merged.cache_misses += report.cache_misses
        merged.preprocess_rounds_incurred += report.preprocess_rounds_incurred
        merged.preprocess_rounds_reused += report.preprocess_rounds_reused
        merged.preprocess_seconds += report.preprocess_seconds
        merged.route_seconds += report.route_seconds
        merged.wall_seconds += report.wall_seconds
    return merged

#: The recognised cluster transports: in-process shard workers, or shard
#: server processes behind the wire protocol (unix sockets by default).
TRANSPORTS = ("local", "tcp")


@dataclass
class ClusterReport:
    """One dispatch cycle's merged outcome across every shard.

    Attributes:
        shard_reports: per-shard :class:`BatchReport`, keyed by shard id
            (only shards that served queries this cycle appear).
        dispatch_seconds: wall-clock of the whole scatter/gather.
        admission: snapshot of the coordinator's lifetime admission totals at
            gather time (offered/accepted/rejected/shed).
        lost_batches: snapshot of the coordinator's lifetime count of admitted
            batches that vanished (a shard died with no surviving shard to
            re-own its work) — the number every failover test pins at zero.
        requeued_batches: snapshot of the lifetime count of admitted batches
            re-owned by another shard (planned rebalances and failovers).
    """

    shard_reports: dict[str, BatchReport] = field(default_factory=dict)
    dispatch_seconds: float = 0.0
    admission: AdmissionStats = field(default_factory=AdmissionStats)
    lost_batches: int = 0
    requeued_batches: int = 0

    @property
    def query_count(self) -> int:
        return sum(report.query_count for report in self.shard_reports.values())

    @property
    def cache_hits(self) -> int:
        return sum(report.cache_hits for report in self.shard_reports.values())

    @property
    def cache_hit_rate(self) -> float:
        total = self.query_count
        return self.cache_hits / total if total else 0.0

    @property
    def preprocess_rounds_incurred(self) -> int:
        return sum(r.preprocess_rounds_incurred for r in self.shard_reports.values())

    @property
    def preprocess_rounds_reused(self) -> int:
        return sum(r.preprocess_rounds_reused for r in self.shard_reports.values())

    @property
    def total_query_rounds(self) -> int:
        return sum(r.total_query_rounds for r in self.shard_reports.values())

    @property
    def all_delivered(self) -> bool:
        return all(r.all_delivered for r in self.shard_reports.values())

    @property
    def plan_counts(self) -> dict[str, int]:
        """How many queries each full plan id served this cycle (sorted)."""
        counts: dict[str, int] = {}
        for report in self.shard_reports.values():
            for result in report.results:
                key = result.plan_id or "(no plan)"
                counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def backend_counts(self) -> dict[str, int]:
        """How many queries each backend served this cycle (sorted)."""
        counts: dict[str, int] = {}
        for report in self.shard_reports.values():
            for result in report.results:
                counts[result.backend] = counts.get(result.backend, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def query_seconds(self) -> list[float]:
        """Every query's routing latency, grouped by shard id order."""
        seconds: list[float] = []
        for shard_id in sorted(self.shard_reports):
            seconds.extend(self.shard_reports[shard_id].query_seconds)
        return seconds

    def query_seconds_quantile(self, q: float) -> float:
        return _quantile(self.query_seconds, q)

    @classmethod
    def merged(cls, reports: Sequence["ClusterReport"]) -> "ClusterReport":
        """Fold many window reports into one run-level report.

        Per-shard batch reports concatenate across windows, so
        ``merged(run_a).signature() == merged(run_b).signature()`` compares
        two whole runs — the crash-recovery parity check uses exactly this.
        """
        by_shard: dict[str, list[BatchReport]] = {}
        for report in reports:
            for shard_id, shard_report in report.shard_reports.items():
                by_shard.setdefault(shard_id, []).append(shard_report)
        merged = cls(
            shard_reports={
                shard_id: merge_batch_reports(shard_reports)
                for shard_id, shard_reports in by_shard.items()
            },
            dispatch_seconds=sum(report.dispatch_seconds for report in reports),
        )
        if reports:
            merged.admission = reports[-1].admission
            merged.lost_batches = reports[-1].lost_batches
            merged.requeued_batches = reports[-1].requeued_batches
        return merged

    def signature(self) -> dict[str, dict[str, object]]:
        """The deterministic shape of the dispatch: per-shard counts, no clocks.

        Two coordinators with the same configuration and submissions produce
        identical signatures — the cluster determinism tests rely on it.
        """
        return {
            shard_id: {
                "queries": report.query_count,
                "distinct_graphs": report.distinct_graphs,
                "cache_hits": report.cache_hits,
                "delivered": sum(res.outcome.delivered for res in report.results),
                "total_query_rounds": report.total_query_rounds,
                "preprocess_rounds_incurred": report.preprocess_rounds_incurred,
                "preprocess_rounds_reused": report.preprocess_rounds_reused,
                # Semantic plan identities only: stable across kernels and
                # pool modes, like BatchReport.signature().
                "plans": sorted({res.plan_semantic_id for res in report.results}),
            }
            for shard_id, report in sorted(self.shard_reports.items())
        }

    def per_shard_rows(self) -> list[dict[str, object]]:
        rows = []
        for shard_id in sorted(self.shard_reports):
            report = self.shard_reports[shard_id]
            rows.append(
                {
                    "shard": shard_id,
                    "queries": report.query_count,
                    "cache_hit_rate": report.cache_hit_rate,
                    "preprocess_rounds_incurred": report.preprocess_rounds_incurred,
                    "query_rounds": report.total_query_rounds,
                    "p50_seconds": report.query_seconds_quantile(0.50),
                    "p99_seconds": report.query_seconds_quantile(0.99),
                }
            )
        return rows

    def summary(self) -> dict[str, object]:
        return {
            "shards": len(self.shard_reports),
            "queries": self.query_count,
            "distinct_plans": len(self.plan_counts),
            "cache_hit_rate": self.cache_hit_rate,
            "preprocess_rounds_incurred": self.preprocess_rounds_incurred,
            "preprocess_rounds_reused": self.preprocess_rounds_reused,
            "total_query_rounds": self.total_query_rounds,
            "all_delivered": self.all_delivered,
            "p50_seconds": self.query_seconds_quantile(0.50),
            "p95_seconds": self.query_seconds_quantile(0.95),
            "p99_seconds": self.query_seconds_quantile(0.99),
            "dispatch_seconds": self.dispatch_seconds,
            "dropped": self.admission.dropped,
            "lost_batches": self.lost_batches,
            "requeued_batches": self.requeued_batches,
        }

    def render(self) -> str:
        parts = [format_kv(self.summary(), title="cluster")]
        if self.shard_reports:
            parts.append(format_table(self.per_shard_rows()))
        return "\n\n".join(parts)


class ClusterCoordinator:
    """Scatters fingerprinted queries over shard workers and merges the reports.

    Args:
        shard_count: initial number of shards (``shard-0`` .. ``shard-N-1``).
        epsilon / psi / hierarchy_params: service tradeoff parameters, shared
            by every shard (and by the coordinator's own fingerprinting).
        vnodes: virtual nodes per shard on the placement ring.
        cache_capacity: per-shard in-memory artifact slots.
        queue_capacity: per-shard admission queue bound (``None`` =
            unbounded).
        admission_policy: ``"reject"`` or ``"shed-oldest"``.
        replication_factor: ring owners per *hot* fingerprint (``1`` = no
            replication).  Keys whose traffic crosses the hot-key threshold
            are published to this many owners and reads round-robin across
            them — the hotspot workload's scaling knob.
        hot_key_threshold: smoothed submissions-per-dispatch above which a
            fingerprint counts as hot.
        hot_key_alpha: EWMA smoothing factor for the hot-key rate (``1`` =
            only the latest cycle counts).
        default_plan: the cluster's execution defaults as **one**
            :class:`~repro.planner.ExecutionPlan` — pool mode and width for
            every shard service, and the template fixed submissions execute
            under.  (The deprecated ``shard_parallelism`` /
            ``shard_max_workers`` property shims are gone as of this
            release; read the plan.)
        policy: central planning policy — ``"fixed"`` (default) executes the
            default plan / explicit kwargs, ``"cost"`` / ``"adaptive"``
            attach a :class:`~repro.planner.QueryPlanner` whose cost model
            is shared cluster-wide (every shard's observed timings calibrate
            the same model).
        planner: inject a preconfigured planner instead (wins over
            ``policy``).
        metrics: shared registry (default: the process-wide one).
        transport: ``"local"`` (default) keeps every shard in process;
            ``"tcp"`` runs each shard as a spawned server process behind the
            wire protocol (:mod:`repro.net`) — placement, admission, and
            planning stay here, and :class:`ClusterReport.signature` is
            byte-identical across the two transports.  Note the ``adaptive``
            policy's timing feedback does not cross the process boundary.
        net_family: listener family for ``transport="tcp"`` — ``"unix"``
            (default, CI-safe) or ``"inet"`` (real TCP on loopback).

    Shard services keep long-lived worker pools (and, under
    ``transport="tcp"``, server processes); :meth:`close` (or using the
    coordinator as a context manager) releases all of them, idempotently.
    """

    def __init__(
        self,
        shard_count: int = 4,
        epsilon: float = 0.5,
        psi: float | None = None,
        hierarchy_params: HierarchyParameters | None = None,
        vnodes: int = 64,
        cache_capacity: int = 8,
        queue_capacity: int | None = None,
        admission_policy: str = "reject",
        replication_factor: int = 1,
        hot_key_threshold: float = 4.0,
        hot_key_alpha: float = 0.5,
        default_plan: ExecutionPlan | None = None,
        policy: str | None = None,
        planner: QueryPlanner | None = None,
        metrics: MetricsRegistry | None = None,
        transport: str = "local",
        net_family: str = "unix",
        journal: "CoordinatorJournal | None" = None,
        shard_ids: Sequence[str] | None = None,
    ) -> None:
        if shard_ids is not None and len(shard_ids) < 1:
            raise ValueError("shard_ids must name at least one shard")
        if shard_ids is None and shard_count < 1:
            raise ValueError("a cluster needs at least one shard")
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}; use one of {TRANSPORTS}")
        if replication_factor < 1:
            raise ValueError("replication_factor must be at least 1")
        if hot_key_threshold <= 0:
            raise ValueError("hot_key_threshold must be positive")
        if not 0.0 < hot_key_alpha <= 1.0:
            raise ValueError("hot_key_alpha must be in (0, 1]")
        self.epsilon = epsilon
        self.psi = psi
        self.hierarchy_params = hierarchy_params
        self.cache_capacity = cache_capacity
        self.transport = transport
        self.net_family = net_family
        # tcp only: the shard sockets and the warm-handoff spill files live
        # here.  Removed on close, or by the finalizer when a crashed
        # coordinator is dropped without close, so a SIGKILLed shard's
        # half-finished handoff leaks nothing.
        self.handoff_dir: str | None = None
        self._handoff_finalizer: weakref.finalize | None = None
        self._closed = False
        self.metrics = metrics if metrics is not None else default_registry()
        if default_plan is None:
            default_plan = ExecutionPlan(
                backend=DEFAULT_BACKEND,
                kernel=active_kernel(),
                policy="fixed",
                reason="cluster execution defaults",
            )
        self.default_plan = default_plan
        if planner is None and policy is not None and policy != "fixed":
            planner = QueryPlanner(
                policy=policy,
                epsilon=epsilon,
                parallelism=default_plan.parallelism,
                max_workers=default_plan.max_workers,
                metrics=self.metrics,
            )
        self.planner = planner
        self.ring = ConsistentHashRing(vnodes=vnodes)
        self.admission = AdmissionController(
            capacity=queue_capacity, policy=admission_policy, metrics=self.metrics
        )
        self.workers: dict[str, ShardWorker] = {}
        self._next_shard_index = 0
        self._seen_fingerprints: set[str] = set()
        # Bumped on every membership change (add/remove/fail/rejoin); the
        # gateway watches it to invalidate fingerprint-negotiation caches
        # whose entries may be pinned to a stale placement.
        self.membership_version = 0
        # -- elasticity state: hot-key replication and failover accounting.
        self.replication_factor = replication_factor
        self.hot_key_threshold = hot_key_threshold
        self.hot_key_alpha = hot_key_alpha
        self.lost_batches = 0
        self.requeued_batches = 0
        self.failovers = 0
        self.duplicate_results = 0
        # -- durability state: exactly-once idempotency-key tracking.  Keys
        # are tracked for explicitly keyed submissions always, and for every
        # submission once a journal is attached (auto-generated keys).
        self.journal: "CoordinatorJournal | None" = None
        self._keys_lock = threading.Lock()
        self._pending_keys: dict[str, str] = {}  # key -> current owner shard
        self._completed_keys: set[str] = set()
        self._auto_key_counter = 0
        self._hot_ewma: dict[str, float] = {}
        self._window_counts: dict[str, int] = {}
        self._replicas: dict[str, tuple[str, ...]] = {}
        self._replica_rr: dict[str, int] = {}
        # The coordinator fingerprints with the same parameters the shard
        # services use, so placement keys and cache keys agree; its own cache
        # is never filled (placement never routes).
        self._keyer = RoutingService(
            epsilon=epsilon,
            psi=psi,
            hierarchy_params=hierarchy_params,
            cache=ArtifactCache(capacity=1),
            metrics=self.metrics,
        )
        self._m_dispatch_seconds = self.metrics.histogram(
            "repro_cluster_dispatch_seconds", "Wall-clock per scatter/gather cycle."
        )
        self._m_warm_handoffs = self.metrics.counter(
            "repro_cluster_warm_handoffs_total",
            "Warm artifacts migrated during rebalances, by carrier plane.",
            labels=("path",),
        )
        self._m_requeued = self.metrics.counter(
            "repro_cluster_requeued_batches_total",
            "Admitted batches re-owned by another shard, by cause.",
            labels=("reason",),
        )
        self._m_lost = self.metrics.counter(
            "repro_cluster_lost_batches_total",
            "Admitted batches lost because no shard survived to re-own them.",
        )
        self._m_failovers = self.metrics.counter(
            "repro_cluster_failovers_total",
            "Shards marked dead and removed outside a planned rebalance.",
            labels=("shard",),
        )
        self._m_heartbeat_failures = self.metrics.counter(
            "repro_cluster_heartbeat_failures_total",
            "Health checks that found a shard unreachable.",
            labels=("shard",),
        )
        self._m_replica_publishes = self.metrics.counter(
            "repro_cluster_replica_publishes_total",
            "Hot artifacts published to replica shards, by carrier plane.",
            labels=("path",),
        )
        self._m_replica_reads = self.metrics.counter(
            "repro_cluster_replica_reads_total",
            "Reads load-balanced across a replicated key's owners, by shard.",
            labels=("shard",),
        )
        self._m_hot_keys = self.metrics.gauge(
            "repro_cluster_replica_hot_keys",
            "Fingerprints currently above the hot-key EWMA threshold.",
        )
        self._m_dedup_hits = self.metrics.counter(
            "repro_journal_dedup_hits_total",
            "Submissions short-circuited because their idempotency key was "
            "already pending or completed.",
        )
        self._m_duplicate_results = self.metrics.counter(
            "repro_cluster_duplicate_results_total",
            "Completions observed for an already-completed idempotency key "
            "(double execution — zero when exactly-once holds).",
        )
        if shard_ids is not None:
            for shard_id in shard_ids:
                self.add_shard(shard_id)
        else:
            for _ in range(shard_count):
                self.add_shard()
        if journal is not None:
            self.attach_journal(journal)

    # -- durability ------------------------------------------------------------

    def attach_journal(self, journal: "CoordinatorJournal") -> None:
        """Start journaling into ``journal`` (writes a baseline checkpoint).

        Every subsequent admit and completion is appended durably, and
        membership changes checkpoint the full recoverable state —
        :func:`repro.durability.recover` replays it all into a fresh
        coordinator after a crash.
        """
        self.journal = journal
        journal.attach(self)
        journal.checkpoint_now()

    def pending_keys(self) -> dict[str, str]:
        """``idempotency key -> owner shard`` for every admitted, unfinished batch."""
        with self._keys_lock:
            return dict(self._pending_keys)

    def completed_key_count(self) -> int:
        with self._keys_lock:
            return len(self._completed_keys)

    def _record_completions(self, shard_id: str, items: Sequence[ShardQuery]) -> None:
        """Mark each served item's key completed (and journal it), dedup-safe."""
        for item in items:
            key = item.idempotency_key
            if not key:
                continue
            with self._keys_lock:
                if key in self._completed_keys:
                    self.duplicate_results += 1
                    self._m_duplicate_results.inc()
                    continue
                self._completed_keys.add(key)
                self._pending_keys.pop(key, None)
            if self.journal is not None:
                self.journal.record_complete(item, shard_id)

    # -- membership -----------------------------------------------------------

    @property
    def shard_ids(self) -> list[str]:
        return self.ring.shard_ids

    @property
    def shard_count(self) -> int:
        return len(self.workers)

    def _make_worker(self, shard_id: str):
        """One shard for the configured transport: in-process or a server process."""
        if self.transport == "local":
            return ShardWorker(
                shard_id,
                epsilon=self.epsilon,
                psi=self.psi,
                hierarchy_params=self.hierarchy_params,
                cache_capacity=self.cache_capacity,
                default_plan=self.default_plan,
                planner=self.planner,
                metrics=self.metrics,
            )
        # Imported lazily: repro.net depends on this module.
        from repro.net.shard_server import ShardServerConfig, start_shard_server

        if self.handoff_dir is None:
            self.handoff_dir = tempfile.mkdtemp(prefix="repro-net-")
            self._handoff_finalizer = weakref.finalize(self, shutil.rmtree, self.handoff_dir, True)
        config = ShardServerConfig(
            shard_id=shard_id,
            family=self.net_family,
            socket_path=(
                f"{self.handoff_dir}/{shard_id}.sock" if self.net_family == "unix" else None
            ),
            handoff_dir=self.handoff_dir,
            epsilon=self.epsilon,
            psi=self.psi,
            hierarchy_params=self.hierarchy_params,
            cache_capacity=self.cache_capacity,
            default_plan=self.default_plan,
        )
        return start_shard_server(config, metrics=self.metrics)

    def add_shard(self, shard_id: str | None = None) -> RebalanceStats:
        """Add a shard (and its worker); returns how placement moved.

        The rebalance stats are measured over every fingerprint the
        coordinator has seen — the moved fraction is the share of known
        artifacts whose cache locality the scale-up cost.
        """
        if shard_id is None:
            shard_id = f"shard-{self._next_shard_index}"
        self._next_shard_index += 1
        seen = sorted(self._seen_fingerprints)
        before = self.ring.placement(seen) if len(self.ring) else {}
        before_count = len(self.ring)
        self.ring.add_shard(shard_id)
        self.workers[shard_id] = self._make_worker(shard_id)
        self._replicas.clear()  # replica sets are recomputed against the new ring
        self._migrate_warm(before)
        moved = sum(1 for key in seen if self.ring.assign(key) != before.get(key))
        expected = 1.0 / len(self.ring) if before_count else 1.0
        self.membership_version += 1
        if self.journal is not None:
            self.journal.record_membership()
        return RebalanceStats(total=len(seen), moved=moved, expected_fraction=expected)

    def remove_shard(self, shard_id: str) -> RebalanceStats:
        """Drop a shard; queued work is requeued on its new owners.

        Stranded items were already admitted, so they move via
        :meth:`~repro.cluster.admission.AdmissionController.requeue` — no
        second admission decision, no loss even if the new owner's queue is
        momentarily over capacity.
        """
        if len(self.workers) <= 1:
            raise ValueError("cannot remove the last shard")
        seen = sorted(self._seen_fingerprints)
        before = self.ring.placement(seen)
        stranded = self.admission.drain(shard_id)
        self.ring.remove_shard(shard_id)
        departing = self.workers.pop(shard_id)
        self._replicas.clear()
        # The departing shard's warm artifacts migrate to their new owners
        # before its pools go away.
        self._migrate_warm(before, departed={shard_id: departing})
        departing.close()
        self._requeue_items(stranded, reason="rebalance")
        moved = sum(1 for key in seen if self.ring.assign(key) != before.get(key))
        self.membership_version += 1
        if self.journal is not None:
            self.journal.record_membership()
        return RebalanceStats(
            total=len(seen), moved=moved, expected_fraction=1.0 / (len(self.ring) + 1)
        )

    def _migrate_warm(
        self,
        before: Mapping[str, str],
        departed: Mapping[str, ShardWorker] | None = None,
    ) -> int:
        """Hand warm artifacts whose placement moved to their new owners.

        ``before`` maps each seen fingerprint to its pre-rebalance shard;
        ``departed`` supplies workers already removed from :attr:`workers`
        (still open, about to close).  Local workers hand the artifact object
        over in-process; shard servers write and load a spill file in
        :attr:`handoff_dir` via the artifact-handoff wire messages, and the
        file is deleted once adopted.  Returns how many artifacts migrated.
        """
        migrated = 0
        for fingerprint, old_owner in before.items():
            new_owner = self.ring.assign(fingerprint)
            if new_owner == old_owner:
                continue
            source = (departed or {}).get(old_owner) or self.workers.get(old_owner)
            target = self.workers.get(new_owner)
            if not hasattr(source, "export_artifact") or not hasattr(target, "adopt_artifact"):
                continue
            try:
                handoff = source.export_artifact(fingerprint)
            except (ConnectionError, OSError):
                continue  # an unreachable source cannot hand off; rebuild instead
            if handoff is None:
                continue
            try:
                adopted = target.adopt_artifact(handoff)
            except (ConnectionError, OSError):
                adopted = False
            handoff.discard()
            if adopted:
                self._m_warm_handoffs.labels(path=handoff.path).inc()
                migrated += 1
        return migrated

    # -- failover: health checks and unplanned shard loss ----------------------

    def heartbeat(self) -> dict[str, bool]:
        """One liveness probe per shard, in shard-id order (no side effects)."""
        status: dict[str, bool] = {}
        for shard_id in sorted(self.workers):
            worker = self.workers[shard_id]
            try:
                status[shard_id] = bool(worker.healthy())
            except (ConnectionError, OSError, RuntimeError):
                status[shard_id] = False
        return status

    def check_health(self) -> dict[str, bool]:
        """Heartbeat every shard and fail the dead ones (work is re-owned).

        This is the crash-observation half of the failover contract: a shard
        that stops answering is marked dead and its admitted batches move to
        the surviving owners *before* the next dispatch, so an open-loop run
        through a kill sees requeues, never losses.
        """
        status = self.heartbeat()
        for shard_id, alive in status.items():
            if not alive:
                self._m_heartbeat_failures.labels(shard=shard_id).inc()
                self.fail_shard(shard_id)
        return status

    def fail_shard(self, shard_id: str, in_flight: Sequence[ShardQuery] = ()) -> int:
        """Unplanned removal after a crash or partition: re-own the dead shard's work.

        Unlike :meth:`remove_shard` there is no warm migration — the shard is
        unreachable, its cache is gone.  Queued (and caller-supplied
        in-flight) batches are requeued to the new ring owners and counted in
        :attr:`requeued_batches`; work is lost only when no shard survives.
        Returns how many batches were requeued.
        """
        worker = self.workers.get(shard_id)
        if worker is None:
            return 0
        stranded = self.admission.drain(shard_id)
        self.ring.remove_shard(shard_id)
        self.workers.pop(shard_id)
        self._replicas.clear()
        self.failovers += 1
        self._m_failovers.labels(shard=shard_id).inc()
        try:
            worker.close()
        except (ConnectionError, OSError, RuntimeError):
            pass  # a dead shard may not shut down cleanly
        requeued = self._requeue_items(list(in_flight) + stranded, reason="failover")
        self.membership_version += 1
        if self.journal is not None:
            self.journal.record_membership()
        return requeued

    def rejoin_shard(self, shard_id: str | None = None) -> RebalanceStats:
        """Bring a failed shard's identity back as a fresh worker.

        The replacement starts cold except for what the warm handoff migrates
        from the surviving shards — the same path :meth:`add_shard` takes,
        reusing the old shard id so placement returns to its pre-crash shape.
        """
        if shard_id is not None and shard_id in self.workers:
            raise ValueError(f"shard {shard_id!r} is already serving")
        return self.add_shard(shard_id)

    def _requeue_items(self, items: Sequence[ShardQuery], reason: str) -> int:
        """Re-own admitted items on the current ring; count requeues vs losses."""
        if not items:
            return 0
        if not len(self.ring):
            self.lost_batches += len(items)
            self._m_lost.inc(len(items))
            return 0
        by_owner: dict[str, list[ShardQuery]] = {}
        for item in items:
            owner = self.ring.assign(item.fingerprint)
            if item.plan is not None and item.plan.shard_hint != owner:
                item = replace(item, plan=item.plan.with_shard(owner))
            by_owner.setdefault(owner, []).append(item)
        for owner, owned in by_owner.items():
            self.admission.requeue(owner, owned)
        self.requeued_batches += len(items)
        self._m_requeued.labels(reason=reason).inc(len(items))
        return len(items)

    # -- hot-key replication ---------------------------------------------------

    def _place(self, fingerprint: str) -> str:
        """The shard a submission routes to.

        The ring's primary owner, unless the key has warmed replicas — then
        reads round-robin deterministically over primary + replicas, which is
        what spreads a hotspot's load without moving its placement.
        """
        primary = self.ring.assign(fingerprint)
        replicas = self._replicas.get(fingerprint)
        if not replicas:
            return primary
        candidates = [primary] + [s for s in replicas if s != primary and s in self.workers]
        if len(candidates) == 1:
            return primary
        turn = self._replica_rr.get(fingerprint, 0)
        self._replica_rr[fingerprint] = turn + 1
        choice = candidates[turn % len(candidates)]
        self._m_replica_reads.labels(shard=choice).inc()
        return choice

    def _update_hot_keys(self) -> None:
        """Fold this cycle's per-key traffic into the hot-key EWMA; replicate.

        A fingerprint whose smoothed submissions-per-cycle crosses
        :attr:`hot_key_threshold` is hot; under ``replication_factor > 1``
        its warm artifact is published to the extra ring owners so subsequent
        reads load-balance across them (:meth:`_place`).
        """
        alpha = self.hot_key_alpha
        for fingerprint in set(self._hot_ewma) | set(self._window_counts):
            previous = self._hot_ewma.get(fingerprint, 0.0)
            observed = float(self._window_counts.get(fingerprint, 0))
            self._hot_ewma[fingerprint] = (1.0 - alpha) * previous + alpha * observed
        self._window_counts.clear()
        if self.replication_factor > 1 and len(self.ring) > 1:
            self._replicate_hot_keys()
        self._m_hot_keys.set(
            sum(1 for rate in self._hot_ewma.values() if rate >= self.hot_key_threshold)
        )

    def _replicate_hot_keys(self) -> None:
        """Publish every hot key's artifact to its replica owners (idempotent)."""
        for fingerprint in sorted(self._hot_ewma):
            if self._hot_ewma[fingerprint] < self.hot_key_threshold:
                continue
            owners = self.ring.owners(fingerprint, self.replication_factor)
            current = set(self._replicas.get(fingerprint, ()))
            missing = [sid for sid in owners[1:] if sid not in current]
            if not missing:
                continue
            source = self.workers.get(owners[0])
            if not hasattr(source, "export_artifact"):
                continue
            try:
                handoff = source.export_artifact(fingerprint)
            except (ConnectionError, OSError):
                continue
            if handoff is None:
                continue  # the primary has not served it yet; retry next cycle
            for target_id in missing:
                target = self.workers.get(target_id)
                if target is None or not hasattr(target, "adopt_artifact"):
                    continue
                try:
                    adopted = target.adopt_artifact(handoff)
                except (ConnectionError, OSError):
                    adopted = False
                if adopted:
                    current.add(target_id)
                    self._m_replica_publishes.labels(path=handoff.path).inc()
            handoff.discard()
            if current:
                self._replicas[fingerprint] = tuple(
                    sid for sid in owners[1:] if sid in current
                )

    def replicated_keys(self) -> dict[str, tuple[str, ...]]:
        """``fingerprint -> replica shards`` for every key currently replicated."""
        return dict(self._replicas)

    # -- submission -----------------------------------------------------------

    def fingerprint(
        self,
        graph: nx.Graph,
        backend: str = DEFAULT_BACKEND,
        backend_params: Mapping[str, Any] | None = None,
    ) -> str:
        """The placement (and cache) key for ``graph`` under ``backend``."""
        return self._keyer.fingerprint(graph, backend=backend, backend_params=backend_params)

    def plan(
        self,
        graph: nx.Graph,
        requests: Sequence[RoutingRequest] | Workload,
        load: int | None = None,
        backend: str | None = None,
        backend_params: Mapping[str, Any] | None = None,
        workload: str = "",
    ) -> ExecutionPlan:
        """The execution plan one submission would ship (placement hint unset).

        Central planning: with a planner attached the policy decides (an
        explicitly named backend still pins a fixed plan); otherwise the
        cluster's :attr:`default_plan` is specialised with the caller's
        backend kwargs.
        """
        if isinstance(requests, Workload):
            workload = requests.name
            if load is None:
                load = requests.load
            requests = requests.requests
        if self.planner is not None:
            return self.planner.plan(
                self._keyer.graph_key(graph),
                graph.number_of_nodes(),
                request_count=len(requests),
                load=load,
                workload=workload,
                backend=backend,
                backend_params=backend_params,
            )
        if backend is None and backend_params is None:
            # The template verbatim — including its configured backend_params.
            return replace(self.default_plan, reason="cluster default plan")
        if backend is None:
            # Params override on the default backend; the template's own
            # params still back-fill anything the caller left unset.
            params = {**dict(self.default_plan.backend_params), **dict(backend_params)}
            return replace(
                self.default_plan,
                backend_params=params,
                reason="cluster default plan with caller params",
            )
        # A pinned backend never inherits the template's params — they are
        # specific to the template's backend.
        return replace(
            self.default_plan,
            backend=backend,
            backend_params=dict(backend_params or {}),
            reason=f"caller pinned backend={backend}",
        )

    def explain(
        self,
        graph: nx.Graph,
        requests: Sequence[RoutingRequest] | Workload,
        load: int | None = None,
        backend: str | None = None,
        backend_params: Mapping[str, Any] | None = None,
        workload: str = "",
    ):
        """The planner's EXPLAIN report for this submission (needs a planner)."""
        if self.planner is None:
            raise RuntimeError("explain() requires a cluster planner (policy=...)")
        if isinstance(requests, Workload):
            workload = requests.name
            if load is None:
                load = requests.load
            requests = requests.requests
        return self.planner.explain(
            self._keyer.graph_key(graph),
            graph.number_of_nodes(),
            request_count=len(requests),
            load=load,
            workload=workload,
            backend=backend,
            backend_params=backend_params,
        )

    def submit(
        self,
        graph: nx.Graph,
        requests: Sequence[RoutingRequest] | Workload,
        load: int | None = None,
        backend: str | None = None,
        backend_params: Mapping[str, Any] | None = None,
        workload: str = "",
        idempotency_key: str | None = None,
    ) -> AdmissionDecision:
        """Plan, fingerprint, place, and offer one query; returns the admission outcome.

        ``idempotency_key`` makes the submission exactly-once: a key that is
        already pending or completed returns a ``duplicate`` decision without
        queueing anything (the earlier admission stands), which is what makes
        a client's crash-retry resubmission safe.  With a journal attached,
        unkeyed submissions get coordinator-generated keys so every admitted
        batch is dedupable after recovery.
        """
        key = idempotency_key
        if key is not None:
            with self._keys_lock:
                if key in self._completed_keys:
                    self._m_dedup_hits.inc()
                    return AdmissionDecision(shard_id="", accepted=False, duplicate=True)
                if key in self._pending_keys:
                    self._m_dedup_hits.inc()
                    return AdmissionDecision(
                        shard_id=self._pending_keys[key], accepted=False, duplicate=True
                    )
        elif self.journal is not None:
            with self._keys_lock:
                key = f"auto-{self._auto_key_counter}"
                self._auto_key_counter += 1
        if isinstance(requests, Workload):
            workload = requests.name
            if load is None:
                load = requests.load
            requests = requests.requests
        requests = tuple(requests)
        plan = self.plan(
            graph,
            requests,
            load=load,
            backend=backend,
            backend_params=backend_params,
            workload=workload,
        )
        fingerprint = self.fingerprint(
            graph, backend=plan.backend, backend_params=plan.backend_params
        )
        self._seen_fingerprints.add(fingerprint)
        self._window_counts[fingerprint] = self._window_counts.get(fingerprint, 0) + 1
        shard_id = self._place(fingerprint)
        item = ShardQuery(
            fingerprint=fingerprint,
            graph=graph,
            requests=requests,
            load=load,
            backend=plan.backend,
            backend_params=dict(plan.backend_params),
            workload=workload,
            plan=plan.with_shard(shard_id),
            idempotency_key=key or "",
        )
        decision = self.admission.offer(shard_id, item)
        if key:
            with self._keys_lock:
                if decision.accepted:
                    self._pending_keys[key] = shard_id
                for dropped in decision.shed:
                    dropped_key = getattr(dropped, "idempotency_key", "")
                    if dropped_key:
                        # Shed under overload: admitted once, then dropped —
                        # it will never complete, so it must not stay pending
                        # (recovery would wrongly resurrect it).
                        self._pending_keys.pop(dropped_key, None)
        if self.journal is not None:
            self.journal.record_admit(key or "", decision, item)
        return decision

    def submit_many(
        self, calls: Sequence[Mapping[str, Any]]
    ) -> list[AdmissionDecision | Exception]:
        """Admit a coalesced batch of submissions in one coordinator pass.

        Each element of ``calls`` is a kwargs mapping for :meth:`submit`,
        admitted in order.  With a journal attached, every admit record in
        the batch reaches disk as **one group commit** (one buffered write,
        one fsync) instead of one flush per submission — the gateway's
        micro-batch window rides on this.  Outcomes are returned only after
        the group is flushed, so the caller may acknowledge all of them the
        moment this returns; a crash mid-group loses only un-acked
        admissions.  A submission that raises is captured as the exception
        instance in its slot rather than aborting the rest of the batch.
        """
        outcomes: list[AdmissionDecision | Exception] = []
        group = self.journal.group() if self.journal is not None else nullcontext()
        with group:
            for kwargs in calls:
                try:
                    outcomes.append(self.submit(**kwargs))
                except Exception as error:  # noqa: BLE001 - per-slot capture
                    outcomes.append(error)
        return outcomes

    def queue_depths(self) -> dict[str, int]:
        return {shard_id: self.admission.depth(shard_id) for shard_id in self.workers}

    @property
    def pending_count(self) -> int:
        return sum(self.queue_depths().values())

    def admission_totals(self) -> AdmissionStats:
        """Cluster-lifetime admission totals (the client exposes the same call)."""
        return self.admission.total_stats()

    # -- execution ------------------------------------------------------------

    def drain_slices(self) -> dict[str, list[ShardQuery]]:
        """Drain every queue; the busy shards' slices, in shard-id order."""
        slices = {shard_id: self.admission.drain(shard_id) for shard_id in sorted(self.workers)}
        return {shard_id: items for shard_id, items in slices.items() if items}

    def process_shard(self, shard_id: str, items: Sequence[ShardQuery]) -> BatchReport:
        """Serve one shard's slice on its worker (local or remote).

        Completions are recorded (and journaled) only after the worker
        returns: a crash mid-batch leaves the keys pending, so recovery
        re-admits and re-serves them — at-least-once execution, exactly-once
        *results* via the completed-key dedup.
        """
        report = self.workers[shard_id].process(items)
        self._record_completions(shard_id, items)
        return report

    def merge_reports(
        self, shard_reports: Mapping[str, BatchReport], dispatch_seconds: float
    ) -> ClusterReport:
        """Merge per-shard reports into one cycle report (records the histogram)."""
        report = ClusterReport(
            shard_reports=dict(shard_reports),
            dispatch_seconds=dispatch_seconds,
            admission=self.admission.total_stats(),
            lost_batches=self.lost_batches,
            requeued_batches=self.requeued_batches,
        )
        self._m_dispatch_seconds.observe(dispatch_seconds)
        return report

    # Kept as a staticmethod alias: the gateway and older callers reach the
    # merge through the class.
    _merge_batch_reports = staticmethod(merge_batch_reports)

    def dispatch(self) -> ClusterReport:
        """Drain every queue, scatter to the shard workers, gather, merge.

        Failover lives here: a shard whose slice dies mid-scatter (crash,
        partition, killed server process) is marked failed, its whole slice —
        nothing partial ever merges from a failed shard — is requeued to the
        surviving owners, and the cycle repeats until every queue is empty or
        no shard remains.  Admitted work is therefore served exactly once in
        the merged report or counted in :attr:`lost_batches`, never dropped
        silently.

        The gateway composes the same three steps (:meth:`drain_slices`,
        :meth:`process_shard`, :meth:`merge_reports`) so it can stream each
        shard's report as it completes instead of gathering here.
        """
        started = time.perf_counter()
        collected: dict[str, list[BatchReport]] = {}
        for _ in range(len(self.workers) + 2):
            busy = self.drain_slices()
            if not busy:
                break
            failed: dict[str, list[ShardQuery]] = {}
            with ThreadPoolExecutor(max_workers=len(busy)) as pool:
                futures = {
                    shard_id: pool.submit(self.process_shard, shard_id, items)
                    for shard_id, items in busy.items()
                }
                for shard_id, future in futures.items():
                    try:
                        collected.setdefault(shard_id, []).append(future.result())
                    except ConnectionError:
                        failed[shard_id] = busy[shard_id]
            if not failed:
                break
            for shard_id, items in failed.items():
                self.fail_shard(shard_id, in_flight=items)
        self._update_hot_keys()
        shard_reports = {
            shard_id: self._merge_batch_reports(reports)
            for shard_id, reports in collected.items()
            if reports
        }
        return self.merge_reports(shard_reports, time.perf_counter() - started)

    def route_batch(
        self,
        graph: nx.Graph,
        workloads: Sequence[Workload | Sequence[RoutingRequest]],
        backend: str | None = None,
        backend_params: Mapping[str, Any] | None = None,
    ) -> ClusterReport:
        """Submit every workload and dispatch once (drops are reflected in the report)."""
        for workload in workloads:
            self.submit(graph, workload, backend=backend, backend_params=backend_params)
        return self.dispatch()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release every shard (pools or server processes) and the keyer; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.journal is not None:
            # A clean shutdown checkpoints, so recovery replays nothing.
            try:
                self.journal.checkpoint_now()
            finally:
                self.journal.close()
        for worker in self.workers.values():
            worker.close()
        self._keyer.close()
        if self._handoff_finalizer is not None:
            self._handoff_finalizer()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False

    # -- reporting ------------------------------------------------------------

    def shard_rows(self) -> list[dict[str, object]]:
        """Lifetime per-shard serving and cache stats (for operators' tables)."""
        rows = []
        for shard_id in sorted(self.workers):
            worker = self.workers[shard_id]
            row = worker.as_row()
            row["queue_depth"] = self.admission.depth(shard_id)
            rows.append(row)
        return rows
