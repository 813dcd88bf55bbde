"""One shard of the cluster: a :class:`RoutingService` plus its own cache.

A shard worker is deliberately thin — all the serving machinery (fingerprint
memoization, artifact cache, parallel fan-out, batch reports) already lives
in :class:`~repro.service.RoutingService`; the worker gives one shard its own
isolated instance of it.  Isolation is the point: the coordinator's
consistent-hash ring sends every fingerprint to exactly one shard, so each
shard's :class:`~repro.service.ArtifactCache` holds only its own partition of
the artifact working set.  That is what makes the cluster scale — adding
shards multiplies effective cache capacity without any cross-shard
coordination (measured by ``benchmarks/bench_cluster.py``).

Execution knobs arrive as **one** :class:`~repro.planner.ExecutionPlan`: the
coordinator plans centrally (policy + cost model) and ships the plan inside
each :class:`ShardQuery`, and the worker's service shape (pool mode, width)
comes from a single default plan instead of the ``shard_parallelism`` /
``shard_max_workers`` pass-through pairs the pre-planner cluster re-forwarded
argument by argument.

:class:`ShardQuery` is the coordinator→worker wire format: a fingerprinted,
normalised routing instance that any shard could serve (the fingerprint is
computed once by the coordinator and must agree with the worker's own — both
derive from the same service parameters).

A rebalance moves warm artifacts between shards as a :class:`WarmHandoff`:
in-process shards hand the artifact object over directly, and shard server
processes exchange a spill file (the same file format and helpers the
service's process pool uses, :mod:`repro.service.pool`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import networkx as nx

from repro.core.router import PreprocessArtifact
from repro.core.tokens import RoutingRequest
from repro.hierarchy.builder import HierarchyParameters
from repro.metrics import MetricsRegistry, default_registry
from repro.planner import ExecutionPlan, QueryPlanner
from repro.service.cache import ArtifactCache
from repro.service.pool import read_spill, spill_path, write_spill
from repro.service.service import DEFAULT_BACKEND, BatchReport, RoutingService

__all__ = ["FAULT_KINDS", "ShardCrashed", "ShardQuery", "ShardWorker", "WarmHandoff"]

#: Faults a shard can have injected (``heal`` clears ``slow``/``partition``).
FAULT_KINDS = ("crash", "slow", "partition", "heal")


class ShardCrashed(ConnectionError):
    """The shard has (simulated or real) crashed and cannot serve.

    A :class:`ConnectionError` subclass on purpose: the coordinator's failover
    path catches ``ConnectionError`` uniformly, so a local crashed worker and
    a killed remote shard server fail identically.
    """


@dataclass(frozen=True)
class WarmHandoff:
    """One warm artifact in flight between shards during a rebalance.

    Either ``artifact`` carries the object directly (in-process shards), or
    ``spill_file`` names the spill file a shard server wrote for another
    process to load.  Exactly one is set.
    """

    fingerprint: str
    artifact: PreprocessArtifact | None = None
    spill_file: str | None = None

    @property
    def path(self) -> str:
        """How the artifact travels: ``"direct"`` or ``"spill"``."""
        return "spill" if self.spill_file is not None else "direct"

    def discard(self) -> None:
        """Delete the spill file once every adopter has loaded it."""
        if self.spill_file is not None:
            Path(self.spill_file).unlink(missing_ok=True)


@dataclass(frozen=True)
class ShardQuery:
    """One routing instance in flight between the coordinator and a shard.

    Attributes:
        fingerprint: the placement key (canonical graph+backend fingerprint).
        graph: the graph to route on.
        requests: the normalised request tuple.
        load: explicit load bound (``None`` = infer).
        backend: registry name of the routing backend (mirrors
            ``plan.backend`` when a plan is attached).
        backend_params: extra backend factory parameters.
        workload: workload-shape label, for reporting.
        plan: the :class:`~repro.planner.ExecutionPlan` the coordinator chose
            (its ``shard_hint`` records the placement); the shard's service
            executes it verbatim.
        idempotency_key: the client-supplied (or coordinator-generated)
            exactly-once key; empty when the submission is untracked.  The
            durability journal dedups completions by this key, so a crash +
            resubmit never serves the same admitted batch twice.
    """

    fingerprint: str
    graph: nx.Graph
    requests: tuple[RoutingRequest, ...]
    load: int | None = None
    backend: str = DEFAULT_BACKEND
    backend_params: Mapping[str, Any] = field(default_factory=dict)
    workload: str = ""
    plan: ExecutionPlan | None = None
    idempotency_key: str = ""


class ShardWorker:
    """One shard: an isolated :class:`RoutingService` behind a stable id.

    Args:
        shard_id: the shard's identity on the ring.
        epsilon / psi / hierarchy_params: service tradeoff parameters — must
            match the coordinator's so fingerprints agree.
        cache_capacity: in-memory artifact slots for *this shard's* partition
            of the working set.
        disk_dir / disk_capacity: optional per-shard disk tier.
        default_plan: the execution defaults this shard's service takes its
            pool shape from (``parallelism``, ``max_workers``); per-query
            plans shipped in :class:`ShardQuery` override it query by query.
        planner: the cluster's shared :class:`~repro.planner.QueryPlanner`
            (if any) — attaching it feeds the shard's observed timings back
            into the shared cost model, which is what makes the cluster-wide
            ``adaptive`` policy converge.
        metrics: the registry shared across the cluster (per-shard series are
            labeled ``shard=<shard_id>``).
        service: inject a preconfigured service instead (tests).

    The shard's service keeps long-lived executors; :meth:`close` releases
    them (the coordinator closes every shard it owns).
    """

    def __init__(
        self,
        shard_id: str,
        epsilon: float = 0.5,
        psi: float | None = None,
        hierarchy_params: HierarchyParameters | None = None,
        cache_capacity: int = 8,
        disk_dir: str | None = None,
        disk_capacity: int | None = None,
        default_plan: ExecutionPlan | None = None,
        planner: QueryPlanner | None = None,
        metrics: MetricsRegistry | None = None,
        service: RoutingService | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.default_plan = default_plan
        self.metrics = metrics if metrics is not None else default_registry()
        if service is None:
            cache = ArtifactCache(
                capacity=cache_capacity,
                disk_dir=disk_dir,
                disk_capacity=disk_capacity,
                metrics=self.metrics,
            )
            service = RoutingService(
                epsilon=epsilon,
                psi=psi,
                hierarchy_params=hierarchy_params,
                cache=cache,
                max_workers=default_plan.max_workers if default_plan else None,
                parallelism=default_plan.parallelism if default_plan else "threads",
                planner=planner,
                metrics=self.metrics,
            )
        self.service = service
        self.batches_served = 0
        self.queries_served = 0
        self._closed = False
        self._crashed = False
        self._partitioned = False
        self._slow_seconds = 0.0
        self._m_queries = self.metrics.counter(
            "repro_cluster_queries_total", "Queries served per shard.", labels=("shard",)
        )
        self._m_seconds = self.metrics.histogram(
            "repro_cluster_query_seconds", "Per-query latency per shard.", labels=("shard",)
        )

    def process(self, items: Sequence[ShardQuery]) -> BatchReport:
        """Serve one scatter of queries as a single service batch."""
        if self._crashed:
            raise ShardCrashed(f"shard {self.shard_id} has crashed")
        if self._partitioned:
            raise ConnectionError(f"shard {self.shard_id} is partitioned from the coordinator")
        if self._slow_seconds > 0.0:
            time.sleep(self._slow_seconds)
        for item in items:
            self.service.submit(
                item.graph,
                item.requests,
                load=item.load,
                backend=item.backend if item.plan is None else None,
                backend_params=item.backend_params if item.plan is None else None,
                workload=item.workload,
                plan=item.plan,
            )
        report = self.service.route_batch()
        self.batches_served += 1
        self.queries_served += len(report.results)
        self._m_queries.labels(shard=self.shard_id).inc(len(report.results))
        for result in report.results:
            self._m_seconds.labels(shard=self.shard_id).observe(result.seconds)
        return report

    # -- warm-key handoff ------------------------------------------------------

    def warm_keys(self) -> list[str]:
        """Fingerprints this shard holds warm in memory (coldest first)."""
        return self.service.cache.fingerprints()

    def export_artifact(self, fingerprint: str, spill_dir: str | None = None) -> WarmHandoff | None:
        """Hand one warm artifact off for adoption elsewhere, or ``None``.

        Without ``spill_dir`` the handoff carries the artifact object itself
        (copy-free between in-process shards); with it the artifact is
        written there as a spill file another process can load.
        """
        artifact = self.service.cache.peek(fingerprint)
        if artifact is None:
            return None
        if spill_dir is None:
            return WarmHandoff(fingerprint=fingerprint, artifact=artifact)
        path = spill_path(spill_dir, fingerprint)
        write_spill(path, artifact)
        return WarmHandoff(fingerprint=fingerprint, spill_file=str(path))

    def adopt_artifact(self, handoff: WarmHandoff) -> bool:
        """Adopt a handoff into this shard's cache; ``True`` on success."""
        artifact = handoff.artifact
        if artifact is None and handoff.spill_file is not None:
            try:
                artifact = read_spill(handoff.spill_file)
            except FileNotFoundError:
                artifact = None
        if artifact is None:
            return False
        self.service.cache.adopt(handoff.fingerprint, artifact)
        return True

    def close(self) -> None:
        """Release the shard service's worker pools; idempotent by design so
        server shutdown paths can call it unconditionally."""
        if self._closed:
            return
        self._closed = True
        self.service.close()

    # -- fault injection and health --------------------------------------------

    def inject_fault(self, kind: str, seconds: float = 0.0) -> None:
        """Apply one chaos fault to this shard (see :data:`FAULT_KINDS`).

        ``crash`` makes every subsequent :meth:`process` raise
        :class:`ShardCrashed` (fail-stop, like a dead process); ``partition``
        raises :class:`ConnectionError` instead (the shard is fine, the
        coordinator just cannot reach it); ``slow`` delays every batch by
        ``seconds``; ``heal`` clears ``slow`` and ``partition`` — a crash is
        permanent, the coordinator rejoins a *new* shard instead.
        """
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; use one of {FAULT_KINDS}")
        if kind == "crash":
            self._crashed = True
        elif kind == "slow":
            if seconds < 0:
                raise ValueError("slow fault seconds must be non-negative")
            self._slow_seconds = float(seconds)
        elif kind == "partition":
            self._partitioned = True
        else:  # heal
            self._partitioned = False
            self._slow_seconds = 0.0

    def healthy(self) -> bool:
        """Would a heartbeat succeed right now? (Crashed/partitioned = no.)"""
        return not (self._crashed or self._partitioned or self._closed)

    @property
    def cache_stats(self):
        """This shard's :class:`~repro.service.CacheStats`."""
        return self.service.cache.stats

    def as_row(self) -> dict[str, object]:
        stats = self.cache_stats
        return {
            "shard": self.shard_id,
            "batches": self.batches_served,
            "queries": self.queries_served,
            "cache_hit_rate": stats.hit_rate,
            "cache_evictions": stats.evictions,
        }
