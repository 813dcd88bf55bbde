"""The batched routing service: fingerprint, cache, fan out, compare, report.

:class:`RoutingService` is the serving layer the ROADMAP's production north
star asks for.  It turns the paper's preprocessing/query tradeoff into an
operational win, and — since PR 2 — is *backend-agnostic*: every query names
a routing backend from the :mod:`repro.backends` registry, so the same
service front end drives the paper's deterministic router, the CS20-style
rebuild-per-query comparator, the randomized GKS baseline, and naive direct
routing.

1. **Fingerprint** — every submitted query hashes its graph + preprocessing
   parameters + backend name + backend parameters
   (:func:`repro.service.fingerprint.graph_fingerprint`); queries on the same
   expander under the same backend share a key.  The expensive graph
   canonicalization is memoized per ``Graph`` *object*, so resubmitting the
   same graph never re-canonicalizes it.
2. **Cache** — per key, backends with reusable preprocessed state (the
   artifact hooks of :class:`repro.backends.RoutingBackend`) preprocess at
   most once; artifacts come from the :class:`ArtifactCache` (memory LRU +
   optional disk pickles) whenever possible.  Backends without reusable state
   simply preprocess per batch (a no-op for all current ones).
3. **Fan out** — a batch is grouped per fingerprint; missing backends are
   built concurrently (distinct graphs are independent), then every query of
   the batch routes concurrently through a ``concurrent.futures`` pool.
4. **Report** — each batch returns a :class:`BatchReport`; the multi-backend
   entry point :meth:`RoutingService.compare_batch` routes the same workloads
   through several backends and returns a side-by-side
   :class:`ComparisonReport`, both rendered through
   :mod:`repro.analysis.reporting`.

Since PR 5 every query executes through an
:class:`~repro.planner.ExecutionPlan` — one object owning the backend,
backend parameters, kernel, parallelism, and chunking decision.  Callers may
pass a plan explicitly, attach a :class:`~repro.planner.QueryPlanner`
(``policy="cost"`` / ``"adaptive"``) and let the cost model choose, or keep
using the legacy kwargs, which the service turns into ``fixed`` plans with
identical behaviour.  Observed per-query and per-preprocess timings flow back
into the planner's cost model, which is how the adaptive policy converges.

Queries are pure with respect to the shared backend state — routing mutates
only its own tokens and per-query ledgers — so concurrent queries on one
backend are safe.
"""

from __future__ import annotations

import inspect
import json
import shutil
import tempfile
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Hashable, Mapping, Sequence

import networkx as nx

from repro.analysis.reporting import format_kv, format_table
from repro.backends.base import (
    PreprocessInfo,
    RouteResult,
    RoutingBackend,
    available_backends,
    backend_factory,
    canonical_backend_params,
    supports_artifacts,
    supports_fusion,
)
from repro.core.router import PreprocessArtifact
from repro.core.tokens import RoutingRequest
from repro.hierarchy.builder import HierarchyParameters
from repro.kernels import active_kernel
from repro.metrics import MetricsRegistry, default_registry
from repro.metrics import quantile as _quantile
from repro.planner import ExecutionPlan, QueryPlanner
from repro.service.cache import ArtifactCache
from repro.service.fingerprint import graph_fingerprint, graph_payload
from repro.service.pool import (
    BuildTask,
    FusedRouteTask,
    RouteTask,
    build_in_worker,
    route_group_in_worker,
    route_in_worker,
    spill_path,
    write_spill,
)
from repro.workloads import Workload

__all__ = [
    "RoutingQuery",
    "QueryResult",
    "BatchReport",
    "ComparisonEntry",
    "ComparisonReport",
    "RoutingService",
]

#: The default backend a query routes through when none is named.
DEFAULT_BACKEND = "deterministic"


def _shutdown_executor(pool: Executor) -> None:
    """Finalizer target: release a dropped service's executor without blocking."""
    pool.shutdown(wait=False)


@dataclass(frozen=True)
class RoutingQuery:
    """One submitted routing instance, normalised and fingerprinted.

    Attributes:
        query_id: service-assigned id, unique per service instance.
        fingerprint: canonical hash of (graph, preprocessing parameters,
            backend, backend parameters).
        graph: the graph to route on.
        requests: the Task 1 requests of this query.
        load: explicit load parameter ``L`` (``None`` = infer per query).
        backend: registry name of the routing backend to use (mirrors
            ``plan.backend`` when a plan is attached).
        backend_params: extra parameters for the backend factory (mirrors
            ``plan.backend_params``).
        workload: name of the workload shape the requests came from (reporting
            only; ``""`` for ad-hoc request lists).
        plan: the :class:`~repro.planner.ExecutionPlan` this query executes
            under (the service always attaches one at submit time; ``None``
            only for hand-built queries, which route as fixed plans).
    """

    query_id: int
    fingerprint: str
    graph: nx.Graph
    requests: tuple[RoutingRequest, ...]
    load: int | None = None
    backend: str = DEFAULT_BACKEND
    backend_params: Mapping[str, Any] = field(default_factory=dict)
    workload: str = ""
    plan: ExecutionPlan | None = None


@dataclass
class QueryResult:
    """Outcome of one query of a batch, plus serving metadata.

    Attributes:
        query_id: id assigned at :meth:`RoutingService.submit` time.
        fingerprint: the cache key the query was served under.
        backend: the backend that served the query.
        outcome: the normalized :class:`RouteResult` (for the deterministic
            backend, identical counts to a direct
            :meth:`ExpanderRouter.route` call on the same instance).
        cache_hit: True when the backend's artifact existed before this batch.
        seconds: wall-clock spent routing this query (excludes preprocessing).
        workload: workload-shape label carried over from the query.
        plan: the :class:`~repro.planner.ExecutionPlan` the query executed
            under.
    """

    query_id: int
    fingerprint: str
    backend: str
    outcome: RouteResult
    cache_hit: bool
    seconds: float
    workload: str = ""
    plan: ExecutionPlan | None = None

    @property
    def plan_id(self) -> str:
        """Full plan identity (``""`` for plan-less hand-built queries)."""
        return self.plan.plan_id if self.plan is not None else ""

    @property
    def plan_semantic_id(self) -> str:
        """Result-affecting plan identity (stable across execution modes)."""
        return self.plan.semantic_id if self.plan is not None else ""

    def as_row(self) -> dict[str, object]:
        return {
            "query": self.query_id,
            "graph": self.fingerprint[:10],
            "backend": self.backend,
            "plan": self.plan_id[:8],
            "tokens": self.outcome.total_tokens,
            "delivered": self.outcome.delivered,
            "load": self.outcome.load,
            "query_rounds": self.outcome.query_rounds,
            "cache_hit": self.cache_hit,
            "seconds": self.seconds,
        }


@dataclass
class BatchReport:
    """Aggregated serving stats for one :meth:`RoutingService.route_batch` call.

    Attributes:
        results: per-query results, in submission order.
        distinct_graphs: number of distinct fingerprints in the batch.
        cache_hits: queries whose artifact predated the batch.
        cache_misses: queries that had to wait for a fresh preprocess.
        preprocess_rounds_incurred: CONGEST rounds of *new* preprocessing this
            batch paid for (0 on a fully warm cache).
        preprocess_rounds_reused: rounds of preprocessing served from cache —
            the amortization the paper's tradeoff buys.
        preprocess_seconds: wall-clock spent building missing backends.
        route_seconds: wall-clock of the routing phase (all queries fanned
            out, from first submit to last gather).
        wall_seconds: wall-clock of the whole batch.

    All timings come from the monotonic high-resolution clock
    (``time.perf_counter``), so they are safe to difference and feed the
    metrics histograms a real latency signal.
    """

    results: list[QueryResult] = field(default_factory=list)
    distinct_graphs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    preprocess_rounds_incurred: int = 0
    preprocess_rounds_reused: int = 0
    preprocess_seconds: float = 0.0
    route_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def query_count(self) -> int:
        return len(self.results)

    @property
    def query_seconds(self) -> list[float]:
        """Per-query routing wall-clock, in submission order."""
        return [result.seconds for result in self.results]

    @property
    def query_seconds_total(self) -> float:
        return sum(self.query_seconds)

    @property
    def query_seconds_mean(self) -> float:
        if not self.results:
            return 0.0
        return self.query_seconds_total / len(self.results)

    @property
    def query_seconds_max(self) -> float:
        return max(self.query_seconds, default=0.0)

    def query_seconds_quantile(self, q: float) -> float:
        """The ``q``-quantile of per-query latency (linear interpolation)."""
        return _quantile(self.query_seconds, q)

    @property
    def cache_hit_rate(self) -> float:
        if not self.results:
            return 0.0
        return self.cache_hits / len(self.results)

    @property
    def total_query_rounds(self) -> int:
        return sum(result.outcome.query_rounds for result in self.results)

    @property
    def all_delivered(self) -> bool:
        return all(result.outcome.all_delivered for result in self.results)

    def summary(self) -> dict[str, object]:
        """The batch headline numbers as a plain dict."""
        return {
            "queries": self.query_count,
            "distinct_graphs": self.distinct_graphs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "preprocess_rounds_incurred": self.preprocess_rounds_incurred,
            "preprocess_rounds_reused": self.preprocess_rounds_reused,
            "total_query_rounds": self.total_query_rounds,
            "all_delivered": self.all_delivered,
            "preprocess_seconds": self.preprocess_seconds,
            "route_seconds": self.route_seconds,
            "wall_seconds": self.wall_seconds,
            "query_seconds_mean": self.query_seconds_mean,
            "query_seconds_p50": self.query_seconds_quantile(0.50),
            "query_seconds_p95": self.query_seconds_quantile(0.95),
            "query_seconds_max": self.query_seconds_max,
        }

    def signature(self) -> str:
        """The deterministic shape of the batch as one canonical JSON string.

        Covers every count and round total but no wall-clock, so two batches
        over the same submissions agree byte for byte regardless of timing —
        and regardless of whether they were routed by the thread pool or the
        process pool (the determinism tests compare exactly this).  Plan
        identity is recorded as the *semantic* id (backend + parameters
        only), which is invariant across kernels, pool modes, and chunking
        of the same plan.
        """
        payload = {
            "queries": [
                {
                    "query_id": result.query_id,
                    "fingerprint": result.fingerprint,
                    "backend": result.backend,
                    "plan": result.plan_semantic_id,
                    "workload": result.workload,
                    "cache_hit": result.cache_hit,
                    "delivered": result.outcome.delivered,
                    "total": result.outcome.total_tokens,
                    "query_rounds": result.outcome.query_rounds,
                    "preprocess_rounds": result.outcome.preprocess_rounds,
                    "load": result.outcome.load,
                }
                for result in sorted(self.results, key=lambda result: result.query_id)
            ],
            "distinct_graphs": self.distinct_graphs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "preprocess_rounds_incurred": self.preprocess_rounds_incurred,
            "preprocess_rounds_reused": self.preprocess_rounds_reused,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def render(self, per_query: bool = True) -> str:
        """Human-readable report (summary block plus optional per-query table)."""
        parts = [format_kv(self.summary(), title="batch")]
        if per_query and self.results:
            parts.append(format_table([result.as_row() for result in self.results]))
        return "\n\n".join(parts)


@dataclass
class ComparisonEntry:
    """One (backend, workload) cell of a :class:`ComparisonReport`."""

    backend: str
    workload: str
    workload_index: int
    result: RouteResult
    cache_hit: bool
    seconds: float

    def as_row(self) -> dict[str, object]:
        return {
            "backend": self.backend,
            "workload": self.workload,
            "delivered": self.result.delivered,
            "total": self.result.total_tokens,
            "query_rounds": self.result.query_rounds,
            "preprocess_rounds": self.result.preprocess_rounds,
            "load": self.result.load,
            "cache_hit": self.cache_hit,
            "seconds": self.seconds,
        }


@dataclass
class ComparisonReport:
    """Side-by-side results of routing the same workloads through several backends.

    Attributes:
        entries: one entry per (backend, workload), grouped by backend in the
            order the backends were compared.
        batch_reports: the underlying per-backend :class:`BatchReport` (one
            batch per backend, so caching and fan-out behave exactly as in
            :meth:`RoutingService.route_batch`).
    """

    entries: list[ComparisonEntry] = field(default_factory=list)
    batch_reports: dict[str, BatchReport] = field(default_factory=dict)

    @property
    def backends(self) -> list[str]:
        seen: dict[str, None] = {}
        for entry in self.entries:
            seen.setdefault(entry.backend, None)
        return list(seen)

    @property
    def all_delivered(self) -> bool:
        return all(entry.result.all_delivered for entry in self.entries)

    def rows(self) -> list[dict[str, object]]:
        """One flat schema row per (backend, workload)."""
        return [entry.as_row() for entry in self.entries]

    def pivot(self, value: str = "query_rounds") -> list[dict[str, object]]:
        """One row per workload, one column per backend (default: query rounds)."""
        by_workload: dict[tuple[int, str], dict[str, object]] = {}
        for entry in self.entries:
            key = (entry.workload_index, entry.workload)
            row = by_workload.setdefault(key, {"workload": entry.workload})
            row[entry.backend] = entry.as_row()[value]
        return [by_workload[key] for key in sorted(by_workload)]

    def summary_rows(self) -> list[dict[str, object]]:
        """Per-backend totals across every workload of the comparison."""
        rows = []
        for backend in self.backends:
            mine = [entry for entry in self.entries if entry.backend == backend]
            report = self.batch_reports.get(backend)
            rows.append(
                {
                    "backend": backend,
                    "workloads": len(mine),
                    "delivered": sum(entry.result.delivered for entry in mine),
                    "total": sum(entry.result.total_tokens for entry in mine),
                    "total_query_rounds": sum(entry.result.query_rounds for entry in mine),
                    "preprocess_rounds_incurred": (
                        report.preprocess_rounds_incurred if report else 0
                    ),
                    "preprocess_rounds_reused": (
                        report.preprocess_rounds_reused if report else 0
                    ),
                    "seconds": sum(entry.seconds for entry in mine),
                }
            )
        return rows

    def render(self) -> str:
        """The comparison as aligned plain-text tables (per-cell, pivot, totals)."""
        parts = []
        if self.entries:
            parts.append(format_table(self.rows()))
            parts.append("query_rounds per workload, side by side:")
            parts.append(format_table(self.pivot("query_rounds")))
            parts.append(format_table(self.summary_rows()))
        else:
            parts.append("(no data)")
        return "\n\n".join(parts)


class RoutingService:
    """Batched, cached, parallel front end over the pluggable routing backends.

    Args:
        epsilon: tradeoff parameter used for every deterministic preprocess
            (part of the cache key, so services with different epsilons never
            share artifacts even over a shared disk tier).
        psi: optional explicit sparsity parameter (part of the cache key).
        hierarchy_params: optional full hierarchy parameter override; when
            given, its fields join the cache key.
        cache: the artifact cache to use (fresh default-sized
            :class:`ArtifactCache` when omitted).
        max_workers: worker pool size (``None`` = executor default).
        parallelism: the *default* execution mode for fixed plans —
            ``"threads"`` (default) fans queries out over a thread pool —
            concurrency without parallel compute, the GIL applies — while
            ``"processes"`` ships preprocessing and routing to worker
            processes (artifacts spilled to disk once, loaded at most once
            per worker; see :mod:`repro.service.pool`).  Results are
            byte-identical either way (:meth:`BatchReport.signature`).  A
            query's :class:`~repro.planner.ExecutionPlan` may override the
            mode per batch slice; the service keeps one lazy long-lived pool
            per mode it actually uses.
        executor_factory: alternative ``concurrent.futures`` executor factory
            taking ``max_workers``; defaults to :class:`ThreadPoolExecutor`
            (thread-mode slices only).
        metrics: registry the service records ``repro_service_*`` metrics
            into (default: the process-wide :func:`default_registry`).  A
            default-constructed cache inherits the same registry.
        planner: a :class:`~repro.planner.QueryPlanner` that chooses plans
            for queries submitted without an explicit backend; observed
            timings are recorded back into its cost model.
        policy: convenience — build a planner with this policy (``"fixed"``,
            ``"cost"``, or ``"adaptive"``) inheriting the service's epsilon,
            parallelism, worker count, and metrics.  Ignored when ``planner``
            is given.

    Executors are created lazily on the first batch that needs their mode and
    reused across batches for the life of the service (one pool per mode per
    service instance, not one per batch); call :meth:`close` — or use the
    service as a context manager — to release them and the artifact spill
    directory.
    """

    def __init__(
        self,
        epsilon: float = 0.5,
        psi: float | None = None,
        hierarchy_params: HierarchyParameters | None = None,
        cache: ArtifactCache | None = None,
        max_workers: int | None = None,
        parallelism: str = "threads",
        executor_factory: Callable[[int | None], Executor] | None = None,
        metrics: MetricsRegistry | None = None,
        planner: QueryPlanner | None = None,
        policy: str | None = None,
    ) -> None:
        if parallelism not in ("threads", "processes"):
            raise ValueError(
                f"unknown parallelism {parallelism!r}; expected 'threads' or 'processes'"
            )
        if parallelism == "processes" and executor_factory is not None:
            raise ValueError("executor_factory only applies to parallelism='threads'")
        self.epsilon = epsilon
        self.psi = psi
        self.hierarchy_params = hierarchy_params
        self.parallelism = parallelism
        self.metrics = metrics if metrics is not None else default_registry()
        self.cache = cache if cache is not None else ArtifactCache(metrics=self.metrics)
        self.max_workers = max_workers
        if planner is None and policy is not None:
            planner = QueryPlanner(
                policy=policy,
                epsilon=epsilon,
                parallelism=parallelism,
                max_workers=max_workers,
                metrics=self.metrics,
            )
        self.planner = planner
        self._m_queries = self.metrics.counter(
            "repro_service_queries_total", "Queries created by the service.", labels=("backend",)
        )
        self._m_batches = self.metrics.counter(
            "repro_service_batches_total", "Batches routed by the service."
        )
        self._m_comparisons = self.metrics.counter(
            "repro_service_comparisons_total", "compare_batch() invocations."
        )
        self._m_query_seconds = self.metrics.histogram(
            "repro_service_query_seconds", "Per-query routing wall-clock.", labels=("backend",)
        )
        self._m_preprocess_seconds = self.metrics.histogram(
            "repro_service_preprocess_seconds", "Wall-clock building missing backends, per batch."
        )
        self._m_preprocess_rounds = self.metrics.counter(
            "repro_service_preprocess_rounds_total",
            "CONGEST preprocessing rounds, incurred vs reused.",
            labels=("kind",),
        )
        self._m_pool_created = self.metrics.counter(
            "repro_service_pool_created_total",
            "Executor pools created by the service (1 per service lifetime).",
            labels=("kind",),
        )
        self._m_pool_workers = self.metrics.gauge(
            "repro_service_pool_workers", "Configured worker count of the service's pool."
        )
        self._m_pool_tasks = self.metrics.counter(
            "repro_service_pool_tasks_total",
            "Tasks submitted to the service's pool.",
            labels=("kind",),
        )
        self._m_pool_runner_loads = self.metrics.counter(
            "repro_service_pool_runner_loads_total",
            "Worker-process runner resolutions (warm cache hit vs cold load).",
            labels=("state",),
        )
        self._m_fused_batches = self.metrics.counter(
            "repro_service_fused_batches_total",
            "Same-fingerprint query groups routed through one fused kernel pass.",
            labels=("mode",),
        )
        self._executor_factory = executor_factory or (
            lambda workers: ThreadPoolExecutor(max_workers=workers)
        )
        self._pools: dict[str, Executor] = {}
        self._pool_finalizers: dict[str, weakref.finalize] = {}
        self._spill_dir: Path | None = None
        # Insertion-ordered so the oldest spilled artifacts trim first.
        self._spilled: dict[str, None] = {}
        self._spill_finalizer: weakref.finalize | None = None
        self._closed = False
        self._pending: list[RoutingQuery] = []
        self._next_query_id = 0
        # Graph canonicalization dominates fingerprint cost; memoize it per
        # Graph *object* (weakly, so dropped graphs free their payloads).  The
        # caller must not mutate a graph between submits — a mutated graph
        # should be a new object (``graph.copy()``), which re-canonicalizes.
        self._payload_memo: "weakref.WeakKeyDictionary[nx.Graph, str]" = (
            weakref.WeakKeyDictionary()
        )
        # Full cache keys are also memoized per graph object: hashing the
        # canonical payload costs tens of microseconds per call at a few
        # hundred vertices, which dominates sub-millisecond queries (the
        # planner path hashes twice per submit — planning key + final
        # fingerprint).  Keyed by (backend, canonical params); the planning
        # key lives under a reserved empty backend name.
        self._key_memo: "weakref.WeakKeyDictionary[nx.Graph, dict[tuple, str]]" = (
            weakref.WeakKeyDictionary()
        )
        # Query-ready runners memoized per fingerprint for the thread path
        # (the process path has its per-worker equivalent in service/pool.py).
        # Rebuilding a backend from its artifact every warm batch costs more
        # than the routing itself for cheap queries; the fingerprint already
        # guarantees the runner matches the (graph, backend, params) content.
        # Batch accounting (cache hits, incurred/reused rounds) is computed
        # from the artifact cache exactly as before — the memo only skips
        # redundant reconstruction work, never changes what is reported.
        self._runner_memo: OrderedDict[
            str, tuple[RoutingBackend, PreprocessInfo | None, PreprocessArtifact | None]
        ] = OrderedDict()

    # -- lifecycle -----------------------------------------------------------

    def _ensure_pool(self, mode: str | None = None) -> Executor:
        """The service's long-lived executor for ``mode``, created on first use.

        One pool per execution mode the service actually serves (a plan may
        pick either mode per batch slice); each is created lazily, sized by
        the *service's* ``max_workers`` (per-query ``plan.max_workers`` is
        advisory — see :class:`~repro.planner.ExecutionPlan`), and reused
        for the service's lifetime.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        mode = mode or self.parallelism
        pool = self._pools.get(mode)
        if pool is None:
            if mode == "processes":
                pool = ProcessPoolExecutor(max_workers=self.max_workers)
            else:
                pool = self._executor_factory(self.max_workers)
            self._pools[mode] = pool
            # Services dropped without close() (loops over short-lived
            # services) must not strand their executors until process exit.
            self._pool_finalizers[mode] = weakref.finalize(
                self, _shutdown_executor, pool
            )
            self._m_pool_created.labels(kind=mode).inc()
            workers = getattr(pool, "_max_workers", None)
            if workers:
                self._m_pool_workers.set(workers)
        return pool

    def _ensure_spill_dir(self) -> Path:
        if self._spill_dir is None:
            self._spill_dir = Path(tempfile.mkdtemp(prefix="repro-service-spill-"))
            self._spill_finalizer = weakref.finalize(
                self, shutil.rmtree, str(self._spill_dir), True
            )
        return self._spill_dir

    def _spill_artifact(self, fingerprint: str, artifact: PreprocessArtifact) -> None:
        """Write ``artifact`` to the spill directory once, for worker processes."""
        if fingerprint in self._spilled:
            return
        write_spill(spill_path(self._ensure_spill_dir(), fingerprint), artifact)
        self._spilled[fingerprint] = None

    def _trim_spill_dir(self, keep: set[str]) -> None:
        """Bound the spill directory, never evicting the current batch's keys.

        The cap mirrors the artifact cache (4x its in-memory capacity, at
        least 16): the spill tier exists so each *worker* loads an artifact at
        most once, not as a second unbounded store.  Evicted fingerprints are
        simply re-spilled from the cache-of-record on their next warm batch.
        """
        cap = max(16, 4 * getattr(self.cache, "capacity", 4), len(keep))
        if len(self._spilled) <= cap or self._spill_dir is None:
            return
        for fingerprint in list(self._spilled):
            if len(self._spilled) <= cap:
                break
            if fingerprint in keep:
                continue
            del self._spilled[fingerprint]
            spill_path(self._spill_dir, fingerprint).unlink(missing_ok=True)

    def close(self) -> None:
        """Shut the worker pool down and remove the artifact spill directory.

        Idempotent; afterwards the service rejects new batches.  Pending
        (unrouted) submissions are left queued so callers can inspect them.
        """
        if self._closed:
            return
        self._closed = True
        for finalizer in self._pool_finalizers.values():
            finalizer.detach()
        self._pool_finalizers.clear()
        for pool in self._pools.values():
            pool.shutdown(wait=True)
        self._pools.clear()
        if self._spill_finalizer is not None:
            self._spill_finalizer()
            self._spill_finalizer = None
        self._spill_dir = None
        self._spilled.clear()

    def __enter__(self) -> "RoutingService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False

    # -- submission ----------------------------------------------------------

    def _runner_memo_get(
        self, fingerprint: str
    ) -> tuple[RoutingBackend, PreprocessInfo | None, PreprocessArtifact | None] | None:
        entry = self._runner_memo.get(fingerprint)
        if entry is not None:
            self._runner_memo.move_to_end(fingerprint)
        return entry

    def _runner_memo_put(
        self,
        fingerprint: str,
        runner: RoutingBackend,
        info: PreprocessInfo | None,
        artifact: PreprocessArtifact | None,
    ) -> None:
        """Retain a query-ready runner (LRU, sized to the artifact cache)."""
        self._runner_memo[fingerprint] = (runner, info, artifact)
        self._runner_memo.move_to_end(fingerprint)
        cap = max(4, getattr(self.cache, "capacity", 4))
        while len(self._runner_memo) > cap:
            self._runner_memo.popitem(last=False)

    def _graph_payload(self, graph: nx.Graph) -> str:
        payload = self._payload_memo.get(graph)
        if payload is None:
            payload = graph_payload(graph)
            self._payload_memo[graph] = payload
        return payload

    @property
    def fingerprint_memo_size(self) -> int:
        """How many live graphs have a memoized canonical payload."""
        return len(self._payload_memo)

    def _service_parameters(self) -> dict[str, Hashable]:
        """The service-level parameters every cache key includes."""
        parameters: dict[str, Hashable] = {"epsilon": self.epsilon}
        if self.psi is not None:
            parameters["psi"] = self.psi
        if self.hierarchy_params is not None:
            parameters.update(
                (f"hierarchy.{key}", value)
                for key, value in sorted(vars(self.hierarchy_params).items())
            )
        return parameters

    def fingerprint(
        self,
        graph: nx.Graph,
        backend: str = DEFAULT_BACKEND,
        backend_params: Mapping[str, Any] | None = None,
    ) -> str:
        """The cache key this service uses for ``graph`` under ``backend``."""
        canonical = canonical_backend_params(backend_params)
        memo = self._key_memo.setdefault(graph, {})
        cached = memo.get(("backend", backend, canonical))
        if cached is not None:
            return cached
        parameters = self._service_parameters()
        parameters["backend"] = backend
        for key, value in canonical:
            parameters[f"backend.{key}"] = value
        fingerprint = graph_fingerprint(
            graph, parameters, precomputed_graph_payload=self._graph_payload(graph)
        )
        memo[("backend", backend, canonical)] = fingerprint
        return fingerprint

    def graph_key(self, graph: nx.Graph) -> str:
        """The backend-agnostic planning key (graph + service parameters).

        This is what the planner's plan cache keys on: the backend is the
        planner's *output*, so the planning key must not depend on it.  The
        per-backend artifact fingerprint is derived afterwards from the
        chosen plan.
        """
        memo = self._key_memo.setdefault(graph, {})
        cached = memo.get(("plan",))
        if cached is not None:
            return cached
        key = graph_fingerprint(
            graph,
            self._service_parameters(),
            precomputed_graph_payload=self._graph_payload(graph),
        )
        memo[("plan",)] = key
        return key

    def _plan_for(
        self,
        graph: nx.Graph,
        request_count: int,
        load: int | None,
        backend: str | None,
        backend_params: Mapping[str, Any] | None,
        workload: str,
    ) -> ExecutionPlan:
        """The plan a kwargs-style submission executes under.

        With a planner attached the decision is delegated (an explicitly
        named backend still pins a ``fixed`` plan); without one, the legacy
        kwargs are synthesized into a ``fixed`` plan that reproduces the
        pre-planner behaviour exactly.
        """
        if self.planner is not None:
            return self.planner.plan(
                self.graph_key(graph),
                graph.number_of_nodes(),
                request_count=request_count,
                load=load,
                workload=workload,
                backend=backend,
                backend_params=backend_params,
            )
        return ExecutionPlan(
            backend=backend if backend is not None else DEFAULT_BACKEND,
            backend_params=dict(backend_params or {}),
            kernel=active_kernel(),
            parallelism=self.parallelism,
            max_workers=self.max_workers,
            policy="fixed",
            reason="synthesized from service kwargs (no planner attached)",
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
        """The planner's EXPLAIN report for this submission, without routing it.

        Requires an attached planner (the fixed-kwargs path has nothing to
        explain); returns a :class:`~repro.planner.PlanExplanation`.
        """
        if self.planner is None:
            raise RuntimeError("explain() requires a service planner (policy=...)")
        if isinstance(requests, Workload):
            workload = requests.name
            if load is None:
                load = requests.load
            requests = requests.requests
        return self.planner.explain(
            self.graph_key(graph),
            graph.number_of_nodes(),
            request_count=len(requests),
            load=load,
            workload=workload,
            backend=backend,
            backend_params=backend_params,
        )

    def _make_query(
        self,
        graph: nx.Graph,
        requests: Sequence[RoutingRequest] | Workload,
        load: int | None,
        backend: str | None,
        backend_params: Mapping[str, Any] | None,
        workload: str = "",
        plan: ExecutionPlan | None = None,
    ) -> RoutingQuery:
        workload_name = workload
        if isinstance(requests, Workload):
            workload_name = requests.name
            if load is None:
                load = requests.load
            requests = requests.requests
        requests = tuple(requests)
        if plan is None:
            plan = self._plan_for(
                graph, len(requests), load, backend, backend_params, workload_name
            )
        query = RoutingQuery(
            query_id=self._next_query_id,
            fingerprint=self.fingerprint(
                graph, backend=plan.backend, backend_params=plan.backend_params
            ),
            graph=graph,
            requests=requests,
            load=load,
            backend=plan.backend,
            backend_params=dict(plan.backend_params),
            workload=workload_name,
            plan=plan,
        )
        self._next_query_id += 1
        self._m_queries.labels(backend=plan.backend).inc()
        return query

    def submit(
        self,
        graph: nx.Graph,
        requests: Sequence[RoutingRequest] | Workload,
        load: int | None = None,
        backend: str | None = None,
        backend_params: Mapping[str, Any] | None = None,
        workload: str = "",
        plan: ExecutionPlan | None = None,
    ) -> int:
        """Queue one routing query for the next batch; returns its query id.

        ``requests`` may be a plain request sequence or a
        :class:`~repro.workloads.Workload` (whose declared load bound is used
        when ``load`` is omitted).  ``workload`` labels a plain request
        sequence for reporting (a ``Workload``'s own name wins).

        Execution strategy resolves in precedence order: an explicit ``plan``
        wins outright; a named ``backend`` pins a fixed plan; otherwise the
        service's planner (when attached) chooses, falling back to the
        default backend under the service's own execution defaults.
        """
        query = self._make_query(
            graph, requests, load, backend, backend_params, workload=workload, plan=plan
        )
        self._pending.append(query)
        return query.query_id

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- execution -----------------------------------------------------------

    def route_batch(self, queries: Sequence[RoutingQuery] | None = None) -> BatchReport:
        """Route a batch (the pending queue when ``queries`` is omitted).

        Grouping, backend resolution, and query execution are all per
        fingerprint: one preprocess per distinct cold (graph, backend) pair
        (built concurrently), then every query routed concurrently on shared
        read-only backends.
        """
        if self._closed:
            # Before touching the pending queue: close() promises queued
            # submissions survive for inspection.
            raise RuntimeError("service is closed")
        if queries is None:
            queries, self._pending = self._pending, []
        else:
            queries = list(queries)
        report = BatchReport()
        if not queries:
            return report
        self._m_batches.inc()
        batch_start = time.perf_counter()

        report.distinct_graphs = len({query.fingerprint for query in queries})

        # Each plan names its execution mode; slice the batch per mode and
        # run every slice through that mode's long-lived pool.  Legacy
        # plan-less queries ride the service's default mode.
        by_mode: dict[str, list[RoutingQuery]] = {}
        for query in queries:
            mode = query.plan.parallelism if query.plan is not None else self.parallelism
            by_mode.setdefault(mode, []).append(query)
        for mode in sorted(by_mode):
            slice_queries = by_mode[mode]
            by_fingerprint: dict[str, list[RoutingQuery]] = {}
            for query in slice_queries:
                by_fingerprint.setdefault(query.fingerprint, []).append(query)
            pool = self._ensure_pool(mode)
            if mode == "processes":
                self._route_batch_processes(pool, slice_queries, by_fingerprint, report)
            else:
                self._route_batch_threads(pool, slice_queries, by_fingerprint, report)

        # Submission order, regardless of mode slicing and chunked fan-out.
        report.results.sort(key=lambda result: result.query_id)
        report.cache_hits = sum(1 for result in report.results if result.cache_hit)
        report.cache_misses = len(report.results) - report.cache_hits
        report.wall_seconds = time.perf_counter() - batch_start
        if report.preprocess_rounds_incurred:
            self._m_preprocess_rounds.labels(kind="incurred").inc(report.preprocess_rounds_incurred)
        if report.preprocess_rounds_reused:
            self._m_preprocess_rounds.labels(kind="reused").inc(report.preprocess_rounds_reused)
        return report

    def route(
        self,
        graph: nx.Graph,
        requests: Sequence[RoutingRequest] | Workload,
        load: int | None = None,
        backend: str | None = None,
        backend_params: Mapping[str, Any] | None = None,
        plan: ExecutionPlan | None = None,
    ) -> RouteResult:
        """Route one instance immediately (a batch of one), returning its outcome.

        Queries queued via :meth:`submit` are left pending — this routes only
        the instance passed here.  Strategy resolution follows
        :meth:`submit` (explicit plan > named backend > planner > default).
        """
        query = self._make_query(graph, requests, load, backend, backend_params, plan=plan)
        report = self.route_batch([query])
        return report.results[0].outcome

    def compare_batch(
        self,
        graph: nx.Graph,
        workloads: Sequence[Workload | Sequence[RoutingRequest]],
        backends: Sequence[str] | None = None,
        backend_params: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> ComparisonReport:
        """Route the same workloads through several backends, side by side.

        Args:
            graph: the graph every workload routes on.
            workloads: the request patterns to replay against every backend
                (:class:`~repro.workloads.Workload` objects or plain request
                sequences).
            backends: registry names to compare (default: every registered
                backend).
            backend_params: optional per-backend factory parameters, keyed by
                backend name.

        One :meth:`route_batch` runs per backend, so artifact caching and
        parallel fan-out apply exactly as in normal serving — routing a
        workload through the comparison yields the same rounds as routing it
        through the backend directly.
        """
        if backends is None:
            backends = available_backends()
        self._m_comparisons.inc()
        comparison = ComparisonReport()
        for backend in backends:
            params = (backend_params or {}).get(backend)
            batch = [
                self._make_query(graph, workload, None, backend, params)
                for workload in workloads
            ]
            batch_report = self.route_batch(batch)
            comparison.batch_reports[backend] = batch_report
            ordered = sorted(batch_report.results, key=lambda result: result.query_id)
            for index, result in enumerate(ordered):
                comparison.entries.append(
                    ComparisonEntry(
                        backend=backend,
                        workload=result.workload or f"workload-{index}",
                        workload_index=index,
                        result=result.outcome,
                        cache_hit=result.cache_hit,
                        seconds=result.seconds,
                    )
                )
        return comparison

    # -- internals -----------------------------------------------------------

    def _route_batch_threads(
        self,
        pool: Executor,
        queries: Sequence[RoutingQuery],
        by_fingerprint: dict[str, list[RoutingQuery]],
        report: BatchReport,
    ) -> None:
        """Thread-pool execution: shared in-process backends, concurrent fan-out."""
        # Phase 1: resolve a query-ready backend per distinct fingerprint
        # (artifact-cache lookups first, cold builds concurrently in the pool).
        runners: dict[str, RoutingBackend] = {}
        warm: dict[str, bool] = {}
        cold: dict[str, RoutingQuery] = {}
        for fingerprint, group in by_fingerprint.items():
            query = group[0]
            factory = backend_factory(query.backend)
            cached = (
                self.cache.get(fingerprint) if supports_artifacts(factory) else None
            )
            memo = self._runner_memo_get(fingerprint)
            if cached is not None:
                runners[fingerprint] = (
                    memo[0] if memo is not None else factory.from_artifact(query.graph, cached)
                )
                if memo is None:
                    self._runner_memo_put(
                        fingerprint, runners[fingerprint], None, cached
                    )
                warm[fingerprint] = True
                report.preprocess_rounds_reused += cached.preprocessing_rounds
            elif memo is not None:
                # Memoized runner for a fingerprint the artifact cache no
                # longer holds (or a stateless backend): serve it, and charge
                # the batch exactly what a rebuild would have reported —
                # preprocessing is deterministic, so the counts are
                # byte-identical and only the redundant work is skipped.
                runner, info, artifact = memo
                runners[fingerprint] = runner
                warm[fingerprint] = False
                if artifact is not None:
                    self.cache.put(fingerprint, artifact)
                    report.preprocess_rounds_incurred += artifact.preprocessing_rounds
                elif info is not None:
                    report.preprocess_rounds_incurred += info.rounds
            else:
                cold[fingerprint] = query
                warm[fingerprint] = False
        if cold:
            preprocess_start = time.perf_counter()
            futures = {
                fingerprint: pool.submit(self._build_runner, query)
                for fingerprint, query in cold.items()
            }
            self._m_pool_tasks.labels(kind="build").inc(len(futures))
            for fingerprint, future in futures.items():
                runner, info, artifact, build_seconds = future.result()
                runners[fingerprint] = runner
                self._runner_memo_put(fingerprint, runner, info, artifact)
                if artifact is not None:
                    self.cache.put(fingerprint, artifact)
                    report.preprocess_rounds_incurred += artifact.preprocessing_rounds
                else:
                    report.preprocess_rounds_incurred += info.rounds
                self._record_preprocess(cold[fingerprint], build_seconds)
            slice_preprocess = time.perf_counter() - preprocess_start
            report.preprocess_seconds += slice_preprocess
            self._m_preprocess_seconds.observe(slice_preprocess)

        # Phase 2: route every query of the batch concurrently.  Queries on
        # the same fingerprint whose plan asks for chunking share one pool
        # task (amortizes task overhead for sub-millisecond queries); the
        # per-query timing and results are identical either way.
        route_start = time.perf_counter()
        chunk_futures = []
        fused_ids: set[int] = set()
        for fingerprint, group in by_fingerprint.items():
            runner = runners[fingerprint]
            plan = group[0].plan
            if (
                plan is not None
                and plan.fused
                and len(group) >= 2
                and supports_fusion(runner)
            ):
                # The whole same-fingerprint group through one fused kernel
                # pass; per-group results are identical to routing each query
                # alone (the fused-equivalence tests assert this).
                chunk_futures.append(
                    (group, pool.submit(self._route_group_fused, runner, group))
                )
                fused_ids.update(query.query_id for query in group)
                self._m_fused_batches.labels(mode="threads").inc()
                continue
            chunk_size = plan.effective_chunk_size if plan is not None else 1
            for index in range(0, len(group), chunk_size):
                chunk = group[index : index + chunk_size]
                chunk_futures.append(
                    (chunk, pool.submit(self._route_chunk, runner, chunk))
                )
        self._m_pool_tasks.labels(kind="route").inc(len(chunk_futures))
        for chunk, future in chunk_futures:
            for query, (outcome, seconds) in zip(chunk, future.result()):
                self._m_query_seconds.labels(backend=query.backend).observe(seconds)
                self._record_query(query, seconds)
                if query.query_id in fused_ids:
                    self._record_fused(query, seconds)
                report.results.append(
                    QueryResult(
                        query_id=query.query_id,
                        fingerprint=query.fingerprint,
                        backend=query.backend,
                        outcome=outcome,
                        cache_hit=warm[query.fingerprint],
                        seconds=seconds,
                        workload=query.workload,
                        plan=query.plan,
                    )
                )
        report.route_seconds += time.perf_counter() - route_start

    def _route_batch_processes(
        self,
        pool: Executor,
        queries: Sequence[RoutingQuery],
        by_fingerprint: dict[str, list[RoutingQuery]],
        report: BatchReport,
    ) -> None:
        """Process-pool execution: artifacts spilled once, routed in workers.

        The parent keeps the cache-of-record (hits/misses and round
        accounting are identical to the thread path); worker processes keep a
        runner per fingerprint, loading each spilled artifact at most once.
        Worker tasks are pinned to each query's planned kernel (plans record
        the kernel active at submit time).
        """
        default_kernel = active_kernel()

        def query_kernel(query: RoutingQuery) -> str:
            return query.plan.kernel if query.plan is not None else default_kernel

        self._trim_spill_dir(keep=set(by_fingerprint))

        warm: dict[str, bool] = {}
        cold: dict[str, RoutingQuery] = {}
        for fingerprint, group in by_fingerprint.items():
            query = group[0]
            factory = backend_factory(query.backend)
            cached = (
                self.cache.get(fingerprint) if supports_artifacts(factory) else None
            )
            if cached is not None:
                warm[fingerprint] = True
                report.preprocess_rounds_reused += cached.preprocessing_rounds
                self._spill_artifact(fingerprint, cached)
            else:
                warm[fingerprint] = False
                cold[fingerprint] = query
        if cold:
            preprocess_start = time.perf_counter()
            futures = {
                fingerprint: pool.submit(
                    build_in_worker,
                    BuildTask(
                        fingerprint=fingerprint,
                        graph=query.graph,
                        backend=query.backend,
                        params=self._resolved_backend_params(query),
                        kernel=query_kernel(query),
                    ),
                )
                for fingerprint, query in cold.items()
            }
            self._m_pool_tasks.labels(kind="build").inc(len(futures))
            for fingerprint, future in futures.items():
                info, artifact = future.result()
                if artifact is not None:
                    self.cache.put(fingerprint, artifact)
                    self._spill_artifact(fingerprint, artifact)
                    report.preprocess_rounds_incurred += artifact.preprocessing_rounds
                else:
                    report.preprocess_rounds_incurred += info.rounds
            slice_preprocess = time.perf_counter() - preprocess_start
            report.preprocess_seconds += slice_preprocess
            self._m_preprocess_seconds.observe(slice_preprocess)
            # Worker builds overlap, so per-build wall-clock is not directly
            # observable from the parent; calibrate with the slice average.
            for query in cold.values():
                self._record_preprocess(query, slice_preprocess / len(cold))

        route_start = time.perf_counter()
        spill = str(self._spill_dir) if self._spill_dir is not None else None

        def task_graph(query: RoutingQuery) -> nx.Graph | None:
            # Spilled artifacts carry their own graph, so those queries ship
            # only the request list; backends without artifacts rebuild from
            # the graph in the worker.
            return None if query.fingerprint in self._spilled else query.graph

        solo_futures = []
        fused_futures = []
        for fingerprint, group in by_fingerprint.items():
            plan = group[0].plan
            if (
                plan is not None
                and plan.fused
                and len(group) >= 2
                and supports_fusion(backend_factory(group[0].backend))
            ):
                task = FusedRouteTask(
                    fingerprint=fingerprint,
                    graph=task_graph(group[0]),
                    request_groups=tuple(query.requests for query in group),
                    loads=tuple(query.load for query in group),
                    backend=group[0].backend,
                    params=self._resolved_backend_params(group[0]),
                    spill_dir=spill,
                    kernel=query_kernel(group[0]),
                )
                fused_futures.append(
                    (group, pool.submit(route_group_in_worker, task))
                )
                self._m_fused_batches.labels(mode="processes").inc()
                continue
            for query in group:
                task = RouteTask(
                    fingerprint=query.fingerprint,
                    graph=task_graph(query),
                    requests=query.requests,
                    load=query.load,
                    backend=query.backend,
                    params=self._resolved_backend_params(query),
                    spill_dir=spill,
                    kernel=query_kernel(query),
                )
                solo_futures.append((query, pool.submit(route_in_worker, task)))
        self._m_pool_tasks.labels(kind="route").inc(
            len(solo_futures) + len(fused_futures)
        )

        def record(query: RoutingQuery, outcome: RouteResult, seconds: float,
                   fused: bool) -> None:
            self._m_query_seconds.labels(backend=query.backend).observe(seconds)
            self._record_query(query, seconds)
            if fused:
                self._record_fused(query, seconds)
            report.results.append(
                QueryResult(
                    query_id=query.query_id,
                    fingerprint=query.fingerprint,
                    backend=query.backend,
                    outcome=outcome,
                    cache_hit=warm[query.fingerprint],
                    seconds=seconds,
                    workload=query.workload,
                    plan=query.plan,
                )
            )

        for query, future in solo_futures:
            outcome, seconds, runner_warm = future.result()
            self._m_pool_runner_loads.labels(
                state="warm" if runner_warm else "cold"
            ).inc()
            record(query, outcome, seconds, fused=False)
        for group, future in fused_futures:
            outcomes, group_seconds, runner_warm = future.result()
            self._m_pool_runner_loads.labels(
                state="warm" if runner_warm else "cold"
            ).inc()
            per_query = group_seconds / max(1, len(group))
            for query, outcome in zip(group, outcomes):
                record(query, outcome, per_query, fused=True)
        report.route_seconds += time.perf_counter() - route_start

    def _resolved_backend_params(self, query: RoutingQuery) -> dict[str, Any]:
        """Query parameters plus the service-level defaults the factory accepts.

        The service-level tradeoff parameters apply to every backend whose
        factory accepts them by name (epsilon reaches both the deterministic
        router and the rebuild-per-query comparator, so comparisons are
        apples to apples); explicit per-query params still win.
        """
        factory = backend_factory(query.backend)
        params = dict(query.backend_params)
        service_defaults: dict[str, Any] = {"epsilon": self.epsilon}
        if self.psi is not None:
            service_defaults["psi"] = self.psi
        if self.hierarchy_params is not None:
            service_defaults["hierarchy_params"] = self.hierarchy_params
        try:
            accepted = {
                name
                for name, parameter in inspect.signature(factory).parameters.items()
                if parameter.kind
                in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
            }
        except (TypeError, ValueError):
            accepted = set()
        for key, value in service_defaults.items():
            if key in accepted:
                params.setdefault(key, value)
        return params

    def _make_backend(self, query: RoutingQuery) -> RoutingBackend:
        factory = backend_factory(query.backend)
        return factory(query.graph, **self._resolved_backend_params(query))

    def _build_runner(
        self, query: RoutingQuery
    ) -> tuple[RoutingBackend, PreprocessInfo, PreprocessArtifact | None, float]:
        start = time.perf_counter()
        backend = self._make_backend(query)
        info = backend.preprocess()
        artifact = None
        # Capability is judged on the *factory* (exactly like the warm-lookup
        # path), so a function-style factory never fills a cache that the
        # lookup path would not read.
        if supports_artifacts(backend_factory(query.backend)) and supports_artifacts(backend):
            artifact = backend.export_artifact(fingerprint=query.fingerprint)
        return backend, info, artifact, time.perf_counter() - start

    @staticmethod
    def _route_one(runner: RoutingBackend, query: RoutingQuery) -> tuple[RouteResult, float]:
        start = time.perf_counter()
        outcome = runner.route(list(query.requests), load=query.load)
        return outcome, time.perf_counter() - start

    @classmethod
    def _route_chunk(
        cls, runner: RoutingBackend, chunk: Sequence[RoutingQuery]
    ) -> list[tuple[RouteResult, float]]:
        """Route a chunk of same-fingerprint queries inside one pool task."""
        return [cls._route_one(runner, query) for query in chunk]

    @staticmethod
    def _route_group_fused(
        runner: RoutingBackend, group: Sequence[RoutingQuery]
    ) -> list[tuple[RouteResult, float]]:
        """Route a same-fingerprint group through one fused kernel pass.

        The fused pass is one wall-clock measurement; each query is
        attributed an equal share so per-query latency series stay
        comparable with the sequential path.
        """
        request_groups = [list(query.requests) for query in group]
        loads = [query.load for query in group]
        start = time.perf_counter()
        outcomes = runner.route_many(request_groups, loads)  # type: ignore[attr-defined]
        per_query = (time.perf_counter() - start) / max(1, len(group))
        return [(outcome, per_query) for outcome in outcomes]

    # -- planner feedback ----------------------------------------------------

    def _record_query(self, query: RoutingQuery, seconds: float) -> None:
        """Feed one observed routing wall-clock back into the cost model."""
        if self.planner is not None and query.plan is not None:
            self.planner.record_query(
                query.plan,
                query.graph.number_of_nodes(),
                seconds,
                workload=query.workload,
            )

    def _record_fused(self, query: RoutingQuery, seconds: float) -> None:
        """Feed one fused-batch per-query wall-clock into the fused cost curve."""
        if self.planner is not None and query.plan is not None:
            self.planner.record_fused_query(
                query.plan,
                query.graph.number_of_nodes(),
                seconds,
                workload=query.workload,
            )

    def _record_preprocess(self, query: RoutingQuery, seconds: float) -> None:
        """Feed one observed preprocess wall-clock back into the cost model."""
        if self.planner is not None and query.plan is not None:
            self.planner.record_preprocess(
                query.plan, query.graph.number_of_nodes(), seconds
            )
