"""Spans recorded from outside the program, around each layer's entry points.

The traced run patches each public entry point *where its caller looks it
up* (a module global such as ``repro.core.router.solve_task3``, or a method
on its class) with a wrapper that records one span: name, start, end and
the span that was open when it was called.  Spans stay in memory; the
workload turns them into per-layer metrics when the run ends.  Nothing
under ``src/`` changes, and every patch is undone on exit.

Only this process is visible.  Work done in shard server processes appears
as the span of the call that waited for it (``cluster.process_shard``), not
as core spans.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

from measure import percentile

# The open span of the current thread or asyncio task.  A contextvar, not a
# thread-local: ``asyncio.to_thread`` copies it, so a coordinator call made
# from the gateway loop keeps its parent.
_current: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_span", default=-1)


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Recorder:
    """Collects spans and per-name counters while :attr:`enabled` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        # idempotency key -> admission time, for the cluster queue wait.
        self.enqueued: dict[str, float] = {}

    # -- recording --------------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        if self.enabled:
            with self._lock:
                self.samples[name].append(value)

    def _finish(self, span_id: int, name: str, start: int, parent: int) -> None:
        span = Span(span_id, name, start, time.perf_counter_ns(), parent)
        with self._lock:
            self.spans.append(span)

    def span(self, name: str) -> "_SpanContext":
        """A context manager recording one span (the root span of each measured operation)."""
        return _SpanContext(self, name)

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """``fn`` wrapped to record a span named ``name`` (and call ``hook``).

        ``hook(recorder, result, args, kwargs, seconds)`` runs after the call
        returns, to turn its result into counters.
        """
        recorder = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if not recorder.enabled:
                    return await fn(*args, **kwargs)
                span_id, start = next(recorder._ids), time.perf_counter_ns()
                token = _current.set(span_id)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    _current.reset(token)
                    recorder._finish(span_id, name, start, _current.get())
                if hook is not None:
                    hook(recorder, result, args, kwargs, (time.perf_counter_ns() - start) / 1e9)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            span_id, start = next(recorder._ids), time.perf_counter_ns()
            parent = _current.get()
            token = _current.set(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                _current.reset(token)
                recorder._finish(span_id, name, start, parent)
            if hook is not None:
                hook(recorder, result, args, kwargs, (time.perf_counter_ns() - start) / 1e9)
            return result

        return traced

    # -- patching ---------------------------------------------------------------

    def patch(self, owner: Any, attribute: str, name: str, hook: Callable | None = None) -> None:
        """Replace ``owner.attribute`` with a traced wrapper until :meth:`restore`."""
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, staticmethod):
            replacement: Any = staticmethod(self.wrap(name, raw.__func__, hook))
        else:
            replacement = self.wrap(name, raw, hook)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        for owner, attribute, raw in reversed(self._patches):
            setattr(owner, attribute, raw)
        self._patches.clear()

    # -- reading ----------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total_seconds(self, name: str) -> float:
        return sum(span.seconds for span in self.named(name))

    def p50_ms(self, name: str) -> float:
        return percentile([span.seconds for span in self.named(name)], 50) * 1000.0

    def self_seconds(self, name: str) -> float:
        """Total time of ``name`` spans minus the time their child spans cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            children[span.parent].append(span)
        total = 0.0
        for span in self.named(name):
            covered = _union_ns([(c.start_ns, c.end_ns) for c in children[span.span_id]])
            total += (span.end_ns - span.start_ns - covered) / 1e9
        return total

    def residual_fraction(self, root_name: str) -> float:
        """Share of root-span time that no other span overlaps.

        Spans from every thread count, clipped to each root's interval, so
        work the root waited on in the gateway thread or a pool thread covers
        it too; only time spent in none of the traced layers is residual.
        """
        roots = self.named(root_name)
        layers = sorted(
            (span.start_ns, span.end_ns) for span in self.spans if span.name != root_name
        )
        total = sum(root.end_ns - root.start_ns for root in roots)
        if not total:
            return 0.0
        uncovered = 0
        for root in roots:
            clipped = [
                (max(start, root.start_ns), min(end, root.end_ns))
                for start, end in layers
                if start < root.end_ns and end > root.start_ns
            ]
            uncovered += root.end_ns - root.start_ns - _union_ns(clipped)
        return uncovered / total


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> None:
        self.span_id, self.start = next(self.recorder._ids), time.perf_counter_ns()
        self.parent = _current.get()
        self.token = _current.set(self.span_id)

    def __exit__(self, *exc_info) -> None:
        _current.reset(self.token)
        if self.recorder.enabled:
            self.recorder._finish(self.span_id, self.name, self.start, self.parent)


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    covered, end_so_far = 0, None
    for start, end in sorted(intervals):
        if end_so_far is None or start > end_so_far:
            covered += end - start
            end_so_far = end
        elif end > end_so_far:
            covered += end - end_so_far
            end_so_far = end
    return covered


# -- the layer entry points ---------------------------------------------------------


def _count_use_numpy(recorder: Recorder) -> None:
    """Count every ``use_numpy()`` call, in each module that imported the name."""
    import repro.kernels as kernels

    original = kernels.use_numpy

    def counted():
        if recorder.enabled:
            recorder.count("kernels.use_numpy")
        return original()

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if (name == "repro" or name.startswith("repro.")) and getattr(
            module, "use_numpy", None
        ) is original:
            recorder._patches.append((module, "use_numpy", original))
            setattr(module, "use_numpy", counted)


def _on_preprocess(recorder, summary, args, kwargs, seconds) -> None:
    recorder.count("core.preprocess_graphs")
    recorder.count("core.preprocess_rounds", summary.rounds)


def _on_route_batch(recorder, report, args, kwargs, seconds) -> None:
    recorder.count("service.batches")
    recorder.count("service.cache_hits", report.cache_hits)
    recorder.count("service.cache_misses", report.cache_misses)
    recorder.count("service.preprocess_s", report.preprocess_seconds)
    recorder.count("service.route_s", report.route_seconds)


def _on_submit(recorder, decision, args, kwargs, seconds) -> None:
    key = kwargs.get("idempotency_key")
    if key and getattr(decision, "accepted", False):
        recorder.enqueued[key] = time.perf_counter()


def _on_drain(recorder, slices, args, kwargs, seconds) -> None:
    now = time.perf_counter()
    for items in slices.values():
        recorder.sample("cluster.batch_size", len(items))
        for item in items:
            started = recorder.enqueued.pop(item.idempotency_key, None)
            if started is not None:
                recorder.sample("cluster.queue_wait_s", now - started)


def _on_process_shard(recorder, report, args, kwargs, seconds) -> None:
    recorder.sample("cluster.shard_hop_s", seconds - report.wall_seconds)


def _on_submit_many(recorder, outcomes, args, kwargs, seconds) -> None:
    recorder.sample("net.coalesced_window", len(args[1]))


def _on_append(recorder, nbytes, args, kwargs, seconds) -> None:
    recorder.count("durability.records")
    recorder.count("durability.bytes", nbytes)


def _on_append_group(recorder, nbytes, args, kwargs, seconds) -> None:
    recorder.count("durability.records", len(args[1]))
    recorder.count("durability.bytes", nbytes)
    recorder.count("durability.group_commits")


def install(recorder: Recorder) -> None:
    """Patch every layer's entry points; :meth:`Recorder.restore` undoes it."""
    import repro.core.merge as merge
    import repro.core.router as router
    import repro.cutmatching.matching_player as matching_player
    import repro.hierarchy.builder as builder
    import repro.kernels.batched as batched
    import repro.kernels.dispersion as kernel_dispersion
    import repro.net.frames as frames
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cutmatching.game import CutMatchingGame
    from repro.durability.journal import CoordinatorJournal, WriteAheadJournal
    from repro.net.client import ClusterClient
    from repro.net.gateway import ClusterGateway
    from repro.planner.planner import QueryPlanner
    from repro.service.service import RoutingService
    from repro.wire.messages import WireMessage

    patch = recorder.patch
    # core: the query recursion (Sections 4 and 6)
    patch(router.ExpanderRouter, "route", "core.route")
    patch(router.ExpanderRouter, "route_many", "core.route")
    patch(router, "solve_task3", "core.task3")
    patch(router, "solve_task3_many", "core.task3")
    patch(merge, "disperse", "core.disperse")
    patch(merge, "disperse_many", "core.disperse")
    patch(router, "route_in_leaf", "core.leaf")
    # kernels
    patch(kernel_dispersion, "disperse_numpy", "kernels.disperse_numpy")
    patch(batched, "disperse_many_numpy", "kernels.disperse_numpy")
    _count_use_numpy(recorder)
    # preprocessing: hierarchy, cut-matching, embedding
    patch(router.ExpanderRouter, "preprocess", "core.preprocess", _on_preprocess)
    patch(router, "build_hierarchy", "hierarchy.build")
    patch(router, "build_best_index", "hierarchy.best_index")
    patch(CutMatchingGame, "play", "cutmatching.play")
    patch(builder, "embed_matching", "embedding.embed")
    patch(matching_player, "embed_matching", "embedding.embed")
    # service
    patch(RoutingService, "fingerprint", "service.fingerprint")
    patch(RoutingService, "graph_key", "service.fingerprint")
    patch(RoutingService, "submit", "service.submit")
    patch(RoutingService, "route_batch", "service.route_batch", _on_route_batch)
    # planner
    patch(QueryPlanner, "plan", "planner.plan")
    # cluster
    patch(ClusterCoordinator, "submit", "cluster.submit", _on_submit)
    patch(ClusterCoordinator, "submit_many", "cluster.submit_many", _on_submit_many)
    patch(ClusterCoordinator, "drain_slices", "cluster.drain", _on_drain)
    patch(ClusterCoordinator, "dispatch", "cluster.dispatch")
    patch(ClusterGateway, "_dispatch", "cluster.dispatch")
    patch(ClusterCoordinator, "process_shard", "cluster.process_shard", _on_process_shard)
    patch(ClusterCoordinator, "merge_reports", "cluster.merge")
    # durability
    patch(WriteAheadJournal, "append", "durability.append", _on_append)
    patch(WriteAheadJournal, "append_group", "durability.append", _on_append_group)
    patch(CoordinatorJournal, "checkpoint_now", "durability.checkpoint")
    # net and wire
    patch(ClusterClient, "submit", "net.client_submit")
    patch(ClusterClient, "dispatch", "net.client_dispatch")
    patch(WireMessage, "to_wire", "wire.encode")
    patch(frames, "message_from_wire", "wire.decode")


# -- from spans to per-layer metrics ------------------------------------------------------


def counter_total(registry, name: str, **labels: str) -> float:
    """Sum of a registry family's children whose labels match ``labels``."""
    family = registry.get(name) if registry is not None else None
    if family is None:
        return 0.0
    total = 0.0
    for key, child in family.children():
        values = dict(zip(family.label_names, key))
        if all(values.get(label) == value for label, value in labels.items()):
            total += child.snapshot()
    return total


#: Registry counters read before and after the traced phase: (name, labels).
REGISTRY_COUNTERS = {
    "plan_hits": ("repro_planner_plan_cache_total", {"result": "hit"}),
    "plan_misses": ("repro_planner_plan_cache_total", {"result": "miss"}),
    "client_bytes": ("repro_net_bytes_total", {"role": "client"}),
    "coordinator_bytes": ("repro_net_bytes_total", {"role": "coordinator"}),
    "client_deduped": ("repro_net_payloads_deduped_total", {"role": "client"}),
    "client_uploads": ("repro_net_graph_uploads_total", {"role": "client"}),
}


def registry_snapshot(registry) -> dict[str, float]:
    return {
        key: counter_total(registry, name, **labels)
        for key, (name, labels) in REGISTRY_COUNTERS.items()
    }


def layer_metrics(
    recorder: Recorder,
    queries: int,
    registry_delta: dict[str, float],
) -> dict[str, float]:
    """The per-layer metrics of one traced phase.

    ``queries`` is the number of queries the phase completed; per-graph
    metrics divide by the graphs preprocessed in this process.
    """
    from measure import mean, tail_percentile

    per_query = 1.0 / queries if queries else 0.0
    graphs = recorder.counts["core.preprocess_graphs"]
    per_graph = 1.0 / graphs if graphs else 0.0
    batches = recorder.counts["service.batches"]
    per_batch = 1.0 / batches if batches else 0.0
    ms = 1000.0

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    def tail_ms(name: str) -> float:
        values = recorder.samples[name]
        return percentile(values, tail_percentile(len(values))) * ms

    checkpoint_ids = {span.span_id for span in recorder.named("durability.checkpoint")}
    append_seconds = sum(
        span.seconds
        for span in recorder.named("durability.append")
        if span.parent not in checkpoint_ids
    )
    batch_sizes = recorder.samples["cluster.batch_size"]
    return {
        "core.route_self_ms_per_query": recorder.self_seconds("core.route") * ms * per_query,
        "core.task3_ms_per_query": recorder.total_seconds("core.task3") * ms * per_query,
        "core.disperse_ms_per_query": recorder.total_seconds("core.disperse") * ms * per_query,
        "core.leaf_ms_per_query": recorder.total_seconds("core.leaf") * ms * per_query,
        "core.task3_calls_per_query": len(recorder.named("core.task3")) * per_query,
        "kernels.use_numpy_calls_per_query": recorder.counts["kernels.use_numpy"] * per_query,
        "kernels.disperse_numpy_ms_per_query": recorder.total_seconds("kernels.disperse_numpy")
        * ms
        * per_query,
        "hierarchy.build_ms_per_graph": recorder.total_seconds("hierarchy.build") * ms * per_graph,
        "hierarchy.best_index_ms_per_graph": recorder.total_seconds("hierarchy.best_index")
        * ms
        * per_graph,
        "cutmatching.play_ms_per_graph": recorder.total_seconds("cutmatching.play")
        * ms
        * per_graph,
        "cutmatching.games_per_graph": len(recorder.named("cutmatching.play")) * per_graph,
        "embedding.embed_ms_per_graph": recorder.total_seconds("embedding.embed") * ms * per_graph,
        "core.preprocess_rounds_per_graph": recorder.counts["core.preprocess_rounds"] * per_graph,
        "service.fingerprint_ms_p50": recorder.p50_ms("service.fingerprint"),
        "service.cache_hit_ratio": ratio(
            recorder.counts["service.cache_hits"], recorder.counts["service.cache_misses"]
        ),
        "service.preprocess_s_per_batch": recorder.counts["service.preprocess_s"] * per_batch,
        "service.route_s_per_batch": recorder.counts["service.route_s"] * per_batch,
        "planner.plan_ms_p50": recorder.p50_ms("planner.plan"),
        "planner.plan_cache_hit_ratio": ratio(
            registry_delta["plan_hits"], registry_delta["plan_misses"]
        ),
        "cluster.submit_ms_p50": recorder.p50_ms("cluster.submit"),
        "cluster.queue_wait_ms_p50": percentile(recorder.samples["cluster.queue_wait_s"], 50)
        * ms,
        "cluster.queue_wait_ms_p99": tail_ms("cluster.queue_wait_s"),
        "cluster.dispatch_ms_p50": recorder.p50_ms("cluster.dispatch"),
        "cluster.process_shard_ms_p50": recorder.p50_ms("cluster.process_shard"),
        "cluster.shard_hop_ms_p50": percentile(recorder.samples["cluster.shard_hop_s"], 50) * ms,
        "cluster.merge_ms_p50": recorder.p50_ms("cluster.merge"),
        "cluster.batch_size_mean": mean(batch_sizes),
        "cluster.batch_size_max": max(batch_sizes, default=0),
        "durability.append_ms_per_query": append_seconds * ms * per_query,
        "durability.records_per_query": recorder.counts["durability.records"] * per_query,
        "durability.bytes_per_query": recorder.counts["durability.bytes"] * per_query,
        "durability.group_commits_per_query": recorder.counts["durability.group_commits"]
        * per_query,
        "durability.checkpoint_ms_p50": recorder.p50_ms("durability.checkpoint"),
        "durability.checkpoints": len(recorder.named("durability.checkpoint")),
        "net.client_submit_ms_p50": recorder.p50_ms("net.client_submit"),
        "net.client_dispatch_ms_p50": recorder.p50_ms("net.client_dispatch"),
        "net.bytes_per_query": (
            registry_delta["client_bytes"] + registry_delta["coordinator_bytes"]
        )
        * per_query,
        "net.payload_dedup_ratio": ratio(
            registry_delta["client_deduped"], registry_delta["client_uploads"]
        ),
        "net.coalesced_window_mean": mean(recorder.samples["net.coalesced_window"]),
        "wire.encode_ms_per_query": recorder.total_seconds("wire.encode") * ms * per_query,
        "wire.decode_ms_per_query": recorder.total_seconds("wire.decode") * ms * per_query,
    }
