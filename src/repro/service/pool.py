"""Worker-process side of the service's ``parallelism="processes"`` mode.

The GIL makes the thread-pool fan-out of :class:`RoutingService` a
single-core affair: routing is pure Python compute, so "parallel" queries
time-slice one core.  Process mode ships the work to real worker processes
instead:

* **Builds** send the (picklable) graph + backend parameters to a worker,
  which preprocesses and returns the :class:`PreprocessArtifact` (plus the
  round/diagnostic info) to the parent for caching.
* **Routes** send only the query (fingerprint, requests, load); the
  artifact travels through a *spill directory* — the parent pickles each
  distinct artifact to disk once (:func:`write_spill`), and each worker
  process loads it at most once (:func:`read_spill`) into its module-level
  runner cache (``artifact once per worker``).  Subsequent queries for the
  same fingerprint hit the warm runner directly.

Spill files are the only way an artifact crosses a process boundary: the
cluster's warm handoff between shard server processes writes and reads the
same files through the same two helpers.

Everything here is module-level so ``ProcessPoolExecutor`` can pickle task
references; the runner cache survives for the life of the worker process
(the service keeps one long-lived pool, see ``RoutingService``).
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import networkx as nx

from repro.backends.base import (
    PreprocessInfo,
    RouteResult,
    RoutingBackend,
    backend_factory,
    supports_artifacts,
)
from repro.core.router import PreprocessArtifact
from repro.core.tokens import RoutingRequest
from repro.kernels import kernel

__all__ = [
    "BuildTask",
    "RouteTask",
    "FusedRouteTask",
    "build_in_worker",
    "route_in_worker",
    "route_group_in_worker",
    "read_spill",
    "spill_path",
    "write_spill",
]


@dataclass(frozen=True)
class BuildTask:
    """One cold preprocess shipped to a worker process.

    ``kernel`` pins the worker to the parent's active compute kernel —
    worker processes do not share the parent's programmatic kernel override
    (and under spawn/forkserver not even its environment snapshot).
    """

    fingerprint: str
    graph: nx.Graph
    backend: str
    params: Mapping[str, Any] = field(default_factory=dict)
    kernel: str = "numpy"


@dataclass(frozen=True)
class RouteTask:
    """One routing query shipped to a worker process.

    ``graph`` may be ``None`` for artifact-backed fingerprints the parent has
    already spilled: the worker recovers the graph from the artifact itself
    (the deterministic backend's :class:`PreprocessArtifact` carries its
    decomposition's base graph), so warm-path queries ship only the requests.
    """

    fingerprint: str
    graph: nx.Graph | None
    requests: tuple[RoutingRequest, ...]
    load: int | None
    backend: str
    params: Mapping[str, Any] = field(default_factory=dict)
    spill_dir: str | None = None
    kernel: str = "numpy"


@dataclass(frozen=True)
class FusedRouteTask:
    """Several same-fingerprint queries shipped to one worker as a fused batch.

    The worker routes every group through the backend's ``route_many`` (one
    stacked kernel pass) when the backend supports fusion, falling back to
    per-group ``route`` calls otherwise; per-group results are identical
    either way.  The artifact arrives as for :class:`RouteTask`, through the
    spill directory.
    """

    fingerprint: str
    graph: nx.Graph | None
    request_groups: tuple[tuple[RoutingRequest, ...], ...]
    loads: tuple[int | None, ...]
    backend: str
    params: Mapping[str, Any] = field(default_factory=dict)
    spill_dir: str | None = None
    kernel: str = "numpy"


def spill_path(spill_dir: str | Path, fingerprint: str) -> Path:
    """Where the parent spills (and workers load) the artifact for ``fingerprint``."""
    return Path(spill_dir) / f"{fingerprint}.artifact.pkl"


def write_spill(path: Path, artifact: PreprocessArtifact) -> None:
    """Pickle ``artifact`` to ``path`` atomically (readers never see a torn file)."""
    staging = path.with_suffix(".tmp")
    with open(staging, "wb") as handle:
        pickle.dump(artifact, handle)
    staging.replace(path)


def read_spill(path: str | Path) -> PreprocessArtifact:
    """Load an artifact :func:`write_spill` wrote."""
    with open(path, "rb") as handle:
        return pickle.load(handle)


#: fingerprint -> query-ready backend, per worker process (LRU, bounded).
_RUNNERS: dict[str, RoutingBackend] = {}

#: Most runners a worker process retains; the parent's ArtifactCache bounds
#: memory in the coordinator process and this bounds it in the workers.
_RUNNER_CACHE_LIMIT = max(1, int(os.environ.get("REPRO_POOL_RUNNER_CACHE", "16")))


def _cache_runner(fingerprint: str, runner: RoutingBackend) -> None:
    _RUNNERS[fingerprint] = runner
    while len(_RUNNERS) > _RUNNER_CACHE_LIMIT:
        _RUNNERS.pop(next(iter(_RUNNERS)))


def _build_backend(task: BuildTask | RouteTask) -> RoutingBackend:
    if task.graph is None:
        raise RuntimeError(
            f"route task for {task.fingerprint[:10]} carried no graph and no usable artifact"
        )
    factory = backend_factory(task.backend)
    return factory(task.graph, **dict(task.params))


def _artifact_graph(artifact: PreprocessArtifact) -> nx.Graph | None:
    decomposition = getattr(artifact, "decomposition", None)
    return getattr(decomposition, "graph", None)


def build_in_worker(
    task: BuildTask,
) -> tuple[PreprocessInfo, PreprocessArtifact | None]:
    """Preprocess ``task``'s backend in this worker; return (info, artifact).

    The built runner is also retained in the worker's runner cache, so the
    worker that paid for the build serves its routes warm.
    """
    with kernel(task.kernel):
        backend = _build_backend(task)
        info = backend.preprocess()
        artifact = None
        if supports_artifacts(backend_factory(task.backend)) and supports_artifacts(backend):
            artifact = backend.export_artifact(fingerprint=task.fingerprint)
    _cache_runner(task.fingerprint, backend)
    return info, artifact


def _runner_for(task: RouteTask | FusedRouteTask) -> tuple[RoutingBackend, bool]:
    """The query-ready runner for ``task`` plus whether it was already warm."""
    runner = _RUNNERS.pop(task.fingerprint, None)
    if runner is not None:
        _RUNNERS[task.fingerprint] = runner  # refresh LRU position
        return runner, True
    factory = backend_factory(task.backend)
    artifact = None
    if task.spill_dir is not None and supports_artifacts(factory):
        path = spill_path(task.spill_dir, task.fingerprint)
        if path.exists():
            artifact = read_spill(path)
    if artifact is not None:
        graph = task.graph if task.graph is not None else _artifact_graph(artifact)
        if graph is None:
            raise RuntimeError(
                f"route task for {task.fingerprint[:10]} carried no graph "
                "and its artifact exposes none"
            )
        runner = factory.from_artifact(graph, artifact)
    else:
        runner = _build_backend(task)
        runner.preprocess()
    _cache_runner(task.fingerprint, runner)
    return runner, False


def route_in_worker(task: RouteTask) -> tuple[RouteResult, float, bool]:
    """Route ``task`` in this worker; returns (outcome, seconds, runner_was_warm).

    ``seconds`` measures only the routing call, matching the thread path's
    per-query timing; artifact loading shows up in the ``warm`` flag (and the
    parent's ``repro_service_pool_runner_loads_total`` metric) instead.
    """
    with kernel(task.kernel):
        runner, warm = _runner_for(task)
        start = time.perf_counter()
        outcome = runner.route(list(task.requests), load=task.load)
        return outcome, time.perf_counter() - start, warm


def route_group_in_worker(
    task: FusedRouteTask,
) -> tuple[list[RouteResult], float, bool]:
    """Route a fused batch in this worker; returns (outcomes, seconds, warm).

    ``seconds`` is the whole fused pass (the parent attributes an equal share
    per query, matching the adapters' fused timing convention).
    """
    with kernel(task.kernel):
        runner, warm = _runner_for(task)
        groups = [list(group) for group in task.request_groups]
        start = time.perf_counter()
        route_many = getattr(runner, "route_many", None)
        if callable(route_many):
            outcomes = route_many(groups, list(task.loads))
        else:
            outcomes = [
                runner.route(group, load=load)
                for group, load in zip(groups, task.loads)
            ]
        return outcomes, time.perf_counter() - start, warm
