"""Spill files: the one way a preprocessed artifact crosses a process boundary.

The service's process pool and the cluster's warm handoff between shard
server processes both move artifacts as pickle files written by
:func:`repro.service.pool.write_spill` and loaded by
:func:`repro.service.pool.read_spill`.  In-process shards hand the artifact
object over directly.  The tests pin the guarantees the serving tier builds
on: a loaded artifact routes identically to the original, every
artifact-capable fingerprint is spilled once, the spill directory stays
bounded and goes away on close, in-process handoffs copy nothing, and a
shard server loads handoff files only from its own handoff directory.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.cluster import ClusterCoordinator, WarmHandoff
from repro.core.router import ExpanderRouter
from repro.core.tokens import RoutingRequest
from repro.metrics import MetricsRegistry
from repro.net.shard_server import ShardServerConfig, start_shard_server
from repro.planner import ExecutionPlan
from repro.service import ArtifactCache, RoutingService
from repro.service.pool import read_spill, spill_path, write_spill
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def artifact():
    graph = nx.random_regular_graph(4, 48, seed=9)
    router = ExpanderRouter(graph, epsilon=0.5)
    router.preprocess()
    return router.export_artifact(fingerprint="f" * 16)


def _workload(graph, seed):
    nodes = sorted(graph.nodes())
    rng = random.Random(seed)
    destinations = nodes[:]
    rng.shuffle(destinations)
    return [RoutingRequest(source=s, destination=d) for s, d in zip(nodes, destinations)]


def _route_facts(artifact, seed=0):
    graph = artifact.decomposition.graph
    router = ExpanderRouter.from_artifact(graph, artifact)
    outcome = router.route(_workload(graph, seed))
    return (
        outcome.delivered,
        outcome.total_tokens,
        outcome.query_rounds,
        outcome.preprocessing_rounds,
        tuple(sorted(outcome.breakdown.items())),
    )


def test_write_read_round_trip(artifact, tmp_path):
    path = spill_path(tmp_path, "f" * 16)
    write_spill(path, artifact)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no staging file left
    # Rewriting the same fingerprint replaces the file in place.
    write_spill(path, artifact)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    clone = read_spill(path)
    assert _route_facts(clone, seed=1) == _route_facts(artifact, seed=1)


def test_spilled_artifact_keeps_its_decomposition(artifact, tmp_path):
    path = spill_path(tmp_path, artifact.fingerprint)
    write_spill(path, artifact)
    clone = read_spill(path)
    assert clone is not artifact
    assert clone.fingerprint == artifact.fingerprint
    assert clone.epsilon == artifact.epsilon
    original_nodes = list(artifact.decomposition.all_nodes())
    cloned_nodes = list(clone.decomposition.all_nodes())
    assert len(cloned_nodes) == len(original_nodes)
    assert [bool(node.shuffler) for node in cloned_nodes] == [
        bool(node.shuffler) for node in original_nodes
    ]
    assert _route_facts(clone) == _route_facts(artifact)


def test_process_batches_spill_each_artifact_once():
    graph = nx.random_regular_graph(4, 48, seed=4)
    plan = ExecutionPlan(backend="deterministic", parallelism="processes")
    with RoutingService(max_workers=2, metrics=MetricsRegistry()) as service:
        for _ in range(2):
            for seed in range(2):
                service.submit(graph, _workload(graph, seed), plan=plan)
            assert service.route_batch().all_delivered
        fingerprint = service.fingerprint(graph)
        assert list(service._spilled) == [fingerprint]
        [spilled] = service._spill_dir.iterdir()
        assert spilled == spill_path(service._spill_dir, fingerprint)


def test_trim_spill_dir_protects_kept_fingerprints(artifact):
    service = RoutingService(cache=ArtifactCache(capacity=1), metrics=MetricsRegistry())
    with service:
        for index in range(20):
            service._spill_artifact(f"{index:016d}", artifact)
        service._trim_spill_dir(keep={"0000000000000000"})
        kept = set(service._spilled)
        assert len(kept) == 16  # the floor of the cap
        assert "0000000000000000" in kept
        on_disk = {path.name for path in service._spill_dir.iterdir()}
        assert on_disk == {spill_path(".", key).name for key in kept}


def test_service_close_removes_spill_dir(artifact):
    service = RoutingService(metrics=MetricsRegistry())
    service._spill_artifact("b" * 16, artifact)
    spill_dir = service._spill_dir
    assert spill_dir.exists()
    service.close()
    assert not spill_dir.exists()


def test_local_warm_handoff_hands_the_artifact_over_directly():
    """Rebalanced warm keys move as objects and keep serving as cache hits."""
    graphs = [nx.random_regular_graph(4, 48, seed=s) for s in range(3)]
    metrics = MetricsRegistry()
    with ClusterCoordinator(shard_count=2, metrics=metrics) as coordinator:
        for graph in graphs:
            coordinator.submit(graph, make_workload("permutation", graph, shift=1))
        coordinator.dispatch()
        exported = {}
        for worker in coordinator.workers.values():
            for fingerprint in worker.warm_keys():
                exported[fingerprint] = worker.service.cache.peek(fingerprint)
        coordinator.add_shard()
        for graph in graphs:
            coordinator.submit(graph, make_workload("permutation", graph, shift=2))
        report = coordinator.dispatch()
        assert report.cache_hits == report.query_count
        assert report.preprocess_rounds_incurred == 0
        handoffs = metrics.as_dict().get("repro_cluster_warm_handoffs_total", {})
        assert handoffs and handoffs.get("path=direct", 0.0) == sum(handoffs.values())
        # The new shard holds the very objects the old owners exported.
        new_shard = coordinator.workers[coordinator.shard_ids[-1]]
        for fingerprint in new_shard.warm_keys():
            assert new_shard.service.cache.peek(fingerprint) is exported[fingerprint]
        assert coordinator.handoff_dir is None  # in-process: nothing on disk


def test_shard_server_adopts_only_from_its_handoff_dir(artifact, tmp_path):
    """Adopting unpickles a file, so a shard server loads only its handoff files."""
    handoff_dir = tmp_path / "handoff"
    handoff_dir.mkdir()
    outside = spill_path(tmp_path, "f" * 16)
    inside = spill_path(handoff_dir, "f" * 16)
    write_spill(outside, artifact)
    write_spill(inside, artifact)
    config = ShardServerConfig(
        shard_id="adopter",
        socket_path=str(tmp_path / "adopter.sock"),
        handoff_dir=str(handoff_dir),
    )
    shard = start_shard_server(config, metrics=MetricsRegistry())
    try:
        assert not shard.adopt_artifact(WarmHandoff("f" * 16, spill_file=str(outside)))
        assert shard.adopt_artifact(WarmHandoff("f" * 16, spill_file=str(inside)))
    finally:
        shard.close()
