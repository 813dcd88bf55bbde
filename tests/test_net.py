"""Tests for the network serving tier: frames, shard servers, gateway, client.

The acceptance-critical property lives in
``test_cluster_report_signature_parity_local_vs_tcp``: the same seeded
workload driven through ``transport="local"`` and ``transport="tcp"``
coordinators yields byte-identical :meth:`ClusterReport.signature` values.
Around it: the frame protocol's framing/limits, the shard server process
lifecycle, deadline semantics (expired work is requeued, never lost), the
coordinator-shaped :class:`ClusterClient` surface, and the deprecation /
close-idempotency satellites.
"""

import gc
import socket
import threading
import warnings
import weakref

import pytest

from repro.cluster import ClusterCoordinator, OpenLoopLoadGenerator
from repro.cluster.worker import ShardWorker
from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.net import (
    ClusterClient,
    ClusterGateway,
    DeadlineExpired,
    GatewayError,
    MAX_FRAME_BYTES,
    NetInstruments,
    recv_frame,
    send_frame,
)
from repro.net.shard_server import ShardServerConfig, start_shard_server
from repro.planner import ExecutionPlan
from repro.wire import Ping, Pong, ShardStatsRequest, WireDecodeError
from repro.workloads import permutation_workload

PLAN = ExecutionPlan(backend="deterministic", max_workers=2)


@pytest.fixture(scope="module")
def graphs():
    return [random_regular_expander(48, degree=6, seed=seed) for seed in range(2)]


# -- frames ------------------------------------------------------------------------


def test_blocking_frames_round_trip_with_instrument_counts():
    registry = MetricsRegistry()
    instruments = NetInstruments(registry, role="client")
    left, right = socket.socketpair()
    try:
        send_frame(left, Ping(), instruments=instruments)
        assert isinstance(recv_frame(right, instruments=instruments), Ping)
        sent = registry.get("repro_net_frames_total").labels(role="client", direction="sent")
        frames = registry.get("repro_net_frames_total")
        received = frames.labels(role="client", direction="received")
        assert sent.value == 1 and received.value == 1
        bytes_sent = registry.get("repro_net_bytes_total").labels(role="client", direction="sent")
        assert bytes_sent.value > 4  # length prefix + codec byte + body
    finally:
        left.close()
        right.close()


def test_clean_eof_reads_as_none():
    left, right = socket.socketpair()
    left.close()
    try:
        assert recv_frame(right) is None
    finally:
        right.close()


def test_oversize_frame_header_is_rejected():
    left, right = socket.socketpair()
    try:
        left.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(WireDecodeError):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_zero_length_frame_is_rejected():
    left, right = socket.socketpair()
    try:
        left.sendall((0).to_bytes(4, "big"))
        with pytest.raises(WireDecodeError):
            recv_frame(right)
    finally:
        left.close()
        right.close()


# -- shard server processes --------------------------------------------------------


def test_shard_server_config_validation(tmp_path):
    with pytest.raises(ValueError, match="unknown family"):
        ShardServerConfig(shard_id="s", family="carrier-pigeon")
    with pytest.raises(ValueError, match="socket_path"):
        ShardServerConfig(shard_id="s", family="unix")
    with pytest.raises(ValueError, match="process pools"):
        ShardServerConfig(
            shard_id="s",
            family="unix",
            socket_path=str(tmp_path / "s.sock"),
            default_plan=ExecutionPlan(backend="deterministic", parallelism="processes"),
        )


def test_shard_server_process_lifecycle(tmp_path, graphs):
    config = ShardServerConfig(
        shard_id="shard-0",
        socket_path=str(tmp_path / "shard-0.sock"),
        cache_capacity=4,
        default_plan=PLAN,
    )
    shard = start_shard_server(config, metrics=MetricsRegistry())
    try:
        assert shard.ping()
        # Build the slice the way the coordinator would and serve it remotely.
        with ClusterCoordinator(
            shard_count=1, default_plan=PLAN, metrics=MetricsRegistry()
        ) as local:
            workload = permutation_workload(graphs[0], shift=1)
            for request in workload.requests[:4]:
                local.submit(graphs[0], [request], workload=workload.name)
            [(_, items)] = local.drain_slices().items()
        report = shard.process(items)
        assert report.query_count == 4
        assert report.all_delivered
        row = shard.as_row()
        assert row["shard"] == "shard-0"
        assert row["queries"] == 4
    finally:
        shard.close()
        shard.close()  # idempotent
    assert not shard.child.is_alive()
    assert not (tmp_path / "shard-0.sock").exists()


def test_tcp_transport_coordinator_round_trip(graphs):
    with ClusterCoordinator(
        shard_count=2,
        cache_capacity=4,
        default_plan=PLAN,
        metrics=MetricsRegistry(),
        transport="tcp",
    ) as coordinator:
        workload = permutation_workload(graphs[0], shift=1)
        for request in workload.requests[:6]:
            coordinator.submit(graphs[0], [request], workload=workload.name)
        report = coordinator.dispatch()
        assert report.query_count == 6
        assert report.all_delivered
        rows = coordinator.shard_rows()
        assert sum(row["queries"] for row in rows) == 6


def test_unknown_transport_is_rejected():
    with pytest.raises(ValueError, match="transport"):
        ClusterCoordinator(shard_count=1, transport="avian")


def test_cluster_report_signature_parity_local_vs_tcp(graphs):
    """The acceptance bar: identical seeded workloads, byte-identical signatures."""

    def run(transport):
        with ClusterCoordinator(
            shard_count=2,
            cache_capacity=4,
            default_plan=PLAN,
            metrics=MetricsRegistry(),
            transport=transport,
        ) as coordinator:
            generator = OpenLoopLoadGenerator(
                graphs, rate=60.0, duration=0.3, dispatch_interval=0.1, seed=3
            )
            slo = generator.run(coordinator)
        return slo

    local = run("local")
    tcp = run("tcp")
    assert local.completed == tcp.completed > 0
    local_signatures = [report.signature() for report in local.cluster_reports]
    tcp_signatures = [report.signature() for report in tcp.cluster_reports]
    assert local_signatures == tcp_signatures
    # The loadgen's round-trip accounting is populated for both transports.
    assert len(tcp.round_trip_seconds) == len(tcp.cluster_reports)
    assert all(overhead >= 0 for overhead in tcp.transport_overhead_seconds)
    assert tcp.summary()["rtt_p99_seconds"] >= tcp.summary()["rtt_p50_seconds"] >= 0


# -- gateway and client ------------------------------------------------------------


@pytest.fixture()
def gateway(tmp_path):
    coordinator = ClusterCoordinator(
        shard_count=2, cache_capacity=4, default_plan=PLAN, metrics=MetricsRegistry()
    )
    with coordinator, ClusterGateway(
        coordinator, socket_path=str(tmp_path / "gateway.sock")
    ) as gate:
        yield gate


def test_gateway_serves_the_coordinator_surface(gateway, graphs):
    with ClusterClient(gateway.address, metrics=MetricsRegistry()) as client:
        assert client.ping()
        assert client.shard_count == 2
        workload = permutation_workload(graphs[0], shift=1)
        for request in workload.requests[:5]:
            reply = client.submit(graphs[0], [request], workload=workload.name)
            assert reply.accepted
        report = client.dispatch()
        assert report.query_count == 5
        assert report.all_delivered
        assert client.admission_totals().accepted == 5
        assert all(depth == 0 for depth in client.queue_depths().values())


def test_gateway_matches_in_process_dispatch(gateway, graphs):
    # The same submissions against a twin in-process coordinator produce the
    # same report signature — the gateway adds transport, not behaviour.
    workload = permutation_workload(graphs[1], shift=2)
    with ClusterCoordinator(
        shard_count=2, cache_capacity=4, default_plan=PLAN, metrics=MetricsRegistry()
    ) as twin, ClusterClient(gateway.address, metrics=MetricsRegistry()) as client:
        for request in workload.requests[:6]:
            client.submit(graphs[1], [request], workload=workload.name)
            twin.submit(graphs[1], [request], workload=workload.name)
        assert client.dispatch().signature() == twin.dispatch().signature()


def test_submit_deadline_zero_is_refused(gateway, graphs):
    with ClusterClient(gateway.address, metrics=MetricsRegistry()) as client:
        with pytest.raises(DeadlineExpired):
            client.submit(
                graphs[0],
                permutation_workload(graphs[0], shift=1).requests[:1],
                workload="permutation",
                deadline=0.0,
            )


def test_dispatch_deadline_requeues_instead_of_losing_work(gateway, graphs):
    registry = MetricsRegistry()
    with ClusterClient(gateway.address, metrics=registry) as client:
        workload = permutation_workload(graphs[0], shift=1)
        client.submit(graphs[0], workload.requests[:3], workload=workload.name)
        report = client.dispatch(deadline=0.0)
        # Nothing served, nothing lost: the slice went back to its queue.
        assert report.query_count == 0
        assert client.last_expired
        assert sum(client.queue_depths().values()) == 1
        expirations = registry.get("repro_net_deadline_expirations_total")
        assert expirations.labels(role="client", phase="dispatch").value >= 1
        # A deadline-free redispatch then serves the requeued work.
        report = client.dispatch()
        assert report.query_count == 1
        assert report.all_delivered
        assert not client.last_expired


def test_unsupported_message_yields_gateway_error(gateway):
    with ClusterClient(gateway.address, metrics=MetricsRegistry()) as client:
        with pytest.raises(GatewayError, match="unsupported"):
            client._request(ShardStatsRequest())
        # The connection survives an application-level error.
        assert client.ping()


def test_loadgen_runs_against_the_client(gateway, graphs):
    generator = OpenLoopLoadGenerator(
        graphs, rate=50.0, duration=0.25, dispatch_interval=0.1, seed=7
    )
    with ClusterClient(gateway.address, metrics=MetricsRegistry()) as client:
        slo = generator.run(client)
    assert slo.completed == slo.offered - slo.rejected - slo.shed
    assert slo.completed > 0
    assert len(slo.round_trip_seconds) == len(slo.cluster_reports)


def test_gateway_unix_socket_removed_on_close(tmp_path):
    path = tmp_path / "gone.sock"
    coordinator = ClusterCoordinator(shard_count=1, default_plan=PLAN, metrics=MetricsRegistry())
    with coordinator:
        gate = ClusterGateway(coordinator, socket_path=str(path))
        assert path.exists()
        gate.close()
        gate.close()  # idempotent
    assert not path.exists()


def test_net_metric_families_render(gateway, graphs):
    with ClusterClient(gateway.address, metrics=MetricsRegistry()) as client:
        client.submit(graphs[0], permutation_workload(graphs[0], shift=1).requests[:2])
        client.dispatch()
    text = gateway.coordinator.metrics.render_text()
    for family in (
        "repro_net_frames_total",
        "repro_net_bytes_total",
        "repro_net_connections",
    ):
        assert family in text


# -- fingerprint negotiation and cross-connection coalescing -----------------------


def _gateway_counter(coordinator, name):
    family = coordinator.metrics.get(name)
    return family.labels(role="gateway").value if family is not None else 0


def test_two_clients_share_one_graph_upload(gateway, graphs):
    """One fingerprint, two connections, exactly one full payload on the wire."""
    coordinator = gateway.coordinator
    workload = permutation_workload(graphs[0], shift=1)
    with ClusterClient(gateway.address, metrics=MetricsRegistry()) as first:
        # First sight: the optimistic fingerprint-only submit misses, one
        # need-graph round trip buys the payload.
        first.submit(graphs[0], workload.requests[:1], workload=workload.name)
        first.submit(graphs[0], workload.requests[1:2], workload=workload.name)
        with ClusterClient(gateway.address, metrics=MetricsRegistry()) as second:
            second.submit(graphs[0], workload.requests[2:3], workload=workload.name)
    assert _gateway_counter(coordinator, "repro_net_graph_uploads_total") == 1
    assert _gateway_counter(coordinator, "repro_net_need_graph_total") == 1
    assert _gateway_counter(coordinator, "repro_net_payloads_deduped_total") == 2


def test_client_does_not_keep_submitted_graphs_alive(gateway):
    """The client's graph-encode memo is weak: a dropped graph is freed."""
    graph = random_regular_expander(48, degree=6, seed=7)
    alive = weakref.ref(graph)
    with ClusterClient(gateway.address, metrics=MetricsRegistry()) as client:
        client.submit(graph, permutation_workload(graph, shift=1).requests[:1])
        del graph
        gc.collect()
        assert alive() is None


def test_negotiation_cache_eviction_forces_reupload(tmp_path, graphs):
    coordinator = ClusterCoordinator(
        shard_count=2, cache_capacity=4, default_plan=PLAN, metrics=MetricsRegistry()
    )
    with coordinator, ClusterGateway(
        coordinator, socket_path=str(tmp_path / "small.sock"), graph_cache_size=1
    ) as gate:
        with ClusterClient(gate.address, metrics=MetricsRegistry()) as client:
            w0 = permutation_workload(graphs[0], shift=1)
            w1 = permutation_workload(graphs[1], shift=1)
            client.submit(graphs[0], w0.requests[:1], workload=w0.name)  # uploads g0
            client.submit(graphs[1], w1.requests[:1], workload=w1.name)  # evicts g0
            client.submit(graphs[0], w0.requests[1:2], workload=w0.name)  # re-upload
        assert _gateway_counter(coordinator, "repro_net_need_graph_total") == 3
        assert _gateway_counter(coordinator, "repro_net_graph_uploads_total") == 3


def test_membership_change_invalidates_negotiation_cache(tmp_path, graphs):
    coordinator = ClusterCoordinator(
        shard_count=2, cache_capacity=4, default_plan=PLAN, metrics=MetricsRegistry()
    )
    with coordinator, ClusterGateway(
        coordinator, socket_path=str(tmp_path / "member.sock")
    ) as gate:
        workload = permutation_workload(graphs[0], shift=1)
        with ClusterClient(gate.address, metrics=MetricsRegistry()) as client:
            client.submit(graphs[0], workload.requests[:1], workload=workload.name)
            client.submit(graphs[0], workload.requests[1:2], workload=workload.name)
            assert _gateway_counter(coordinator, "repro_net_graph_uploads_total") == 1
            coordinator.add_shard()
            # Stale negotiated entries must not survive the ring change.
            client.submit(graphs[0], workload.requests[2:3], workload=workload.name)
        assert _gateway_counter(coordinator, "repro_net_need_graph_total") == 2
        assert _gateway_counter(coordinator, "repro_net_graph_uploads_total") == 2


def test_coalesced_submits_match_sequential_signature(tmp_path, graphs):
    """K concurrent submitters coalesce into micro-batches; the merged report
    signature is byte-identical to the same submissions made sequentially."""
    workload = permutation_workload(graphs[0], shift=1)
    requests = workload.requests[:12]

    def run(concurrency: int, tag: str):
        coordinator = ClusterCoordinator(
            shard_count=2, cache_capacity=4, default_plan=PLAN, metrics=MetricsRegistry()
        )
        with coordinator, ClusterGateway(
            coordinator, socket_path=str(tmp_path / f"{tag}.sock"), max_delay_ms=25.0
        ) as gate:
            if concurrency > 1:
                def submit_chunk(chunk):
                    with ClusterClient(gate.address, metrics=MetricsRegistry()) as client:
                        for request in chunk:
                            assert client.submit(
                                graphs[0], [request], workload=workload.name
                            ).accepted
                threads = [
                    threading.Thread(target=submit_chunk, args=(requests[i::concurrency],))
                    for i in range(concurrency)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            else:
                with ClusterClient(gate.address, metrics=MetricsRegistry()) as client:
                    for request in requests:
                        assert client.submit(
                            graphs[0], [request], workload=workload.name
                        ).accepted
            with ClusterClient(gate.address, metrics=MetricsRegistry()) as client:
                report = client.dispatch()
            coalesced = _gateway_counter(coordinator, "repro_net_coalesced_batches_total")
        return report, coalesced

    concurrent_report, coalesced = run(4, "coalesced")
    sequential_report, _ = run(1, "sequential")
    assert concurrent_report.query_count == sequential_report.query_count == len(requests)
    assert concurrent_report.signature() == sequential_report.signature()
    # With four connections racing, at least one window held >1 submit.
    assert coalesced >= 1


def test_remote_shard_ships_each_graph_once(tmp_path, graphs):
    """The coordinator→shard path dedups graph payloads across slices."""
    registry = MetricsRegistry()
    config = ShardServerConfig(
        shard_id="shard-0",
        socket_path=str(tmp_path / "dedup.sock"),
        cache_capacity=4,
        default_plan=PLAN,
    )
    shard = start_shard_server(config, metrics=registry)
    try:
        with ClusterCoordinator(
            shard_count=1, default_plan=PLAN, metrics=MetricsRegistry()
        ) as local:
            workload = permutation_workload(graphs[0], shift=1)
            slices = []
            for start in (0, 2):
                for request in workload.requests[start : start + 2]:
                    local.submit(graphs[0], [request], workload=workload.name)
                [(_, items)] = local.drain_slices().items()
                slices.append(items)
        first = shard.process(slices[0])
        second = shard.process(slices[1])
        assert first.all_delivered and second.all_delivered
        uploads = registry.get("repro_net_graph_uploads_total")
        deduped = registry.get("repro_net_payloads_deduped_total")
        # Slice one ships the graph once (two queries, one table entry);
        # slice two references the acked fingerprint and ships nothing.
        assert uploads.labels(role="coordinator").value == 1
        assert deduped.labels(role="coordinator").value == 3
    finally:
        shard.close()


# -- deprecation shims and lifecycle satellites ------------------------------------


def test_legacy_parallelism_kwargs_are_gone():
    # The constructor pass-through and the property shims are both gone now;
    # the deprecation cycle announced in the previous release is complete.
    with pytest.raises(TypeError):
        ClusterCoordinator(
            shard_count=1,
            shard_parallelism="threads",
            shard_max_workers=2,
            metrics=MetricsRegistry(),
        )
    with ClusterCoordinator(shard_count=1, default_plan=PLAN, metrics=MetricsRegistry()) as coord:
        with pytest.raises(AttributeError):
            coord.shard_parallelism
        with pytest.raises(AttributeError):
            coord.shard_max_workers


def test_worker_shim_properties_are_gone():
    worker = ShardWorker("w0", default_plan=PLAN, metrics=MetricsRegistry())
    try:
        with pytest.raises(AttributeError):
            worker.shard_parallelism
        with pytest.raises(AttributeError):
            worker.shard_max_workers
    finally:
        worker.close()


def test_plain_construction_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with ClusterCoordinator(shard_count=1, default_plan=PLAN, metrics=MetricsRegistry()):
            pass


def test_worker_and_coordinator_close_are_idempotent():
    worker = ShardWorker("w0", default_plan=PLAN, metrics=MetricsRegistry())
    worker.close()
    worker.close()
    coordinator = ClusterCoordinator(shard_count=2, default_plan=PLAN, metrics=MetricsRegistry())
    coordinator.close()
    coordinator.close()
