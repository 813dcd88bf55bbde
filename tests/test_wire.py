"""Tests for the versioned wire schema: round trips, versioning, tolerance.

The load-bearing property is ``from_wire(to_wire(x)) == x`` for *every*
registered message type — checked with hypothesis over generated instances,
and with a coverage assertion that the strategy catalog and the message
registry agree (a new message type cannot ship without a round-trip
strategy).  On top of that: schema-version rejection, unknown-field
tolerance (rolling upgrades), JSON-safety validation, and the parity
guarantees the cluster tier relies on — reconstructed graphs fingerprint
identically and :meth:`BatchReport.signature` survives the wire byte for
byte.
"""

import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.planner import ExecutionPlan
from repro.service.fingerprint import graph_fingerprint
from repro.service.service import RoutingService
from repro.wire import (
    CODEC_JSON,
    WIRE_VERSION,
    ArtifactAdoptReply,
    ArtifactAdoptRequest,
    ArtifactExportReply,
    ArtifactExportRequest,
    DispatchDoneReply,
    DispatchRequest,
    DispatchShardReply,
    ErrorReply,
    FaultInjectReply,
    FaultInjectRequest,
    HeartbeatReply,
    HeartbeatRequest,
    JournalAdmit,
    JournalCheckpoint,
    JournalComplete,
    NeedGraphReply,
    Ping,
    Pong,
    SchemaVersionError,
    ShardProcessReply,
    ShardProcessRequest,
    ShardStatsReply,
    ShardStatsRequest,
    Shutdown,
    ShutdownAck,
    StatsReply,
    StatsRequest,
    SubmitReply,
    SubmitRequest,
    WireAdmissionStats,
    WireBatchReport,
    WireClusterReport,
    WireDecodeError,
    WireEncodeError,
    WireGraph,
    WireMessage,
    WirePlan,
    WireQueryResult,
    WireRequest,
    WireRouteResult,
    WireShardQuery,
    decode_message,
    decode_payload,
    encode_payload,
    message_from_wire,
)
from repro.wire.messages import _MESSAGE_TYPES
from repro.workloads import permutation_workload

# -- strategies --------------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
names = st.text(min_size=1, max_size=12)
params = st.dictionaries(names, scalars, max_size=3)


@st.composite
def wire_graphs(draw):
    nodes = tuple(sorted(draw(st.sets(st.integers(0, 50), max_size=8))))
    edges = []
    if len(nodes) >= 2:
        for pair in draw(
            st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=6)
        ):
            if pair[0] != pair[1]:
                edges.append((pair[0], pair[1], {"weight": draw(st.integers(1, 9))}))
    return WireGraph(nodes=nodes, edges=tuple(edges))


@st.composite
def wire_requests(draw):
    return WireRequest(
        source=draw(st.integers(0, 50)),
        destination=draw(st.integers(0, 50)),
        payload=draw(scalars),
    )


@st.composite
def wire_plans(draw):
    return WirePlan(
        backend=draw(names),
        backend_params=draw(params),
        kernel=draw(names),
        parallelism=draw(st.sampled_from(["serial", "threads", "processes"])),
        max_workers=draw(st.none() | st.integers(1, 16)),
        chunk_size=draw(st.none() | st.integers(1, 64)),
        shard_hint=draw(st.none() | names),
        policy=draw(names),
        reason=draw(st.text(max_size=20)),
    )


@st.composite
def wire_shard_queries(draw):
    return WireShardQuery(
        fingerprint=draw(names),
        graph=draw(wire_graphs()),
        requests=tuple(draw(st.lists(wire_requests(), max_size=3))),
        load=draw(st.none() | st.integers(1, 8)),
        backend=draw(names),
        backend_params=draw(params),
        workload=draw(st.text(max_size=12)),
        plan=draw(st.none() | wire_plans()),
        idempotency_key=draw(st.text(max_size=16)),
    )


@st.composite
def wire_journal_checkpoints(draw):
    stats_rows = st.fixed_dictionaries(
        {
            "offered": st.integers(0, 1000),
            "accepted": st.integers(0, 1000),
            "rejected": st.integers(0, 1000),
            "shed": st.integers(0, 1000),
        }
    )
    return JournalCheckpoint(
        shard_ids=tuple(draw(st.lists(names, max_size=3))),
        next_shard_index=draw(st.integers(0, 64)),
        seen_fingerprints=tuple(draw(st.lists(names, max_size=3))),
        pending=tuple(draw(st.lists(wire_shard_queries(), max_size=2))),
        completed_keys=tuple(draw(st.lists(names, max_size=3))),
        warm=tuple(draw(st.lists(wire_shard_queries(), max_size=2))),
        auto_key_counter=draw(st.integers(0, 10_000)),
        admission=draw(st.dictionaries(names, stats_rows, max_size=2)),
        lost_batches=draw(st.integers(0, 100)),
        requeued_batches=draw(st.integers(0, 100)),
        failovers=draw(st.integers(0, 100)),
        duplicate_results=draw(st.integers(0, 100)),
        hot_ewma=draw(st.dictionaries(names, st.floats(0, 100, allow_nan=False), max_size=2)),
        replicas=draw(
            st.dictionaries(names, st.lists(names, max_size=2).map(tuple), max_size=2)
        ),
        planner_state=draw(st.none() | st.dictionaries(names, params, max_size=2)),
        planner_version=draw(st.integers(0, 100)),
    )


@st.composite
def wire_route_results(draw):
    return WireRouteResult(
        backend=draw(names),
        delivered=draw(st.integers(0, 1000)),
        total_tokens=draw(st.integers(0, 1000)),
        query_rounds=draw(st.integers(0, 1000)),
        preprocess_rounds=draw(st.integers(0, 1000)),
        load=draw(st.integers(1, 8)),
        extra=draw(params),
    )


@st.composite
def wire_query_results(draw):
    return WireQueryResult(
        query_id=draw(st.integers(0, 10_000)),
        fingerprint=draw(names),
        backend=draw(names),
        outcome=draw(wire_route_results()),
        cache_hit=draw(st.booleans()),
        seconds=draw(st.floats(0, 10, allow_nan=False)),
        workload=draw(st.text(max_size=12)),
        plan=draw(st.none() | wire_plans()),
    )


@st.composite
def wire_batch_reports(draw):
    return WireBatchReport(
        results=tuple(draw(st.lists(wire_query_results(), max_size=3))),
        distinct_graphs=draw(st.integers(0, 100)),
        cache_hits=draw(st.integers(0, 100)),
        cache_misses=draw(st.integers(0, 100)),
        preprocess_rounds_incurred=draw(st.integers(0, 100)),
        preprocess_rounds_reused=draw(st.integers(0, 100)),
        preprocess_seconds=draw(st.floats(0, 10, allow_nan=False)),
        route_seconds=draw(st.floats(0, 10, allow_nan=False)),
        wall_seconds=draw(st.floats(0, 10, allow_nan=False)),
    )


@st.composite
def wire_admission_stats(draw):
    return WireAdmissionStats(
        offered=draw(st.integers(0, 1000)),
        accepted=draw(st.integers(0, 1000)),
        rejected=draw(st.integers(0, 1000)),
        shed=draw(st.integers(0, 1000)),
    )


@st.composite
def wire_cluster_reports(draw):
    return WireClusterReport(
        shard_reports=draw(st.dictionaries(names, wire_batch_reports(), max_size=2)),
        dispatch_seconds=draw(st.floats(0, 10, allow_nan=False)),
        admission=draw(wire_admission_stats()),
        lost_batches=draw(st.integers(0, 100)),
        requeued_batches=draw(st.integers(0, 100)),
    )


#: One instance strategy per registered wire message type.
MESSAGE_STRATEGIES = {
    "graph": wire_graphs(),
    "request": wire_requests(),
    "plan": wire_plans(),
    "shard-query": wire_shard_queries(),
    "route-result": wire_route_results(),
    "query-result": wire_query_results(),
    "batch-report": wire_batch_reports(),
    "admission-stats": wire_admission_stats(),
    "cluster-report": wire_cluster_reports(),
    "ping": st.just(Ping()),
    "pong": st.just(Pong()),
    "shutdown": st.just(Shutdown()),
    "shutdown-ack": st.just(ShutdownAck()),
    "shard-stats-request": st.just(ShardStatsRequest()),
    "stats-request": st.just(StatsRequest()),
    "error": st.builds(ErrorReply, code=names, message=st.text(max_size=30)),
    "need-graph": st.builds(
        NeedGraphReply, fingerprints=st.lists(names, max_size=3).map(tuple)
    ),
    "shard-process": st.builds(
        ShardProcessRequest,
        queries=st.lists(wire_shard_queries(), max_size=2).map(tuple),
        graphs=st.dictionaries(names, wire_graphs(), max_size=2),
    ),
    "shard-report": st.builds(ShardProcessReply, report=wire_batch_reports()),
    "shard-stats": st.builds(ShardStatsReply, row=params),
    "submit": st.builds(
        SubmitRequest,
        graph=wire_graphs(),
        requests=st.lists(wire_requests(), max_size=3).map(tuple),
        load=st.none() | st.integers(1, 8),
        backend=st.none() | names,
        backend_params=st.none() | params,
        workload=st.text(max_size=12),
        deadline=st.none() | st.floats(0, 10, allow_nan=False),
        idempotency_key=st.text(max_size=16),
    ),
    "submit-reply": st.builds(
        SubmitReply,
        shard_id=names,
        accepted=st.booleans(),
        shed=st.integers(0, 10),
        duplicate=st.booleans(),
    ),
    "dispatch": st.builds(DispatchRequest, deadline=st.none() | st.floats(0, 10, allow_nan=False)),
    "dispatch-shard": st.builds(
        DispatchShardReply, shard_id=names, report=wire_batch_reports()
    ),
    "dispatch-done": st.builds(
        DispatchDoneReply,
        dispatch_seconds=st.floats(0, 10, allow_nan=False),
        admission=wire_admission_stats(),
        expired=st.lists(names, max_size=3).map(tuple),
    ),
    "stats-reply": st.builds(
        StatsReply,
        admission=wire_admission_stats(),
        queue_depths=st.dictionaries(names, st.integers(0, 100), max_size=3),
        shard_count=st.integers(0, 16),
    ),
    "heartbeat": st.just(HeartbeatRequest()),
    "heartbeat-reply": st.builds(
        HeartbeatReply,
        shard_id=names,
        healthy=st.booleans(),
        batches_served=st.integers(0, 1000),
        queries_served=st.integers(0, 10_000),
    ),
    "fault-inject": st.builds(
        FaultInjectRequest,
        kind=st.sampled_from(["crash", "slow", "partition", "heal"]),
        seconds=st.floats(0, 10, allow_nan=False),
    ),
    "fault-inject-reply": st.builds(FaultInjectReply, applied=st.booleans()),
    "artifact-export": st.builds(ArtifactExportRequest, fingerprint=names),
    "artifact-export-reply": st.builds(
        ArtifactExportReply,
        fingerprint=names,
        path=st.none() | names,
        found=st.booleans(),
    ),
    "artifact-adopt": st.builds(ArtifactAdoptRequest, fingerprint=names, path=names),
    "artifact-adopt-reply": st.builds(ArtifactAdoptReply, adopted=st.booleans()),
    "journal-admit": st.builds(
        JournalAdmit,
        key=names,
        shard_id=names,
        accepted=st.booleans(),
        shed_keys=st.lists(names, max_size=3).map(tuple),
        query=st.none() | wire_shard_queries(),
    ),
    "journal-complete": st.builds(
        JournalComplete, key=names, fingerprint=names, shard_id=names
    ),
    "journal-checkpoint": wire_journal_checkpoints(),
}


def test_every_registered_type_has_a_strategy():
    # A message type added without a round-trip strategy fails here, so the
    # hypothesis property below really does cover *every* type.
    assert set(MESSAGE_STRATEGIES) == set(_MESSAGE_TYPES)


@settings(max_examples=40, deadline=None)
@given(message=st.one_of(*MESSAGE_STRATEGIES.values()))
def test_wire_round_trip_is_identity(message):
    assert message_from_wire(message.to_wire()) == message


# -- versioning and tolerance ------------------------------------------------------


@pytest.mark.parametrize("cls", sorted(_MESSAGE_TYPES.values(), key=lambda c: c.type))
def test_version_mismatch_is_rejected(cls):
    payload = cls().to_payload()
    payload["v"] = WIRE_VERSION + 1
    with pytest.raises(SchemaVersionError):
        cls.from_payload(payload)
    with pytest.raises(SchemaVersionError):
        decode_message(payload)


@pytest.mark.parametrize("cls", sorted(_MESSAGE_TYPES.values(), key=lambda c: c.type))
def test_unknown_fields_are_tolerated(cls):
    # A same-version peer that grew extra fields (rolling upgrade) must still
    # interoperate: decoding ignores what it does not know.
    payload = cls().to_payload()
    payload["field_from_the_future"] = {"nested": [1, 2, 3]}
    assert decode_message(payload) == cls()


def test_unknown_message_type_is_rejected():
    with pytest.raises(WireDecodeError):
        decode_message({"type": "no-such-message", "v": WIRE_VERSION})


def test_typed_from_wire_checks_the_type():
    with pytest.raises(WireDecodeError):
        SubmitReply.from_wire(Ping().to_wire())


# -- codec gating ------------------------------------------------------------------


def test_json_codec_round_trips_payloads():
    body = encode_payload({"a": 1, "b": [1.5, None, True]})
    assert decode_payload(CODEC_JSON, body) == {"a": 1, "b": [1.5, None, True]}


def test_unknown_codec_id_is_rejected():
    # JSON (id 0) is the only codec; every other id is unknown.
    for codec in (1, 99):
        with pytest.raises(WireDecodeError):
            decode_payload(codec, b"{}")


def test_non_dict_payload_is_rejected():
    with pytest.raises(WireDecodeError):
        decode_payload(CODEC_JSON, b"[1,2,3]")


# -- malformed input ---------------------------------------------------------------

#: The payload keys a decoder must find; the field default never stands in.
REQUIRED_FIELDS = [
    (WireGraph, "nodes"),
    (WireGraph, "edges"),
    (WireRequest, "source"),
    (WireRequest, "destination"),
    (WirePlan, "backend"),
    (WireShardQuery, "fingerprint"),
    (WireShardQuery, "backend"),
    (WireRouteResult, "backend"),
    (WireRouteResult, "delivered"),
    (WireRouteResult, "total_tokens"),
    (WireRouteResult, "query_rounds"),
    (WireRouteResult, "preprocess_rounds"),
    (WireQueryResult, "query_id"),
    (WireQueryResult, "fingerprint"),
    (WireQueryResult, "backend"),
    (WireQueryResult, "outcome"),
    (WireQueryResult, "cache_hit"),
    (ShardProcessReply, "report"),
    (DispatchShardReply, "report"),
]

#: Every non-optional ``int`` / ``float`` field of every registered message.
NUMERIC_FIELDS = [
    (cls, name)
    for cls in sorted(_MESSAGE_TYPES.values(), key=lambda c: c.type)
    for name, hint in typing.get_type_hints(cls).items()
    if hint in (int, float) and name != "schema_version"
]


def _field_id(case):
    return f"{case[0].__name__}.{case[1]}"


@pytest.mark.parametrize("case", REQUIRED_FIELDS, ids=_field_id)
def test_missing_required_field_is_rejected(case):
    cls, name = case
    payload = cls().to_payload()
    del payload[name]
    with pytest.raises(WireDecodeError):
        decode_message(payload)


@pytest.mark.parametrize("case", NUMERIC_FIELDS, ids=_field_id)
def test_non_numeric_value_in_a_numeric_field_is_rejected(case):
    cls, name = case
    payload = cls().to_payload()
    payload[name] = "not-a-number"
    with pytest.raises(WireDecodeError):
        decode_message(payload)


# -- pinned bytes ------------------------------------------------------------------


def test_wire_bytes_are_pinned():
    # Round trips cannot catch a renamed key or a reordered payload; journal
    # replay and the fingerprint-keyed negotiation caches depend on both.
    assert Ping().to_wire() == b'\x00{"type":"ping","v":1}'
    complete = JournalComplete(key="client-1", fingerprint="ffffffff", shard_id="shard-0")
    assert complete.to_wire() == (
        b'\x00{"type":"journal-complete","v":1,"key":"client-1",'
        b'"fingerprint":"ffffffff","shard_id":"shard-0"}'
    )
    query = WireShardQuery(
        fingerprint="fp-1",
        graph=WireGraph(nodes=(0, 1, 2), edges=((0, 1, {"weight": 2}), (1, 2, {}))),
        requests=(
            WireRequest(source=0, destination=2, payload="x"),
            WireRequest(source=2, destination=0),
        ),
        load=2,
        backend="deterministic",
        backend_params={"epsilon": 0.5},
        workload="permutation",
        plan=WirePlan(
            backend="deterministic", backend_params={"seed": 7}, max_workers=2, fused=True
        ),
        idempotency_key="key-1",
    )
    assert query.to_wire() == (
        b'\x00{"type":"shard-query","v":1,"fingerprint":"fp-1",'
        b'"graph":{"type":"graph","v":1,"nodes":[0,1,2],'
        b'"edges":[[0,1,{"weight":2}],[1,2,{}]]},"graph_ref":"",'
        b'"requests":[{"type":"request","v":1,"source":0,"destination":2,"payload":"x"},'
        b'{"type":"request","v":1,"source":2,"destination":0,"payload":null}],'
        b'"load":2,"backend":"deterministic","backend_params":{"epsilon":0.5},'
        b'"workload":"permutation","plan":{"type":"plan","v":1,"backend":"deterministic",'
        b'"backend_params":{"seed":7},"kernel":"numpy","parallelism":"threads",'
        b'"max_workers":2,"chunk_size":null,"fused":true,'
        b'"shard_hint":null,"policy":"fixed","reason":""},"idempotency_key":"key-1"}'
    )
    # Journals written before plans lost their artifact-transport field
    # still replay: the field is ignored and the plan decodes unchanged.
    journaled = (
        b'\x00{"type":"shard-query","v":1,"fingerprint":"fp-1",'
        b'"graph":{"type":"graph","v":1,"nodes":[0,1,2],'
        b'"edges":[[0,1,{"weight":2}],[1,2,{}]]},"graph_ref":"",'
        b'"requests":[{"type":"request","v":1,"source":0,"destination":2,"payload":"x"},'
        b'{"type":"request","v":1,"source":2,"destination":0,"payload":null}],'
        b'"load":2,"backend":"deterministic","backend_params":{"epsilon":0.5},'
        b'"workload":"permutation","plan":{"type":"plan","v":1,"backend":"deterministic",'
        b'"backend_params":{"seed":7},"kernel":"numpy","parallelism":"threads",'
        b'"max_workers":2,"chunk_size":null,"fused":true,"artifact_transport":"pickle",'
        b'"shard_hint":null,"policy":"fixed","reason":""},"idempotency_key":"key-1"}'
    )
    old = message_from_wire(journaled)
    assert old == query
    assert old.plan.to_plan() == query.plan.to_plan()
    graph = random_regular_expander(16, degree=4, seed=3)
    assert WireGraph.from_graph(graph).fingerprint() == (
        "6a8533ae41f3fd339f2c2634eef5033aaf766e1105b3f719ddd1f3828937a9f6"
    )


def test_unencodable_values_raise_wire_encode_error():
    with pytest.raises(WireEncodeError):
        WireGraph.from_graph(_tuple_node_graph())
    with pytest.raises(WireEncodeError):
        WirePlan.from_plan(ExecutionPlan(backend="deterministic", backend_params={"f": object()}))


def _tuple_node_graph():
    import networkx as nx

    graph = nx.Graph()
    graph.add_edge((0, 1), (1, 2))  # tuple vertices are not wire-safe
    return graph


# -- parity with the live objects --------------------------------------------------


@pytest.fixture(scope="module")
def graph():
    return random_regular_expander(48, degree=6, seed=5)


def test_reconstructed_graph_fingerprints_identically(graph):
    rebuilt = WireGraph.from_wire(WireGraph.from_graph(graph).to_wire()).to_graph()
    assert graph_fingerprint(rebuilt) == graph_fingerprint(graph)
    assert set(rebuilt.nodes()) == set(graph.nodes())
    assert set(map(frozenset, rebuilt.edges())) == set(map(frozenset, graph.edges()))


def test_execution_plan_semantic_identity_survives_the_wire():
    plan = ExecutionPlan(
        backend="deterministic",
        backend_params={"epsilon": 0.25, "seed": 7},
        kernel="numpy",
        parallelism="threads",
        max_workers=4,
        shard_hint="shard-2",
        policy="cost",
        reason="unit test",
    )
    rebuilt = WirePlan.from_wire(WirePlan.from_plan(plan).to_wire()).to_plan()
    assert rebuilt == plan
    assert rebuilt.semantic_id == plan.semantic_id
    assert rebuilt.plan_id == plan.plan_id


def test_batch_report_signature_survives_the_wire(graph):
    with RoutingService(epsilon=0.5, metrics=MetricsRegistry()) as service:
        workload = permutation_workload(graph, shift=1)
        for request in workload.requests[:6]:
            service.submit(graph, [request], workload=workload.name)
        report = service.route_batch()
    rebuilt = WireBatchReport.from_wire(WireBatchReport.from_report(report).to_wire()).to_report()
    assert rebuilt.signature() == report.signature()
    assert rebuilt.query_count == report.query_count
    assert rebuilt.all_delivered == report.all_delivered


def test_shard_query_round_trips_through_converters(graph):
    from repro.cluster.worker import ShardQuery
    from repro.core.tokens import RoutingRequest

    plan = ExecutionPlan(backend="deterministic", shard_hint="shard-0")
    query = ShardQuery(
        fingerprint="fp-1",
        graph=graph,
        requests=(RoutingRequest(source=0, destination=1),),
        load=2,
        backend="deterministic",
        backend_params={"epsilon": 0.5},
        workload="permutation",
        plan=plan,
    )
    wire = WireShardQuery.from_wire(WireShardQuery.from_shard_query(query).to_wire())
    rebuilt = wire.to_shard_query()
    assert rebuilt.fingerprint == query.fingerprint
    assert rebuilt.requests == query.requests
    assert rebuilt.load == query.load
    assert rebuilt.backend == query.backend
    assert dict(rebuilt.backend_params) == dict(query.backend_params)
    assert rebuilt.workload == query.workload
    assert rebuilt.plan == query.plan
    assert graph_fingerprint(rebuilt.graph) == graph_fingerprint(query.graph)


def test_route_result_extra_keeps_only_wire_safe_entries():
    from repro.backends.base import RouteResult

    result = RouteResult(
        backend="deterministic",
        delivered=3,
        total_tokens=3,
        query_rounds=2,
        preprocess_rounds=1,
        extra={"paths": 4, "opaque": object()},
        raw=object(),
    )
    wire = WireRouteResult.from_result(result)
    assert wire.extra == {"paths": 4}  # the unserializable entry is dropped
    rebuilt = wire.to_result()
    assert rebuilt.delivered == 3 and rebuilt.raw is None


def test_base_from_wire_rejects_empty_and_garbage():
    with pytest.raises(WireDecodeError):
        WireMessage.from_wire(b"")
    with pytest.raises(WireDecodeError):
        WireMessage.from_wire(bytes([CODEC_JSON]) + b"not json")
