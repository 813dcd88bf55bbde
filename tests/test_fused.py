"""Fused batch kernels are result-identical to sequential execution.

The fused paths (the frontier walk behind ``ExpanderRouter.route`` and
``route_many``, ``disperse_many``, ``schedule_token_batches``, and the
service's fused batch dispatch) exist purely for wall-clock: every observable
output — deliveries, round counts, per-phase breakdowns, token traces, batch
signatures — must match what the per-query, per-cluster reference code
produces.  Hypothesis drives random expanders, workloads, and heterogeneous
dispersion jobs through both paths and compares exhaustively.
"""

from __future__ import annotations

import copy
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.scheduler import (
    ScheduledToken,
    schedule_token_batches,
    schedule_tokens_along_paths,
)
from repro.core.dispersion import DispersionJob, DispersionState, disperse, disperse_many
from repro.core.router import ExpanderRouter
from repro.core.tokens import RoutingRequest
from repro.cutmatching.shuffler import Shuffler
from repro.graphs.generators import random_regular_expander
from repro.hierarchy.best import locate_best_rank
from repro.kernels import kernel, set_kernel
from repro.metrics import MetricsRegistry
from repro.planner import ExecutionPlan
from repro.service import RoutingService

settings.register_profile(
    "repro-fused", deadline=None, max_examples=12, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro-fused")


@pytest.fixture(scope="module")
def router():
    """One preprocessed router shared by every drawn workload batch."""
    graph = nx.random_regular_graph(4, 48, seed=11)
    r = ExpanderRouter(graph, epsilon=0.5)
    r.preprocess()
    return r


@pytest.fixture(scope="module")
def deep_router():
    """An n=256 expander: a depth-2 hierarchy with 16 level-1 siblings."""
    r = ExpanderRouter(random_regular_expander(256, degree=8, seed=1009), epsilon=0.5)
    r.preprocess()
    return r


def _outcome_facts(outcome):
    """Every deterministic field of a RoutingOutcome, traces included."""
    return (
        outcome.delivered,
        outcome.total_tokens,
        outcome.query_rounds,
        outcome.preprocessing_rounds,
        outcome.load,
        outcome.max_intermediate_part_load,
        outcome.fallback_assignments,
        tuple(sorted(outcome.breakdown.items())),
        tuple(
            (t.source, t.destination, t.current_vertex, tuple(t.trace))
            for t in sorted(outcome.tokens, key=lambda t: t.token_id)
        ),
    )


def _draw_groups(data, nodes, max_groups=3):
    group_count = data.draw(st.integers(min_value=2, max_value=max_groups))
    groups = []
    for index in range(group_count):
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        rng = random.Random(seed)
        size = data.draw(st.integers(min_value=2, max_value=len(nodes)))
        sources = rng.sample(nodes, size)
        destinations = sources[:]
        rng.shuffle(destinations)
        groups.append(
            [RoutingRequest(source=s, destination=d) for s, d in zip(sources, destinations)]
        )
    return groups


@given(st.data())
def test_route_many_matches_sequential(router, data):
    nodes = sorted(router.graph.nodes())
    groups = _draw_groups(data, nodes)
    set_kernel("numpy")
    try:
        fused = router.route_many(groups)
        sequential = [router.route(group) for group in groups]
    finally:
        set_kernel(None)
    assert [_outcome_facts(o) for o in fused] == [_outcome_facts(o) for o in sequential]


@given(st.data())
def test_route_many_matches_reference_kernel(router, data):
    """The fused numpy recursion agrees with the pure-python reference."""
    nodes = sorted(router.graph.nodes())
    groups = _draw_groups(data, nodes, max_groups=2)
    set_kernel("numpy")
    try:
        fused = router.route_many(groups)
    finally:
        set_kernel(None)
    set_kernel("reference")
    try:
        reference = [router.route(group) for group in groups]
    finally:
        set_kernel(None)
    assert [_outcome_facts(o) for o in fused] == [_outcome_facts(o) for o in reference]


def _deep_workloads(router):
    """A full permutation, and a request set whose tokens reach only a few siblings."""
    nodes = sorted(router.graph.nodes())
    rng = random.Random(3)
    destinations = nodes[:]
    rng.shuffle(destinations)
    permutation = [RoutingRequest(source=s, destination=d) for s, d in zip(nodes, destinations)]
    narrow = [RoutingRequest(source=s, destination=nodes[i % 3]) for i, s in enumerate(nodes[:6])]
    return permutation, narrow


def _level1_parts_reached(router, requests):
    """Root parts (level-1 siblings) that receive tokens for ``requests``."""
    best = router.best_index
    root = router.decomposition.root
    return {
        locate_best_rank(root, best.rank_of[best.delegate_of[request.destination]])[0]
        for request in requests
    }


def test_depth2_hierarchy_has_unequal_sibling_shufflers(deep_router):
    root = deep_router.decomposition.root
    children = root.children
    assert len(children) == 16
    assert all(not child.is_leaf for child in children)
    assert len({len(child.shuffler) for child in children}) > 1


#: Query breakdowns of the two depth-2 workloads, as the depth-first recursion
#: charged them: both kernels share the frontier walk, so this pins the walk's
#: per-level accounting (children cost the maximum, not the sum).
DEPTH2_BREAKDOWNS = (
    {
        "query/children-L1": 1083096,
        "query/id-translation": 72,
        "query/task3/dummy-disperse": 1966,
        "query/task3/merge": 612,
        "query/task3/real-disperse": 1092,
    },
    {
        "query/children-L1": 1100675,
        "query/id-translation": 144,
        "query/task3/dummy-disperse": 3250,
        "query/task3/merge": 1164,
        "query/task3/real-disperse": 536,
    },
)


def test_depth2_route_matches_reference_kernel(deep_router):
    permutation, narrow = _deep_workloads(deep_router)
    # The narrow set leaves siblings without tokens: the frontier skips them.
    assert len(_level1_parts_reached(deep_router, narrow)) < 16
    assert len(_level1_parts_reached(deep_router, permutation)) == 16
    for requests, breakdown in zip((permutation, narrow), DEPTH2_BREAKDOWNS):
        with kernel("numpy"):
            vectorized = deep_router.route(requests)
        with kernel("reference"):
            reference = deep_router.route(requests)
        assert vectorized.all_delivered
        assert vectorized.breakdown == breakdown
        assert _outcome_facts(vectorized) == _outcome_facts(reference)


def test_depth2_route_many_matches_sequential(deep_router):
    permutation, narrow = _deep_workloads(deep_router)
    groups = [permutation, narrow, permutation[:40]]
    loads = [None, 3, None]
    with kernel("numpy"):
        fused = deep_router.route_many(groups, loads)
        sequential = [deep_router.route(group, load) for group, load in zip(groups, loads)]
    assert [_outcome_facts(o) for o in fused] == [_outcome_facts(o) for o in sequential]


# -- the block-diagonal dispersion driver -------------------------------------------------


@pytest.fixture(scope="module")
def shufflers(deep_router):
    """Real shufflers of unequal part counts (16 and 4) and lengths, plus an empty one."""
    nodes = [deep_router.decomposition.root, *deep_router.decomposition.root.children]
    found = [(node.shuffler, [len(part.vertices) for part in node.parts]) for node in nodes]
    found.append((Shuffler(part_count=3, part_of={}), [2, 2, 2]))
    return found


@settings(max_examples=40)
@given(st.data())
def test_disperse_many_matches_solo_reference(shufflers, data):
    """Heterogeneous jobs dispersed together equal each job's solo reference run.

    Jobs differ in part count, mark count, and shuffler length, may share a
    shuffler (queries on one node), and may hold no tokens at all.
    """
    jobs = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        shuffler, part_sizes = data.draw(st.sampled_from(shufflers))
        t = shuffler.part_count
        state = DispersionState(t)
        mark_count = data.draw(st.integers(min_value=0, max_value=12))
        if mark_count:
            cell = st.tuples(
                st.integers(min_value=0, max_value=t - 1),
                st.integers(min_value=0, max_value=mark_count - 1),
            )
            cells = data.draw(st.dictionaries(cell, st.integers(1, 40), max_size=2 * t))
            for (part, mark), count in cells.items():
                for _ in range(count):
                    state.add(part, mark, (len(jobs), part, mark, state.count(part, mark)))
        jobs.append(DispersionJob(state, shuffler, part_sizes, 1, data.draw(st.integers(1, 3))))
    expected_states = [copy.deepcopy(job.state) for job in jobs]
    expected = [
        disperse(state, job.shuffler, job.part_sizes, job.load, job.flatten_quality, numpy=False)
        for state, job in zip(expected_states, jobs)
    ]
    got = disperse_many(jobs, numpy=True)
    assert got == expected
    assert [job.state.queues for job in jobs] == [state.queues for state in expected_states]


@given(
    st.lists(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=5),
            min_size=1,
            max_size=6,
        ),
        min_size=2,
        max_size=5,
    )
)
def test_schedule_token_batches_matches_solo(batches_raw):
    batches = []
    for raw_batch in batches_raw:
        tokens = []
        for index, raw in enumerate(raw_batch):
            path = [raw[0]]
            for vertex in raw[1:]:
                if vertex != path[-1]:
                    path.append(vertex)
            tokens.append(ScheduledToken(token_id=index, path=tuple(path)))
        batches.append(tokens)
    set_kernel("numpy")
    try:
        fused = schedule_token_batches(batches)
    finally:
        set_kernel(None)
    solo = [schedule_tokens_along_paths(batch) for batch in batches]
    for got, expected in zip(fused, solo):
        assert got.rounds == expected.rounds
        assert got.congestion == expected.congestion
        assert got.dilation == expected.dilation
        assert got.arrival_round == expected.arrival_round


def _submit_all(service, graph, workloads, plan):
    for requests in workloads:
        service.submit(graph, requests, plan=plan)
    return service.route_batch()


def _service_signatures(plan, graph, workloads):
    with RoutingService(metrics=MetricsRegistry()) as service:
        warm = _submit_all(service, graph, workloads, plan)
        repeat = _submit_all(service, graph, workloads, plan)
    return warm.signature(), repeat.signature()


@pytest.mark.parametrize(
    "variant",
    [
        ExecutionPlan(backend="deterministic", fused=True),
        ExecutionPlan(backend="deterministic", parallelism="processes", fused=True),
    ],
    ids=["threads-fused", "processes-fused"],
)
def test_service_fused_signature_parity(variant):
    """BatchReport.signature() is identical across fused/sequential and pool modes."""
    graph = nx.random_regular_graph(4, 48, seed=5)
    nodes = sorted(graph.nodes())
    workloads = []
    for seed in range(3):
        rng = random.Random(seed)
        destinations = nodes[:]
        rng.shuffle(destinations)
        workloads.append(
            [RoutingRequest(source=s, destination=d) for s, d in zip(nodes, destinations)]
        )
    baseline = ExecutionPlan(backend="deterministic")
    expected = _service_signatures(baseline, graph, workloads)
    assert _service_signatures(variant, graph, workloads) == expected


def test_fused_plan_is_physical_not_semantic():
    """Fusion changes the physical plan id only."""
    plain = ExecutionPlan(backend="deterministic")
    fused = ExecutionPlan(backend="deterministic", fused=True)
    assert plain.semantic_id == fused.semantic_id
    assert plain.plan_id != fused.plan_id
