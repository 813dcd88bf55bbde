"""Tests for the elastic tier: ring replication, autoscaler, faults, failover.

The correctness bar throughout is the ISSUE's zero-lost-batch guarantee: any
seeded kill/rejoin cycle under open-loop load must end with every admitted
batch served exactly once in the reports (``lost_batches == 0``,
``completed == admitted``), on the local and the tcp transport alike.
"""

from pathlib import Path

import pytest

from repro.cluster import (
    ClusterCoordinator,
    ConsistentHashRing,
    OpenLoopLoadGenerator,
    ShardCrashed,
)
from repro.elastic import (
    AUTOSCALER_POLICIES,
    Autoscaler,
    AutoscalerConfig,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.planner import ExecutionPlan
from repro.workloads import permutation_workload

PLAN = ExecutionPlan(backend="deterministic", max_workers=2)


@pytest.fixture(scope="module")
def graphs():
    return [random_regular_expander(48, degree=6, seed=seed) for seed in range(3)]


def _coordinator(**overrides):
    defaults = dict(
        shard_count=3,
        cache_capacity=8,
        default_plan=PLAN,
        metrics=MetricsRegistry(),
    )
    defaults.update(overrides)
    return ClusterCoordinator(**defaults)


# -- ring.owners -------------------------------------------------------------------


def test_owners_first_entry_is_assign():
    ring = ConsistentHashRing(["a", "b", "c", "d"], vnodes=32)
    for index in range(100):
        key = f"key-{index}"
        owners = ring.owners(key, r=3)
        assert owners[0] == ring.assign(key)
        assert len(owners) == len(set(owners)) == 3


def test_owners_primary_is_stable_as_r_grows():
    ring = ConsistentHashRing(["a", "b", "c", "d"], vnodes=32)
    for index in range(50):
        key = f"key-{index}"
        base = ring.owners(key, r=1)
        for r in (2, 3, 4):
            wider = ring.owners(key, r=r)
            # Growing r only appends new replicas; it never reshuffles.
            assert wider[: len(base)] == base
            base = wider


def test_owners_clamps_to_shard_count_and_validates():
    ring = ConsistentHashRing(["a", "b"], vnodes=16)
    assert sorted(ring.owners("k", r=5)) == ["a", "b"]
    with pytest.raises(ValueError):
        ring.owners("k", r=0)
    with pytest.raises(ValueError):
        ConsistentHashRing([], vnodes=16).owners("k")


# -- autoscaler policies -----------------------------------------------------------


def test_autoscaler_config_validation():
    with pytest.raises(ValueError, match="policy"):
        AutoscalerConfig(policy="bogus")
    with pytest.raises(ValueError):
        AutoscalerConfig(min_shards=0)
    with pytest.raises(ValueError):
        AutoscalerConfig(min_shards=4, max_shards=2)
    with pytest.raises(ValueError):
        AutoscalerConfig(scale_down_depth=9.0, scale_up_depth=2.0)
    with pytest.raises(ValueError):
        AutoscalerConfig(target_shards=9, max_shards=4)
    assert set(AUTOSCALER_POLICIES) == {"fixed", "queue-depth", "slo"}


def test_fixed_policy_converges_on_target_and_holds():
    with _coordinator(shard_count=2) as coordinator:
        scaler = Autoscaler(
            coordinator,
            AutoscalerConfig(
                policy="fixed",
                min_shards=1,
                max_shards=6,
                target_shards=4,
                evaluate_interval=0.1,
                cooldown=0.0,
            ),
        )
        times = iter(x / 10 for x in range(1, 20))
        while coordinator.shard_count != 4:
            scaler.evaluate(next(times))
        assert coordinator.shard_count == 4
        assert scaler.evaluate(next(times)) is None  # satisfied: no event
        assert [event.direction for event in scaler.events] == ["up", "up"]


def test_queue_depth_policy_scales_up_then_down(graphs):
    with _coordinator(shard_count=2) as coordinator:
        scaler = Autoscaler(
            coordinator,
            AutoscalerConfig(
                policy="queue-depth",
                min_shards=2,
                max_shards=4,
                scale_up_depth=2.0,
                scale_down_depth=0.5,
                evaluate_interval=0.1,
                cooldown=0.0,
            ),
        )
        for index in range(10):
            graph = graphs[index % len(graphs)]
            coordinator.submit(graph, permutation_workload(graph, shift=1 + index % 3))
        event = scaler.evaluate(0.1)
        assert event is not None and event.direction == "up"
        assert coordinator.shard_count == 3
        coordinator.dispatch()
        # Queue is empty now: scale back down, shedding the newest shard.
        event = scaler.evaluate(0.3)
        assert event is not None and event.direction == "down"
        assert coordinator.shard_count == 2


def test_cooldown_and_bounds_hold_the_scaler(graphs):
    with _coordinator(shard_count=2) as coordinator:
        scaler = Autoscaler(
            coordinator,
            AutoscalerConfig(
                policy="queue-depth",
                min_shards=2,
                max_shards=3,
                scale_up_depth=1.0,
                scale_down_depth=0.0,
                evaluate_interval=0.1,
                cooldown=1.0,
            ),
        )
        for index in range(12):
            graph = graphs[index % len(graphs)]
            coordinator.submit(graph, permutation_workload(graph, shift=1 + index % 3))
        assert scaler.evaluate(0.1) is not None
        # Inside the cooldown window: the still-deep queue must not trigger.
        assert scaler.evaluate(0.5) is None
        # After cooldown the max_shards bound caps any further growth.
        assert scaler.evaluate(1.2) is None
        assert coordinator.shard_count == 3
        coordinator.dispatch()


def test_slo_policy_reacts_to_observed_p99(graphs):
    with _coordinator(shard_count=2) as coordinator:
        scaler = Autoscaler(
            coordinator,
            AutoscalerConfig(
                policy="slo",
                min_shards=2,
                max_shards=4,
                target_p99=1e-9,  # any real latency violates it
                evaluate_interval=0.1,
                cooldown=0.0,
            ),
        )
        assert scaler.evaluate(0.1) is None  # no signal yet: hold
        coordinator.submit(graphs[0], permutation_workload(graphs[0], shift=1))
        scaler.observe(coordinator.dispatch())
        event = scaler.evaluate(0.3)
        assert event is not None and event.direction == "up"
        assert "p99" in event.reason


# -- fault plans -------------------------------------------------------------------


def test_fault_event_and_plan_validation():
    with pytest.raises(ValueError, match="kind"):
        FaultEvent(at=0.1, kind="meteor", shard="shard-0")
    with pytest.raises(ValueError):
        FaultEvent(at=-1.0, kind="crash", shard="shard-0")
    with pytest.raises(ValueError):
        FaultEvent(at=0.1, kind="slow", shard="shard-0")  # slow needs seconds
    with pytest.raises(ValueError):
        FaultPlan.kill_and_rejoin("shard-0", kill_at=0.5, rejoin_at=0.5)
    plan = FaultPlan(
        events=(
            FaultEvent(at=0.9, kind="rejoin", shard="shard-0"),
            FaultEvent(at=0.2, kind="crash", shard="shard-0"),
        )
    )
    assert [event.at for event in plan.events] == [0.2, 0.9]  # sorted on build
    assert [event.kind for event in plan.due(0.0, 0.5)] == ["crash"]
    assert plan.due(0.2, 0.9)[-1].kind == "rejoin"  # (start, end] window


def test_injector_applies_crash_and_rejoin_and_skips_unknown_shards(graphs):
    with _coordinator(shard_count=2) as coordinator:
        plan = FaultPlan(
            events=(
                FaultEvent(at=0.1, kind="crash", shard="shard-0"),
                FaultEvent(at=0.2, kind="crash", shard="no-such-shard"),
                FaultEvent(at=0.3, kind="rejoin", shard="shard-0"),
            )
        )
        injector = FaultInjector(coordinator, plan)
        crash = injector.advance(0.15)
        assert [entry.applied for entry in crash] == [True]
        assert not coordinator.workers["shard-0"].healthy()
        skipped = injector.advance(0.25)
        assert [entry.applied for entry in skipped] == [False]
        assert skipped[0].note == "not serving"
        coordinator.check_health()  # reaps the crashed shard
        assert "shard-0" not in coordinator.workers
        rejoined = injector.advance(0.35)
        assert [entry.applied for entry in rejoined] == [True]
        assert "shard-0" in coordinator.workers
        assert injector.exhausted


def test_slow_and_partition_faults_and_heal(graphs):
    with _coordinator(shard_count=1) as coordinator:
        worker = coordinator.workers["shard-0"]
        coordinator.submit(graphs[0], permutation_workload(graphs[0], shift=1))
        worker.inject_fault("partition")
        assert not worker.healthy()
        with pytest.raises(ConnectionError):
            coordinator.process_shard("shard-0", coordinator.drain_slices()["shard-0"])
        worker.inject_fault("heal")
        assert worker.healthy()
        worker.inject_fault("slow", seconds=0.01)
        coordinator.submit(graphs[0], permutation_workload(graphs[0], shift=1))
        report = coordinator.dispatch()
        assert report.query_count == 1 and report.all_delivered
        assert report.dispatch_seconds >= 0.01  # the injected floor shows up
        worker.inject_fault("crash")
        with pytest.raises(ShardCrashed):
            worker.process([])
        with pytest.raises(ValueError):
            worker.inject_fault("meteor")


# -- failover under load -----------------------------------------------------------


def _chaos_run(transport: str, seed: int = 3):
    graphs = [random_regular_expander(48, degree=6, seed=s) for s in range(3)]
    coordinator = ClusterCoordinator(
        shard_count=3,
        cache_capacity=8,
        default_plan=PLAN,
        metrics=MetricsRegistry(),
        transport=transport,
    )
    generator = OpenLoopLoadGenerator(
        graphs, rate=80.0, duration=0.6, dispatch_interval=0.05, seed=seed
    )
    plan = FaultPlan.kill_and_rejoin("shard-1", kill_at=0.2, rejoin_at=0.45)
    with coordinator:
        report = generator.run(coordinator, fault_plan=plan)
    return report


def test_local_kill_rejoin_loses_zero_batches():
    report = _chaos_run("local")
    assert report.lost_batches == 0
    assert report.completed == report.admitted
    assert report.all_delivered
    assert report.failovers >= 1
    applied = [row for row in report.fault_events if row["applied"]]
    assert [row["kind"] for row in applied] == ["crash", "rejoin"]
    # The SLO report separates recovery cost from steady-state latency.
    assert report.failover_windows
    assert report.clean_query_seconds and report.failover_query_seconds


def test_seeded_chaos_runs_are_deterministic():
    first = _chaos_run("local")
    second = _chaos_run("local")
    assert first.completed == second.completed
    assert first.failovers == second.failovers
    assert first.requeued_batches == second.requeued_batches
    assert [r.signature() for r in first.cluster_reports] == [
        r.signature() for r in second.cluster_reports
    ]


@pytest.mark.chaos
def test_tcp_kill_rejoin_loses_zero_batches():
    """The tcp crash SIGKILLs a real shard server process; still zero lost."""
    report = _chaos_run("tcp")
    assert report.lost_batches == 0
    assert report.completed == report.admitted
    assert report.all_delivered
    assert report.failovers >= 1


def test_dispatch_failover_requeues_in_flight_batches(graphs):
    with _coordinator(shard_count=3) as coordinator:
        for graph in graphs:
            for shift in (1, 2):
                coordinator.submit(graph, permutation_workload(graph, shift=shift))
        victim = coordinator.shard_ids[0]
        coordinator.workers[victim].inject_fault("crash")
        report = coordinator.dispatch()  # discovers the crash mid-dispatch
        assert report.query_count == len(graphs) * 2
        assert report.all_delivered
        assert report.lost_batches == 0
        assert coordinator.failovers == 1
        assert victim not in coordinator.workers
        totals = coordinator.metrics.as_dict()
        requeued = totals.get("repro_cluster_requeued_batches_total", {})
        assert requeued.get("reason=failover", 0.0) == report.requeued_batches


def test_batches_are_lost_only_when_the_whole_ring_dies(graphs):
    with _coordinator(shard_count=1) as coordinator:
        coordinator.submit(graphs[0], permutation_workload(graphs[0], shift=1))
        coordinator.workers["shard-0"].inject_fault("crash")
        report = coordinator.dispatch()
        assert report.query_count == 0
        assert report.lost_batches == 1  # no survivor to requeue onto
        assert coordinator.shard_count == 0


def test_heartbeat_reports_and_check_health_reaps(graphs):
    with _coordinator(shard_count=2) as coordinator:
        assert coordinator.heartbeat() == {"shard-0": True, "shard-1": True}
        coordinator.workers["shard-1"].inject_fault("crash")
        assert coordinator.heartbeat() == {"shard-0": True, "shard-1": False}
        health = coordinator.check_health()
        assert health["shard-1"] is False
        assert "shard-1" not in coordinator.workers
        with pytest.raises(ValueError):
            coordinator.rejoin_shard("shard-0")  # still serving
        coordinator.rejoin_shard("shard-1")
        assert coordinator.heartbeat() == {"shard-0": True, "shard-1": True}


# -- hot-key replication -----------------------------------------------------------


def _hammer(coordinator, graph, rounds=3, shifts=(1, 2)):
    reports = []
    for _ in range(rounds):
        for shift in shifts:
            coordinator.submit(graph, permutation_workload(graph, shift=shift))
        reports.append(coordinator.dispatch())
    return reports


def test_replication_requires_sane_knobs():
    with pytest.raises(ValueError):
        ClusterCoordinator(shard_count=2, replication_factor=0)
    with pytest.raises(ValueError):
        ClusterCoordinator(shard_count=2, hot_key_threshold=0.0)
    with pytest.raises(ValueError):
        ClusterCoordinator(shard_count=2, hot_key_alpha=1.5)


def test_hot_keys_replicate_and_reads_spread(graphs):
    metrics = MetricsRegistry()
    with _coordinator(
        shard_count=3,
        metrics=metrics,
        replication_factor=2,
        hot_key_threshold=1.0,
    ) as coordinator:
        _hammer(coordinator, graphs[0], rounds=4)
        replicated = coordinator.replicated_keys()
        assert len(replicated) == 1
        [(fingerprint, replicas)] = replicated.items()
        assert len(replicas) == 1
        assert replicas[0] != coordinator.ring.assign(fingerprint)
        publishes = metrics.as_dict().get("repro_cluster_replica_publishes_total", {})
        assert sum(publishes.values()) >= 1
        # Reads round-robin over primary + replica once the replica is warm.
        reports = _hammer(coordinator, graphs[0], rounds=2)
        served = set()
        for report in reports:
            served.update(report.shard_reports)
        assert len(served) == 2
        reads = metrics.as_dict().get("repro_cluster_replica_reads_total", {})
        assert sum(reads.values()) >= 1
        # Replica serves from its adopted artifact: warm reads stay cache hits.
        assert all(r.cache_hits == r.query_count for r in reports)
        assert all(r.preprocess_rounds_incurred == 0 for r in reports)


def test_replicated_reads_keep_signature_parity(graphs):
    """R=2 spreads reads but must not change what any query returns."""

    def run(replication_factor):
        with _coordinator(
            shard_count=3,
            replication_factor=replication_factor,
            hot_key_threshold=1.0,
        ) as coordinator:
            return _hammer(coordinator, graphs[0], rounds=4)

    base, replicated = run(1), run(2)
    for lhs, rhs in zip(base, replicated):
        assert lhs.all_delivered and rhs.all_delivered
        assert lhs.query_count == rhs.query_count
        # Per-query outcomes agree even when a replica served the read: the
        # merged semantic plan ids and delivered totals are identical.
        lhs_sig, rhs_sig = lhs.signature(), rhs.signature()

        def merge(sig, key):
            return sum(shard[key] for shard in sig.values())

        for key in ("queries", "delivered", "total_query_rounds"):
            assert merge(lhs_sig, key) == merge(rhs_sig, key)
        assert {p for s in lhs_sig.values() for p in s["plans"]} == {
            p for s in rhs_sig.values() for p in s["plans"]
        }


def test_membership_changes_invalidate_replicas(graphs):
    with _coordinator(
        shard_count=3, replication_factor=2, hot_key_threshold=1.0
    ) as coordinator:
        _hammer(coordinator, graphs[0], rounds=3)
        assert coordinator.replicated_keys()
        coordinator.add_shard()
        assert not coordinator.replicated_keys()  # stale placements dropped
        # The next dispatch cycle re-publishes against the new ring.
        _hammer(coordinator, graphs[0], rounds=2)
        assert coordinator.replicated_keys()


# -- elasticity rides the warm plane ----------------------------------------------


def test_autoscaler_scale_up_causes_zero_extra_preprocess_rounds(graphs):
    with _coordinator(shard_count=2) as coordinator:
        scaler = Autoscaler(
            coordinator,
            AutoscalerConfig(
                policy="fixed",
                min_shards=2,
                max_shards=4,
                target_shards=3,
                evaluate_interval=0.1,
                cooldown=0.0,
            ),
        )
        for graph in graphs:
            coordinator.submit(graph, permutation_workload(graph, shift=1))
        coordinator.dispatch()  # warm the caches
        event = scaler.evaluate(0.5)
        assert event is not None and event.direction == "up"
        for graph in graphs:
            coordinator.submit(graph, permutation_workload(graph, shift=2))
        report = coordinator.dispatch()
        assert report.cache_hits == report.query_count
        assert report.preprocess_rounds_incurred == 0


@pytest.mark.chaos
def test_tcp_warm_handoff_keeps_full_cache_hits_and_signatures():
    """Scale events over tcp hand warm artifacts over as spill files, byte-identically."""
    graphs = [random_regular_expander(48, degree=6, seed=s) for s in range(3)]
    metrics = MetricsRegistry()
    with ClusterCoordinator(
        shard_count=2,
        cache_capacity=8,
        default_plan=PLAN,
        metrics=metrics,
        transport="tcp",
    ) as coordinator:

        def warm_dispatch(shift):
            for graph in graphs:
                coordinator.submit(graph, permutation_workload(graph, shift=shift))
            return coordinator.dispatch()

        warm_dispatch(1)  # cold fill
        before = warm_dispatch(2)
        assert before.cache_hits == before.query_count
        added = coordinator.add_shard()
        assert added is not None
        grown = warm_dispatch(2)
        assert grown.cache_hits == grown.query_count
        assert grown.preprocess_rounds_incurred == 0
        coordinator.remove_shard(coordinator.shard_ids[-1])
        shrunk = warm_dispatch(2)
        assert shrunk.cache_hits == shrunk.query_count
        assert shrunk.preprocess_rounds_incurred == 0
        # Same membership as before the scale events: byte-identical dispatch.
        assert shrunk.signature() == before.signature()
        handoffs = metrics.as_dict().get("repro_cluster_warm_handoffs_total", {})
        assert handoffs and handoffs.get("path=spill", 0.0) == sum(handoffs.values())
        # Each handoff's spill file is deleted once adopted.
        assert list(Path(coordinator.handoff_dir).glob("*.pkl")) == []
    assert not Path(coordinator.handoff_dir).exists()
