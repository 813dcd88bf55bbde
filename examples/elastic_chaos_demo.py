"""Elastic cluster tour: autoscaling, hot-key replication, and chaos failover.

The elastic control plane end to end, on one seeded run each:

1. a queue-depth :class:`~repro.elastic.Autoscaler` grows a 2-shard cluster
   under a bursty arrival process and shrinks it back in the quiet tail,
   riding the warm artifact handoff so scale events cost zero re-preprocessing;
2. a seeded :class:`~repro.elastic.FaultPlan` crashes a shard mid-run and
   rejoins it later — the coordinator's health check observes the crash,
   re-owns the dead shard's admitted batches, and the SLO report proves
   ``lost_batches == 0`` with the failover windows' latency split out;
3. ``replication_factor=2`` publishes the hottest fingerprint to a second
   owner and round-robins reads across both, all still cache hits.

Run with ``PYTHONPATH=src python examples/elastic_chaos_demo.py`` (or after
``pip install -e .``).
"""

from repro.cluster import ClusterCoordinator, OpenLoopLoadGenerator
from repro.elastic import Autoscaler, AutoscalerConfig, FaultPlan
from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.planner import ExecutionPlan
from repro.workloads import permutation_workload

PLAN = ExecutionPlan(backend="deterministic", max_workers=2)


def chaos_run() -> None:
    print("== bursty autoscale + seeded kill/rejoin, zero lost batches ==")
    graphs = [random_regular_expander(64, degree=8, seed=seed) for seed in range(4)]
    with ClusterCoordinator(
        shard_count=2, cache_capacity=8, default_plan=PLAN, metrics=MetricsRegistry()
    ) as coordinator:
        autoscaler = Autoscaler(
            coordinator,
            AutoscalerConfig(
                policy="queue-depth",
                min_shards=2,
                max_shards=5,
                scale_up_depth=3.0,
                scale_down_depth=1.0,
                evaluate_interval=0.05,
                cooldown=0.05,
            ),
        )
        plan = FaultPlan.kill_and_rejoin("shard-1", kill_at=0.35, rejoin_at=0.7)
        generator = OpenLoopLoadGenerator(
            graphs,
            rate=220.0,
            duration=1.0,
            arrival="bursty",
            burst_factor=3.0,
            dispatch_interval=0.05,
            seed=13,
        )
        report = generator.run(coordinator, fault_plan=plan, autoscaler=autoscaler)
        print(report.render())
        assert report.lost_batches == 0, "failover must never drop admitted batches"
        assert report.completed == report.admitted
        print(
            f"\nsurvived {report.failovers} failover(s): "
            f"{report.requeued_batches} batches requeued, 0 lost; "
            f"{len(report.scale_events)} scale events"
        )


def replication_run() -> None:
    print("\n== hot-key replication: R=2 spreads the hotspot, still all hits ==")
    graph = random_regular_expander(64, degree=8, seed=0)
    workload = permutation_workload(graph, shift=3)
    metrics = MetricsRegistry()
    with ClusterCoordinator(
        shard_count=3,
        cache_capacity=4,
        default_plan=PLAN,
        metrics=metrics,
        replication_factor=2,
        hot_key_threshold=1.0,
    ) as coordinator:
        reports = []
        for _ in range(5):
            for _ in range(6):
                coordinator.submit(graph, workload)
            reports.append(coordinator.dispatch())
        replicated = coordinator.replicated_keys()
        served = sorted({shard for report in reports[2:] for shard in report.shard_reports})
        print(f"replicated keys: {len(replicated)} -> owners spread over {served}")
        warm = reports[-1]
        assert warm.cache_hits == warm.query_count, "replica reads must stay cache hits"
        for family in (
            "repro_cluster_replica_publishes_total",
            "repro_cluster_replica_reads_total",
        ):
            print(f"{family}: {metrics.as_dict().get(family, {})}")


def main() -> None:
    chaos_run()
    replication_run()


if __name__ == "__main__":
    main()
