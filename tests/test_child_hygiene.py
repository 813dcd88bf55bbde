"""Child processes finish quietly: no stray tracebacks, no resource-tracker noise.

A traceback a worker or shard server process prints to stderr is a bug even
when the parent's results are right: it means some child failed, or left a
resource for the interpreter to complain about at exit.  This test runs the
process-spawning paths end to end in a fresh interpreter — a two-worker
process-pool batch, a tcp cluster's warm handoff through ``add_shard`` and
``remove_shard``, and ``close()`` — and requires a clean exit with a clean
stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import networkx as nx

from repro.cluster import ClusterCoordinator
from repro.metrics import MetricsRegistry
from repro.planner import ExecutionPlan
from repro.service import RoutingService
from repro.workloads import permutation_workload


def main():
    graph = nx.random_regular_graph(4, 48, seed=3)
    with RoutingService(
        max_workers=2, parallelism="processes", metrics=MetricsRegistry()
    ) as service:
        for shift in (1, 2, 3, 4):
            service.submit(graph, permutation_workload(graph, shift=shift))
        assert service.route_batch().all_delivered

    graphs = [nx.random_regular_graph(4, 48, seed=seed) for seed in range(3)]
    metrics = MetricsRegistry()
    coordinator = ClusterCoordinator(
        shard_count=2,
        default_plan=ExecutionPlan(backend="deterministic", max_workers=1),
        metrics=metrics,
        transport="tcp",
    )

    def dispatch(shift):
        for graph in graphs:
            coordinator.submit(graph, permutation_workload(graph, shift=shift))
        report = coordinator.dispatch()
        assert report.all_delivered

    dispatch(1)
    coordinator.add_shard()
    dispatch(2)
    coordinator.remove_shard(coordinator.shard_ids[-1])
    dispatch(3)
    handoffs = metrics.as_dict().get("repro_cluster_warm_handoffs_total", {})
    assert sum(handoffs.values()) > 0, handoffs
    coordinator.close()


if __name__ == "__main__":
    main()
"""


def test_process_pool_and_tcp_handoff_leave_no_stray_child_tracebacks(tmp_path):
    script = tmp_path / "children.py"
    script.write_text(SCRIPT)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert "Traceback" not in completed.stderr, completed.stderr
    assert "resource_tracker" not in completed.stderr, completed.stderr
