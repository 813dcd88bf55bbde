#!/usr/bin/env python
"""Unified perf-regression harness: one run, one ``bench-suite.json``, one verdict.

Runs every benchmark scenario three ways —

* ``reference``  — ``REPRO_KERNEL=reference`` + thread pool: the faithful
  pre-kernel (PR 3) hot paths, i.e. the baseline the speedups are against;
* ``numpy``      — vectorized kernels + memoized fast paths, thread pool;
* ``processes``  — numpy kernels + the service's process pool (service and
  cluster scenarios only)

— and writes one ``bench-suite.json`` with per-bench wall times and speedups.
The headline ``speedup`` column is the *optimized* configuration (numpy
kernels; process pool when the machine has >1 core) against the reference.

Regression gate: the run is compared against the checked-in
``benchmarks/baseline.json``.  The gated quantity is ``numpy_speedup``
(numpy-vs-reference on the same machine in the same run), which is stable
across machine speeds; a bench regresses when its speedup falls more than
``--tolerance`` (default 25%) below the blessed value.  Absolute wall-clock
can additionally be gated with ``--wall-tolerance`` for same-machine use.
Process-pool numbers are recorded but never gated — their ratio depends on
the core count of the machine running the harness.

Usage:
    python benchmarks/harness.py                 # full suite, gate vs baseline
    python benchmarks/harness.py --quick         # CI-sized suite
    python benchmarks/harness.py --bless         # re-bless baseline.json
    python benchmarks/harness.py --no-assert     # skip the >=2x acceptance asserts
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"
SUITE_PATH = REPO_ROOT / "bench-suite.json"
NETWORK_PATH = REPO_ROOT / "bench-network.json"

#: PR 6 blessed bench-network.json, the pre-fast-path wire overhead the
#: network fast path (coalescing + fingerprint dedup + group commit) is
#: gated against.  Ratios rather than absolute seconds so the gate is
#: insensitive to how loaded the benchmarking machine happens to be.
PR6_TCP_QPS_RATIO = 66.449 / 118.745  # tcp ran at 0.56x local throughput
PR6_TCP_RTT_RATIO = 0.36181 / 0.16180  # tcp rtt_p99 was 2.24x local

#: Scenarios whose optimized configuration includes the process pool.
POOLED = ("bench_service", "bench_cluster")
#: Scenarios asserted to hit the ISSUE's >=2x bar in full mode.
HEADLINE = ("bench_service", "bench_cluster")


def _quick() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "").strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }


def _best_seconds(fn, repeats: int = 5, inner: int = 1) -> float:
    """Minimum wall time over ``repeats`` samples of ``inner`` calls each.

    The minimum is the standard noise-robust estimator for CPU-bound
    micro-timings (any other sample merely caught scheduler noise); the
    regression gate depends on speedup *ratios*, so both sides use it.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    return min(samples)


# -- scenarios ---------------------------------------------------------------------------
#
# Every scenario takes (kernel_name, parallelism) and returns measured wall
# seconds for its hot phase (setup/warmup excluded).  Fresh MetricsRegistry
# instances keep harness runs out of the process-default registry.


def bench_service(kernel_name: str, parallelism: str) -> float:
    """The E5 serving scenario: one fully warm batch on the bench expander."""
    from repro.graphs.generators import random_regular_expander
    from repro.kernels import kernel
    from repro.metrics import MetricsRegistry
    from repro.service import RoutingService
    from repro.workloads import permutation_workload

    n, batch = (64, 8) if _quick() else (256, 32)
    graph = random_regular_expander(n, degree=8, seed=1)
    workloads = [permutation_workload(graph, shift=shift) for shift in range(1, batch + 1)]
    with kernel(kernel_name):
        with RoutingService(
            epsilon=0.5,
            max_workers=4,
            parallelism=parallelism,
            metrics=MetricsRegistry(),
        ) as service:
            # Warm the artifact, the pool, and (process mode) the workers.
            service.route(graph, workloads[0])
            start = time.perf_counter()
            for workload in workloads:
                service.submit(graph, workload)
            report = service.route_batch()
            elapsed = time.perf_counter() - start
    assert report.all_delivered and report.preprocess_rounds_incurred == 0
    return elapsed


def bench_cluster(kernel_name: str, parallelism: str) -> float:
    """The E7 cluster scenario: warm measured passes over a 4-shard cluster."""
    from repro.cluster import ClusterCoordinator
    from repro.graphs.generators import random_regular_expander
    from repro.kernels import kernel
    from repro.metrics import MetricsRegistry
    from repro.planner import ExecutionPlan
    from repro.workloads import permutation_workload

    n, graph_count, passes = (64, 6, 2) if _quick() else (96, 12, 3)
    graphs = [random_regular_expander(n, degree=8, seed=seed) for seed in range(graph_count)]
    with kernel(kernel_name):
        with ClusterCoordinator(
            shard_count=4,
            cache_capacity=graph_count,  # measure routing, not cache evictions
            default_plan=ExecutionPlan(
                backend="deterministic",
                kernel=kernel_name,
                parallelism=parallelism,
                max_workers=2,
            ),
            metrics=MetricsRegistry(),
        ) as coordinator:
            traffic = [(graph, permutation_workload(graph, shift=3)) for graph in graphs]
            for graph, workload in traffic:  # warm-up pass builds every artifact
                coordinator.submit(graph, workload)
            coordinator.dispatch()
            start = time.perf_counter()
            for _ in range(passes):
                for graph, workload in traffic:
                    coordinator.submit(graph, workload)
                report = coordinator.dispatch()
            elapsed = time.perf_counter() - start
    assert report.all_delivered and report.preprocess_rounds_incurred == 0
    return elapsed


def bench_route_query(kernel_name: str, parallelism: str) -> float:
    """One warm routing query (dispersion + merge + leaf hot path)."""
    import networkx as nx  # noqa: F401  (dependency sanity for the kernels)

    from repro.analysis.experiments import permutation_requests
    from repro.core.router import ExpanderRouter
    from repro.graphs.generators import random_regular_expander
    from repro.kernels import kernel

    n = 64 if _quick() else 96
    graph = random_regular_expander(n, degree=8, seed=1)
    with kernel(kernel_name):
        router = ExpanderRouter(graph, epsilon=0.5)
        router.preprocess()
        requests = permutation_requests(graph, load=2)
        router.route(requests)
        return _best_seconds(lambda: router.route(requests))


def run_fused_gate() -> dict:
    """Fused batch routing vs the per-query reference loop, on one warm router.

    The fused-kernel acceptance bar rides on ``bench_route_query``'s
    instance: all same-graph queries of a warm batch route through one
    stacked :meth:`ExpanderRouter.route_many` call, and the measured speedup
    over the sequential reference loop must clear 5x in full mode.
    """
    from repro.analysis.experiments import permutation_requests
    from repro.core.router import ExpanderRouter
    from repro.graphs.generators import random_regular_expander
    from repro.kernels import kernel

    n, batch = (64, 8) if _quick() else (96, 16)
    graph = random_regular_expander(n, degree=8, seed=1)
    base = permutation_requests(graph, load=2)
    groups = [base[shift:] + base[:shift] for shift in range(batch)]
    with kernel("numpy"):
        router = ExpanderRouter(graph, epsilon=0.5)
        router.preprocess()
        router.route_many(groups)  # warm every per-matching cache
        fused_seconds = _best_seconds(lambda: router.route_many(groups), repeats=3)
    with kernel("reference"):

        def sequential():
            for group in groups:
                router.route(group)

        sequential()
        sequential_seconds = _best_seconds(sequential, repeats=2)
    return {
        "batch": batch,
        "fused_seconds": fused_seconds,
        "reference_sequential_seconds": sequential_seconds,
        "fused_speedup_vs_reference": sequential_seconds / fused_seconds,
    }


def bench_kernel_scheduler(kernel_name: str, parallelism: str) -> float:
    """Fact 2.2 token scheduling over shortest paths on an expander."""
    import networkx as nx

    from repro.congest.scheduler import ScheduledToken, schedule_tokens_along_paths
    from repro.graphs.generators import random_regular_expander
    from repro.kernels import kernel

    n, token_count = (128, 512) if _quick() else (256, 2048)
    graph = random_regular_expander(n, degree=8, seed=1)
    nodes = sorted(graph.nodes())
    tokens = [
        ScheduledToken(
            token_id=index,
            path=tuple(
                nx.shortest_path(graph, nodes[index % n], nodes[(index * 7 + 3) % n])
            ),
        )
        for index in range(token_count)
    ]
    with kernel(kernel_name):
        return _best_seconds(lambda: schedule_tokens_along_paths(tokens))


def bench_kernel_conductance(kernel_name: str, parallelism: str) -> float:
    """Exact brute-force conductance plus the Fiedler sweep estimator."""
    import networkx as nx

    from repro.graphs.conductance import estimate_conductance, sweep_cut
    from repro.graphs.generators import random_regular_expander
    from repro.kernels import kernel

    exact_graph = nx.gnp_random_graph(12, 0.5, seed=1)
    sweep_graph = random_regular_expander(64 if _quick() else 128, degree=8, seed=1)

    def run():
        estimate_conductance(exact_graph)
        sweep_cut(sweep_graph)

    with kernel(kernel_name):
        return _best_seconds(run, inner=3)


def bench_kernel_sort(kernel_name: str, parallelism: str) -> float:
    """The comparator merge-split simulation over a full Batcher network."""
    import random

    from repro.kernels import kernel
    from repro.sorting.expander_sort import SortItem, expander_sort

    n, load = (64, 2) if _quick() else (128, 4)
    rng = random.Random(9)
    vertices = list(range(n))
    items_at = {
        vertex: [
            SortItem(key=rng.randint(0, 1000), tag=slot, value=(vertex, slot))
            for slot in range(load)
        ]
        for vertex in vertices
    }
    with kernel(kernel_name):
        return _best_seconds(
            lambda: expander_sort(
                vertices,
                {vertex: list(items) for vertex, items in items_at.items()},
                load,
                engine="comparator",
            )
        )


def bench_kernel_walk_matrix(kernel_name: str, parallelism: str) -> float:
    """Building cut-matching walk matrices (Definition 5.2) on a large cluster graph.

    Times the matrix *construction* only — the subsequent ``R_i`` product is a
    BLAS matmul that is identical under both kernels and would just add noise.
    """
    import random

    from repro.cutmatching.potential import walk_matrix
    from repro.kernels import kernel

    t = 128 if _quick() else 256
    rng = random.Random(5)
    matchings = []
    for _ in range(16):
        indices = list(range(t))
        rng.shuffle(indices)
        matchings.append(
            {
                (min(a, b), max(a, b)): rng.uniform(0.2, 1.0)
                for a, b in zip(indices[::2], indices[1::2])
            }
        )

    def run():
        for matching in matchings:
            walk_matrix(t, matching)

    with kernel(kernel_name):
        return _best_seconds(run, inner=3)


SCENARIOS = {
    "bench_service": bench_service,
    "bench_cluster": bench_cluster,
    "bench_route_query": bench_route_query,
    "kernel_scheduler": bench_kernel_scheduler,
    "kernel_conductance": bench_kernel_conductance,
    "kernel_sort": bench_kernel_sort,
    "kernel_walk_matrix": bench_kernel_walk_matrix,
}


# -- planner policy gate -----------------------------------------------------------------


def run_policy_gate(policy: str) -> dict:
    """Compact planner gate: the policy vs every fixed backend, interleaved.

    A scaled-down ``benchmarks/bench_planner.py``: a mixed workload set over
    two graph sizes, one service per fixed backend plus one under ``policy``,
    timed round-robin (so CPU drift hits every strategy equally) with the
    min-over-repeats estimator.  Returns one row per (workload, graph size)
    pair and the worst policy-vs-best-fixed ratio over all pairs; the caller
    gates on it.
    """
    from repro.backends import available_backends
    from repro.graphs.generators import random_regular_expander
    from repro.metrics import MetricsRegistry
    from repro.service import RoutingService
    from repro.workloads import make_workload

    sizes = (48, 64) if _quick() else (96, 128)
    repeats = 3 if _quick() else 5
    batch_queries = 4
    specs = [
        ("permutation", {"shift": 3}),
        ("broadcast", {"fanout": 8}),
        ("adversarial-bipartite", {"seed": 2}),
    ]
    backends = available_backends()
    # strategy -> (workload, n) -> best seconds: each graph size is its own
    # pair, so the gate sees the larger graph too, not only the min over both.
    totals: dict[str, dict[tuple[str, int], float]] = {}

    def timed_pass(service, graph, workloads, bucket, backend=None):
        for workload in workloads:
            start = time.perf_counter()
            for _ in range(batch_queries):
                service.submit(graph, workload, backend=backend)
            report = service.route_batch()
            elapsed = time.perf_counter() - start
            assert report.all_delivered, f"{workload.name}: undelivered tokens"
            pair = (workload.name, graph.number_of_nodes())
            bucket[pair] = min(bucket.get(pair, float("inf")), elapsed)

    converged = True
    for n in sizes:
        graph = random_regular_expander(n, degree=8, seed=7)
        workloads = [make_workload(name, graph, **params) for name, params in specs]
        services = {
            f"fixed:{backend}": (
                RoutingService(epsilon=0.5, max_workers=4, metrics=MetricsRegistry()),
                backend,
            )
            for backend in backends
        }
        policy_service = RoutingService(
            epsilon=0.5, max_workers=4, policy=policy, metrics=MetricsRegistry()
        )
        services[f"policy:{policy}"] = (policy_service, None)
        try:
            for strategy, (service, backend) in services.items():
                if backend is not None:
                    for workload in workloads:
                        service.route(graph, workload, backend=backend)
            for _ in range(2 * len(backends) + 1):  # calibration (untimed)
                for workload in workloads:
                    policy_service.route(graph, workload)
            if policy == "adaptive":
                for workload in workloads:
                    reason = policy_service.explain(graph, workload).plan.reason
                    converged = converged and "exploring" not in reason
            for _ in range(repeats):
                for strategy, (service, backend) in services.items():
                    bucket = totals.setdefault(strategy, {})
                    timed_pass(service, graph, workloads, bucket, backend=backend)
        finally:
            for service, _ in services.values():
                service.close()

    workload_rows = {}
    worst_ratio = 0.0
    for n in sizes:
        for name, _ in specs:
            pair = (name, n)
            fixed = {b: totals[f"fixed:{b}"][pair] for b in backends}
            best = min(fixed.values())
            mine = totals[f"policy:{policy}"][pair]
            ratio = mine / best
            worst_ratio = max(worst_ratio, ratio)
            workload_rows[f"{name}@n={n}"] = {
                "workload": name,
                "n": n,
                "policy_seconds": mine,
                "best_fixed_seconds": best,
                "best_fixed": min(fixed, key=lambda b: (fixed[b], b)),
                "policy_vs_best": ratio,
            }
            print(
                f"[harness] planner gate {name} n={n}: {policy} {mine:.4f}s vs best "
                f"fixed {best:.4f}s (x{ratio:.2f})",
                flush=True,
            )
    return {
        "policy": policy,
        "sizes": list(sizes),
        "repeats": repeats,
        "converged": converged,
        "workloads": workload_rows,
        "policy_vs_best_max": worst_ratio,
    }


def _gateway_coalesce_row(graphs, plan, *, coalesce: bool, quick: bool) -> tuple[dict, str]:
    """One gateway scenario: K submitter threads over one gateway, coalescing
    on (``max_batch=16``) or off (``max_batch=1`` — every submit admits alone).

    Returns the measured row and the drained ``ClusterReport.signature()`` so
    the caller can assert coalesced-vs-sequential byte parity.
    """
    import tempfile
    import threading
    from pathlib import Path as _Path

    from repro.cluster import ClusterCoordinator
    from repro.durability import CoordinatorJournal
    from repro.metrics import MetricsRegistry
    from repro.net import ClusterClient, ClusterGateway
    from repro.workloads import permutation_workload

    submitters, total = (4, 32) if quick else (4, 128)
    workloads = [permutation_workload(graph, shift=1) for graph in graphs]
    jobs = [
        (graphs[index % 2], workloads[index % 2], index)
        for index in range(total)
    ]
    metrics = MetricsRegistry()
    with tempfile.TemporaryDirectory() as tmp:
        # Journaled on purpose: group commit is what coalescing buys — one
        # fsync per admission window instead of one per submit.
        journal = CoordinatorJournal(_Path(tmp) / "journal", metrics=metrics)
        coordinator = ClusterCoordinator(
            shard_count=2, cache_capacity=4, default_plan=plan, metrics=metrics,
            journal=journal,
        )
        with coordinator, ClusterGateway(
            coordinator,
            socket_path=os.path.join(tmp, "bench.sock"),
            max_batch=16 if coalesce else 1,
            max_delay_ms=2.0,
        ) as gateway:
            start = time.perf_counter()

            def submit_chunk(chunk):
                with ClusterClient(gateway.address, metrics=MetricsRegistry()) as client:
                    for graph, workload, index in chunk:
                        request = workload.requests[index % len(workload.requests)]
                        decision = client.submit(graph, [request], workload=workload.name)
                        assert decision.accepted, f"gateway bench: submit {index} rejected"

            threads = [
                threading.Thread(target=submit_chunk, args=(jobs[rank::submitters],))
                for rank in range(submitters)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with ClusterClient(gateway.address, metrics=MetricsRegistry()) as client:
                report = client.dispatch()
            elapsed = time.perf_counter() - start

    assert report.query_count == total, (
        f"gateway bench: {report.query_count}/{total} queries served"
    )

    def counter(name: str) -> float:
        family = metrics.get(name)
        return family.labels(role="gateway").value if family is not None else 0.0

    def journal_counter(name: str) -> float:
        series = metrics.as_dict().get(name, {})
        return float(sum(series.values()))

    row = {
        "coalesce": coalesce,
        "submitters": submitters,
        "submits": total,
        "elapsed_seconds": elapsed,
        "throughput_qps": total / elapsed,
        "coalesced_batches": counter("repro_net_coalesced_batches_total"),
        "coalesced_submits": counter("repro_net_coalesced_submits_total"),
        "graph_uploads": counter("repro_net_graph_uploads_total"),
        "payloads_deduped": counter("repro_net_payloads_deduped_total"),
        "journal_group_commits": journal_counter("repro_journal_group_commits_total"),
        "journal_group_records": journal_counter("repro_journal_group_records_total"),
    }
    return row, report.signature()


def run_network_bench(coalesce: str = "both") -> dict:
    """TCP serving smoke: local vs tcp under the same seeded open-loop load.

    Drives identical traffic through a ``transport="local"`` and a
    ``transport="tcp"`` cluster (shard server processes over unix sockets)
    and asserts the serving tier's two invariants — no batch is lost
    (offered == completed + rejected + shed) and the per-window
    ``ClusterReport.signature()`` values match byte for byte — then reports
    throughput and latency percentiles per transport so the wire's overhead
    is a tracked number, not a guess.

    The fast-path additions are gated here too: tcp/local ratios must beat
    the PR 6 baseline (full mode: tcp >= 0.85x local throughput and an
    rtt_p99 ratio at least 2x better than PR 6's 2.24x; quick mode keeps the
    same shape with slack for CI scheduling noise), and the gateway rows
    (``coalesce`` = ``"on"``/``"off"``/``"both"``) must produce byte-identical
    drained signatures whether submits coalesced or admitted one by one.
    """
    from repro.cluster import ClusterCoordinator, OpenLoopLoadGenerator
    from repro.graphs.generators import random_regular_expander
    from repro.metrics import MetricsRegistry
    from repro.planner import ExecutionPlan

    n, rate, duration, interval = (48, 80.0, 0.4, 0.1) if _quick() else (64, 120.0, 1.5, 0.25)
    graphs = [random_regular_expander(n, degree=6, seed=seed) for seed in range(2)]
    plan = ExecutionPlan(backend="deterministic", max_workers=2)
    transports: dict[str, dict] = {}
    signatures: dict[str, list] = {}
    for transport in ("local", "tcp"):
        print(f"[harness] network bench: {transport} ...", flush=True)
        coordinator = ClusterCoordinator(
            shard_count=2,
            cache_capacity=4,
            default_plan=plan,
            metrics=MetricsRegistry(),
            transport=transport,
        )
        try:
            generator = OpenLoopLoadGenerator(
                graphs, rate=rate, duration=duration, dispatch_interval=interval, seed=11
            )
            slo = generator.run(coordinator)
        finally:
            coordinator.close()
        lost = slo.offered - slo.completed - slo.rejected - slo.shed
        assert lost == 0, f"network bench ({transport}): {lost} batches lost"
        signatures[transport] = [report.signature() for report in slo.cluster_reports]
        summary = slo.summary()
        transports[transport] = {
            "offered": slo.offered,
            "completed": slo.completed,
            "lost": lost,
            "throughput_qps": slo.throughput_qps,
            "p50_seconds": slo.latency_quantile(0.50),
            "p99_seconds": slo.latency_quantile(0.99),
            "rtt_p50_seconds": summary["rtt_p50_seconds"],
            "rtt_p99_seconds": summary["rtt_p99_seconds"],
            "transport_overhead_seconds": summary["transport_overhead_seconds"],
        }
        print(
            f"[harness] network bench {transport}: {slo.completed}/{slo.offered} served,"
            f" p99 {transports[transport]['p99_seconds']:.4f}s"
            f" rtt_p99 {transports[transport]['rtt_p99_seconds']:.4f}s",
            flush=True,
        )
    assert signatures["local"] == signatures["tcp"], (
        "network bench: local vs tcp ClusterReport signatures diverged"
    )
    print(
        f"[harness] network bench: signature parity across "
        f"{len(signatures['local'])} dispatch windows ✓",
        flush=True,
    )

    quick = _quick()
    qps_ratio = transports["tcp"]["throughput_qps"] / transports["local"]["throughput_qps"]
    rtt_ratio = transports["tcp"]["rtt_p99_seconds"] / transports["local"]["rtt_p99_seconds"]
    # Full mode holds the acceptance bar exactly; quick runs are tiny (tens
    # of batches) so the same gates get headroom for scheduler noise.
    min_qps_ratio = 0.60 if quick else 0.85
    max_rtt_ratio = 1.50 if quick else PR6_TCP_RTT_RATIO / 2
    assert qps_ratio >= min_qps_ratio, (
        f"network bench: tcp at {qps_ratio:.2f}x local throughput "
        f"(gate {min_qps_ratio:.2f}x; PR 6 baseline was {PR6_TCP_QPS_RATIO:.2f}x)"
    )
    assert rtt_ratio <= max_rtt_ratio, (
        f"network bench: tcp rtt_p99 at {rtt_ratio:.2f}x local "
        f"(gate {max_rtt_ratio:.2f}x; PR 6 baseline was {PR6_TCP_RTT_RATIO:.2f}x)"
    )
    print(
        f"[harness] network bench: tcp/local qps {qps_ratio:.2f}x (PR 6: "
        f"{PR6_TCP_QPS_RATIO:.2f}x), rtt_p99 {rtt_ratio:.2f}x (PR 6: "
        f"{PR6_TCP_RTT_RATIO:.2f}x) ✓",
        flush=True,
    )

    gateway_rows: dict[str, dict] = {}
    gateway_signatures: dict[str, str] = {}
    modes = {"both": ("on", "off"), "on": ("on",), "off": ("off",)}[coalesce]
    for mode in modes:
        print(f"[harness] network bench: gateway coalesce {mode} ...", flush=True)
        row, signature = _gateway_coalesce_row(graphs, plan, coalesce=mode == "on", quick=quick)
        gateway_rows[f"coalesce_{mode}"] = row
        gateway_signatures[mode] = signature
        print(
            f"[harness] network bench gateway coalesce {mode}: "
            f"{row['submits']} submits in {row['elapsed_seconds']:.3f}s "
            f"({row['throughput_qps']:.1f} qps, "
            f"{row['coalesced_batches']:.0f} coalesced windows)",
            flush=True,
        )
    if {"on", "off"} <= set(gateway_signatures):
        assert gateway_signatures["on"] == gateway_signatures["off"], (
            "network bench: coalesced vs sequential ClusterReport signatures diverged"
        )
        print("[harness] network bench: coalesced/sequential signature parity ✓", flush=True)

    return {
        "meta": {"quick": quick, "rate": rate, "duration": duration, "shards": 2},
        "signature_windows": len(signatures["local"]),
        "transports": transports,
        "ratios": {
            "tcp_vs_local_qps": qps_ratio,
            "tcp_vs_local_rtt_p99": rtt_ratio,
            "pr6_tcp_vs_local_qps": PR6_TCP_QPS_RATIO,
            "pr6_tcp_vs_local_rtt_p99": PR6_TCP_RTT_RATIO,
        },
        "gateway": gateway_rows,
    }


# -- driver ------------------------------------------------------------------------------


def run_suite(parallel_mode: str) -> dict:
    cpus = os.cpu_count() or 1
    pooled_mode = parallel_mode
    if pooled_mode == "auto":
        pooled_mode = "processes" if cpus >= 2 else "threads"
    benches: dict[str, dict] = {}
    for name, scenario in SCENARIOS.items():
        print(f"[harness] {name}: reference ...", flush=True)
        reference_seconds = scenario("reference", "threads")
        print(f"[harness] {name}: numpy ...", flush=True)
        numpy_seconds = scenario("numpy", "threads")
        row = {
            "reference_seconds": reference_seconds,
            "numpy_seconds": numpy_seconds,
            "numpy_speedup": reference_seconds / numpy_seconds,
        }
        if name in POOLED:
            print(f"[harness] {name}: processes ...", flush=True)
            processes_seconds = scenario("numpy", "processes")
            row["processes_seconds"] = processes_seconds
            row["process_speedup_vs_threads"] = numpy_seconds / processes_seconds
            if pooled_mode == "processes":
                row["optimized_mode"] = "numpy+processes"
                row["optimized_seconds"] = processes_seconds
            else:
                row["optimized_mode"] = "numpy+threads"
                row["optimized_seconds"] = numpy_seconds
        else:
            row["optimized_mode"] = "numpy"
            row["optimized_seconds"] = numpy_seconds
        row["speedup"] = reference_seconds / row["optimized_seconds"]
        if name == "bench_route_query":
            print(f"[harness] {name}: fused gate ...", flush=True)
            fused = run_fused_gate()
            row.update(fused)
            print(
                f"[harness] {name}: fused batch of {fused['batch']} "
                f"x{fused['fused_speedup_vs_reference']:.2f} vs reference",
                flush=True,
            )
        benches[name] = row
        print(
            f"[harness] {name}: reference {reference_seconds:.3f}s"
            f"  optimized {row['optimized_seconds']:.3f}s ({row['optimized_mode']})"
            f"  speedup {row['speedup']:.2f}x",
            flush=True,
        )
    return {
        "meta": {
            "quick": _quick(),
            "cpus": cpus,
            "pooled_mode": pooled_mode,
            "python": sys.version.split()[0],
        },
        "benches": benches,
    }


def compare_to_baseline(
    suite: dict, baseline: dict, tolerance: float, wall_tolerance: float | None
) -> list[str]:
    """Regressions of this run against the blessed baseline (empty = pass)."""
    mode = "quick" if suite["meta"]["quick"] else "full"
    blessed = baseline.get(mode, {})
    problems = []
    for name, row in suite["benches"].items():
        reference_row = blessed.get(name)
        if reference_row is None:
            continue
        floor = reference_row["numpy_speedup"] * (1.0 - tolerance)
        if row["numpy_speedup"] < floor:
            problems.append(
                f"{name}: numpy speedup {row['numpy_speedup']:.2f}x fell below "
                f"{floor:.2f}x (blessed {reference_row['numpy_speedup']:.2f}x, "
                f"tolerance {tolerance:.0%})"
            )
        if wall_tolerance is not None:
            ceiling = reference_row["optimized_seconds"] * (1.0 + wall_tolerance)
            if row["optimized_seconds"] > ceiling:
                problems.append(
                    f"{name}: optimized wall {row['optimized_seconds']:.3f}s exceeded "
                    f"{ceiling:.3f}s (blessed {reference_row['optimized_seconds']:.3f}s, "
                    f"tolerance {wall_tolerance:.0%})"
                )
    return problems


def bless(suite: dict, baseline_path: Path) -> None:
    mode = "quick" if suite["meta"]["quick"] else "full"
    existing = {}
    if baseline_path.exists():
        existing = json.loads(baseline_path.read_text())
    existing[mode] = {
        name: {
            "reference_seconds": row["reference_seconds"],
            "optimized_seconds": row["optimized_seconds"],
            "numpy_speedup": row["numpy_speedup"],
            "speedup": row["speedup"],
        }
        for name, row in suite["benches"].items()
    }
    existing["blessed_meta"] = existing.get("blessed_meta", {})
    existing["blessed_meta"][mode] = suite["meta"]
    baseline_path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    print(f"[harness] blessed {mode} baseline -> {baseline_path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized scenario sweep")
    parser.add_argument("--bless", action="store_true", help="rewrite baseline.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative numpy-speedup regression (default 0.25)",
    )
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=None,
        help="optionally also gate absolute optimized wall seconds (same-machine runs)",
    )
    parser.add_argument(
        "--parallelism",
        choices=("auto", "threads", "processes"),
        default="auto",
        help="optimized configuration's pool mode (default: auto by core count)",
    )
    parser.add_argument(
        "--policy",
        choices=("cost", "adaptive"),
        default=None,
        help="additionally gate the query planner policy against fixed backends",
    )
    parser.add_argument(
        "--network",
        action="store_true",
        help="also run the local-vs-tcp serving smoke (always on with --quick)",
    )
    parser.add_argument(
        "--coalesce",
        choices=("on", "off", "both"),
        default="both",
        help="which gateway coalescing rows the network bench measures",
    )
    parser.add_argument("--output", type=Path, default=SUITE_PATH)
    parser.add_argument("--network-output", type=Path, default=NETWORK_PATH)
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument(
        "--no-assert",
        action="store_true",
        help="skip the full-mode >=2x acceptance assertions",
    )
    args = parser.parse_args(argv)
    if args.quick:
        os.environ["REPRO_BENCH_QUICK"] = "1"

    suite = run_suite(args.parallelism)
    if args.policy is not None:
        print(f"[harness] planner policy gate ({args.policy}) ...", flush=True)
        suite["planner"] = run_policy_gate(args.policy)
    args.output.write_text(json.dumps(suite, indent=2) + "\n")
    print(f"[harness] wrote {args.output}")

    # The tcp serving smoke rides along in quick (CI) mode: its zero-loss and
    # signature-parity assertions are the cheap canary for the network tier.
    if args.network or args.quick:
        network = run_network_bench(coalesce=args.coalesce)
        args.network_output.write_text(json.dumps(network, indent=2) + "\n")
        print(f"[harness] wrote {args.network_output}")

    if args.bless:
        bless(suite, args.baseline)
        return 0

    # Acceptance bar (full mode only; quick sizes are too small to be meaningful).
    if not args.no_assert and not suite["meta"]["quick"]:
        for name in HEADLINE:
            speedup = suite["benches"][name]["speedup"]
            assert speedup >= 2.0, (
                f"{name}: optimized speedup {speedup:.2f}x below the 2x acceptance bar"
            )
        print("[harness] acceptance: bench_service and bench_cluster >= 2x ✓")
        fused_speedup = suite["benches"]["bench_route_query"]["fused_speedup_vs_reference"]
        assert fused_speedup >= 5.0, (
            f"bench_route_query: fused batch speedup {fused_speedup:.2f}x "
            f"below the 5x acceptance bar"
        )
        print(f"[harness] acceptance: fused batch routing {fused_speedup:.2f}x >= 5x ✓")
        # Process-beats-threads needs real parallelism to be observable; on a
        # single-core runner the process pool can only lose, so the bar is
        # gated on the core count.
        if (os.cpu_count() or 1) >= 2:
            for name in POOLED:
                ratio = suite["benches"][name]["process_speedup_vs_threads"]
                assert ratio >= 1.0, (
                    f"{name}: process pool at {ratio:.2f}x of threads "
                    f"(acceptance bar 1.0x)"
                )
            print("[harness] acceptance: processes >= threads ✓")

    # Planner gate: the policy must converge and stay near the best fixed
    # backend.  The ceilings are deliberately loose: at the gate's sizes the
    # top two backends are near-ties, so one noisy calibration probe can
    # flip the measured winner (observed up to ~2.5x on shared CI runners) —
    # while the regressions this gate exists to catch (failure to converge,
    # settling on a pathological backend) show up at 5-100x.  The strict
    # 10%-of-best bar lives in benchmarks/bench_planner.py full mode, which
    # times larger interleaved sweeps.
    if args.policy is not None and not args.no_assert:
        gate = suite["planner"]
        ceiling = 3.0 if suite["meta"]["quick"] else 2.0
        assert gate["converged"], f"planner policy {args.policy} failed to converge"
        assert gate["policy_vs_best_max"] <= ceiling, (
            f"planner policy {args.policy} fell to "
            f"{gate['policy_vs_best_max']:.2f}x of the best fixed backend "
            f"(ceiling {ceiling:.1f}x)"
        )
        print(
            f"[harness] planner gate: {args.policy} within "
            f"{gate['policy_vs_best_max']:.2f}x of best fixed ✓"
        )

    if not args.baseline.exists():
        print(f"[harness] no baseline at {args.baseline}; run with --bless to create one")
        return 0
    baseline = json.loads(args.baseline.read_text())
    problems = compare_to_baseline(suite, baseline, args.tolerance, args.wall_tolerance)
    if problems:
        for problem in problems:
            print(f"[harness] REGRESSION {problem}")
        return 1
    print("[harness] no regressions vs baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
