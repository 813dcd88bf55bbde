"""The three benchmark workloads.

Each workload gets its seed, builds its inputs from it (graphs, query mix,
arrival times) and hands the program only those inputs.  A workload has
three phases:

* ``setup()`` — one complete set-up, timed by the caller and repeated
  ``setup_repeats`` times so that ``setup_s`` is a median.  Lazy set-up
  (the first ``route`` on a graph is several times slower than later ones)
  finishes here.
* ``measure(seconds, speed, recorder)`` — the timed loop; returns a
  :class:`Sample`.  It runs the ``speed`` probe (``measure.HostSpeed``)
  between operations, never inside one.
* ``close()`` — stops every thread and process the workload started.

Correctness is checked inside the loop: every query's delivery and CONGEST
round counts must equal the reference recorded for it during set-up, and
``digests()`` condenses the reference so ``expected.json`` can pin it for the
recorded seeds.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from measure import percentile, tail_percentile

# -- recorded workload parameters ---------------------------------------------------

#: route-warm / preprocess-cold graph size and degree.
LARGE_N, DEGREE = 256, 8
#: route-warm: graphs preprocessed during set-up (one set-up sample each).
WARM_GRAPHS = 3
#: preprocess-cold: never-seen graphs per batch.
COLD_BATCH_GRAPHS = 2
#: serve-tcp: the warm graph set.
SERVE_N, SERVE_GRAPHS = 64, 16
#: serve-tcp: a ladder step passes when its tail latency stays under this
#: limit and its backlog never passes BACKLOG_CAP_S seconds of arrivals.
LATENCY_LIMIT_S = 0.1
BACKLOG_CAP_S = 0.5
#: serve-tcp: the capacity ladder of offered rates (qps), searched by bisection
#: (pass/fail is taken as monotone in the rate), and the length of one step.
LADDER_QPS = tuple(float(rate) for rate in range(20, 161, 10))
LADDER_STEP_S = 1.0
#: The longest path an AF_UNIX socket can bind (``sun_path`` minus its NUL).
UNIX_PATH_MAX = 107

#: A sample keeps at most this many problem messages (the counts are exact).
MAX_PROBLEMS = 20

CATALOG = (
    ("permutation-s1", "permutation", {"shift": 1}),
    ("permutation-s2", "permutation", {"shift": 2}),
    ("permutation-s3", "permutation", {"shift": 3}),
    ("hotspot-L2", "hotspot", {"load": 2}),
    ("multi-token-L2", "multi-token", {"load": 2}),
    ("adversarial-bipartite", "adversarial-bipartite", {}),
)


@dataclass(frozen=True)
class Query:
    graph_index: int
    label: str
    requests: tuple
    load: int


@dataclass
class Sample:
    """What one measured loop observed."""

    latencies: list[float] = field(default_factory=list)
    # the perf_counter time at which each latency ended
    stamps: list[float] = field(default_factory=list)
    # (end, duration) of each measured operation, for throughput
    ops: list[tuple[float, float]] = field(default_factory=list)
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    # failed queries whose output differed from the reference (a subset)
    wrong: int = 0
    query_rounds: int = 0
    problems: list[str] = field(default_factory=list)
    # serve-tcp's capacity ladder (open loop) only
    send_lags: list[float] = field(default_factory=list)
    backlog_max: int = 0
    valid: bool = True

    def absorb_failures(self, other: "Sample") -> None:
        """Count ``other``'s attempts and failures as this sample's own."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.problems += other.problems
        self.valid = self.valid and other.valid

    def absorb_wrong(self, other: "Sample", label: str) -> None:
        """Count ``other``'s wrong outputs (not its other failures) as this sample's own."""
        if other.wrong:
            self.wrong += other.wrong
            room = max(0, MAX_PROBLEMS - len(self.problems))
            self.problems += [f"{label}: {problem}" for problem in other.problems[:room]]

    def operation(self, begin: float, end: float) -> None:
        self.ops.append((end, end - begin))

    def latency(self, seconds: float, end: float) -> None:
        self.latencies.append(seconds)
        self.stamps.append(end)

    def fail(self, message: str, count: int = 1, wrong: bool = False) -> None:
        self.failed += count
        if wrong:
            self.wrong += count
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)


def make_graph(seed: int, index: int, n: int):
    from repro.graphs.generators import random_regular_expander

    return random_regular_expander(n, degree=DEGREE, seed=seed * 1009 + index)


def catalog(graph, graph_index: int, seed: int) -> list[Query]:
    from repro.workloads import make_workload

    queries = []
    for label, generator, params in CATALOG:
        params = dict(params)
        if generator in ("hotspot", "adversarial-bipartite"):
            params["seed"] = seed * 31 + graph_index
        workload = make_workload(generator, graph, **params)
        queries.append(Query(graph_index, label, tuple(workload.requests), workload.load))
    return queries


def _operation(recorder):
    """The root span of one measured operation (nothing when not tracing)."""
    return recorder.span("op") if recorder is not None else nullcontext()


def _digest(entries) -> str:
    blob = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _outcome_entry(query: Query, result) -> dict:
    """Delivery and round counts of one routed query (service or router outcome)."""
    entry = {
        "graph": query.graph_index,
        "query": query.label,
        "delivered": result.delivered,
        "total": result.total_tokens,
        "query_rounds": result.query_rounds,
    }
    breakdown = getattr(result, "breakdown", None)
    raw = getattr(result, "raw", None)
    if breakdown is None and raw is not None:
        breakdown = getattr(raw, "breakdown", None)
    if breakdown is not None:
        entry["phases"] = dict(sorted(breakdown.items()))
    return entry


def _same_outcome(reference: dict, entry: dict) -> bool:
    keys = ("delivered", "total", "query_rounds")
    if any(reference[key] != entry[key] for key in keys):
        return False
    return "phases" not in entry or "phases" not in reference or (
        reference["phases"] == entry["phases"]
    )


def canary_digest() -> str:
    """Digest of one fixed, seed-independent instance routed by ``ExpanderRouter``.

    Runs with seeds that ``expected.json`` does not pin can only check the
    program against itself; the canary pins the algorithm's round counts
    for every run whatever its seed.
    """
    from repro import ExpanderRouter

    graph = make_graph(0, 0, SERVE_N)
    router = ExpanderRouter(graph, epsilon=0.5)
    router.preprocess()
    entries = [dict(sorted(router.preprocess_ledger.breakdown().items()))]
    for query in catalog(graph, 0, 0):
        entries.append(_outcome_entry(query, router.route(query.requests, load=query.load)))
    return _digest(entries)


# -- route-warm -------------------------------------------------------------------------


class RouteWarm:
    """In-process ``ExpanderRouter.route`` in a closed loop over warm graphs."""

    name = "route-warm"
    setup_repeats = WARM_GRAPHS

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.routers: list = []
        self.queries: list[Query] = []
        self.reference: dict[tuple[int, str], dict] = {}
        self.preprocess_phases: list[dict] = []

    def setup(self) -> None:
        """Set up one more graph: generate, preprocess, warm every catalog query."""
        from repro import ExpanderRouter

        index = len(self.routers)
        graph = make_graph(self.seed, index, LARGE_N)
        router = ExpanderRouter(graph, epsilon=0.5)
        router.preprocess()
        self.preprocess_phases.append(dict(sorted(router.preprocess_ledger.breakdown().items())))
        for query in catalog(graph, index, self.seed):
            outcome = router.route(query.requests, load=query.load)
            self.reference[(index, query.label)] = _outcome_entry(query, outcome)
            self.queries.append(query)
        self.routers.append(router)

    def digests(self) -> list[str]:
        return [_digest([self.preprocess_phases, sorted(self.reference.values(), key=str)])]

    def measure(self, seconds: float, speed, recorder=None) -> Sample:
        sample = Sample()
        order = list(self.queries)
        random.Random(self.seed).shuffle(order)
        clock = time.perf_counter
        started = clock()
        position = 0
        while clock() - started < seconds:
            query = order[position % len(order)]
            position += 1
            router = self.routers[query.graph_index]
            sample.attempted += 1
            begin = clock()
            with _operation(recorder):
                outcome = router.route(query.requests, load=query.load)
            end = clock()
            sample.operation(begin, end)
            sample.latency(end - begin, end)
            speed.probe()
            entry = _outcome_entry(query, outcome)
            if not outcome.all_delivered or not _same_outcome(
                self.reference[(query.graph_index, query.label)], entry
            ):
                sample.fail(f"{query.label} on graph {query.graph_index}: {entry}", wrong=True)
                continue
            sample.completed += 1
            sample.query_rounds += outcome.query_rounds
        return sample

    def close(self) -> None:
        self.routers.clear()


# -- preprocess-cold -----------------------------------------------------------------


class PreprocessCold:
    """Never-seen graphs through ``RoutingService.submit`` + ``route_batch``.

    Every lookup misses, so preprocessing (hierarchy, cut-matching,
    embedding) and the cache's miss-and-store path carry the time.
    """

    name = "preprocess-cold"
    setup_repeats = 5

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.service = None
        self.metrics = None
        self.setups = 0
        self.next_graph = 0
        self.entries: list[dict] = []

    def setup(self) -> None:
        """Start a fresh service and route one cold warm-up graph through it.

        Each repetition takes another warm-up graph: preprocessing time
        depends on the graph, and the median over several is the cost of a
        ready service with one typical cold query behind it.
        """
        from repro import RoutingService
        from repro.metrics import MetricsRegistry
        from repro.service.cache import ArtifactCache

        if self.service is not None:
            self.service.close()
        self.metrics = MetricsRegistry()
        self.service = RoutingService(
            epsilon=0.5,
            max_workers=2,
            parallelism="threads",
            cache=ArtifactCache(capacity=4, metrics=self.metrics),
            metrics=self.metrics,
        )
        self.setups += 1
        warmup = make_graph(self.seed, 90 + self.setups, LARGE_N)
        query = catalog(warmup, 0, self.seed)[0]
        self.service.submit(warmup, query.requests, load=query.load, workload=query.label)
        report = self.service.route_batch()
        if not report.all_delivered:
            raise RuntimeError("preprocess-cold set-up: warm-up query not delivered")

    def digests(self) -> list[str]:
        """One digest per cold graph, in the order the graphs were generated."""
        return [_digest(entry) for entry in self.entries]

    def measure(self, seconds: float, speed, recorder=None) -> Sample:
        sample = Sample()
        clock = time.perf_counter
        started = clock()
        while clock() - started < seconds:
            batch = []
            for _ in range(COLD_BATCH_GRAPHS):
                index = self.next_graph
                self.next_graph += 1
                graph = make_graph(self.seed, 100 + index, LARGE_N)
                query = catalog(graph, index, self.seed)[index % len(CATALOG)]
                batch.append((graph, query))
            sample.attempted += len(batch)
            begin = clock()
            try:
                with _operation(recorder):
                    report = self._route(batch)
            except Exception as error:  # noqa: BLE001 - counted, then reported
                sample.fail(f"batch raised {type(error).__name__}: {error}", len(batch))
                continue
            end = clock()
            sample.operation(begin, end)
            speed.probe(3)
            if report.cache_hits:
                sample.fail(f"{report.cache_hits} cache hits on never-seen graphs", wrong=True)
            for (graph, query), result in zip(batch, report.results):
                artifact = self.service.cache.peek(result.fingerprint)
                entry = _outcome_entry(query, result.outcome)
                entry["preprocess"] = dict(sorted(artifact.preprocess_phases.items()))
                self.entries.append(entry)
                if not result.outcome.all_delivered:
                    sample.fail(
                        f"{query.label} on cold graph {query.graph_index}: {entry}", wrong=True
                    )
                    continue
                sample.completed += 1
                sample.query_rounds += result.outcome.query_rounds
                sample.latency(end - begin, end)
        return sample

    def _route(self, batch):
        for graph, query in batch:
            self.service.submit(graph, query.requests, load=query.load, workload=query.label)
        return self.service.route_batch()

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


# -- serve-tcp ------------------------------------------------------------------------


def longest_socket_path(workdir: Path) -> int:
    """Length of the longest unix socket path serve-tcp binds with TMPDIR = ``workdir``.

    Each shard server binds ``<TMPDIR>/repro-net-XXXXXXXX/shard-N.sock``;
    the gateway's ``<workdir>/gwN.sock`` is shorter.
    """
    return len(str(workdir)) + len("/repro-net-xxxxxxxx/shard-0.sock")


class ServeTcp:
    """One client through a gateway to a journaled tcp cluster of two shard servers."""

    name = "serve-tcp"
    setup_repeats = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro import ExpanderRouter
        from repro.service import RoutingService

        self.seed = seed
        self.workdir = workdir
        self.graphs = [make_graph(seed, index, SERVE_N) for index in range(SERVE_GRAPHS)]
        self.queries = [
            query
            for index, graph in enumerate(self.graphs)
            for query in catalog(graph, index, seed)
        ]
        # The reference table: every query routed by a plain ExpanderRouter,
        # keyed by (fingerprint, workload label) as the cluster reports them.
        keyer = RoutingService(epsilon=0.5)
        self.fingerprints = [
            keyer.fingerprint(graph, backend="deterministic") for graph in self.graphs
        ]
        keyer.close()
        self.reference: dict[tuple[str, str], dict] = {}
        for index, graph in enumerate(self.graphs):
            router = ExpanderRouter(graph, epsilon=0.5)
            router.preprocess()
            for query in self.queries:
                if query.graph_index == index:
                    outcome = router.route(query.requests, load=query.load)
                    if not outcome.all_delivered:
                        raise RuntimeError(f"serve-tcp reference: {query.label} not delivered")
                    self.reference[(self.fingerprints[index], query.label)] = _outcome_entry(
                        query, outcome
                    )
        self.stack = None
        self.setups = 0
        self.ladder: list[dict] = []

    def setup(self) -> None:
        """Start journal, coordinator (two shard server processes), gateway, client; warm."""
        from repro.cluster import ClusterCoordinator
        from repro.durability import CoordinatorJournal
        from repro.metrics import MetricsRegistry
        from repro.net import ClusterClient, ClusterGateway
        from repro.planner import ExecutionPlan

        self.close()
        self.setups += 1
        self.metrics = MetricsRegistry()
        self.journal_dir = self.workdir / f"journal-{self.setups}"
        # Every record is written and flushed, but not fsynced: fsync time is
        # the shared disk's (0.25 ms typical, up to 44 ms, and slower while
        # neighbours write), which the host-speed probe cannot follow.
        journal = CoordinatorJournal(self.journal_dir, fsync=False, metrics=self.metrics)
        coordinator = ClusterCoordinator(
            shard_count=2,
            cache_capacity=SERVE_GRAPHS,
            default_plan=ExecutionPlan(backend="deterministic", max_workers=1),
            policy="cost",
            metrics=self.metrics,
            transport="tcp",
            net_family="unix",
            journal=journal,
        )
        try:
            gateway = ClusterGateway(
                coordinator,
                family="unix",
                socket_path=str(self.workdir / f"gw{self.setups}.sock"),
                metrics=self.metrics,
            )
        except BaseException:
            coordinator.close()
            raise
        try:
            client = ClusterClient(gateway.address, metrics=self.metrics)
        except BaseException:
            gateway.close()
            coordinator.close()
            raise
        self.stack = (client, gateway, coordinator)
        self.client = client
        warm = Sample()
        self._step([(0.0, query) for query in self.queries], time.perf_counter(), warm)
        if warm.failed or warm.completed != len(self.queries):
            raise RuntimeError(f"serve-tcp set-up: warm pass failed: {warm.problems}")

    def digests(self) -> list[str]:
        return [_digest(sorted(self.reference.values(), key=str))]

    def _arrivals(self, rate: float, seconds: float, salt: int) -> list[tuple[float, Query]]:
        """Poisson-like arrivals at ``rate``: stratified exponential gaps in seeded order.

        The gaps between arrivals are the ``count`` evenly spaced quantiles
        of the exponential distribution of a Poisson process at ``rate``,
        scaled to fill ``seconds``; the seed shuffles their order.  Every
        seed thus offers the same load with the same number of near-collisions,
        which set the latency tail; with independently drawn gaps that number,
        and with it the tail, changed from seed to seed.  The queries cycle
        through a seeded shuffle of the catalog, so every run offers the same
        mix in a different order.
        """
        rng = random.Random(self.seed * 7717 + salt)
        count = round(rate * seconds)
        gaps = [-math.log(1.0 - (index + 0.5) / count) for index in range(count)]
        rng.shuffle(gaps)
        stretch = seconds / sum(gaps)
        times = list(itertools.accumulate(gap * stretch for gap in gaps))
        order = list(self.queries)
        rng.shuffle(order)
        return [(at, order[index % len(order)]) for index, at in enumerate(times)]

    def _step(self, due: list[tuple[float, Query]], started: float, sample: Sample) -> None:
        """Submit every due arrival, dispatch once, and check what was served."""
        clock = time.perf_counter
        submitted: dict[tuple[str, str], list[float]] = {}
        for intended_at, query in due:
            sample.attempted += 1
            sample.send_lags.append(clock() - started - intended_at)
            try:
                reply = self.client.submit(
                    self.graphs[query.graph_index],
                    query.requests,
                    load=query.load,
                    backend="deterministic",
                    workload=query.label,
                )
            except Exception as error:  # noqa: BLE001 - counted, then reported
                sample.fail(f"submit raised {type(error).__name__}: {error}")
                continue
            if reply.shed:
                sample.fail(f"{reply.shed} queued queries shed", reply.shed)
            if not reply.accepted:
                sample.fail(f"submit of {query.label} rejected")
                continue
            key = (self.fingerprints[query.graph_index], query.label)
            submitted.setdefault(key, []).append(intended_at)
        if not submitted:
            return
        try:
            report = self.client.dispatch()
        except Exception as error:  # noqa: BLE001 - counted, then reported
            sample.fail(
                f"dispatch raised {type(error).__name__}: {error}",
                sum(len(times) for times in submitted.values()),
            )
            return
        end = clock()
        done = end - started
        for shard_report in report.shard_reports.values():
            for result in shard_report.results:
                key = (result.fingerprint, result.workload)
                reference = self.reference.get(key)
                waiting = submitted.get(key)
                if reference is None or not waiting:
                    sample.fail(f"served an unknown or unsubmitted query {key}", wrong=True)
                    continue
                intended_at = waiting.pop(0)
                outcome = result.outcome
                if (
                    outcome.delivered != reference["delivered"]
                    or outcome.total_tokens != reference["total"]
                    or outcome.query_rounds != reference["query_rounds"]
                ):
                    sample.fail(
                        f"{key}: served {outcome.query_rounds} rounds, "
                        f"reference {reference['query_rounds']}",
                        wrong=True,
                    )
                    continue
                sample.completed += 1
                sample.query_rounds += outcome.query_rounds
                sample.latency(done - intended_at, end)
        undelivered = sum(len(times) for times in submitted.values())
        if undelivered:
            sample.fail(f"{undelivered} admitted queries not served", undelivered)

    def _open_loop(self, rate: float, seconds: float, salt: int) -> Sample:
        """Arrivals at ``rate`` for ``seconds``; aborts once the backlog passes its cap."""
        arrivals = self._arrivals(rate, seconds, salt)
        times = [intended for intended, _ in arrivals]
        cap = max(2, int(rate * BACKLOG_CAP_S))
        sample = Sample()
        clock = time.perf_counter
        started = clock()
        position = 0
        while position < len(arrivals):
            now = clock() - started
            if times[position] > now:
                time.sleep(times[position] - now)
                continue
            end = bisect.bisect_right(times, now, lo=position)
            self._step(arrivals[position:end], started, sample)
            position = end
            backlog = bisect.bisect_right(times, clock() - started, lo=position) - position
            sample.backlog_max = max(sample.backlog_max, backlog)
            if backlog > cap:
                sample.valid = False
                break
        return sample

    def measure(self, seconds: float, speed, recorder=None) -> Sample:
        """One caller in a closed loop: submit one graph's catalog, dispatch once, check.

        The graphs take turns in a seeded order.  One graph's queries all go
        to the shard that owns it, so every dispatch does the same kind of
        work whichever shards the ring gave the seed's graphs to; mixed
        groups made the work per dispatch, and the throughput, depend on
        that placement.  Each query's latency runs from the group's first
        submit to the return of its dispatch.  An open loop at a fixed rate
        spread too far across runs to be gated (see README); it runs in the
        capacity ladder of traced runs.
        """
        graphs = list(range(SERVE_GRAPHS))
        random.Random(self.seed * 7717).shuffle(graphs)
        groups = [
            [query for query in self.queries if query.graph_index == index] for index in graphs
        ]
        sample = Sample()
        clock = time.perf_counter
        started = clock()
        position = 0
        while clock() - started < seconds:
            group = groups[position % len(groups)]
            position += 1
            begin = clock()
            with _operation(recorder):
                self._step([(0.0, query) for query in group], begin, sample)
            sample.operation(begin, clock())
            speed.probe()
        return sample

    def capacity(self, checked: Sample) -> tuple[float, Sample]:
        """The highest ladder rate that holds its latency limit without a growing backlog.

        Bisection over :data:`LADDER_QPS`: each probe offers one rate for
        :data:`LADDER_STEP_S` (less when its backlog passes the cap).  Every
        query a probe serves is checked like the measured ones, and its
        wrong outputs are counted in ``checked``.  Returns the rate and the
        open-loop sample of that rate (empty when no rate passed).
        """
        best = Sample()
        low, high = -1, len(LADDER_QPS)  # highest passing index, lowest failing index
        while high - low > 1:
            middle = (low + high) // 2
            rate = LADDER_QPS[middle]
            sample = self._open_loop(rate, LADDER_STEP_S, salt=100 + middle)
            checked.absorb_wrong(sample, f"capacity ladder at {rate:g} qps")
            tail = percentile(sample.latencies, tail_percentile(len(sample.latencies)))
            passed = sample.valid and not sample.failed and tail <= LATENCY_LIMIT_S
            self.ladder.append(
                {
                    "rate_qps": rate,
                    "completed": sample.completed,
                    "tail_ms": tail * 1000.0,
                    "backlog_max": sample.backlog_max,
                    "passed": passed,
                }
            )
            if passed:
                low, best = middle, sample
            else:
                high = middle
        return (LADDER_QPS[low] if low >= 0 else 0.0), best

    def close(self) -> None:
        if self.stack is None:
            return
        client, gateway, coordinator = self.stack
        self.stack = None
        try:
            client.close()
        finally:
            try:
                gateway.close()
            finally:
                coordinator.close()


WORKLOADS = {
    cls.name: cls for cls in (RouteWarm, PreprocessCold, ServeTcp)
}

