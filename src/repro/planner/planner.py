"""The query planner: policies, plan cache, and EXPLAIN-style reports.

:class:`QueryPlanner` is the single decision point the serving layers route
execution choices through.  Given a graph key (canonical fingerprint of the
graph + service parameters, backend-agnostic), a workload signature, and the
current :class:`~repro.planner.CostModel` state, it produces an
:class:`~repro.planner.ExecutionPlan` under one of three policies:

* ``fixed`` — honor the caller's explicit knobs (the compatibility shims in
  :class:`~repro.service.RoutingService` synthesize these from legacy
  kwargs); the cost model is consulted for reporting only.
* ``cost`` — pick the candidate backend with the lowest effective cost
  estimate (calibrated EWMA when available, asymptotic prior otherwise);
  purely deterministic given the model state.
* ``adaptive`` — like ``cost``, but un-calibrated candidates are probed
  first (in sorted name order) so every candidate gets measured, and the
  serving layer feeds observed timings back via :meth:`record_query` /
  :meth:`record_preprocess`; the policy converges to the measured winner per
  (backend, kernel, graph-size-bucket).

Decisions are memoized in a bounded plan cache keyed by
``(graph key, workload signature, explicit backend override, cost-model
version)`` — the same key reproduces the byte-identical plan *and* the
byte-identical :meth:`PlanExplanation.render` output, which is exactly what
the planner determinism tests assert.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.analysis.reporting import format_kv, format_table
from repro.backends.base import available_backends, backend_factory, supports_fusion
from repro.kernels import active_kernel
from repro.metrics import MetricsRegistry, default_registry
from repro.planner.cost import CostEstimate, CostModel, size_bucket
from repro.planner.plan import EXECUTION_MODES, ExecutionPlan

__all__ = ["PLAN_POLICIES", "workload_signature", "PlanExplanation", "QueryPlanner"]

#: The recognised planning policies.
PLAN_POLICIES = ("fixed", "cost", "adaptive")

#: Calibrated per-query cost below which thread fan-out is chunked (task
#: submission overhead dominates sub-millisecond queries).
CHUNK_THRESHOLD_SECONDS = 2e-3

#: Calibrated per-query cost above which ``parallelism="auto"`` ships the
#: batch to worker processes (below it, pickling dominates the win).
PROCESS_THRESHOLD_SECONDS = 5e-3


def workload_signature(
    workload: str, load: int | None, request_count: int, n: int
) -> str:
    """The workload-shape key of the plan cache.

    Buckets request counts and graph sizes by bit length (like the cost
    model), so "the same shape of traffic at the same scale" shares one plan
    instead of fragmenting the cache per exact size.
    """
    return "|".join(
        (
            workload or "adhoc",
            f"L{load if load is not None else '?'}",
            f"r{max(int(request_count), 1).bit_length()}",
            f"n{size_bucket(n)}",
        )
    )


@dataclass
class PlanExplanation:
    """Why one plan was chosen: candidate scores, policy, and provenance.

    Everything here is deterministic given (graph key, workload signature,
    calibration state) — no wall-clock, no iteration-order dependence — so
    :meth:`render` is byte-stable and safe to snapshot in tests.
    """

    graph_key: str
    signature: str
    policy: str
    plan: ExecutionPlan
    estimates: list[CostEstimate] = field(default_factory=list)
    cost_model_version: int = 0
    cost_model_signature: str = ""
    notes: list[str] = field(default_factory=list)

    def as_rows(self) -> list[dict[str, object]]:
        rows = []
        for estimate in self.estimates:
            row = estimate.as_row()
            row["chosen"] = "*" if estimate.backend == self.plan.backend else ""
            rows.append(row)
        return rows

    def summary(self) -> dict[str, object]:
        return {
            "graph": self.graph_key[:10],
            "workload": self.signature,
            "policy": self.policy,
            "plan_id": self.plan.plan_id,
            "semantic_id": self.plan.semantic_id,
            "plan": self.plan.describe(),
            "reason": self.plan.reason,
            "cost_model_version": self.cost_model_version,
            "cost_model_state": self.cost_model_signature,
        }

    def render(self) -> str:
        """The EXPLAIN report as aligned plain text (byte-stable)."""
        parts = [format_kv(self.summary(), title="plan")]
        if self.estimates:
            parts.append(format_table(self.as_rows()))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)


class QueryPlanner:
    """Chooses an :class:`ExecutionPlan` per (graph, workload) under a policy.

    Args:
        policy: ``fixed`` | ``cost`` | ``adaptive`` (see module docstring).
        cost_model: the :class:`CostModel` to estimate and calibrate with
            (fresh one when omitted; the cluster tier shares one across
            shards).
        candidates: backend names the ``cost``/``adaptive`` policies choose
            among (default: every registered backend).
        default_backend: the backend ``fixed`` plans fall back to when the
            caller names none.
        epsilon: tradeoff parameter recorded for the cost model default.
        parallelism: execution mode planned batches run under — one of
            ``"threads"``, ``"processes"``, or ``"auto"`` (processes exactly
            when the calibrated per-query cost clears
            ``PROCESS_THRESHOLD_SECONDS`` and the machine has >1 core).
        max_workers: pool width stamped onto every plan (``None`` = default).
        chunk_size: thread fan-out chunk applied when the calibrated
            per-query cost is below ``CHUNK_THRESHOLD_SECONDS``.
        plan_cache_capacity: bound on memoized decisions (LRU).
        replan_interval: how many cost-model observations a *converged*
            decision stays cached for before it is re-derived (exploration
            decisions are never reused across observations, so probing
            advances every batch).  Re-planning on every observation would
            spend more time deciding than routing for sub-millisecond
            queries; an interval of 64 keeps decisions fresh across a few
            batches while amortizing the decision cost to noise.
        explore_probes: observations the adaptive policy wants per
            (backend, workload-class, size-bucket) before it trusts the
            calibration — 2 by default, because the first measurement after
            a cold start is provisional (see
            :meth:`~repro.planner.CostModel.observe`).
        metrics: registry for ``repro_planner_*`` series (default process
            registry).
    """

    def __init__(
        self,
        policy: str = "cost",
        cost_model: CostModel | None = None,
        candidates: Sequence[str] | None = None,
        default_backend: str = "deterministic",
        epsilon: float = 0.5,
        parallelism: str = "threads",
        max_workers: int | None = None,
        chunk_size: int = 4,
        plan_cache_capacity: int = 1024,
        replan_interval: int = 64,
        explore_probes: int = 2,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if policy not in PLAN_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of {', '.join(PLAN_POLICIES)}"
            )
        if parallelism not in (*EXECUTION_MODES, "auto"):
            raise ValueError(
                f"unknown parallelism {parallelism!r}; expected "
                f"{', '.join(EXECUTION_MODES)} or 'auto'"
            )
        if plan_cache_capacity < 1:
            raise ValueError("plan_cache_capacity must be at least 1")
        if replan_interval < 1:
            raise ValueError("replan_interval must be at least 1")
        self.policy = policy
        self.cost_model = cost_model if cost_model is not None else CostModel(epsilon=epsilon)
        self._candidates = tuple(sorted(candidates)) if candidates is not None else None
        self.default_backend = default_backend
        self.parallelism = parallelism
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.plan_cache_capacity = plan_cache_capacity
        self.replan_interval = replan_interval
        self.explore_probes = max(1, explore_probes)
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_plans = self.metrics.counter(
            "repro_planner_plans_total",
            "Plans produced, by policy and chosen backend.",
            labels=("policy", "backend"),
        )
        self._m_cache = self.metrics.counter(
            "repro_planner_plan_cache_total",
            "Plan cache lookups by result.",
            labels=("result",),
        )
        # key -> (plan, explanation, decided-at-version, is-exploration)
        self._cache: OrderedDict[
            tuple, tuple[ExecutionPlan, PlanExplanation, int, bool]
        ] = OrderedDict()

    # -- candidates ----------------------------------------------------------

    @property
    def candidates(self) -> tuple[str, ...]:
        """Backends the cost/adaptive policies choose among (sorted)."""
        if self._candidates is not None:
            return self._candidates
        return tuple(available_backends())

    # -- planning ------------------------------------------------------------

    def plan(
        self,
        graph_key: str,
        n: int,
        *,
        request_count: int = 0,
        load: int | None = None,
        workload: str = "",
        backend: str | None = None,
        backend_params: Mapping[str, Any] | None = None,
    ) -> ExecutionPlan:
        """The execution plan for one query (memoized; see module docstring).

        An explicit ``backend`` always wins: naming one is a ``fixed``
        decision regardless of the planner's policy (this is what the legacy
        kwargs shims rely on).
        """
        return self._decide(
            graph_key, n, request_count, load, workload, backend, backend_params
        )[0]

    def explain(
        self,
        graph_key: str,
        n: int,
        *,
        request_count: int = 0,
        load: int | None = None,
        workload: str = "",
        backend: str | None = None,
        backend_params: Mapping[str, Any] | None = None,
    ) -> PlanExplanation:
        """The full decision report for the same inputs as :meth:`plan`."""
        return self._decide(
            graph_key, n, request_count, load, workload, backend, backend_params
        )[1]

    def _decide(
        self,
        graph_key: str,
        n: int,
        request_count: int,
        load: int | None,
        workload: str,
        backend: str | None,
        backend_params: Mapping[str, Any] | None,
    ) -> tuple[ExecutionPlan, PlanExplanation]:
        signature = workload_signature(workload, load, request_count, n)
        params_key = tuple(sorted((str(k), repr(v)) for k, v in (backend_params or {}).items()))
        # The active kernel is part of the key: flipping REPRO_KERNEL (or the
        # kernel() context manager) must re-derive plans, both so the plan's
        # recorded kernel pins worker processes correctly and so calibration
        # observations file under the kernel that actually ran.
        kernel = active_kernel()
        key = (graph_key, signature, backend, params_key, kernel)
        version = self.cost_model.version
        cached = self._cache.get(key)
        if cached is not None:
            plan, explanation, decided_at, exploring = cached
            fresh = version == decided_at or (
                not exploring and version - decided_at < self.replan_interval
            )
            if fresh:
                self._cache.move_to_end(key)
                self._m_cache.labels(result="hit").inc()
                return plan, explanation
        self._m_cache.labels(result="miss").inc()
        plan, explanation = self._decide_uncached(
            graph_key, n, request_count, load, workload, signature, backend,
            backend_params, kernel,
        )
        self._cache[key] = (plan, explanation, version, plan.reason.startswith("exploring"))
        while len(self._cache) > self.plan_cache_capacity:
            self._cache.popitem(last=False)
        self._m_plans.labels(policy=plan.policy, backend=plan.backend).inc()
        return plan, explanation

    def _decide_uncached(
        self,
        graph_key: str,
        n: int,
        request_count: int,
        load: int | None,
        workload: str,
        signature: str,
        backend: str | None,
        backend_params: Mapping[str, Any] | None,
        kernel: str,
    ) -> tuple[ExecutionPlan, PlanExplanation]:
        effective_load = max(load or 1, 1)
        estimates = [
            self.cost_model.estimate(
                name, kernel, n, phase="query", load=effective_load, workload=workload
            )
            for name in self.candidates
        ]
        notes: list[str] = []

        if backend is not None or self.policy == "fixed":
            chosen_name = backend if backend is not None else self.default_backend
            policy = "fixed"
            reason = (
                f"caller pinned backend={chosen_name}"
                if backend is not None
                else f"fixed policy default backend={chosen_name}"
            )
        else:
            policy = self.policy
            unexplored = [
                e for e in estimates if e.workload_samples < self.explore_probes
            ]
            if self.policy == "adaptive" and unexplored:
                chosen = min(unexplored, key=lambda e: e.backend)
                reason = (
                    f"exploring backend={chosen.backend} un-calibrated for "
                    f"workload={workload or 'adhoc'} (bucket n~2^{chosen.bucket})"
                )
                notes.append(
                    f"{len(unexplored)} of {len(estimates)} candidates un-calibrated "
                    "for this workload class; probing in name order"
                )
            else:
                chosen = min(estimates, key=lambda e: (e.cost, e.backend))
                ranked = sorted(estimates, key=lambda e: (e.cost, e.backend))
                runner_up = ranked[1] if len(ranked) > 1 else None
                reason = f"lowest {chosen.source} cost {chosen.cost:.3e}s"
                if runner_up is not None:
                    reason += f" (runner-up {runner_up.backend} at {runner_up.cost:.3e}s)"
            chosen_name = chosen.backend

        chosen_estimate = next(
            (e for e in estimates if e.backend == chosen_name),
            self.cost_model.estimate(
                chosen_name, kernel, n, phase="query", load=effective_load, workload=workload
            ),
        )
        parallelism = self._pick_parallelism(chosen_estimate, notes)
        chunk = self._pick_chunk(chosen_estimate, notes)
        fused = self._pick_fused(chosen_name, notes)
        plan = ExecutionPlan(
            backend=chosen_name,
            backend_params=dict(backend_params or {}),
            kernel=kernel,
            parallelism=parallelism,
            max_workers=self.max_workers,
            chunk_size=chunk,
            fused=fused,
            policy=policy,
            reason=reason,
        )
        explanation = PlanExplanation(
            graph_key=graph_key,
            signature=signature,
            policy=policy,
            plan=plan,
            estimates=sorted(estimates, key=lambda e: (e.cost, e.backend)),
            cost_model_version=self.cost_model.version,
            cost_model_signature=self.cost_model.state_signature(),
            notes=notes,
        )
        return plan, explanation

    def _pick_parallelism(self, estimate: CostEstimate, notes: list[str]) -> str:
        if self.parallelism in EXECUTION_MODES:
            return self.parallelism
        # "auto": worker processes only pay off when each query carries real
        # compute and the machine has real cores.
        cores = os.cpu_count() or 1
        if (
            cores > 1
            and estimate.calibrated is not None
            and estimate.calibrated >= PROCESS_THRESHOLD_SECONDS
        ):
            notes.append(
                f"auto parallelism: calibrated {estimate.calibrated:.3e}s/query "
                f">= {PROCESS_THRESHOLD_SECONDS:.0e}s on {cores} cores -> processes"
            )
            return "processes"
        return "threads"

    def _pick_fused(self, backend: str, notes: list[str]) -> bool:
        """Fuse same-fingerprint batches whenever the backend has a batch kernel.

        Fused results are identical to sequential by construction, so the
        only cost of enabling fusion is nothing at batch size 1 (the service
        fuses groups of >= 2 only) — there is no tradeoff to model.
        """
        try:
            capable = supports_fusion(backend_factory(backend))
        except ValueError:
            capable = False
        if capable:
            notes.append(
                f"backend {backend} exposes route_many -> fused batch kernels enabled"
            )
        return capable

    def _pick_chunk(self, estimate: CostEstimate, notes: list[str]) -> int | None:
        if (
            self.chunk_size > 1
            and estimate.calibrated is not None
            and estimate.calibrated < CHUNK_THRESHOLD_SECONDS
        ):
            notes.append(
                f"chunking thread fan-out x{self.chunk_size}: calibrated "
                f"{estimate.calibrated:.3e}s/query < {CHUNK_THRESHOLD_SECONDS:.0e}s"
            )
            return self.chunk_size
        return None

    # -- feedback ------------------------------------------------------------

    def record_query(
        self, plan: ExecutionPlan, n: int, seconds: float, workload: str = ""
    ) -> None:
        """Fold one observed per-query wall-clock back into the cost model."""
        self.cost_model.observe_query(
            plan.backend, plan.kernel, n, seconds, workload=workload
        )

    def record_fused_query(
        self, plan: ExecutionPlan, n: int, seconds: float, workload: str = ""
    ) -> None:
        """Fold one fused-batch per-query wall-clock into the fused curve."""
        self.cost_model.observe_fused_query(
            plan.backend, plan.kernel, n, seconds, workload=workload
        )

    def record_preprocess(self, plan: ExecutionPlan, n: int, seconds: float) -> None:
        """Fold one observed preprocess wall-clock back into the cost model."""
        self.cost_model.observe_preprocess(plan.backend, plan.kernel, n, seconds)

    # -- introspection -------------------------------------------------------

    @property
    def plan_cache_size(self) -> int:
        return len(self._cache)

    def clear_cache(self) -> None:
        self._cache.clear()
