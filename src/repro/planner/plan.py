"""The :class:`ExecutionPlan`: one object owning every execution knob.

Before the planner existed the repo had four independent execution knobs —
routing backend (PR 2), shard placement (PR 3), compute kernel and
thread/process parallelism (PR 4) — each chosen ad hoc by whoever called the
serving layer.  An :class:`ExecutionPlan` collapses them into one immutable,
hashable-by-content decision record that the service, the cluster tier, and
the benchmarks all consume:

* **semantic fields** — ``backend`` + ``backend_params`` determine *what* is
  computed (delivered tokens, rounds, load); they feed the artifact-cache
  fingerprint and :attr:`semantic_id`, which is what
  :meth:`~repro.service.BatchReport.signature` records (so signatures stay
  byte-identical across thread/process execution of the same plan);
* **physical fields** — ``kernel``, ``parallelism``, ``max_workers``,
  ``chunk_size``, ``fused`` determine *how fast* it is computed; results are
  identical by construction (the kernels are equivalence-tested), only
  wall-clock changes.  How an artifact reaches worker processes is not a
  plan field: it always travels as a spill file (:mod:`repro.service.pool`);
* **placement** — ``shard_hint`` annotates which shard the cluster
  coordinator assigned; it is excluded from :attr:`plan_id` so the same
  decision keeps one identity wherever it lands.

Plans are produced by :class:`~repro.planner.QueryPlanner` (policies
``fixed`` / ``cost`` / ``adaptive``) or synthesized from legacy kwargs by the
compatibility shims in :class:`~repro.service.RoutingService`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.backends.base import canonical_backend_params

__all__ = ["EXECUTION_MODES", "ExecutionPlan"]

#: The execution modes a plan may select for batch fan-out.
EXECUTION_MODES = ("threads", "processes")


@dataclass(frozen=True)
class ExecutionPlan:
    """One unified execution decision for a routing query (or batch slice).

    Attributes:
        backend: registry name of the routing backend to execute through.
        backend_params: extra backend factory parameters (stored as given;
            canonicalized for identity hashing).
        kernel: compute kernel recorded for this plan (``reference`` or
            ``numpy``).  Kernel selection is process-global
            (:mod:`repro.kernels`); the plan records the kernel in effect at
            planning time and worker-process tasks are pinned to it.
        parallelism: batch fan-out mode, ``"threads"`` or ``"processes"``.
        max_workers: intended pool width for the fan-out (``None`` =
            executor default).  Consumed where services are *built* — the
            cluster sizes each shard service from its ``default_plan`` —
            and advisory on per-query plans: an existing service keeps one
            long-lived pool per mode sized by its own ``max_workers``.
        chunk_size: how many same-fingerprint queries one thread-pool task
            routes (``None``/1 = one task per query; larger values amortize
            task overhead for sub-millisecond queries).
        fused: route same-fingerprint query groups through the backend's
            fused batch kernel (``route_many``) when it has one.  Physical:
            fused results are identical to sequential by construction
            (``BatchReport.signature()`` parity), only wall-clock changes.
        shard_hint: the cluster shard the coordinator placed this plan on
            (``None`` outside the cluster tier; excluded from identity).
        policy: which planner policy produced the plan (``fixed`` plans come
            from explicit kwargs, ``cost``/``adaptive`` from the cost model).
        reason: one human-readable sentence on why this plan was chosen
            (deterministic given the same planner state; excluded from
            identity).
    """

    backend: str
    backend_params: Mapping[str, Any] = field(default_factory=dict)
    kernel: str = "numpy"
    parallelism: str = "threads"
    max_workers: int | None = None
    chunk_size: int | None = None
    fused: bool = False
    shard_hint: str | None = None
    policy: str = "fixed"
    reason: str = ""

    def __post_init__(self) -> None:
        if self.parallelism not in EXECUTION_MODES:
            raise ValueError(
                f"unknown parallelism {self.parallelism!r}; "
                f"expected one of {', '.join(EXECUTION_MODES)}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1 (or None)")

    # -- identities ----------------------------------------------------------

    @property
    def canonical_params(self) -> tuple[tuple[str, str], ...]:
        """The backend parameters as a deterministic (key, repr) tuple."""
        return canonical_backend_params(self.backend_params)

    @property
    def semantic_id(self) -> str:
        """Hash of the *result-affecting* fields only (backend + params).

        Two plans with the same semantic id produce byte-identical routing
        outcomes (deliveries, rounds, loads) regardless of kernel, pool mode,
        or chunking — this is the identity batch signatures record.
        """
        payload = json.dumps(
            {"backend": self.backend, "params": self.canonical_params},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @property
    def plan_id(self) -> str:
        """Hash of the full decision (semantic + physical, no placement)."""
        payload = json.dumps(
            {
                "backend": self.backend,
                "params": self.canonical_params,
                "kernel": self.kernel,
                "parallelism": self.parallelism,
                "max_workers": self.max_workers,
                "chunk_size": self.chunk_size,
                "fused": self.fused,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # -- derived views -------------------------------------------------------

    @property
    def effective_chunk_size(self) -> int:
        return self.chunk_size or 1

    def with_shard(self, shard_id: str) -> "ExecutionPlan":
        """The same decision annotated with its placement (identity unchanged)."""
        return replace(self, shard_hint=shard_id)

    def to_dict(self) -> dict[str, object]:
        """The plan as a JSON-friendly dict (canonical params, both ids)."""
        return {
            "backend": self.backend,
            "backend_params": [list(pair) for pair in self.canonical_params],
            "kernel": self.kernel,
            "parallelism": self.parallelism,
            "max_workers": self.max_workers,
            "chunk_size": self.chunk_size,
            "fused": self.fused,
            "shard_hint": self.shard_hint,
            "policy": self.policy,
            "reason": self.reason,
            "plan_id": self.plan_id,
            "semantic_id": self.semantic_id,
        }

    def canonical_json(self) -> str:
        """Byte-stable serialisation (what the determinism tests compare)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def describe(self) -> str:
        """One-line rendering for reports and EXPLAIN output."""
        bits = [f"backend={self.backend}"]
        if self.canonical_params:
            bits.append(
                "params={" + ",".join(f"{k}={v}" for k, v in self.canonical_params) + "}"
            )
        bits.append(f"kernel={self.kernel}")
        bits.append(f"parallelism={self.parallelism}")
        if self.max_workers is not None:
            bits.append(f"max_workers={self.max_workers}")
        if self.effective_chunk_size != 1:
            bits.append(f"chunk={self.effective_chunk_size}")
        if self.fused:
            bits.append("fused")
        if self.shard_hint is not None:
            bits.append(f"shard={self.shard_hint}")
        bits.append(f"policy={self.policy}")
        return " ".join(bits)
