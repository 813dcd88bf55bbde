"""Merging two dispersed configurations (Section 6.3) and the Task 3 driver.

Task 3 (Definition 4.3) is solved with a meet-in-the-middle argument:

1. *real* tokens (each carrying a part mark ``j_z``) are routed into a
   dispersed configuration through the node's shuffler (Section 6.1);
2. *dummy* tokens — ``2L`` per vertex of every part ``X*_j``, all carrying part
   mark ``j`` — are routed into a dispersed configuration the same way;
3. inside every part, real and dummy tokens with the same part mark are paired
   up (Lemma 6.4 guarantees the dummies outnumber the reals in every cell) and
   each dummy token walks its paired real token back to the dummy's origin
   vertex, which lies in the marked part.

The implementation mirrors this exactly.  Pairing inside a part is the
expander-sorting step of Section 6.3 and is charged accordingly; in the rare
event that rounding noise leaves a cell with more real tokens than dummies at
experiment scale, the leftovers are assigned round-robin over the marked
part's vertices and the event is counted (tests check it is the exception).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, NamedTuple, Sequence

from repro.core.cost import CostLedger, send_round_cost, sort_round_cost
from repro.core.dispersion import (
    DispersionJob,
    DispersionState,
    DispersionStats,
    disperse,
    disperse_many,
)
from repro.core.tokens import Token
from repro.hierarchy.best import best_counts_per_part
from repro.hierarchy.node import HierarchyNode
from repro.kernels import use_numpy

__all__ = ["NodeStatics", "Task3Result", "node_statics", "solve_task3", "solve_task3_many"]


@dataclass
class Task3Result:
    """Outcome of one Task 3 invocation on a hierarchy node.

    Attributes:
        assignments: token -> vertex of the marked part the token now occupies.
        real_stats: dispersion statistics of the real tokens.
        dummy_stats: dispersion statistics of the dummy tokens.
        fallback_assignments: number of tokens placed by the round-robin
            fallback instead of a dummy pairing.
        max_vertex_load: maximum number of real tokens assigned to one vertex.
        rounds: CONGEST rounds charged (also added to the ledger).
    """

    assignments: dict[int, Hashable] = field(default_factory=dict)
    real_stats: DispersionStats = field(default_factory=DispersionStats)
    dummy_stats: DispersionStats = field(default_factory=DispersionStats)
    fallback_assignments: int = 0
    max_vertex_load: int = 0
    rounds: int = 0


class NodeStatics(NamedTuple):
    """What a query reads of an internal node: pure functions of the artifact.

    Attributes:
        parts: each part's vertices, sorted.
        part_sizes: ``|X*_i|`` per part.
        part_of: vertex -> part index.
        flatten_quality: ``Q(f0_HX)``.
        shuffler_quality: ``Q(M_X)`` (0 without a shuffler).
        matching_quality: the bad-to-good walk's path quality (Property 3.1(3)).
        best_counts: best vertices per part (marker rewriting, Section 4).
    """

    parts: list[list]
    part_sizes: list[int]
    part_of: dict
    flatten_quality: int
    shuffler_quality: int
    matching_quality: int
    best_counts: list[int]


def node_statics(node: HierarchyNode, numpy: bool) -> NodeStatics:
    """The node's query-time statics: cached under numpy, recomputed under reference."""
    if numpy:
        cached = getattr(node, "_statics_cache", None)
        if cached is not None:
            return cached
    parts = [sorted(part.vertices) for part in node.parts]
    flatten_quality = node.flatten_quality()
    statics = NodeStatics(
        parts=parts,
        part_sizes=[len(vertices) for vertices in parts],
        part_of=node.part_of_vertex(),
        flatten_quality=flatten_quality,
        shuffler_quality=node.shuffler.quality if node.shuffler is not None else 0,
        matching_quality=max(1, node.part_matching_embedding.quality) * max(1, flatten_quality),
        best_counts=best_counts_per_part(node),
    )
    if numpy:
        node._statics_cache = statics
    return statics


def _dispersed_dummies(
    node: HierarchyNode,
    statics: NodeStatics,
    dummies_per_vertex: int,
    numpy: bool,
) -> tuple[DispersionState, DispersionStats]:
    """The fully dispersed dummy configuration for ``dummies_per_vertex``.

    Dummy dispersion is a pure function of the node's partition, its shuffler,
    and ``dummies_per_vertex`` — the same replay happens on every query — so
    the fast path computes it once per node and reuses the final state
    (consumed read-only by the pairing step) and its statistics.  The caller
    charges the recorded rounds to its own ledger, preserving the reference
    accounting exactly.
    """
    cache = None
    if numpy:
        cache = getattr(node, "_dummy_dispersion_cache", None)
        if cache is None:
            cache = node._dummy_dispersion_cache = {}
        entry = cache.get(dummies_per_vertex)
        if entry is not None:
            return entry
    dummy_state = DispersionState(len(statics.parts))
    for part_index, vertices in enumerate(statics.parts):
        for vertex in vertices:
            for _ in range(dummies_per_vertex):
                dummy_state.add(part_index, part_index, vertex)
    stats = disperse(
        dummy_state,
        node.shuffler,
        statics.part_sizes,
        dummies_per_vertex,
        statics.flatten_quality,
        ledger=None,
        numpy=numpy,
    )
    if cache is not None:
        cache[dummies_per_vertex] = (dummy_state, stats)
    return dummy_state, stats


def solve_task3(
    node: HierarchyNode,
    tokens: Sequence[Token],
    load: int,
    ledger: CostLedger,
    dummies_per_vertex: int | None = None,
    numpy: bool | None = None,
) -> Task3Result:
    """Deliver every token to a vertex of its marked part (Definition 4.3).

    Args:
        node: the internal good node whose shuffler is used.
        tokens: real tokens, each with ``part_mark`` set and currently located
            on a vertex of ``node``.
        load: the load parameter ``L`` of the Task 3 instance.
        ledger: cost ledger charged with the rounds.
        dummies_per_vertex: how many dummy tokens each vertex generates
            (paper: ``2L``); configurable for the ablation experiments.
        numpy: the kernel, resolved by the caller; ``None`` reads it here.

    Returns:
        The per-token vertex assignments plus dispersion statistics.
    """
    return solve_task3_many([(node, tokens, load, ledger)], dummies_per_vertex, numpy)[0]


def solve_task3_many(
    instances: Sequence[tuple[HierarchyNode, Sequence[Token], int, CostLedger]],
    dummies_per_vertex: int | None = None,
    numpy: bool | None = None,
) -> list[Task3Result]:
    """Solve many Task 3 instances, their real dispersions in one batched call.

    ``instances`` holds ``(node, tokens, load, ledger)`` per instance; nodes
    may differ (sibling clusters of a frontier level) or repeat (several
    queries on one node).  The real tokens of every instance disperse through
    one :func:`~repro.core.dispersion.disperse_many` call, dummy
    configurations come from the per-node cache, and each instance's pairing,
    charges, and result are identical to a solo run.
    """
    if numpy is None:
        numpy = use_numpy()
    prepared = []
    jobs: list[DispersionJob] = []
    for node, tokens, load, ledger in instances:
        if node.shuffler is None:
            raise RuntimeError("node has no shuffler; run preprocessing before routing queries")
        statics = node_statics(node, numpy)
        t = len(statics.parts)
        real_state = DispersionState(t)
        if t > 1:
            for token in tokens:
                origin_part = statics.part_of.get(token.current_vertex)
                if origin_part is None:
                    raise ValueError(
                        f"token {token.token_id} is not located on a vertex of this node"
                    )
                if token.part_mark is None:
                    raise ValueError(f"token {token.token_id} has no part mark")
                real_state.add(origin_part, token.part_mark, token)
            jobs.append(
                DispersionJob(
                    real_state, node.shuffler, statics.part_sizes, load, statics.flatten_quality
                )
            )
        prepared.append((statics, real_state))
    real_stats = iter(disperse_many(jobs, numpy=numpy))

    results = []
    for (node, tokens, load, ledger), (statics, real_state) in zip(instances, prepared):
        result = Task3Result()
        results.append(result)
        t = len(statics.parts)
        if t == 1:
            # Single part: every token already sits in its marked part.
            for token in tokens:
                result.assignments[token.token_id] = token.current_vertex
        if t <= 1:
            continue
        with ledger.phase("task3"):
            result.real_stats = next(real_stats)
            if len(node.shuffler) > 0:
                ledger.charge("real-disperse", result.real_stats.rounds)
            per_vertex = 2 * max(1, load) if dummies_per_vertex is None else dummies_per_vertex
            _finish_task3(node, statics, load, ledger, per_vertex, real_state, result, numpy)
    return results


def _finish_task3(
    node: HierarchyNode,
    statics: NodeStatics,
    load: int,
    ledger: CostLedger,
    dummies_per_vertex: int,
    real_state: DispersionState,
    result: Task3Result,
    numpy: bool,
) -> None:
    """Steps 2-3 of Task 3 (dummy dispersion + pairing), after the reals moved.

    The caller holds the ``"task3"`` ledger phase open and has already set
    (and charged) ``result.real_stats``.
    """
    parts, part_sizes = statics.parts, statics.part_sizes
    flatten_quality = statics.flatten_quality
    # -- 2. disperse the dummy tokens -----------------------------------
    dummy_state, result.dummy_stats = _dispersed_dummies(
        node, statics, dummies_per_vertex, numpy
    )
    if len(node.shuffler) > 0:
        # disperse() would have charged this phase itself had it been
        # handed the ledger; charging here keeps the replay cacheable.
        ledger.charge("dummy-disperse", result.dummy_stats.rounds)

    # -- 3. pair real and dummy tokens inside every part ----------------
    per_vertex_load: dict[Hashable, int] = {}
    merge_rounds = 0
    for part_index in range(len(parts)):
        real_queues = real_state.queues[part_index]
        dummy_queues = dummy_state.queues[part_index]
        part_load = real_state.part_load(part_index) + dummy_state.part_load(part_index)
        merge_rounds = max(
            merge_rounds,
            sort_round_cost(
                part_sizes[part_index],
                max(1, math.ceil(part_load / max(1, part_sizes[part_index]))),
                flatten_quality,
            ),
        )
        for mark in sorted(real_queues, key=repr):
            dummies = dummy_queues.get(mark, ())
            for position, token in enumerate(real_queues[mark]):
                if position < len(dummies):
                    destination_vertex = dummies[position]
                else:
                    # Rounding left this cell short of dummies; place the
                    # token round-robin over the marked part directly.
                    target_part = parts[mark]
                    destination_vertex = target_part[
                        result.fallback_assignments % len(target_part)
                    ]
                    result.fallback_assignments += 1
                result.assignments[token.token_id] = destination_vertex
                per_vertex_load[destination_vertex] = (
                    per_vertex_load.get(destination_vertex, 0) + 1
                )
    # Walking each paired token back along the dummy's dispersion route
    # costs one more pass over the shuffler paths.
    walk_back = send_round_cost(
        max(1, 2 * load), statics.shuffler_quality * max(1, flatten_quality)
    )
    merge_rounds += walk_back
    ledger.charge("merge", merge_rounds)
    result.rounds = result.real_stats.rounds + result.dummy_stats.rounds + merge_rounds
    result.max_vertex_load = max(per_vertex_load.values(), default=0)
