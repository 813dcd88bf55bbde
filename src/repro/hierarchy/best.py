"""Best-vertex delegation utilities (Definitions 3.6, 3.7 and Appendix D).

The routing reduction (Task 1 -> Task 2) delegates every destination vertex
``v`` to a *best* vertex ``h(v)`` — a vertex covered by some good leaf of the
hierarchy — so the recursive machinery only ever has to deliver tokens to best
vertices, identified by their rank in the sorted order of ``Vbest``.

This module computes:

* the sorted list of best vertices and the rank lookup both ways;
* the delegation map ``h(v) = rank-(ID(v) mod |Vbest|)`` best vertex, whose
  pre-image sizes are bounded by ``ceil(n / |Vbest|) <= rho_best`` — this is
  the load-balance property Appendix D relies on;
* per-node prefix counts of best vertices per part, which is what lets a
  query rewrite a destination marker ``i_z`` into ``(j_z, i'_z)`` locally
  (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.hierarchy.node import HierarchicalDecomposition, HierarchyNode

__all__ = ["BestVertexIndex", "build_best_index"]


@dataclass
class BestVertexIndex:
    """Delegation structure over the best vertices of a decomposition.

    Attributes:
        best_vertices: ``Vbest`` sorted by ID.
        rank_of: vertex -> its rank in ``Vbest`` (only best vertices appear).
        delegate_of: every graph vertex -> the best vertex responsible for it.
        delegated_to: best vertex -> sorted list of vertices it represents.
    """

    best_vertices: list
    rank_of: dict[Hashable, int] = field(default_factory=dict)
    delegate_of: dict[Hashable, Hashable] = field(default_factory=dict)
    delegated_to: dict[Hashable, list] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.best_vertices)

    def best_by_rank(self, rank: int) -> Hashable:
        """The ``rank``-th smallest best vertex (0-based)."""
        return self.best_vertices[rank]

    def max_delegation_load(self) -> int:
        """Largest number of vertices delegated to a single best vertex."""
        if not self.delegated_to:
            return 0
        return max(len(group) for group in self.delegated_to.values())


def build_best_index(decomposition: HierarchicalDecomposition) -> BestVertexIndex:
    """Compute the best-vertex delegation for a decomposition (Appendix D's ``h``)."""
    best = decomposition.best_vertices()
    if not best:
        raise ValueError("decomposition has no best vertices; cannot delegate destinations")
    rank_of = {vertex: rank for rank, vertex in enumerate(best)}
    all_vertices = sorted(decomposition.graph.nodes())
    delegate_of: dict[Hashable, Hashable] = {}
    delegated_to: dict[Hashable, list] = {vertex: [] for vertex in best}
    for position, vertex in enumerate(all_vertices):
        delegate = best[position % len(best)]
        delegate_of[vertex] = delegate
        delegated_to[delegate].append(vertex)
    return BestVertexIndex(
        best_vertices=best,
        rank_of=rank_of,
        delegate_of=delegate_of,
        delegated_to=delegated_to,
    )


def best_counts_per_part(node: HierarchyNode) -> list[int]:
    """Number of best vertices inside each part of an internal node.

    Together with Property 3.1(1) (parts are ID-contiguous and best vertices
    inherit that order) this is exactly the information a vertex needs to
    rewrite a destination marker ``i_z`` into ``(j_z, i'_z)`` at query time.
    The query recursion reads it through the node statics of
    :mod:`repro.core.merge`, which cache it under the numpy kernel.
    """
    return [
        len(part.child.best_vertices()) if part.child is not None else 0 for part in node.parts
    ]


def locate_best_rank(
    node: HierarchyNode, marker: int, counts: list[int] | None = None
) -> tuple[int, int]:
    """Rewrite a destination marker at an internal node (Section 4).

    Returns ``(j_z, i'_z)``: the index of the part containing the ``marker``-th
    best vertex of ``node`` and the marker relative to that part.  ``counts``
    is :func:`best_counts_per_part` of ``node`` when the caller has it.
    """
    if counts is None:
        counts = best_counts_per_part(node)
    remaining = marker
    for index, count in enumerate(counts):
        if remaining < count:
            return index, remaining
        remaining -= count
    raise IndexError(f"marker {marker} out of range for node with {sum(counts)} best vertices")
