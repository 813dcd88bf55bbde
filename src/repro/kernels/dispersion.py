"""Vectorized dispersion (Lemma 6.2) — numpy twin of :func:`repro.core.dispersion.disperse`.

The query recursion walks the hierarchy one level at a time (the frontier
walk of :mod:`repro.core.router`): every (node, query) entry of a level that
holds tokens runs its Task 3 real dispersion through :func:`replay_shufflers`,
which replays shuffler iteration ``k`` for *all* entries at once as a single
block-diagonal matching over the disjoint union of their parts.  Sibling
clusters run on disjoint subgraphs, so stacking them changes nothing an entry
can observe: each entry keeps its own queues, statistics, transfer order, and
rounds, identical to a solo run.

* Every shuffler has a static padded table (:func:`shuffler_table`): per
  matching and part, the partners' ``value / 2`` in sorted-pair order (the
  accumulation order) and in target order, the partner parts, the portal
  pair counts, and the matching quality.  Missing partners are zero halves
  with a sentinel target, so they never move a token.
* Entries sit side by side on one part axis (offset per entry) and one mark
  axis (each entry's marks in ``repr`` order, zero-padded).  Entries whose
  shuffler is exhausted replay all-zero halves; all-zero entries are inert.
* :func:`plan_transfers` is the one planner: ``(value / 2) * C[origin]`` for
  every part, partner, and mark, the reference's largest-remainder rounding
  per ``(origin, mark)`` cell with the ``(-fraction, target)`` tie-break, and
  emission in ``(origin, mark, target)`` order.  Partner amounts are summed
  sequentially, so the budgets match the reference's ``builtins.sum`` bit for
  bit.
* Transfers replay on the entries' own queues in that order; per-iteration
  round accounting (Lemma 6.7) is vectorized over entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cost import CostLedger
    from repro.core.dispersion import DispersionJob, DispersionState, DispersionStats
    from repro.cutmatching.shuffler import Shuffler

__all__ = [
    "ShufflerTable",
    "shuffler_table",
    "plan_transfers",
    "replay_shufflers",
    "disperse_numpy",
]


class ShufflerTable(NamedTuple):
    """Static per-matching partner tables of one shuffler, padded to ``(K, t, G)``.

    ``K`` matchings, ``t`` parts, at most ``G`` partners per part.  Padding
    partners carry zero halves, target ``t`` (a sentinel), and one portal.
    """

    halves_sum: np.ndarray  # float (K, t, G): value / 2, sorted-pair order
    halves: np.ndarray  # float (K, t, G): value / 2, ascending-target order
    targets: np.ndarray  # int64 (K, t, G): partner parts, ascending
    portals: np.ndarray  # int64 (K, t, G): max(1, matched portal pairs)
    quality: np.ndarray  # int64 (K,): Q of each matching embedding


def shuffler_table(shuffler: "Shuffler") -> ShufflerTable:
    """The shuffler's padded partner tables, built once and cached on the shuffler.

    Lazily attached (not a dataclass field), so artifacts pickled without
    the table rebuild it on first use; the shm plane pre-warms it.
    """
    cached = getattr(shuffler, "_padded_table", None)
    if cached is not None:
        return cached
    t = shuffler.part_count
    part_of = shuffler.part_of
    rows: list[list[list[tuple[int, float]]]] = []
    for matching in shuffler.matchings:
        partners: list[list[tuple[int, float]]] = [[] for _ in range(t)]
        for (u, v), value in sorted(matching.fractional.items()):
            partners[u].append((v, value))
            partners[v].append((u, value))
        rows.append(partners)
    width = max((len(p) for partners in rows for p in partners), default=0)
    shape = (len(rows), t, max(width, 1))
    halves_sum = np.zeros(shape)
    halves = np.zeros(shape)
    targets = np.full(shape, t, dtype=np.int64)
    portals = np.ones(shape, dtype=np.int64)
    for k, (matching, partners) in enumerate(zip(shuffler.matchings, rows)):
        pair_counts: dict[tuple, int] = {}
        for a, b in matching.matching_edges:
            pa, pb = part_of.get(a), part_of.get(b)
            pair_counts[(pa, pb)] = pair_counts.get((pa, pb), 0) + 1
            if pa != pb:
                pair_counts[(pb, pa)] = pair_counts.get((pb, pa), 0) + 1
        for origin, row in enumerate(partners):
            for g, (_, value) in enumerate(row):
                halves_sum[k, origin, g] = value * 0.5
            for g, (target, value) in enumerate(sorted(row, key=lambda item: item[0])):
                halves[k, origin, g] = value * 0.5
                targets[k, origin, g] = target
                portals[k, origin, g] = max(1, pair_counts.get((origin, target), 0))
    quality = np.array([m.quality for m in shuffler.matchings], dtype=np.int64)
    cached = ShufflerTable(halves_sum, halves, targets, portals, quality)
    shuffler._padded_table = cached
    return cached


def plan_transfers(
    counts: np.ndarray, halves_sum: np.ndarray, halves: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One iteration's allocation for every part, partner, and mark at once.

    Args:
        counts: int64 ``(P, M)`` — tokens per (part, mark column) snapshot.
        halves_sum: float ``(P, G)`` — partner halves in accumulation order.
        halves: float ``(P, G)`` — the same halves in ascending-target order.

    Returns:
        ``(allocation, (origin, mark, partner))``: the int64 ``(P, G, M)``
        allocation in target order, and the index arrays of its nonzero
        cells in emission order — by origin, then mark column, then target.
    """
    amounts = halves[:, :, None] * counts[:, None, :]
    # Truncation is floor here: every amount is non-negative.
    allocation = amounts.astype(np.int64)
    # Sequential accumulation (add.accumulate is a left fold) matches the
    # reference's builtins.sum over sorted pairs; zero halves add +0.0.
    totals = np.add.accumulate(halves_sum[:, :, None] * counts[:, None, :], axis=1)[:, -1]
    remaining = np.minimum(counts, totals.astype(np.int64)) - allocation.sum(axis=1)
    rows, columns = np.nonzero(remaining > 0)
    if rows.size:
        # Largest remainder, tie-broken by (-fraction, target): a stable sort
        # of -fraction over target-ordered partners.  Only partners with a
        # positive amount compete, exactly as in the reference's `desired`;
        # the others sort last and are never bumped.
        cell_amounts = amounts[rows, :, columns]
        eligible = cell_amounts > 0
        key = np.where(eligible, allocation[rows, :, columns] - cell_amounts, 1.0)
        order = np.argsort(key, axis=1, kind="stable")
        limit = np.minimum(remaining[rows, columns], eligible.sum(axis=1))
        cell, rank = np.nonzero(np.arange(order.shape[1]) < limit[:, None])
        allocation[rows[cell], order[cell, rank], columns[cell]] += 1
    origin, mark, partner = np.nonzero(allocation.transpose(0, 2, 1))
    return allocation, (origin, mark, partner)


def replay_shufflers(jobs: Sequence["DispersionJob"]) -> list["DispersionStats"]:
    """Replay every job's shuffler on its state, one planning pass per iteration.

    Each job's token movements, statistics, and rounds are identical to a solo
    reference :func:`~repro.core.dispersion.disperse` run; jobs must have at
    least two parts and a non-empty shuffler (the trivial cases never reach a
    kernel).
    """
    from repro.core.cost import sorting_network_depth
    from repro.core.dispersion import DispersionStats

    if not jobs:
        return []
    tables = [shuffler_table(job.shuffler) for job in jobs]
    sizes = [job.state.part_count for job in jobs]
    lengths = np.array([table.quality.size for table in tables], dtype=np.int64)
    offsets = np.zeros(len(jobs), dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    parts = sum(sizes)
    steps = int(lengths.max())
    width = max(table.halves.shape[2] for table in tables)
    job_marks = [job.state.marks() for job in jobs]
    columns = max(1, max(len(marks) for marks in job_marks))

    # Block-diagonal stack: entry e owns parts offsets[e] .. offsets[e] + t_e.
    halves_sum = np.zeros((steps, parts, width))
    halves = np.zeros((steps, parts, width))
    targets = np.full((steps, parts, width), parts, dtype=np.int64)
    portals = np.ones((steps, parts, width), dtype=np.int64)
    quality = np.zeros((steps, len(jobs)), dtype=np.int64)
    counts = np.zeros((parts, columns), dtype=np.int64)
    cells: list[list | None] = [None] * (parts * columns)
    part_queues: list[dict] = []
    part_marks: list[list] = []
    for e, (job, table, marks) in enumerate(zip(jobs, tables, job_marks)):
        low, t = int(offsets[e]), sizes[e]
        k, _, g = table.halves.shape
        block = (slice(0, k), slice(low, low + t), slice(0, g))
        halves_sum[block] = table.halves_sum
        halves[block] = table.halves
        targets[block] = np.where(table.targets < t, table.targets + low, parts)
        portals[block] = table.portals
        quality[:k, e] = table.quality
        column_of = {mark: column for column, mark in enumerate(marks)}
        for part in range(t):
            queues = job.state.queues[part]
            part_queues.append(queues)
            part_marks.append(marks)
            for mark, items in queues.items():
                column = column_of[mark]
                cells[(low + part) * columns + column] = items
                counts[low + part, column] = len(items)

    # Per iteration, each part's load after the moves and its largest
    # per-portal send; the round formulas run over all iterations at the end.
    part_loads = np.zeros((steps, parts), dtype=np.int64)
    portal_sends = np.zeros((steps, parts))
    for step in range(steps):
        allocation, (origin, mark, partner) = plan_transfers(
            counts, halves_sum[step], halves[step]
        )
        target = targets[step][origin, partner]
        amount = allocation[origin, partner, mark]
        for source_part, column, target_part, moved in zip(
            origin.tolist(), mark.tolist(), target.tolist(), amount.tolist()
        ):
            source = cells[source_part * columns + column]
            index = target_part * columns + column
            sink = cells[index]
            if sink is None:
                sink = cells[index] = part_queues[target_part][part_marks[target_part][column]] = []
            sink.extend(source[:moved])
            del source[:moved]
        counts -= allocation.sum(axis=1)
        np.add.at(counts, (target, mark), amount)
        part_loads[step] = counts.sum(axis=1)
        portal_sends[step] = np.ceil(allocation.sum(axis=2) / portals[step]).max(axis=1)

    # -- round accounting (Lemma 6.7), per entry and iteration ----------------
    active = np.arange(steps)[:, None] < lengths[None, :]
    largest = [max(job.part_sizes) if job.part_sizes else 1 for job in jobs]
    depth = np.array([sorting_network_depth(size) for size in largest], dtype=np.int64)
    flatten = np.array([max(1, job.flatten_quality) for job in jobs], dtype=np.int64)
    max_load = np.maximum.reduceat(part_loads, offsets, axis=1)
    per_part_load = np.maximum(1, np.ceil(max_load / np.maximum(1, largest)))
    portal_sort = np.maximum(1, 2 * per_part_load.astype(np.int64) * depth) * flatten * flatten
    tokens_per_portal = np.maximum(1, np.maximum.reduceat(portal_sends, offsets, axis=1))
    send_quality = np.maximum(1, quality * flatten)
    send = tokens_per_portal.astype(np.int64) * send_quality * send_quality
    rounds = np.where(active, portal_sort + send, 0).sum(axis=0)
    max_load = np.where(active, max_load, 0).max(axis=0)

    # -- Definition 6.1 window check, per entry over its own marks ------------
    stats_list = []
    for e, (job, marks) in enumerate(zip(jobs, job_marks)):
        stats = DispersionStats(
            iterations=int(lengths[e]), max_part_load=int(max_load[e]), rounds=int(rounds[e])
        )
        t = sizes[e]
        block = counts[offsets[e] : offsets[e] + t, : len(marks)].T.tolist()
        total_vertices = sum(job.part_sizes) if job.part_sizes else t
        slack = stats.iterations * 1.0
        for mark, per_part in zip(marks, block):
            total = sum(per_part)
            stats.mark_totals[mark] = total
            lower = 0.9 * total / t - 0.1 * total_vertices / (t * t)
            upper = 1.1 * total / t + 0.1 * total_vertices / (t * t)
            for part, count in enumerate(per_part):
                stats.final_counts[(part, mark)] = count
                stats.total_cells += 1
                if lower - slack <= count <= upper + slack:
                    stats.within_window += 1
        stats_list.append(stats)
    return stats_list


def disperse_numpy(
    state: "DispersionState",
    shuffler: "Shuffler",
    part_sizes,
    load: int,
    flatten_quality: int,
    ledger: "CostLedger | None",
    phase: str,
) -> "DispersionStats":
    """Numpy implementation of ``disperse`` (identical movements and rounds)."""
    from repro.core.dispersion import DispersionJob

    (stats,) = replay_shufflers(
        [DispersionJob(state, shuffler, part_sizes, load, flatten_quality)]
    )
    if ledger is not None:
        ledger.charge(phase, stats.rounds)
    return stats
