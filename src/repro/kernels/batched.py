"""Fused batch kernels — one stacked call for many independent instances.

The serving layer answers many queries per batch and the query recursion
visits many sibling clusters per level; paying one full kernel invocation per
instance would pay the fixed per-call cost (array setup, planner calls, the
scheduler's round loop) once per instance.  This module gives those kernels
an *entry axis*:

* :func:`disperse_many_numpy` replays shuffler dispersions for every entry of
  a frontier level — queries × sibling clusters, each with its own shuffler,
  part count, marks, and shuffler length — through the one padded planner of
  :mod:`repro.kernels.dispersion`, one planning pass per iteration over the
  block-diagonal union of the entries' parts;
* :func:`schedule_token_batches_numpy` resolves edge conflicts for ``B``
  independent scheduler instances in a single pending loop — per-batch edge
  codes are offset into disjoint ranges, so the one ``np.unique`` winner
  scan per round settles every batch's contested edges simultaneously.

Every entry's results are identical to a solo run; ``tests/test_fused.py``
asserts the equivalences with hypothesis over random expanders, heterogeneous
dispersion jobs, and the workload catalog.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congest.scheduler import ScheduledToken, ScheduleResult
    from repro.core.dispersion import DispersionJob, DispersionStats

__all__ = ["disperse_many_numpy", "schedule_token_batches_numpy"]


def disperse_many_numpy(jobs: Sequence["DispersionJob"]) -> list["DispersionStats"]:
    """Replay every job's shuffler with one planning pass per iteration.

    The entry axis spans queries × sibling clusters: jobs may come from
    different nodes, with different part counts, marks, and shuffler lengths.
    Token movements, statistics, and round counts per job are identical to a
    solo :func:`~repro.kernels.dispersion.disperse_numpy` run.
    """
    from repro.kernels.dispersion import replay_shufflers

    return replay_shufflers(jobs)


def _interned_paths(tokens: Sequence["ScheduledToken"]):
    """Flat vertex array + per-token lengths for one scheduler instance.

    Mirrors the interning of :func:`repro.kernels.scheduler.schedule_tokens_numpy`
    (wholesale integer conversion with a dict-intern fallback).
    """
    path_lengths = np.fromiter(
        (len(token.path) for token in tokens), dtype=np.int64, count=len(tokens)
    )
    flat_list = [vertex for token in tokens for vertex in token.path]
    try:
        flat = np.asarray(flat_list)
        if flat.ndim != 1 or not np.issubdtype(flat.dtype, np.integer):
            raise TypeError("non-integer vertex ids")
        flat = flat.astype(np.int64)
        if flat.size and int(flat.min()) < 0:
            raise ValueError("negative vertex ids; intern instead")
        vertex_count = int(flat.max()) + 1 if flat.size else 1
        if vertex_count >= 2**31:
            raise ValueError("vertex id range too wide for direct edge codes")
    except (TypeError, ValueError, OverflowError):
        vertex_index: dict = {}
        flat = np.empty(len(flat_list), dtype=np.int64)
        for position, vertex in enumerate(flat_list):
            index = vertex_index.get(vertex)
            if index is None:
                index = vertex_index[vertex] = len(vertex_index)
            flat[position] = index
        vertex_count = len(vertex_index)
    return flat, path_lengths, max(vertex_count, 1)


def schedule_token_batches_numpy(
    batches: Sequence[Sequence["ScheduledToken"]],
) -> list["ScheduleResult"]:
    """Schedule ``B`` independent instances through one conflict-resolution loop.

    Per-batch edge codes are offset into disjoint integer ranges, so batches
    can never contend for the same code and the single first-occurrence scan
    per round resolves every batch's conflicts exactly as a solo run would.
    Rounds, congestion, dilation, and arrival rounds per batch are identical
    to :func:`~repro.kernels.scheduler.schedule_tokens_numpy` on that batch.
    """
    from repro.congest.scheduler import ScheduleResult

    results: list[ScheduleResult | None] = [None] * len(batches)
    code_parts: list[np.ndarray] = []
    length_parts: list[np.ndarray] = []
    token_meta: list[tuple[int, int]] = []  # flat token index -> (batch, token_id)
    congestions: list[int] = []
    dilations: list[int] = []
    round_limits: list[int] = []
    code_base = 0
    for batch_index, tokens in enumerate(batches):
        if not tokens:
            results[batch_index] = ScheduleResult(rounds=0, congestion=0, dilation=0)
            congestions.append(0)
            dilations.append(0)
            round_limits.append(1)
            continue
        flat, path_lengths, vertex_count = _interned_paths(tokens)
        lengths = path_lengths - 1
        dilation = int(lengths.max(initial=0))
        offsets = np.zeros(len(tokens) + 1, dtype=np.int64)
        np.cumsum(path_lengths, out=offsets[1:])
        if flat.size >= 2:
            hop_mask = np.ones(flat.size - 1, dtype=bool)
            boundaries = offsets[1:-1] - 1
            hop_mask[boundaries[boundaries < hop_mask.size]] = False
            u, v = flat[:-1][hop_mask], flat[1:][hop_mask]
            flat_codes = np.minimum(u, v) * vertex_count + np.maximum(u, v)
        else:
            flat_codes = np.empty(0, dtype=np.int64)
        congestion = 0
        if flat_codes.size:
            congestion = int(np.bincount(np.unique(flat_codes, return_inverse=True)[1]).max())
        congestions.append(congestion)
        dilations.append(dilation)
        round_limits.append(max(1, congestion * dilation + dilation + 1))
        code_span = vertex_count * vertex_count + 1
        if code_base > 2**62 - code_span:
            # Offset range exhausted (absurdly large batches): the caller
            # falls back to per-batch scheduling.
            raise OverflowError("edge-code offset range exhausted")
        code_parts.append(flat_codes + code_base)
        code_base += code_span
        length_parts.append(lengths)
        # Per-batch token-id order is preserved under one global sort by
        # keying (batch, token_id); batches share no edge codes, so the
        # cross-batch interleave cannot change any winner.
        token_ids = np.fromiter(
            (token.token_id for token in tokens), dtype=np.int64, count=len(tokens)
        )
        token_meta.extend((batch_index, int(token_id)) for token_id in token_ids)
    all_codes = (
        np.concatenate(code_parts) if code_parts else np.empty(0, dtype=np.int64)
    )
    all_lengths = (
        np.concatenate(length_parts) if length_parts else np.empty(0, dtype=np.int64)
    )
    token_batch = np.fromiter((b for b, _ in token_meta), dtype=np.int64, count=len(token_meta))
    token_id_of = np.fromiter((t for _, t in token_meta), dtype=np.int64, count=len(token_meta))
    offsets = np.zeros(len(token_meta) + 1, dtype=np.int64)
    np.cumsum(all_lengths, out=offsets[1:])

    arrivals: list[dict[int, int]] = [dict() for _ in batches]
    for index in range(len(token_meta)):
        if all_lengths[index] == 0:
            arrivals[int(token_batch[index])][int(token_id_of[index])] = 0

    # Pending token indices sorted by (batch, token_id): within each batch the
    # order matches the solo kernel's sorted-by-token-id pending array.
    order_key = np.lexsort((token_id_of, token_batch))
    pending = order_key[all_lengths[order_key] > 0]
    position = np.zeros(len(token_meta), dtype=np.int64)
    max_rounds = [0] * len(batches)

    rounds = 0
    round_limit = max(round_limits, default=1)
    while pending.size and rounds < round_limit:
        rounds += 1
        codes = all_codes[offsets[pending] + position[pending]]
        _, first = np.unique(codes, return_index=True)
        advanced = np.zeros(pending.size, dtype=bool)
        advanced[first] = True
        movers = pending[advanced]
        position[movers] += 1
        done = position[movers] == all_lengths[movers]
        for index in movers[done]:
            entry = int(token_batch[index])
            arrivals[entry][int(token_id_of[index])] = rounds
            max_rounds[entry] = max(max_rounds[entry], rounds)
        finished = np.zeros(pending.size, dtype=bool)
        finished[np.flatnonzero(advanced)[done]] = True
        pending = pending[~finished]
    if pending.size:
        raise RuntimeError("scheduler failed to deliver all tokens within the round limit")

    for batch_index, tokens in enumerate(batches):
        if results[batch_index] is not None:
            continue
        results[batch_index] = ScheduleResult(
            rounds=max_rounds[batch_index],
            congestion=congestions[batch_index],
            dilation=dilations[batch_index],
            arrival_round=arrivals[batch_index],
        )
    return [result for result in results if result is not None]
