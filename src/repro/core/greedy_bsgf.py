"""Partitioning the semi-joins of (a set of) BSGF queries: ``Greedy-BSGF``.

Given the set ``S`` of semi-join equations of one or more BSGF queries, the
basic MR program for any partition ``S_1 ∪ ... ∪ S_p`` of ``S`` consists of
one ``MSJ(S_i)`` job per block plus one EVAL job (Section 4.4).  Choosing the
partition with minimal estimated cost (``BSGF-Opt``) is NP-hard (Theorem 1);
the paper adopts the greedy heuristic of Wang & Chan: start from singletons
and repeatedly merge the pair of blocks with the largest positive *gain*

    ``gain(S_i, S_j) = cost(S_i) + cost(S_j) − cost(S_i ∪ S_j)``

until no merge has positive gain.

This module implements both the greedy heuristic (:func:`greedy_partition`)
and a brute-force exact solver (:func:`optimal_partition`).  The exact solver
is the OPTIMAL strategy, which AUTO prices beside GREEDY on every flat query
of up to :data:`MAX_OPTIMAL_SPECS` semi-joins.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..query.bsgf import SemiJoinSpec
from .costing import PlanCostEstimator

#: A partition of semi-join specs into groups (each group becomes one MSJ job).
Partition = List[List[SemiJoinSpec]]

#: The largest number of semi-joins on which AUTO prices OPTIMAL.
MAX_OPTIMAL_SPECS = 6


def greedy_partition(
    specs: Sequence[SemiJoinSpec],
    estimator: PlanCostEstimator,
) -> Partition:
    """The ``Greedy-BSGF`` heuristic of Section 4.4.

    Starts from the trivial partition into singletons and repeatedly merges
    the pair of groups with the largest positive gain.  Ties are broken
    deterministically by (earliest, earliest) group index.
    """
    groups: Partition = [[spec] for spec in specs]
    if len(groups) <= 1:
        return groups
    costs: List[float] = [estimator.msj_cost(group) for group in groups]

    while len(groups) > 1:
        best_gain = 0.0
        best_pair: Optional[Tuple[int, int]] = None
        best_cost = 0.0
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                merged_cost = estimator.msj_cost(groups[i] + groups[j])
                gain = costs[i] + costs[j] - merged_cost
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_pair = (i, j)
                    best_cost = merged_cost
        if best_pair is None:
            break
        i, j = best_pair
        merged = groups[i] + groups[j]
        groups = [g for k, g in enumerate(groups) if k not in (i, j)] + [merged]
        costs = [c for k, c in enumerate(costs) if k not in (i, j)] + [best_cost]
    return groups


def set_partitions(items: Sequence) -> Iterator[List[List]]:
    """Enumerate all partitions of *items* into non-empty blocks.

    The enumeration is the standard recursive scheme placing each item either
    into an existing block or into a new one; for ``n`` items it yields the
    ``n``-th Bell number of partitions, so callers must keep ``n`` small.
    """
    items = list(items)
    if not items:
        yield []
        return

    def _recurse(index: int, blocks: List[List]) -> Iterator[List[List]]:
        if index == len(items):
            yield [list(block) for block in blocks]
            return
        item = items[index]
        for block in blocks:
            block.append(item)
            yield from _recurse(index + 1, blocks)
            block.pop()
        blocks.append([item])
        yield from _recurse(index + 1, blocks)
        blocks.pop()

    yield from _recurse(0, [])


def _partition_masks(n: int) -> Iterator[Tuple[int, ...]]:
    """:func:`set_partitions` of ``range(n)``, in its order, each block as
    the bitmask of its items."""
    for partition in set_partitions(range(n)):
        yield tuple(sum(1 << item for item in block) for block in partition)


#: ``_PARTITION_MASKS[n]``: the partitions of ``n`` items as block masks,
#: for the sizes AUTO prices (at most Bell(6) = 203).
_PARTITION_MASKS = tuple(
    tuple(_partition_masks(n)) for n in range(MAX_OPTIMAL_SPECS + 1)
)


def optimal_partition(
    specs: Sequence[SemiJoinSpec],
    estimator: PlanCostEstimator,
    max_specs: int = 10,
) -> Tuple[Partition, float]:
    """Brute-force ``BSGF-Opt``: the partition minimising the summed MSJ cost.

    Only the MSJ-job costs vary with the partition (the EVAL job is identical
    for every partition), so the EVAL cost is excluded here; callers comparing
    full program costs should add it separately.  Refuses inputs with more
    than *max_specs* semi-joins.

    Each of the ``2^n - 1`` groups is priced once, specs in index order; the
    partitions are scanned in :func:`set_partitions`' order, summing prices
    in block order, and the first one cheaper than every earlier one by more
    than ``1e-12`` wins.
    """
    specs = list(specs)
    n = len(specs)
    if n > max_specs:
        raise ValueError(
            f"refusing brute-force partition search over {n} semi-joins "
            f"(limit {max_specs})"
        )
    if not specs:
        return [], 0.0
    blocks = [[specs[i] for i in range(n) if mask >> i & 1] for mask in range(1 << n)]
    price = [0.0] + [estimator.msj_cost(block) for block in blocks[1:]]
    partitions = _PARTITION_MASKS[n] if n <= MAX_OPTIMAL_SPECS else _partition_masks(n)
    best: Optional[Tuple[int, ...]] = None
    best_cost = float("inf")
    for masks in partitions:
        cost = sum([price[mask] for mask in masks])
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = masks
    assert best is not None
    return [blocks[mask] for mask in best], best_cost


def partition_cost(
    partition: Partition,
    estimator: PlanCostEstimator,
) -> float:
    """Summed MSJ cost of a partition (without the EVAL job)."""
    return sum(estimator.msj_cost(group) for group in partition)


def singleton_partition(specs: Sequence[SemiJoinSpec]) -> Partition:
    """The PAR partition: every semi-join in its own job."""
    return [[spec] for spec in specs]


def single_group_partition(specs: Sequence[SemiJoinSpec]) -> Partition:
    """The fully-grouped partition: all semi-joins in one MSJ job."""
    specs = list(specs)
    return [specs] if specs else []
