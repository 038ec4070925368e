"""Ordering the subqueries of an SGF query: ``Greedy-SGF``.

Section 4.6: an SGF query is evaluated group by group along a *multiway
topological sort* of its dependency graph, each group being evaluated with
the (greedy) basic MR program of Section 4.5.  Choosing the sort with minimal
total cost (``SGF-Opt``) is NP-hard (Theorem 2); the paper proposes a greedy
heuristic that repeatedly places a ready subquery into the existing group with
which it shares the most relations (the *overlap*), creating a new group only
when no overlap exists.

This module implements the greedy heuristic (:func:`greedy_multiway_sort`),
the brute-force exact solver used on small instances
(:func:`optimal_multiway_sort`), and the helper computing the cost of a given
sort (Equation (10)).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..query.bsgf import BSGFQuery
from ..query.dependency import DependencyGraph

#: A multiway topological sort represented as ordered groups of subquery names.
Groups = List[List[str]]

#: Cost of evaluating one group of BSGF queries (typically cost(GOPT(F_i))).
GroupCostFn = Callable[[Sequence[BSGFQuery]], float]


def greedy_multiway_sort(graph: DependencyGraph) -> Groups:
    """The ``Greedy-SGF`` heuristic.

    Maintains the invariant that the current sequence ``X`` is a multiway
    topological sort of the already-placed ("red") vertices.  At every step the
    ready vertices (all parents placed) are candidates; the candidate/group
    pair with the largest positive overlap is chosen (ties broken towards the
    earliest group and the earliest vertex in definition order); when no
    placement with positive overlap is valid, a new group is appended.
    """
    order_index = {name: i for i, name in enumerate(graph.nodes)}
    placed: set = set()
    group_of: dict = {}
    groups: Groups = []

    while len(placed) < len(graph.nodes):
        ready = [
            name
            for name in graph.nodes
            if name not in placed and graph.parents[name] <= placed
        ]
        best: Optional[Tuple[int, int, str]] = None  # (overlap, -group, name)
        for name in ready:
            # The vertex may join group i only if all its parents live in
            # strictly earlier groups.
            parent_groups = [group_of[p] for p in graph.parents[name]]
            min_group = (max(parent_groups) + 1) if parent_groups else 0
            for index in range(min_group, len(groups)):
                overlap = graph.overlap(name, groups[index])
                if overlap <= 0:
                    continue
                candidate = (overlap, index, name)
                if best is None or _better(candidate, best, order_index):
                    best = candidate
        if best is not None:
            _, index, name = best
            groups[index].append(name)
        else:
            name = min(ready, key=lambda n: order_index[n])
            groups.append([name])
            index = len(groups) - 1
        group_of[name] = index
        placed.add(name)
    return groups


def _better(
    candidate: Tuple[int, int, str],
    incumbent: Tuple[int, int, str],
    order_index: dict,
) -> bool:
    """Deterministic comparison: larger overlap, then earlier group, then earlier vertex."""
    c_overlap, c_group, c_name = candidate
    i_overlap, i_group, i_name = incumbent
    if c_overlap != i_overlap:
        return c_overlap > i_overlap
    if c_group != i_group:
        return c_group < i_group
    return order_index[c_name] < order_index[i_name]


def sort_cost(
    graph: DependencyGraph,
    groups: Sequence[Sequence[str]],
    group_cost: GroupCostFn,
) -> float:
    """Equation (10): the total cost of evaluating the groups in sequence."""
    total = 0.0
    for group in groups:
        queries = [graph.subquery(name) for name in group]
        total += group_cost(queries)
    return total


def optimal_multiway_sort(
    graph: DependencyGraph,
    group_cost: GroupCostFn,
    max_nodes: int = 8,
) -> Tuple[Groups, float]:
    """Brute-force ``SGF-Opt``: enumerate every multiway topological sort.

    Only feasible for small dependency graphs; refuses larger ones via the
    *max_nodes* guard of the underlying enumeration.
    """
    best: Optional[Groups] = None
    best_cost = float("inf")
    for sort in graph.all_multiway_sorts(max_nodes=max_nodes):
        groups = [list(group) for group in sort]
        cost = sort_cost(graph, groups, group_cost)
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = groups
    assert best is not None
    return best, best_cost


def sequnit_sort(graph: DependencyGraph) -> Groups:
    """The SEQUNIT ordering: one subquery per group, in a topological order."""
    return [[name] for name in graph.topological_order()]


def parunit_sort(graph: DependencyGraph) -> Groups:
    """The PARUNIT ordering: dependency levels evaluated bottom-up."""
    return [list(level) for level in graph.levels()]


def validate_sort(graph: DependencyGraph, groups: Sequence[Sequence[str]]) -> None:
    """Raise ``ValueError`` when *groups* is not a valid multiway topological sort."""
    if not graph.is_valid_multiway_sort(groups):
        raise ValueError(f"{groups!r} is not a multiway topological sort")
