"""Unit tests for Greedy-BSGF / BSGF-Opt and Greedy-SGF / SGF-Opt."""

import math
import random

import pytest

from repro.core.costing import PlanCostEstimator
from repro.core.greedy_bsgf import (
    greedy_partition,
    optimal_partition,
    partition_cost,
    set_partitions,
    single_group_partition,
    singleton_partition,
)
from repro.core.greedy_sgf import (
    greedy_multiway_sort,
    optimal_multiway_sort,
    parunit_sort,
    sequnit_sort,
    sort_cost,
    validate_sort,
)
from repro.core.options import GumboOptions
from repro.cost.estimates import StatisticsCatalog
from repro.query.dependency import DependencyGraph
from repro.workloads.queries import database_for, query_a4, sgf_query

from helpers import star_database, star_query


class _TableEstimator:
    """Prices a group of specs by a fixed table lookup."""

    def __init__(self, table):
        self.table = table

    def msj_cost(self, group):
        return self.table[tuple(group)]


def _bell(n: int) -> int:
    """Bell numbers via the recurrence with binomial coefficients."""
    bell = [1]
    for i in range(n):
        bell.append(sum(math.comb(i, k) * bell[k] for k in range(i + 1)))
    return bell[n]


@pytest.fixture
def estimator():
    return PlanCostEstimator(
        StatisticsCatalog(star_database(), sample_size=100),
        options=GumboOptions(),
    )


class TestSetPartitions:
    @pytest.mark.parametrize(
        "n, expected", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]
    )
    def test_counts_are_bell_numbers(self, n, expected):
        assert expected == _bell(n)
        assert len(list(set_partitions(list(range(n))))) == expected

    def test_every_partition_covers_all_items(self):
        items = ["a", "b", "c", "d"]
        for partition in set_partitions(items):
            flattened = sorted(x for block in partition for x in block)
            assert flattened == sorted(items)
            assert all(block for block in partition)

    def test_partitions_are_distinct(self):
        seen = set()
        for partition in set_partitions([1, 2, 3, 4]):
            key = frozenset(frozenset(block) for block in partition)
            assert key not in seen
            seen.add(key)


class TestGreedyBSGF:
    def test_shared_guard_semijoins_are_grouped(self, estimator):
        specs = star_query().semijoin_specs()
        groups = greedy_partition(specs, estimator)
        # All four semi-joins share the guard R: grouping them is a clear win.
        assert len(groups) == 1
        assert len(groups[0]) == 4

    def test_partition_is_a_partition(self, estimator):
        specs = star_query().semijoin_specs()
        groups = greedy_partition(specs, estimator)
        outputs = sorted(s.output for g in groups for s in g)
        assert outputs == sorted(s.output for s in specs)

    def test_disjoint_queries_gain_only_the_job_overhead(self):
        """A4's two queries share nothing: merging them can only save cost_h.

        Merging semi-joins of the *same* guard additionally saves the repeated
        guard scan, so its gain must be strictly larger.
        """
        queries = query_a4()
        db = database_for(queries, guard_tuples=300, selectivity=0.5, seed=4)
        estimator = PlanCostEstimator(StatisticsCatalog(db), options=GumboOptions())
        first, second = queries
        disjoint_gain = estimator.gain(
            first.semijoin_specs()[:1], second.semijoin_specs()[:1]
        )
        shared_gain = estimator.gain(
            first.semijoin_specs()[:1], first.semijoin_specs()[1:2]
        )
        overhead = estimator.cost_model.constants.job_overhead
        assert disjoint_gain == pytest.approx(overhead, rel=0.2)
        assert shared_gain > disjoint_gain

    def test_singleton_input(self, estimator):
        specs = star_query().semijoin_specs()[:1]
        assert greedy_partition(specs, estimator) == [[specs[0]]]

    def test_empty_input(self, estimator):
        assert greedy_partition([], estimator) == []

    def test_greedy_never_worse_than_singletons(self, estimator):
        specs = star_query().semijoin_specs()
        greedy_cost = partition_cost(greedy_partition(specs, estimator), estimator)
        par_cost = partition_cost(singleton_partition(specs), estimator)
        assert greedy_cost <= par_cost + 1e-9

    def test_greedy_matches_bruteforce_on_small_query(self, estimator):
        specs = star_query().semijoin_specs()
        greedy_cost = partition_cost(greedy_partition(specs, estimator), estimator)
        _, optimal_cost = optimal_partition(specs, estimator)
        assert greedy_cost == pytest.approx(optimal_cost, rel=0.05)

    def test_optimal_partition_guard(self, estimator):
        specs = star_query().semijoin_specs() * 3
        with pytest.raises(ValueError):
            optimal_partition(specs, estimator, max_specs=5)

    def test_optimal_partition_empty(self, estimator):
        partition, cost = optimal_partition([], estimator)
        assert partition == [] and cost == 0.0

    @pytest.mark.parametrize("n", range(8))
    def test_optimal_partition_equals_brute_force(self, n):
        """The subset-table scan picks the partition, block order, spec order
        and float bits of a plain scan over ``set_partitions``, on seeded
        cost tables full of exact ties and of gaps below the 1e-12 margin."""
        specs = [f"s{i}" for i in range(n)]
        for seed in range(16 if n < 7 else 4):
            rng = random.Random(f"{n}/{seed}")
            table = {}
            for mask in range(1, 1 << n):
                group = tuple(s for i, s in enumerate(specs) if mask >> i & 1)
                per_spec = rng.choice((0.1, 0.3, 1 / 3, 1 / 7))
                extra = rng.choice((0, 0, 1e-13, 4e-13, 0.1))
                table[group] = per_spec * len(group) + extra
            estimator = _TableEstimator(table)

            best, best_cost = None, math.inf
            for partition in set_partitions(specs):
                cost = sum(estimator.msj_cost(group) for group in partition)
                if cost < best_cost - 1e-12:
                    best, best_cost = partition, cost

            partition, cost = optimal_partition(specs, estimator)
            assert partition == best
            assert cost.hex() == float(best_cost).hex()

    def test_helper_partitions(self):
        specs = star_query().semijoin_specs()
        assert [len(g) for g in singleton_partition(specs)] == [1, 1, 1, 1]
        assert [len(g) for g in single_group_partition(specs)] == [4]
        assert single_group_partition([]) == []


class TestGreedySGF:
    @pytest.fixture
    def graph(self):
        return DependencyGraph(sgf_query("C1"))

    def _estimator_for(self, query_id):
        query = sgf_query(query_id)
        db = database_for(query, guard_tuples=300, selectivity=0.5, seed=5)
        estimator = PlanCostEstimator(StatisticsCatalog(db), options=GumboOptions())
        from repro.core.strategies import register_intermediate_estimates

        register_intermediate_estimates(query, estimator.catalog)
        return query, estimator

    def test_greedy_sort_is_valid(self, graph):
        groups = greedy_multiway_sort(graph)
        validate_sort(graph, groups)

    @pytest.mark.parametrize("query_id", ["C1", "C2", "C3", "C4"])
    def test_greedy_sort_valid_for_all_experiment_queries(self, query_id):
        graph = DependencyGraph(sgf_query(query_id))
        validate_sort(graph, greedy_multiway_sort(graph))

    def test_greedy_sort_groups_overlapping_queries(self, graph):
        groups = greedy_multiway_sort(graph)
        # C1's level-1 subqueries Z4 and Z5 reference Z1/Z3 respectively and
        # share no relations, but the level-0 queries Z1, Z2, Z3 don't overlap
        # either, so the greedy sort should at least keep a valid shape with
        # every query present exactly once.
        names = sorted(n for g in groups for n in g)
        assert names == sorted(graph.nodes)

    def test_sequnit_and_parunit_sorts(self, graph):
        sequnit = sequnit_sort(graph)
        assert all(len(group) == 1 for group in sequnit)
        validate_sort(graph, sequnit)
        parunit = parunit_sort(graph)
        validate_sort(graph, parunit)
        assert len(parunit) == len(graph.levels())

    def test_sort_cost_sums_groups(self, graph):
        groups = [["Z1"], ["Z2"], ["Z3"], ["Z4"], ["Z5"]]
        cost = sort_cost(graph, groups, lambda queries: float(len(queries)))
        assert cost == 5.0

    def test_greedy_not_worse_than_sequnit_for_experiment_queries(self):
        for query_id in ("C1", "C4"):
            query, estimator = self._estimator_for(query_id)
            graph = DependencyGraph(query)
            from repro.core.strategies import sgf_group_cost

            def cost_fn(queries):
                return sgf_group_cost(queries, estimator)

            greedy_cost = sort_cost(graph, greedy_multiway_sort(graph), cost_fn)
            sequnit_cost = sort_cost(graph, sequnit_sort(graph), cost_fn)
            assert greedy_cost <= sequnit_cost + 1e-6

    def test_greedy_close_to_bruteforce_on_small_query(self):
        query, estimator = self._estimator_for("C4")
        graph = DependencyGraph(query)
        from repro.core.strategies import sgf_group_cost

        def cost_fn(queries):
            return sgf_group_cost(queries, estimator)

        greedy_cost = sort_cost(graph, greedy_multiway_sort(graph), cost_fn)
        _, optimal_cost = optimal_multiway_sort(graph, cost_fn, max_nodes=6)
        assert greedy_cost <= 1.2 * optimal_cost

    def test_validate_sort_rejects_bad_groups(self, graph):
        with pytest.raises(ValueError):
            validate_sort(graph, [["Z1", "Z4"], ["Z2", "Z3", "Z5"]])
