"""Unit tests for the planner-side cost estimator (Equations 5-7, 9)."""

from collections import Counter

import pytest

from repro.core.costing import PlanCostEstimator
from repro.core.eval_job import EvalTarget
from repro.core.gumbo import Gumbo
from repro.core.options import GumboOptions
from repro.core.strategies import (
    applicable_strategies,
    build_bsgf_program,
    build_sgf_program,
    choose_strategy,
    register_intermediate_estimates,
)
from repro.cost.estimates import RelationStats, StatisticsCatalog
from repro.cost.models import GumboCostModel, WangCostModel
from repro.query.parser import parse_bsgf
from repro.workloads.queries import database_for, workload_query

from helpers import shared_key_query, star_database, star_query


@pytest.fixture
def catalog():
    return StatisticsCatalog(star_database(), sample_size=100)


@pytest.fixture
def estimator(catalog):
    return PlanCostEstimator(catalog, GumboCostModel(), GumboOptions())


class TestMSJEstimates:
    def test_one_partition_per_distinct_relation(self, estimator):
        specs = star_query().semijoin_specs()
        partitions = estimator.msj_partitions(specs)
        labels = {p.label for p in partitions}
        assert labels == {"R", "S", "T", "U", "V"}

    def test_shared_relation_read_once(self, estimator):
        specs = shared_key_query().semijoin_specs()
        partitions = estimator.msj_partitions(specs)
        assert len(partitions) == 5
        input_total = sum(p.input_mb for p in partitions)
        db = star_database()
        assert input_total == pytest.approx(db.size_mb())

    def test_grouped_cost_below_separate_cost_with_shared_guard(self, estimator):
        """Equation (5) vs (6): grouping shares the guard scan."""
        specs = star_query().semijoin_specs()
        assert estimator.msj_cost(specs) < estimator.separate_cost(specs)

    def test_gain_positive_for_shared_guard(self, estimator):
        specs = star_query().semijoin_specs()
        assert estimator.gain([specs[0]], [specs[1]]) > 0

    def test_gain_is_symmetric(self, estimator):
        specs = star_query().semijoin_specs()
        assert estimator.gain([specs[0]], [specs[1]]) == pytest.approx(
            estimator.gain([specs[1]], [specs[0]])
        )

    def test_packing_lowers_estimated_intermediate_for_shared_keys(self, catalog):
        specs = shared_key_query().semijoin_specs()
        packed = PlanCostEstimator(catalog, options=GumboOptions(message_packing=True))
        plain = PlanCostEstimator(catalog, options=GumboOptions(message_packing=False))
        packed_mb = sum(p.intermediate_mb for p in packed.msj_partitions(specs))
        plain_mb = sum(p.intermediate_mb for p in plain.msj_partitions(specs))
        assert packed_mb < plain_mb

    def test_tuple_reference_lowers_estimated_output(self, catalog):
        spec = star_query().semijoin_specs()[0]
        with_ref = PlanCostEstimator(
            catalog, options=GumboOptions(tuple_reference=True)
        )
        without_ref = PlanCostEstimator(
            catalog, options=GumboOptions(tuple_reference=False)
        )
        assert with_ref.semijoin_output_mb(spec) < without_ref.semijoin_output_mb(spec)

    @pytest.mark.parametrize("packing", [False, True], ids=["off", "on"])
    @pytest.mark.parametrize(
        "job_type,query_id",
        [
            ("msj", "A1"),
            ("msj", "A3"),
            ("msj", "B2"),
            ("chain", "A1"),
            ("chain", "B2"),
        ],
    )
    def test_estimated_intermediate_tracks_execution(self, job_type, query_id, packing):
        """The estimator and the engine read one message layout.

        MSJ over a whole query set, and every SEQ chain step of the first
        level, on a generated workload (rather than the 5-tuple toy database)
        with a catalog that samples every tuple.  Without packing the
        estimate is the engine's intermediate size, relation by relation.
        With packing the estimator cannot foresee same-key packing across
        different guard tuples inside one map task (and prices chain steps
        unpacked), so it over-approximates slightly.
        """
        from repro.core.chain import SemiJoinChainJob
        from repro.core.msj import MSJJob
        from repro.mapreduce.engine import MapReduceEngine
        from repro.workloads.queries import bsgf_query_set

        queries = bsgf_query_set(query_id)
        db = database_for(queries, guard_tuples=400, selectivity=0.5, seed=2)
        options = GumboOptions(message_packing=packing)
        estimator = PlanCostEstimator(
            StatisticsCatalog(db, sample_size=10**6), options=options
        )
        if job_type == "msj":
            specs = [spec for query in queries for spec in query.semijoin_specs()]
            jobs = [MSJJob("msj", specs, options, emit_projection=False)]
            estimates = [estimator.msj_partitions(specs)]
        else:
            gumbo = Gumbo(options=options)
            program = gumbo.plan_with(workload_query(query_id), db, "seq").program
            jobs = program.levels()[0]
            assert jobs and all(isinstance(job, SemiJoinChainJob) for job in jobs)
            estimates = [estimator.job_estimate(job).profile.partitions for job in jobs]
        for job, estimate in zip(jobs, estimates):
            estimated = {p.label: p.intermediate_mb * 2**20 for p in estimate}
            partitions = MapReduceEngine().run_job(job, db).metrics.partitions
            measured = {p.relation: p.intermediate_mb * 2**20 for p in partitions}
            if packing:
                total = sum(measured.values())
                assert total <= sum(estimated.values()) <= 1.5 * total
            else:
                assert estimated == measured


class TestEvalAndProgramEstimates:
    def test_eval_cost_positive(self, estimator):
        query = star_query()
        targets = [EvalTarget(query, tuple(s.output for s in query.semijoin_specs()))]
        assert estimator.eval_cost(targets) > 0

    def test_eval_cost_for_queries_matches_targets(self, estimator):
        query = star_query()
        targets = [EvalTarget(query, tuple(s.output for s in query.semijoin_specs()))]
        assert estimator.eval_cost_for_queries([query]) == pytest.approx(
            estimator.eval_cost(targets)
        )

    def test_basic_program_cost_adds_eval(self, estimator):
        query = star_query()
        specs = query.semijoin_specs()
        groups = [[s] for s in specs]
        assert estimator.basic_program_cost([query], groups) > estimator.separate_cost(
            specs
        )

    def test_one_round_estimate_cheaper_than_two_round(self, estimator):
        query = shared_key_query()
        specs = query.semijoin_specs()
        one_round = estimator.one_round_estimate([query]).cost
        two_round = estimator.basic_program_cost([query], [specs])
        assert one_round < two_round

    def test_selectivity_outputs_smaller_than_upper_bound(self, catalog):
        query = star_query()
        upper = PlanCostEstimator(catalog, use_selectivity_for_outputs=False)
        selective = PlanCostEstimator(catalog, use_selectivity_for_outputs=True)
        assert selective.bsgf_output_mb(query) <= upper.bsgf_output_mb(query)


class TestModelChoice:
    def test_wang_estimate_not_above_gumbo(self, catalog):
        """Aggregating can only hide merge cost, never add it."""
        specs = star_query().semijoin_specs()
        gumbo = PlanCostEstimator(catalog, GumboCostModel())
        wang = PlanCostEstimator(catalog, WangCostModel())
        assert wang.msj_cost(specs) <= gumbo.msj_cost(specs) + 1e-9


class TestMSJMemo:
    """Equation (5) is priced once per ordered group and planning catalog."""

    SHAPES = ("A1", "A3", "B2", "C3", "C4")

    @staticmethod
    def _shape(query_id):
        query = workload_query(query_id)
        database = database_for(query, guard_tuples=200, seed=7)
        return query, Gumbo().estimator(database)

    @pytest.mark.parametrize("query_id", SHAPES)
    def test_memoised_estimates_equal_fresh_ones(self, query_id):
        query, estimator = self._shape(query_id)
        register_intermediate_estimates(query, estimator.catalog)
        for name in applicable_strategies(query):
            if not name.startswith(("greedy", "optimal")):
                continue
            if query.intermediate_names:
                build_sgf_program(query, name, estimator)
            else:
                build_bsgf_program(list(query.subqueries), name, estimator)
        groups = list(estimator._msj_memo)
        assert len(groups) > 1
        for group in groups:
            fresh = estimator.scratch_copy().msj_estimate(group)
            assert estimator.msj_estimate(group) == fresh

    def test_refresh_relation_forces_a_recompute(self):
        database = star_database()
        estimator = PlanCostEstimator(StatisticsCatalog(database, sample_size=100))
        specs = tuple(star_query().semijoin_specs())
        before = estimator.msj_estimate(specs)
        assert estimator.msj_estimate(specs) is before
        database.get("S").update([(n,) for n in range(10, 60)])
        estimator.catalog.refresh_relation("S")
        after = estimator.msj_estimate(specs)
        assert after.cost > before.cost
        assert after == estimator.scratch_copy().msj_estimate(specs)

    def test_late_registration_forces_a_recompute(self):
        estimator = PlanCostEstimator(StatisticsCatalog(star_database()))
        text = "OUT := SELECT (x) FROM R(x, y, z, w) WHERE S(x) AND Z1(y);"
        specs = tuple(parse_bsgf(text).semijoin_specs())
        before = estimator.msj_estimate(specs)
        estimator.catalog.register_estimate(
            RelationStats("Z1", tuples=5000, arity=1, size_mb=0.04, bytes_per_field=8)
        )
        after = estimator.msj_estimate(specs)
        assert after.cost > before.cost
        assert after == estimator.scratch_copy().msj_estimate(specs)

    def test_group_order_is_part_of_the_key(self):
        estimator = PlanCostEstimator(StatisticsCatalog(star_database()))
        specs = tuple(star_query().semijoin_specs())
        estimator.msj_estimate(specs)
        estimator.msj_estimate(specs[::-1])
        assert set(estimator._msj_memo) == {specs, specs[::-1]}

    @pytest.mark.parametrize("query_id", SHAPES)
    def test_one_partition_pass_per_group_and_plan(self, query_id, monkeypatch):
        calls = Counter()
        priced = PlanCostEstimator.msj_partitions

        def counting(self, specs):
            calls[tuple(specs)] += 1
            return priced(self, specs)

        monkeypatch.setattr(PlanCostEstimator, "msj_partitions", counting)
        query, estimator = self._shape(query_id)
        choose_strategy(query, estimator)
        assert calls and max(calls.values()) == 1

    @pytest.mark.parametrize("query_id", SHAPES)
    def test_one_eval_price_per_query_set_and_plan(self, query_id, monkeypatch):
        calls = Counter()
        priced = PlanCostEstimator.eval_estimate

        def counting(self, targets):
            calls[tuple(target.query for target in targets)] += 1
            return priced(self, targets)

        monkeypatch.setattr(PlanCostEstimator, "eval_estimate", counting)
        query, estimator = self._shape(query_id)
        choose_strategy(query, estimator)
        assert calls and max(calls.values()) == 1


class TestCacheCoherence:
    """Atom counts and memoised estimates follow every change to the stats,
    and a scratch copy's changes stay in the copy."""

    TEXT = "OUT := SELECT (x) FROM R(x, y, z, 4) WHERE S(x) AND Z1(y) AND NOT T(x);"
    Z1 = RelationStats("Z1", tuples=5000, arity=1, size_mb=0.04, bytes_per_field=8)

    def _values(self, estimator):
        query = parse_bsgf(self.TEXT)
        specs = query.semijoin_specs()
        atoms = [query.guard, *query.conditional_atoms]
        return (
            [estimator.catalog.atom_count(atom) for atom in atoms],
            estimator.msj_estimate(specs),
            estimator.eval_cost_for_queries([query]),
        )

    def _fresh(self, database, registered):
        estimator = PlanCostEstimator(StatisticsCatalog(database, sample_size=100))
        if registered:
            estimator.catalog.register_estimate(self.Z1)
        return estimator

    def test_caches_follow_registration_refresh_and_copies(self):
        database = star_database()
        estimator = self._fresh(database, registered=False)
        before = self._values(estimator)
        assert self._values(estimator) == before == self._values(
            self._fresh(database, registered=False)
        )

        estimator.catalog.register_estimate(self.Z1)
        registered = self._values(estimator)
        assert registered != before
        assert registered == self._values(self._fresh(database, registered=True))

        database.get("R").update([(n, n + 1, n + 2, 4) for n in range(10, 20)])
        estimator.catalog.refresh_relation("R")
        refreshed = self._values(estimator)
        assert refreshed != registered
        assert refreshed == self._values(self._fresh(database, registered=True))
        assert self._values(estimator.scratch_copy()) == refreshed

    def test_scratch_registration_leaves_the_parent_alone(self):
        estimator = self._fresh(star_database(), registered=False)
        counts, msj, eval_cost = self._values(estimator)
        generation = estimator.catalog.generation

        scratch = estimator.scratch_copy()
        scratch.catalog.register_estimate(self.Z1)
        assert self._values(scratch)[1].cost > msj.cost

        assert estimator.catalog.generation == generation
        assert estimator.msj_estimate(parse_bsgf(self.TEXT).semijoin_specs()) is msj
        assert self._values(estimator) == (counts, msj, eval_cost)
