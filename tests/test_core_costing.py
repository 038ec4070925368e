"""Unit tests for the planner-side cost estimator (Equations 5-7, 9)."""

import pytest

from repro.core.costing import PlanCostEstimator
from repro.core.eval_job import EvalTarget
from repro.core.options import GumboOptions
from repro.cost.estimates import StatisticsCatalog
from repro.cost.models import GumboCostModel, WangCostModel

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
        from repro.core.gumbo import Gumbo
        from repro.core.msj import MSJJob
        from repro.mapreduce.engine import MapReduceEngine
        from repro.workloads.queries import (
            bsgf_query_set,
            database_for,
            workload_query,
        )

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
            program = Gumbo(options=options).plan(workload_query(query_id), db, "seq")
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
