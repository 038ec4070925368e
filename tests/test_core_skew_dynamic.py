"""Tests for the skew-handling extension and the dynamic re-planning executor."""

import pytest

from repro.core.gumbo import Gumbo
from repro.core.options import GumboOptions
from repro.core.msj import MSJJob
from repro.core.skew import (
    HeavyHitterReport,
    SkewAwareMSJJob,
    detect_heavy_hitters,
    skew_aware_msj,
)
from repro.cost.estimates import StatisticsCatalog
from repro.exec.simulated import SimulatedBackend
from repro.mapreduce.engine import MapReduceEngine
from repro.model.database import Database
from repro.query.parser import parse_bsgf
from repro.query.reference import evaluate_bsgf, evaluate_sgf
from repro.workloads.queries import database_for, sgf_query

from helpers import as_set, nested_sgf, small_database


def skewed_database(heavy_count=400, light_values=50):
    """A guard relation where the value 7 appears in most tuples' first column."""
    rows = [(7, i) for i in range(heavy_count)]
    rows += [(i % light_values + 100, i) for i in range(light_values)]
    return Database.from_dict(
        {
            "R": rows,
            "S": [(7,)] + [(i + 100,) for i in range(0, light_values, 2)],
        }
    )


def skewed_query():
    return parse_bsgf("Z := SELECT (x, y) FROM R(x, y) WHERE S(x);")


class TestHeavyHitterDetection:
    def test_detects_dominant_key(self):
        db = skewed_database()
        catalog = StatisticsCatalog(db, sample_size=300)
        report = detect_heavy_hitters(catalog, skewed_query().semijoin_specs())
        assert isinstance(report, HeavyHitterReport)
        assert (7,) in report.heavy_keys

    def test_uniform_data_has_no_heavy_hitters(self):
        db = database_for([skewed_query()], guard_tuples=300, seed=3)
        catalog = StatisticsCatalog(db, sample_size=300)
        report = detect_heavy_hitters(catalog, skewed_query().semijoin_specs())
        assert not report.heavy_keys
        assert not report

    def test_threshold_validation(self):
        db = skewed_database()
        catalog = StatisticsCatalog(db)
        with pytest.raises(ValueError):
            detect_heavy_hitters(catalog, skewed_query().semijoin_specs(), 0.0)

    def test_empty_guard(self):
        db = Database.from_dict({"S": [(1,)]})
        catalog = StatisticsCatalog(db)
        report = detect_heavy_hitters(catalog, skewed_query().semijoin_specs())
        assert report.sampled_keys == 0


class TestSkewAwareMSJ:
    def test_results_identical_to_plain_msj(self):
        db = skewed_database()
        query = skewed_query()
        specs = query.semijoin_specs()
        engine = MapReduceEngine()
        plain = engine.run_job(MSJJob("plain", specs), db)
        salted = engine.run_job(
            SkewAwareMSJJob("salted", specs, heavy_keys=[(7,)], salt_factor=4), db
        )
        for name in plain.outputs:
            assert as_set(plain.outputs[name]) == as_set(salted.outputs[name])
        assert as_set(plain.outputs[specs[0].output]) == as_set(
            evaluate_bsgf(query, db)
        )

    def test_salting_balances_reducer_loads(self):
        db = skewed_database()
        specs = skewed_query().semijoin_specs()
        engine = MapReduceEngine()
        plain_job = MSJJob("plain", specs)
        salted_job = SkewAwareMSJJob("salted", specs, heavy_keys=[(7,)], salt_factor=8)
        plain_job.fixed_reducers = 8
        salted_job.fixed_reducers = 8
        plain = engine.run_job(plain_job, db).metrics
        salted = engine.run_job(salted_job, db).metrics
        # With one heavy key, the plain job's longest reduce task dominates;
        # salting spreads that load over several reducers.
        assert max(salted.reduce_task_durations) < max(plain.reduce_task_durations)
        # Total reduce work stays in the same ballpark (asserts are replicated,
        # which adds a little communication).
        assert sum(salted.reduce_task_durations) == pytest.approx(
            sum(plain.reduce_task_durations), rel=0.25
        )

    def test_salt_factor_one_behaves_like_plain(self):
        specs = skewed_query().semijoin_specs()
        job = SkewAwareMSJJob("salted", specs, heavy_keys=[(7,)], salt_factor=1)
        pairs = list(job.map("R", (7, 1)))
        assert all(not str(key[-1]).startswith("#salt") for key, _ in pairs)

    def test_invalid_salt_factor(self):
        with pytest.raises(ValueError):
            SkewAwareMSJJob("x", skewed_query().semijoin_specs(), [], salt_factor=0)

    def test_skew_aware_msj_helper(self):
        db = skewed_database()
        catalog = StatisticsCatalog(db, sample_size=300)
        job, report = skew_aware_msj("auto", skewed_query().semijoin_specs(), catalog)
        assert (7,) in job.heavy_keys
        assert report.heavy_keys == frozenset(job.heavy_keys)

    def test_engine_net_time_reflects_skew(self):
        """The per-reducer timing model makes skew visible in the reduce makespan."""
        db = skewed_database()
        specs = skewed_query().semijoin_specs()
        engine = MapReduceEngine()
        job = MSJJob("plain", specs)
        job.fixed_reducers = 8
        metrics = engine.run_job(job, db).metrics
        durations = metrics.reduce_task_durations
        assert max(durations) > 2 * (sum(durations) / len(durations))


class TestDynamicExecutor:
    def test_matches_reference_on_nested_query(self):
        query = nested_sgf()
        db = small_database()
        result = Gumbo().execute_dynamic(query, db)
        reference = evaluate_sgf(query, db)
        for name in query.output_names:
            assert as_set(result.outputs[name]) == as_set(reference[name]), name

    @pytest.mark.parametrize("query_id", ["C1", "C4"])
    def test_matches_reference_on_experiment_queries(self, query_id):
        query = sgf_query(query_id)
        db = database_for(query, guard_tuples=120, selectivity=0.5, seed=9)
        result = Gumbo().execute_dynamic(query, db)
        reference = evaluate_sgf(query, db)
        for name in query.output_names:
            assert as_set(result.outputs[name]) == as_set(reference[name]), name

    def test_stages_cover_all_subqueries_exactly_once(self):
        query = sgf_query("C4")
        db = database_for(query, guard_tuples=80, selectivity=0.5, seed=9)
        result = Gumbo().execute_dynamic(query, db)
        evaluated = [name for stage in result.stages for name in stage.subqueries]
        assert sorted(evaluated) == sorted(query.output_names)
        assert len(result.stages) >= 2  # at least one re-planning step

    def test_metrics_aggregate_over_stages(self):
        query = nested_sgf()
        db = small_database()
        result = Gumbo().execute_dynamic(query, db)
        assert result.metrics.net_time == pytest.approx(
            sum(stage.metrics.net_time for stage in result.stages)
        )
        assert result.metrics.total_time == pytest.approx(
            sum(stage.metrics.total_time for stage in result.stages)
        )

    def test_dynamic_total_time_close_to_static_greedy(self):
        """Dynamic re-planning should not be worse than static GREEDY-SGF by much."""
        query = sgf_query("C4")
        db = database_for(query, guard_tuples=150, selectivity=0.5, seed=10)
        static = Gumbo().execute(query, db, "greedy-sgf").metrics.total_time
        dynamic = Gumbo().execute_dynamic(query, db).metrics.total_time
        assert dynamic <= 1.5 * static

    def test_output_accessor(self):
        query = nested_sgf()
        db = small_database()
        result = Gumbo().execute_dynamic(query, db)
        assert result.output().name == query.output

    def test_runs_on_the_gumbos_own_backend(self):
        """Every stage runs on ``gumbo.backend``: there is no second backend
        whose width could differ from the one ``options`` asks for."""
        ran = []

        class CountingBackend(SimulatedBackend):
            def run_program(self, program, database):
                ran.append(program.name)
                return super().run_program(program, database)

        query = sgf_query("C4")
        db = database_for(query, guard_tuples=80, selectivity=0.5, seed=9)
        result = Gumbo(backend=CountingBackend()).execute_dynamic(query, db)
        assert ran == [f"dynamic-stage-{stage.index}" for stage in result.stages]
        assert len(ran) >= 2
        sharded = Gumbo(options=GumboOptions(backend="sharded", shards=3))
        assert sharded.backend.shards == 3
        assert not sharded.backend.cluster.started  # no worker was started
        sharded.close()
