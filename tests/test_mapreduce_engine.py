"""Unit tests for the MapReduce execution engine."""

import pytest

from repro.cost.constants import CostConstants
from repro.exec.partition import stable_hash
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.counters import JobMetrics, PartitionMetrics
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import MapReduceJob, REDUCERS_BY_INPUT
from repro.mapreduce.program import MRProgram
from repro.model.database import Database


class WordCountJob(MapReduceJob):
    """Counts occurrences of each value in a unary relation."""

    def __init__(self, job_id="wordcount", source="Words"):
        super().__init__(job_id)
        self.source = source

    def input_relations(self):
        return [self.source]

    def map(self, relation, row):
        return [((row[0],), 1)]

    def reduce(self, key, values):
        yield ("Counts", (key[0], sum(values)))

    def output_schema(self):
        return {"Counts": 2}


class FilterJob(MapReduceJob):
    """Keeps rows of 'Counts' with count >= threshold (tests chaining)."""

    def __init__(self, job_id="filter", threshold=2):
        super().__init__(job_id)
        self.threshold = threshold

    def input_relations(self):
        return ["Counts"]

    def map(self, relation, row):
        return [(tuple(row), None)]

    def reduce(self, key, values):
        if key[1] >= self.threshold:
            yield ("Frequent", tuple(key))

    def output_schema(self):
        return {"Frequent": 2}


@pytest.fixture
def words_db():
    return Database.from_dict(
        {"Words": [("a", 1), ("a", 2), ("b", 3), ("c", 4), ("a", 5)]}
    )


@pytest.fixture
def engine():
    return MapReduceEngine()


class TestRunJob:
    def test_wordcount_results(self, engine):
        db = Database.from_dict({"Words": [(w, i) for i, w in enumerate("aabca")]})
        result = engine.run_job(WordCountJob(), db)
        counts = dict(result.outputs["Counts"].tuples())
        assert counts == {"a": 3, "b": 1, "c": 1}

    def test_metrics_partitions(self, engine, words_db):
        result = engine.run_job(WordCountJob(), words_db)
        metrics = result.metrics
        assert len(metrics.partitions) == 1
        partition = metrics.partitions[0]
        assert partition.relation == "Words"
        assert partition.input_records == 5
        assert partition.output_records == 5
        assert partition.input_mb == pytest.approx(words_db["Words"].size_mb())

    def test_output_metrics(self, engine, words_db):
        result = engine.run_job(WordCountJob(), words_db)
        assert result.metrics.output_records == 3
        assert result.metrics.output_mb == pytest.approx(
            result.outputs["Counts"].size_mb()
        )

    def test_total_time_includes_overhead(self, engine, words_db):
        result = engine.run_job(WordCountJob(), words_db)
        assert result.metrics.total_time >= engine.constants.job_overhead

    def test_missing_input_relation_treated_as_empty(self, engine):
        result = engine.run_job(WordCountJob(source="Missing"), Database())
        assert len(result.outputs["Counts"]) == 0
        assert result.metrics.input_mb == 0.0

    def test_task_durations_cover_cost(self, engine, words_db):
        result = engine.run_job(WordCountJob(), words_db)
        metrics = result.metrics
        assert len(metrics.map_task_durations) == metrics.mappers
        assert len(metrics.reduce_task_durations) == metrics.reducers
        assert sum(metrics.map_task_durations) == pytest.approx(
            metrics.breakdown.map, rel=1e-6
        )

    def test_undeclared_output_relation_rejected(self, engine, words_db):
        class BadJob(WordCountJob):
            def reduce(self, key, values):
                yield ("Other", (key[0],))

        with pytest.raises(KeyError):
            engine.run_job(BadJob(), words_db)

    def test_reducer_allocation_by_input(self, words_db):
        engine = MapReduceEngine(mb_per_reducer_input=words_db["Words"].size_mb() / 2)
        job = WordCountJob()
        job.reducer_allocation = REDUCERS_BY_INPUT
        result = engine.run_job(job, words_db)
        assert result.metrics.reducers == 2

    def test_fixed_reducers(self, engine, words_db):
        job = WordCountJob()
        job.fixed_reducers = 7
        result = engine.run_job(job, words_db)
        assert result.metrics.reducers == 7


class TestReduceTaskDurations:
    """The one-reducer shortcut looks at no key, yet must land on the very
    float the key-by-key spread produces: ``(total * load) / load`` is not
    always ``total``, so ``[total]`` would not do."""

    @staticmethod
    def _job_metrics(parts, reducers=1):
        return JobMetrics(
            job_id="job",
            partitions=[
                PartitionMetrics(
                    relation=f"R{index}",
                    input_mb=1.0,
                    input_records=1,
                    intermediate_mb=sum(part.values()) / (1024.0 * 1024.0),
                    output_records=len(part),
                    mappers=1,
                )
                for index, part in enumerate(parts)
            ],
            reducers=reducers,
            output_mb=0.37,
        )

    @staticmethod
    def _key_by_key(engine, metrics, parts):
        """The spread as every job computed it before the shortcut."""
        reducers = metrics.reducers
        total = engine.cost_model.reduce_cost(
            metrics.intermediate_mb, metrics.output_mb, reducers
        )
        loads = [0.0] * reducers
        for part in parts:
            for key, size in part.items():
                loads[stable_hash(key) % reducers] += size
        total_load = sum(loads)
        return total, [total * load / total_load for load in loads]

    def test_one_reducer_shortcut_is_bit_exact(self, engine):
        def no_keys():
            raise AssertionError("one reducer: no key may be looked at")

        inexact = 0
        for load in [*range(1, 10_001), 2**40 - 1, 2**40, 2**40 + 12_345]:
            third = load // 3
            parts = [{("a",): load - third}, {("b", 1): third, ("a",): 0}]
            metrics = self._job_metrics(parts)
            total, expected = self._key_by_key(engine, metrics, parts)
            got = engine._reduce_task_durations(metrics, no_keys)
            assert [d.hex() for d in got] == [d.hex() for d in expected], load
            inexact += got != [total]
        assert inexact  # the sweep does cover totals the division perturbs

    def test_several_reducers_split_by_stable_hash(self, engine):
        parts = [
            {(i,): 10 + i % 7 for i in range(200)},
            {(i, "x"): 3 for i in range(50)},
        ]
        metrics = self._job_metrics(parts, reducers=4)
        _, expected = self._key_by_key(engine, metrics, parts)
        got = engine._reduce_task_durations(metrics, lambda: parts)
        assert [d.hex() for d in got] == [d.hex() for d in expected]
        assert len(set(got)) > 1

    def test_no_intermediate_data_splits_evenly(self, engine):
        metrics = self._job_metrics([{}], reducers=3)
        got = engine._reduce_task_durations(metrics, lambda: [{}])
        assert len(got) == 3 and len(set(got)) == 1


class TestRunProgram:
    def test_two_round_program_chains_outputs(self, engine, words_db):
        program = MRProgram("chain")
        program.add_job(WordCountJob())
        program.add_job(FilterJob(threshold=2), depends_on=["wordcount"])
        result = engine.run_program(program, words_db)
        assert set(result.outputs["Frequent"]) == {("a", 3)}
        assert result.metrics.rounds == 2
        assert len(result.metrics.level_net_times) == 2

    def test_program_metrics_aggregate_jobs(self, engine, words_db):
        program = MRProgram("chain")
        program.add_job(WordCountJob())
        program.add_job(FilterJob(), depends_on=["wordcount"])
        result = engine.run_program(program, words_db)
        job_total = sum(
            m.total_time for m in result.metrics.job_metrics.values()
        )
        assert result.metrics.total_time == pytest.approx(job_total)
        assert result.metrics.net_time == pytest.approx(
            sum(result.metrics.level_net_times)
        )

    def test_net_time_counts_overhead_once_per_level(self, words_db):
        constants = CostConstants.paper_values()
        engine = MapReduceEngine(constants=constants)
        program = MRProgram("parallel")
        program.add_job(WordCountJob("wc1"))
        program.add_job(WordCountJob("wc2"))
        result = engine.run_program(program, words_db)
        # Two jobs in one round: net time includes a single job overhead.
        assert result.metrics.rounds == 1
        assert result.metrics.net_time < 2 * constants.job_overhead + 1.0

    def test_input_database_is_not_modified(self, engine, words_db):
        program = MRProgram("p")
        program.add_job(WordCountJob())
        engine.run_program(program, words_db)
        assert "Counts" not in words_db

    def test_outputs_visible_in_result_database(self, engine, words_db):
        program = MRProgram("p")
        program.add_job(WordCountJob())
        result = engine.run_program(program, words_db)
        assert "Counts" in result.database

    def test_smaller_cluster_never_faster(self, words_db):
        big = MapReduceEngine(cluster=ClusterConfig(nodes=10))
        small = MapReduceEngine(cluster=ClusterConfig(nodes=1))
        program_big = MRProgram("p")
        program_big.add_job(WordCountJob())
        program_small = MRProgram("p")
        program_small.add_job(WordCountJob())
        net_big = big.run_program(program_big, words_db).metrics.net_time
        net_small = small.run_program(program_small, words_db).metrics.net_time
        assert net_small >= net_big - 1e-9
