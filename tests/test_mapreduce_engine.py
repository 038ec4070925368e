"""Unit tests for the MapReduce execution engine."""

import gc
import os
import pickle
import threading
from contextlib import nullcontext

import pytest

from repro import obs
from repro.client import connect
from repro.core.chain import SemiJoinChainJob
from repro.core.gumbo import Gumbo
from repro.core.options import GumboOptions
from repro.cost.constants import CostConstants
from repro.exec import make_backend
from repro.exec.partition import stable_hash
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.counters import JobMetrics, PartitionMetrics
from repro.mapreduce.engine import MapReduceEngine, collector_paused
from repro.mapreduce.job import MapReduceJob, REDUCERS_BY_INPUT
from repro.mapreduce.kernels import MapBatch
from repro.mapreduce.program import MRProgram
from repro.model.database import Database
from repro.model.relation import ColumnBlock
from repro.service.sharded import worker
from repro.service.sharded.rpc import MapTask
from repro.workloads.queries import database_for, workload_query


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


# -- the collector pause ---------------------------------------------------------------


class CollectorProbeJob(WordCountJob):
    """Word count whose ``map`` records whether the collector is enabled."""

    def __init__(self, seen, fail=False):
        super().__init__()
        self.seen = seen
        self.fail = fail

    def map(self, relation, row):
        self.seen.append(gc.isenabled())
        if self.fail:
            raise RuntimeError("map failed")
        return super().map(relation, row)


class CollectorProbeKernelJob(WordCountJob):
    """A kernel job whose batch reports whether the collector is enabled."""

    def supports_kernel(self):
        return True

    def map_batch(self, relation, chunks):
        return MapBatch(relation, data=gc.isenabled())


def _probe_program(seen, fail=False):
    program = MRProgram("probe")
    program.add_job(CollectorProbeJob(seen, fail))
    return program


@pytest.fixture
def collector_on():
    """The collector is enabled going in and restored coming out."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.usefixtures("collector_on")
class TestCollectorPause:
    @pytest.mark.parametrize("backend_name", ["serial", "parallel"])
    def test_program_runs_paused_and_restores(self, backend_name, words_db):
        # parallel(2) interprets a job without a kernel on the driver.
        seen = []
        with make_backend(backend_name, workers=2) as backend:
            result = backend.run_program(_probe_program(seen), words_db)
        assert dict(result.outputs["Counts"].tuples())["a"] == 3
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_collector_restored_when_a_job_raises(self, engine, words_db):
        seen = []
        with pytest.raises(RuntimeError, match="map failed"):
            engine.run_program(_probe_program(seen, fail=True), words_db)
        assert seen == [False]
        assert gc.isenabled()

    def test_callers_disabled_collector_stays_off(self, engine, words_db):
        gc.disable()
        engine.run_program(_probe_program([]), words_db)
        assert not gc.isenabled()

    def test_nested_and_overlapping_pauses(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()
        # Two threads: the first to leave must not re-enable under the other.
        entered, left = threading.Barrier(2), threading.Event()
        states = []

        def first():
            with collector_paused():
                entered.wait(timeout=10)
            left.set()

        thread = threading.Thread(target=first)
        thread.start()
        with collector_paused():
            entered.wait(timeout=10)
            left.wait(timeout=10)
            states.append(gc.isenabled())
        thread.join()
        assert states == [False]
        assert gc.isenabled()

    def test_overlapping_programs_on_execute_many_threads(self, monkeypatch):
        barrier = threading.Barrier(2, timeout=30)
        waited = threading.local()
        seen = []
        original_map = SemiJoinChainJob.map

        def probed_map(self, relation, row):
            if not getattr(waited, "done", False):
                waited.done = True
                barrier.wait()  # both programs are inside run_program now
            seen.append(gc.isenabled())
            return original_map(self, relation, row)

        monkeypatch.setattr(SemiJoinChainJob, "map", probed_map)
        database = Database.from_dict(
            {
                "R": [(i, i + 1) for i in range(60)],
                "S": [(i,) for i in range(0, 60, 2)],
                "T": [(i,) for i in range(0, 60, 3)],
            }
        )
        queries = [
            "Z1 := SELECT (x, y) FROM R(x, y) WHERE S(x);",
            "Z2 := SELECT (x, y) FROM R(x, y) WHERE T(y);",
        ]
        options = GumboOptions(kernel_mode="off")
        with connect(database, options=options, max_workers=2) as connection:
            results = connection.execute_many(queries, strategy="seq")
        assert [len(result.tuples()) for result in results] == [30, 19]
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_worker_map_task_runs_paused(self):
        state = worker._WorkerState(0)
        state.relations["Words"] = (1, {0: ColumnBlock.from_rows([("a",), ("b",)])})
        task = MapTask(
            task_id=1,
            job_blob=pickle.dumps(CollectorProbeKernelJob()),
            relation="Words",
            chunk_index=0,
            version=1,
        )
        done = worker.run_map_task(state, task)
        assert done.result.data is False
        assert gc.isenabled()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_child_forked_while_paused_starts_unpaused(self):
        read_end, write_end = os.pipe()
        with collector_paused():
            pid = os.fork()
            if pid == 0:  # the child: report, then leave without cleanup
                try:
                    report = [gc.isenabled()]
                    with collector_paused():
                        report.append(gc.isenabled())
                    report.append(gc.isenabled())
                    os.write(write_end, bytes(report))
                finally:
                    os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as reader:
            report = list(reader.read())
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert report == [True, False, True]
        assert gc.isenabled()

    @pytest.mark.parametrize("kernel_mode", ["auto", "off"])
    @pytest.mark.parametrize("traced", [False, True])
    def test_engine_work_makes_no_reference_cycles(self, kernel_mode, traced):
        # The premise of the pause: a warm program leaves nothing for the
        # collector, so pausing it frees nothing later.
        planner = Gumbo(options=GumboOptions(kernel_mode=kernel_mode))
        runs = []
        for shape in ("A1", "A3", "B2", "C3", "C4"):
            query = workload_query(shape)
            database = database_for(query, guard_tuples=200, selectivity=0.5, seed=5)
            program = planner.plan_with(query, database, "auto").program
            engine = MapReduceEngine()
            engine.run_program(program, database)
            runs.append((engine, program, database))
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for engine, program, database in runs:
                for _ in range(3):
                    scope = obs.trace("request") if traced else nullcontext()
                    with scope:
                        engine.run_program(program, database)
            gc.collect()
            garbage = [type(item).__name__ for item in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            obs.drain_traces()
        assert garbage == []
