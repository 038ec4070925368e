"""Unit tests for GumboOptions and the metrics containers."""

from dataclasses import fields

import pytest

from repro.core.options import GumboOptions
from repro.cost.models import JobCostBreakdown
from repro.mapreduce.counters import (
    JobMetrics,
    PartitionMetrics,
    ProgramMetrics,
    WallClockMetrics,
)


class TestGumboOptions:
    def test_defaults_all_enabled(self):
        options = GumboOptions()
        assert options.message_packing
        assert options.tuple_reference
        assert options.reducers_by_intermediate
        assert options.fuse_one_round

    def test_all_disabled(self):
        options = GumboOptions.all_disabled()
        assert not options.message_packing
        assert not options.tuple_reference
        assert not options.reducers_by_intermediate
        assert not options.fuse_one_round

    def test_without_overrides_single_flag(self):
        options = GumboOptions().without(message_packing=False)
        assert not options.message_packing
        assert options.tuple_reference

    def test_without_returns_new_object(self):
        base = GumboOptions()
        assert base.without(tuple_reference=False) is not base
        assert base.tuple_reference

    def test_immutable(self):
        with pytest.raises(AttributeError):
            GumboOptions().message_packing = False  # type: ignore[misc]


def _metrics(job_id="job", input_mb=10.0, intermediate_mb=5.0, output_mb=2.0):
    metrics = JobMetrics(job_id=job_id)
    metrics.partitions.append(
        PartitionMetrics(
            relation="R",
            input_mb=input_mb,
            input_records=100,
            intermediate_mb=intermediate_mb,
            output_records=50,
            mappers=2,
        )
    )
    metrics.reducers = 3
    metrics.output_mb = output_mb
    metrics.output_records = 10
    metrics.breakdown = JobCostBreakdown(overhead=15.0, map=30.0, reduce=5.0)
    metrics.map_task_durations = [15.0, 15.0]
    metrics.reduce_task_durations = [2.0, 2.0, 1.0]
    return metrics


class TestJobMetrics:
    def test_derived_quantities(self):
        metrics = _metrics()
        assert metrics.input_mb == 10.0
        assert metrics.input_records == 100
        assert metrics.intermediate_mb == 5.0
        assert metrics.intermediate_records == 50
        assert metrics.mappers == 2
        assert metrics.total_time == 50.0

    def test_total_time_without_breakdown(self):
        metrics = JobMetrics(job_id="empty")
        assert metrics.total_time == 0.0

    def test_as_map_partition(self):
        partition = _metrics().partitions[0].as_map_partition()
        assert partition.input_mb == 10.0
        assert partition.records == 50
        assert partition.mappers == 2
        assert partition.label == "R"


class TestProgramMetrics:
    def test_equality_ignores_exactly_the_wall_clock(self):
        """``==`` is the parity contract: every simulated field counts, and
        only ``wall``, ``backend`` and ``wall_elapsed_s`` do not."""
        assert {f.name for f in fields(JobMetrics) if not f.compare} == {"wall"}
        assert {f.name for f in fields(ProgramMetrics) if not f.compare} == {
            "backend",
            "wall_elapsed_s",
        }

        def program(**changes):
            metrics = ProgramMetrics(**{"net_time": 70.0, "rounds": 1, **changes})
            metrics.add_job(_metrics("a"))
            return metrics

        timed = program(backend="parallel", wall_elapsed_s=1.5)
        timed.job_metrics["a"].wall = WallClockMetrics(elapsed_s=1.0)
        assert timed == program()
        assert program(rounds=2) != program()
        assert program(level_net_times=[69.0]) != program()
        moved = program()
        moved.job_metrics["a"].reduce_task_durations.reverse()
        assert moved != program()

    def test_aggregation(self):
        program = ProgramMetrics()
        program.add_job(_metrics("a"))
        program.add_job(_metrics("b", input_mb=20.0, intermediate_mb=1.0))
        program.net_time = 70.0
        program.rounds = 2
        assert program.num_jobs == 2
        assert program.total_time == 100.0
        assert program.input_mb == 30.0
        assert program.communication_mb == 6.0
        assert program.output_mb == 4.0
        assert program.input_gb == pytest.approx(30.0 / 1024)

    def test_summary_keys(self):
        program = ProgramMetrics()
        program.add_job(_metrics())
        assert set(program.summary()) == {
            "net_time_s",
            "total_time_s",
            "input_gb",
            "communication_gb",
        }

    def test_merge_is_sequential_composition(self):
        first = ProgramMetrics()
        first.add_job(_metrics("a"))
        first.net_time = 50.0
        first.rounds = 1
        first.level_net_times = [50.0]
        second = ProgramMetrics()
        second.add_job(_metrics("b"))
        second.net_time = 30.0
        second.rounds = 2
        second.level_net_times = [20.0, 10.0]
        merged = first.merge(second)
        assert merged.num_jobs == 2
        assert merged.net_time == 80.0
        assert merged.rounds == 3
        assert merged.level_net_times == [50.0, 20.0, 10.0]
        # Merging does not mutate the inputs.
        assert first.num_jobs == 1 and second.num_jobs == 1

    def test_str(self):
        program = ProgramMetrics()
        program.add_job(_metrics())
        assert "jobs=1" in str(program)

    def test_merge_of_empty_metrics_is_empty(self):
        merged = ProgramMetrics().merge(ProgramMetrics())
        assert merged.num_jobs == 0
        assert merged.net_time == 0.0
        assert merged.rounds == 0
        assert merged.level_net_times == []
        assert merged.wall_elapsed_s == 0.0
        assert merged.summary() == {
            "net_time_s": 0.0,
            "total_time_s": 0.0,
            "input_gb": 0.0,
            "communication_gb": 0.0,
        }

    def test_merge_with_empty_is_identity_on_jobs(self):
        first = ProgramMetrics(backend="parallel")
        first.add_job(_metrics("a"))
        first.wall_elapsed_s = 1.5
        merged = first.merge(ProgramMetrics())
        assert merged.num_jobs == 1
        assert merged.backend == "parallel"
        assert merged.wall_elapsed_s == 1.5
        # Empty-first merge takes the non-empty side's backend instead.
        merged_other_way = ProgramMetrics(backend="serial").merge(first)
        assert merged_other_way.backend == "parallel"

    def test_merge_preserves_wall_metrics_and_waves(self):
        first = ProgramMetrics(backend="parallel")
        job_a = _metrics("a")
        job_a.wall = WallClockMetrics(backend="parallel", workers=2)
        job_a.wall.record_wave("map", tasks=4, elapsed_s=0.5)
        job_a.wall.record_wave("reduce", tasks=2, elapsed_s=0.25)
        first.add_job(job_a)
        first.wall_elapsed_s = 0.75
        second = ProgramMetrics(backend="parallel")
        job_b = _metrics("b")
        job_b.wall = WallClockMetrics(backend="parallel", workers=2)
        job_b.wall.record_wave("map", tasks=1, elapsed_s=0.1)
        second.add_job(job_b)
        second.wall_elapsed_s = 0.1
        merged = first.merge(second)
        assert merged.wall_elapsed_s == pytest.approx(0.85)
        summary = merged.wall_summary()
        assert summary["backend"] == "parallel"
        assert summary["wall_clock_s"] == pytest.approx(0.85)
        assert summary["wall_map_s"] == pytest.approx(0.6)
        assert summary["wall_reduce_s"] == pytest.approx(0.25)
        waves = [w for m in merged.job_metrics.values() for w in m.wall.waves]
        assert [(w.phase, w.tasks) for w in waves] == [
            ("map", 4),
            ("reduce", 2),
            ("map", 1),
        ]

    def test_wall_summary_without_wall_metrics(self):
        # Jobs run through the bare engine have wall=None; the phase subtotals
        # must skip them rather than crash.
        program = ProgramMetrics()
        program.add_job(_metrics("a"))
        summary = program.wall_summary()
        assert summary == {
            "backend": "serial",
            "wall_clock_s": 0.0,
            "wall_map_s": 0.0,
            "wall_reduce_s": 0.0,
        }

    def test_wall_summary_mixed_timed_and_untimed_jobs(self):
        program = ProgramMetrics(backend="parallel")
        timed = _metrics("timed")
        timed.wall = WallClockMetrics(backend="parallel")
        timed.wall.record_wave("map", tasks=1, elapsed_s=0.2)
        program.add_job(timed)
        program.add_job(_metrics("untimed"))
        summary = program.wall_summary()
        assert summary["wall_map_s"] == pytest.approx(0.2)
        assert summary["wall_reduce_s"] == 0.0

    def test_zero_duration_jobs_aggregate_cleanly(self):
        program = ProgramMetrics()
        empty = JobMetrics(job_id="empty")
        empty.wall = WallClockMetrics()
        program.add_job(empty)
        assert program.total_time == 0.0
        assert program.input_mb == 0.0
        assert program.communication_mb == 0.0
        assert program.wall_summary()["wall_map_s"] == 0.0

    def test_merge_duplicate_job_ids_last_wins(self):
        first = ProgramMetrics()
        first.add_job(_metrics("shared", input_mb=10.0))
        second = ProgramMetrics()
        second.add_job(_metrics("shared", input_mb=99.0))
        merged = first.merge(second)
        assert merged.num_jobs == 1
        assert merged.input_mb == 99.0
