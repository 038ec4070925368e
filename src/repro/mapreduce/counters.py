"""Metrics collected while simulating MapReduce jobs and programs.

The paper reports four performance metrics (Section 5.1):

1. *total time* — aggregate time spent by all mappers and reducers;
2. *net time* — elapsed wall-clock time from submission to final result;
3. *input cost* — bytes read from HDFS over the entire MR plan;
4. *communication cost* — bytes transferred from mappers to reducers.

:class:`JobMetrics` captures these per job (plus the ingredients — partition
sizes, task counts, task durations — needed to compute them), and
:class:`ProgramMetrics` aggregates them over an MR program.

Besides the *simulated* metrics, execution backends stamp *measured*
wall-clock times (:class:`WallClockMetrics`, per wave and per job) so that
simulated-vs-real speedup comparisons are first-class: the serial backend
records its in-process elapsed time, the multi-process backend records the
elapsed time of every wave of map tasks it fans out to its worker shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cost.formulas import MapPartition
from ..cost.models import JobCostBreakdown


@dataclass
class WaveMetrics:
    """Measured wall-clock time of one wave of tasks on an execution backend."""

    phase: str  # "map" or "reduce"
    index: int
    tasks: int
    elapsed_s: float


@dataclass
class WallClockMetrics:
    """Measured (not simulated) execution times of one job on a backend.

    ``elapsed_s`` is the job's end-to-end wall-clock time; ``map_elapsed_s``
    and ``reduce_elapsed_s`` break it down by phase, summed over the waves in
    which the backend scheduled the phase's tasks.
    """

    backend: str = "serial"
    workers: int = 1
    elapsed_s: float = 0.0
    map_elapsed_s: float = 0.0
    reduce_elapsed_s: float = 0.0
    waves: List[WaveMetrics] = field(default_factory=list)

    def record_wave(self, phase: str, tasks: int, elapsed_s: float) -> None:
        """Append one wave's measurement and add it to the phase subtotal."""
        index = sum(1 for wave in self.waves if wave.phase == phase)
        self.waves.append(WaveMetrics(phase, index, tasks, elapsed_s))
        if phase == "map":
            self.map_elapsed_s += elapsed_s
        elif phase == "reduce":
            self.reduce_elapsed_s += elapsed_s

    @property
    def wave_count(self) -> int:
        return len(self.waves)


@dataclass
class PartitionMetrics:
    """Observed behaviour of the map phase on one uniform input part."""

    relation: str
    input_mb: float
    input_records: int
    intermediate_mb: float
    output_records: int
    mappers: int

    def as_map_partition(self) -> MapPartition:
        return MapPartition(
            input_mb=self.input_mb,
            intermediate_mb=self.intermediate_mb,
            records=self.output_records,
            mappers=self.mappers,
            label=self.relation,
        )


@dataclass
class JobMetrics:
    """All measurements for one simulated MR job."""

    job_id: str
    partitions: List[PartitionMetrics] = field(default_factory=list)
    reducers: int = 1
    output_mb: float = 0.0
    output_records: int = 0
    breakdown: Optional[JobCostBreakdown] = None
    map_task_durations: List[float] = field(default_factory=list)
    reduce_task_durations: List[float] = field(default_factory=list)
    #: Measured wall-clock times, stamped by the execution backend (None when
    #: the job ran through the bare engine without a backend).
    wall: Optional[WallClockMetrics] = None

    # -- derived quantities -------------------------------------------------

    @property
    def input_mb(self) -> float:
        """HDFS bytes read by the job (MB)."""
        return sum(p.input_mb for p in self.partitions)

    @property
    def input_records(self) -> int:
        return sum(p.input_records for p in self.partitions)

    @property
    def intermediate_mb(self) -> float:
        """Bytes shuffled from mappers to reducers (MB)."""
        return sum(p.intermediate_mb for p in self.partitions)

    @property
    def intermediate_records(self) -> int:
        return sum(p.output_records for p in self.partitions)

    @property
    def mappers(self) -> int:
        return sum(p.mappers for p in self.partitions)

    @property
    def total_time(self) -> float:
        """Total (aggregate) time of the job in seconds."""
        return self.breakdown.total if self.breakdown else 0.0

    def map_partitions(self) -> List[MapPartition]:
        return [p.as_map_partition() for p in self.partitions]


@dataclass
class ProgramMetrics:
    """Aggregated measurements for a whole MR program (a DAG of jobs)."""

    job_metrics: Dict[str, JobMetrics] = field(default_factory=dict)
    net_time: float = 0.0
    rounds: int = 0
    level_net_times: List[float] = field(default_factory=list)
    #: Name of the execution backend that produced these metrics.
    backend: str = "serial"
    #: Measured end-to-end wall-clock time of the program run (0 when no
    #: backend timed the run).
    wall_elapsed_s: float = 0.0

    def add_job(self, metrics: JobMetrics) -> None:
        self.job_metrics[metrics.job_id] = metrics

    # -- the paper's four metrics ----------------------------------------------

    @property
    def total_time(self) -> float:
        return sum(m.total_time for m in self.job_metrics.values())

    @property
    def input_mb(self) -> float:
        return sum(m.input_mb for m in self.job_metrics.values())

    @property
    def communication_mb(self) -> float:
        return sum(m.intermediate_mb for m in self.job_metrics.values())

    @property
    def output_mb(self) -> float:
        return sum(m.output_mb for m in self.job_metrics.values())

    @property
    def input_gb(self) -> float:
        return self.input_mb / 1024.0

    @property
    def communication_gb(self) -> float:
        return self.communication_mb / 1024.0

    @property
    def num_jobs(self) -> int:
        return len(self.job_metrics)

    def merge(self, other: "ProgramMetrics") -> "ProgramMetrics":
        """Sequential composition: metrics of running *self* then *other*."""
        combined = ProgramMetrics()
        for metrics in list(self.job_metrics.values()) + list(
            other.job_metrics.values()
        ):
            combined.add_job(metrics)
        combined.net_time = self.net_time + other.net_time
        combined.rounds = self.rounds + other.rounds
        combined.level_net_times = list(self.level_net_times) + list(
            other.level_net_times
        )
        combined.backend = self.backend if self.job_metrics else other.backend
        combined.wall_elapsed_s = self.wall_elapsed_s + other.wall_elapsed_s
        return combined

    def summary(self) -> Dict[str, float]:
        """The four headline metrics as a plain dictionary.

        Only the paper's *simulated* metrics are included, so summaries are
        comparable across backends; measured times live in
        :meth:`wall_summary`.
        """
        return {
            "net_time_s": self.net_time,
            "total_time_s": self.total_time,
            "input_gb": self.input_gb,
            "communication_gb": self.communication_gb,
        }

    def wall_summary(self) -> Dict[str, object]:
        """Measured execution statistics: backend name and wall-clock seconds."""
        return {
            "backend": self.backend,
            "wall_clock_s": self.wall_elapsed_s,
            "wall_map_s": sum(
                m.wall.map_elapsed_s for m in self.job_metrics.values() if m.wall
            ),
            "wall_reduce_s": sum(
                m.wall.reduce_elapsed_s for m in self.job_metrics.values() if m.wall
            ),
        }

    def __str__(self) -> str:
        return (
            f"ProgramMetrics(jobs={self.num_jobs}, rounds={self.rounds}, "
            f"net={self.net_time:.1f}s, total={self.total_time:.1f}s, "
            f"input={self.input_gb:.2f}GB, comm={self.communication_gb:.2f}GB)"
        )
