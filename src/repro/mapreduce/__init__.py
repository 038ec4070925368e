"""Simulated Hadoop MapReduce substrate: jobs, programs, engine, cluster, scheduler."""

from .cluster import ClusterConfig
from .counters import JobMetrics, PartitionMetrics, ProgramMetrics
from .engine import JobResult, MapReduceEngine, ProgramResult
from .job import (
    Key,
    MapReduceJob,
    OutputFact,
    REDUCERS_BY_INPUT,
    REDUCERS_BY_INTERMEDIATE,
)
from .kernels import (
    KERNEL_AUTO,
    KERNEL_MODES,
    KERNEL_OFF,
    MapBatch,
    use_kernel,
)
from .program import MRProgram, ProgramValidationError
from .scheduler import makespan, schedule_report, wave_count

__all__ = [
    "ClusterConfig",
    "JobMetrics",
    "JobResult",
    "KERNEL_AUTO",
    "KERNEL_MODES",
    "KERNEL_OFF",
    "Key",
    "MRProgram",
    "MapBatch",
    "use_kernel",
    "MapReduceEngine",
    "MapReduceJob",
    "OutputFact",
    "PartitionMetrics",
    "ProgramMetrics",
    "ProgramResult",
    "ProgramValidationError",
    "REDUCERS_BY_INPUT",
    "REDUCERS_BY_INTERMEDIATE",
    "makespan",
    "schedule_report",
    "wave_count",
]
