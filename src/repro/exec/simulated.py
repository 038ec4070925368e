"""The serial backend: the seed engine behind the backend seam, unchanged.

:class:`SimulatedBackend` delegates straight to the serial in-process
:class:`~repro.mapreduce.engine.MapReduceEngine` — identical semantics and
identical simulated metrics to calling the engine directly — and additionally
stamps measured wall-clock times on the results so it can serve as the
baseline of simulated-vs-real speedup comparisons.  Programs run through the
inherited :meth:`~repro.exec.base.ExecutionBackend.run_program`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from ..mapreduce.counters import WallClockMetrics
from ..mapreduce.engine import JobResult, MapReduceEngine
from ..mapreduce.job import MapReduceJob
from ..model.database import Database
from .base import SERIAL, ExecutionBackend


class SimulatedBackend(ExecutionBackend):
    """Runs every map and reduce task serially, in-process."""

    name = SERIAL

    def __init__(self, engine: Optional[MapReduceEngine] = None) -> None:
        self.engine = engine or MapReduceEngine()

    def run_job(self, job: MapReduceJob, database: Database) -> JobResult:
        """Run one job in-process and stamp the measured wall clock."""
        start = perf_counter()
        result = self.engine.run_job(job, database)
        result.metrics.wall = WallClockMetrics(
            backend=self.name, workers=1, elapsed_s=perf_counter() - start
        )
        return result
