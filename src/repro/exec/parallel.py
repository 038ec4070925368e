"""The process-pool transport of the fan-out job.

:class:`ParallelBackend` actually fans work out across OS processes, the way
the paper's Gumbo system fans tasks out across its 10-node Hadoop cluster.
The job recipe itself — one map task per map chunk (a batch kernel over the
chunk's columns, or the interpreted map with its driver-side shuffle and
reduce tasks), the metric hand-off that keeps outputs and simulated metrics
bit-identical to the serial engine — is
:class:`~repro.exec.fanout.FanoutBackend`'s; this module is only the
transport underneath it:

* a lazily created ``multiprocessing`` pool, reused across jobs;
* wave scheduling: at most
  :attr:`~repro.mapreduce.cluster.ClusterConfig.total_slots` tasks are in
  flight per wave, mirroring how the simulated cluster's containers execute
  in waves, and each wave's wall-clock time is recorded; a wave reaches the
  pool as one message per worker, not one per task;
* *every* map chunk ships with its task (pool workers are stateless), as a
  packed :class:`~repro.model.relation.ColumnBlock` payload — homogeneous
  numeric columns travel as typed ``array`` buffers instead of per-row
  pickle records (interpreted reduce tasks still ship key groups as plain
  pairs).

Chunks cross the pool boundary over the backend's *data plane* (see
:mod:`repro.exec.shm` and ``docs/dataplane.md``); the fan-out driver encodes
them, and releases their segments when the map phase's waves are in.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from time import perf_counter
from typing import List, Optional, Sequence

from ..mapreduce.counters import WallClockMetrics
from ..mapreduce.engine import MapReduceEngine
from ..model.relation import ColumnBlock, Relation
from .. import obs
from .base import PARALLEL
from .fanout import FanoutBackend, run_map_task, run_reduce_task
from .shm import normalise_data_plane


class ParallelBackend(FanoutBackend):
    """Executes map tasks and reduce partitions on a process pool.

    Parameters
    ----------
    engine:
        The engine supplying cluster config, constants and the simulated
        metric accounting (paper-cluster default when omitted).
    workers:
        Worker processes in the pool; defaults to the machine's CPU count.
        The pool is created lazily on first use and reused across jobs (so
        startup cost is amortised over a program); call :meth:`close` (or use
        the backend as a context manager) to release it.
    start_method:
        ``multiprocessing`` start method (``"fork"``/``"spawn"``/...);
        platform default when omitted.
    data_plane:
        How map chunks cross the pool boundary: ``"shm"`` (shared-memory
        segments, zero-copy attach on the workers), ``"pickle"`` (the
        historical pipe payloads) or ``"auto"`` (the default: shm for
        chunks with enough typed bytes).  Outputs and simulated metrics are
        bit-identical on every plane.
    """

    name = PARALLEL
    path = "fanout"
    width_attr = "workers"

    def __init__(
        self,
        engine: Optional[MapReduceEngine] = None,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        data_plane: Optional[str] = None,
    ) -> None:
        super().__init__(engine, normalise_data_plane(data_plane))
        self.workers = max(1, int(workers or os.cpu_count() or 1))
        self._context = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        self._pool = None

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a later run re-creates it)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        self._segments.close_all()

    # -- the transport: every chunk ships, tasks run in waves ---------------------

    def chunk_sources(
        self, relation_name: str, relation: Optional[Relation], mappers: int
    ) -> Sequence[ColumnBlock]:
        """Every map chunk ships; a missing input is one mapper over zero rows."""
        if relation is None:
            return [ColumnBlock.from_rows([])]
        return relation.column_chunks(mappers)

    def dispatch(
        self, phase: str, tasks: List[tuple], wall: WallClockMetrics
    ) -> List[object]:
        """Run *tasks* through the pool in waves of at most ``total_slots``.

        A wave is cut into one run of consecutive tasks per worker, so it
        costs each worker one pool message however many tasks it holds.
        Each wave gets a span, and any worker-side span payloads the tasks
        shipped back are re-parented under it, so the trace shows exactly
        which wave ran which task in which worker process.
        """
        if not tasks:
            return []
        func = run_map_task if phase == "map" else run_reduce_task
        if self._pool is None:
            self._pool = self._context.Pool(processes=self.workers)
        slots = max(1, self.engine.cluster.total_slots)
        tracer = obs.current_tracer()
        results: List = []
        for start in range(0, len(tasks), slots):
            wave = tasks[start : start + slots]
            begin = perf_counter()
            with obs.span("wave", phase=phase, tasks=len(wave)) as wave_span:
                per_worker = math.ceil(len(wave) / self.workers)
                for result, payload in self._pool.map(
                    func, wave, chunksize=per_worker
                ):
                    results.append(result)
                    if payload is not None and tracer is not None:
                        tracer.adopt_payload(payload, wave_span.span_id)
            wall.record_wave(phase, len(wave), perf_counter() - begin)
        return results
