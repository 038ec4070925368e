"""The shard worker: a long-lived process owning one shard's warm state.

Each worker runs :func:`worker_main` — a blocking recv loop over the private
socket its parent handed it at spawn time.  A shard worker keeps the
:class:`~repro.model.relation.ColumnBlock` chunks it owns resident across
requests: a :class:`~repro.service.sharded.rpc.LoadRelation` installs them
once, and subsequent map tasks name ``(relation, chunk_index, version)``
instead of shipping rows.  Chunks arrive as pickled
:meth:`~repro.model.relation.ColumnBlock.packed` tuples and are rebuilt with
:meth:`~repro.model.relation.ColumnBlock.unpack`.  The blocks' memoised row
and key tuples — what a kernel job's ``map_batch`` reads — and the
per-blob job memo (:func:`job_from_blob`) with its compiled kernels stay
warm with them, which is the entire point of the tier — repeated queries
pay neither serialisation nor cache-warmup cost.

A worker runs exactly one kind of task: ``job.map_batch`` over one chunk
(:func:`run_map_task`).  Jobs without a batch kernel never reach it — the
driver interprets those itself — so the tier changes *where* ``map_batch``
runs and what stays warm, never what is computed: outputs and simulated
metrics stay bit-identical to the serial reference.
"""

from __future__ import annotations

import os
import pickle
import socket
import traceback
from functools import lru_cache
from time import perf_counter
from typing import Dict, Optional, Tuple

from ...mapreduce.engine import collector_paused
from ...mapreduce.job import MapReduceJob
from ...model.relation import ColumnBlock
from ... import obs
from .rpc import (
    Crash,
    Failure,
    LoadRelation,
    MapTask,
    Ok,
    Ping,
    Shutdown,
    StatsRequest,
    TaskDone,
    WorkerStats,
    recv_frame,
    send_frame,
)


@lru_cache(maxsize=32)
def job_from_blob(blob: bytes) -> MapReduceJob:
    """The job pickled as *blob*, deserialised once per worker process.

    Every task of a job run carries the same bytes, so a worker pays the
    deserialisation — and the compilation of the job's batch kernel, which
    the cached job then carries — once per job instead of once per task.
    The memo is a small LRU: a service cycling through more distinct jobs
    than it holds rebuilds only the least recently used ones.
    """
    return pickle.loads(blob)


class _WorkerState:
    """Everything one shard worker keeps warm between requests."""

    def __init__(self, shard: int) -> None:
        self.shard = shard
        #: relation name -> (version, {global chunk index: resident block}).
        self.relations: Dict[str, Tuple[int, Dict[int, ColumnBlock]]] = {}
        self.map_tasks = 0
        self.requests = 0

    def chunk_for(self, task: MapTask) -> ColumnBlock:
        """The resident chunk a payload-less map task names."""
        entry = self.relations.get(task.relation)
        if entry is None:
            raise LookupError(
                f"shard {self.shard} has no resident relation {task.relation!r}"
            )
        version, chunks = entry
        if version != task.version:
            raise LookupError(
                f"shard {self.shard} holds {task.relation!r} at version "
                f"{version}, task expects version {task.version}"
            )
        block = chunks.get(task.chunk_index)
        if block is None:
            raise LookupError(
                f"shard {self.shard} does not own chunk {task.chunk_index} "
                f"of {task.relation!r} (resident: {sorted(chunks)})"
            )
        return block

    def stats(self) -> WorkerStats:
        return WorkerStats(
            shard=self.shard,
            pid=os.getpid(),
            resident={
                name: (version, sorted(chunks))
                for name, (version, chunks) in sorted(self.relations.items())
            },
            map_tasks=self.map_tasks,
            requests=self.requests,
        )


def run_map_task(state: _WorkerState, task: MapTask) -> TaskDone:
    """``job.map_batch`` over the task's chunk → its partial ``MapBatch``.

    The chunk is the worker's resident block, or the task's inline packed
    payload, unpacked.
    The batch's ledger stays here: the reply carries sums and reduce data,
    and a driver that needs per-key loads derives them from its own copy.
    When the parent asked for tracing the reply carries a
    :func:`~repro.obs.trace.worker_payload` span dict.
    """
    start_s = perf_counter() if task.traced else 0.0
    job = job_from_blob(task.job_blob)
    resident = task.payload is None
    block = state.chunk_for(task) if resident else ColumnBlock.unpack(task.payload)
    rows = len(block)
    with collector_paused():
        batch = job.map_batch(task.relation, [block])
    state.map_tasks += 1
    span = None
    if task.traced:
        span = obs.worker_payload(
            "map_task",
            start_s,
            perf_counter(),
            relation=task.relation,
            rows=rows,
            pairs=batch.output_records,
            shard=state.shard,
            chunk=task.chunk_index,
            resident=resident,
        )
    return TaskDone(task_id=task.task_id, result=batch, span=span)


def _handle(state: _WorkerState, message: object) -> Optional[object]:
    """One request → one response (``None`` ends the loop after replying)."""
    if isinstance(message, MapTask):
        return run_map_task(state, message)
    if isinstance(message, LoadRelation):
        state.relations[message.name] = (
            message.version,
            {
                index: ColumnBlock.unpack(payload)
                for index, payload in message.chunks.items()
            },
        )
        return Ok(info=len(message.chunks))
    if isinstance(message, Ping):
        return Ok(info={"shard": state.shard, "pid": os.getpid()})
    if isinstance(message, StatsRequest):
        return Ok(info=state.stats())
    raise TypeError(f"shard worker got unknown message {type(message).__name__}")


def worker_main(shard: int, conn: socket.socket) -> None:
    """The worker process entry point: serve framed requests until told to stop.

    :class:`Crash` exits the process *without* replying — the parent's next
    read fails, exercising the death → respawn → retry path deterministically.
    Any other exception is caught and shipped back as a :class:`Failure`, so
    a bad task never kills the shard.
    """
    state = _WorkerState(shard)
    try:
        while True:
            try:
                message = recv_frame(conn)
            except (ConnectionError, OSError):
                break  # parent went away; nothing left to serve
            state.requests += 1
            if isinstance(message, Crash):
                os._exit(17)
            if isinstance(message, Shutdown):
                send_frame(conn, Ok())
                break
            task_id = getattr(message, "task_id", None)
            try:
                response = _handle(state, message)
            except Exception as exc:  # ship the failure, keep serving
                response = Failure(
                    message=f"{type(exc).__name__}: {exc}",
                    traceback=traceback.format_exc(),
                    task_id=task_id,
                )
            try:
                send_frame(conn, response)
            except (ConnectionError, OSError):
                break
    finally:
        conn.close()
