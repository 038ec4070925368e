"""The shard worker: a long-lived process owning one shard's warm state.

Each worker runs :func:`worker_main` — a blocking recv loop over the private
socket its parent handed it at spawn time.  Unlike the pool workers of the
parallel backend (which receive a packed chunk with *every* task), a shard
worker keeps the :class:`~repro.model.relation.ColumnBlock` chunks it owns
resident across requests: a :class:`~repro.service.sharded.rpc.LoadRelation`
installs them once, and subsequent map tasks name ``(relation, chunk_index,
version)`` instead of shipping rows.  Chunks arrive as data-plane payloads
(:func:`repro.exec.shm.decode_payload`): on the shm plane a worker *attaches*
the cluster's shared-memory segments instead of unpickling row bytes, and a
respawned worker's resident reload is therefore a re-attach, not a re-ship.
The blocks' memoised row and key tuples — what a kernel job's ``map_batch``
reads — and the per-blob job cache with its compiled kernels stay warm with
them, which is the entire point of the tier — repeated queries pay neither
serialisation nor cache-warmup cost.

The task arithmetic is not written here: map and reduce tasks are
:func:`repro.exec.fanout.run_map_task` / :func:`~repro.exec.fanout.run_reduce_task`,
the same functions the parallel backend's pool workers run — ``map_batch``
over the resident block for a kernel job, the interpreted map otherwise.
The sharded tier changes *where* tasks run and what stays warm, never what
they compute — outputs and simulated metrics stay bit-identical to the
serial reference.
"""

from __future__ import annotations

import os
import socket
import traceback
from typing import Dict, Optional, Tuple

from ...exec import fanout
from ...exec.shm import decode_payload
from ...model.relation import ColumnBlock
from .rpc import (
    Crash,
    Failure,
    LoadRelation,
    MapTask,
    Ok,
    Ping,
    ReduceTask,
    Shutdown,
    StatsRequest,
    TaskDone,
    WorkerStats,
    recv_frame,
    send_frame,
)


class _WorkerState:
    """Everything one shard worker keeps warm between requests."""

    def __init__(self, shard: int) -> None:
        self.shard = shard
        #: relation name -> (version, {global chunk index: resident block}).
        self.relations: Dict[str, Tuple[int, Dict[int, ColumnBlock]]] = {}
        self.map_tasks = 0
        self.reduce_tasks = 0
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
            reduce_tasks=self.reduce_tasks,
            requests=self.requests,
        )


def run_map_task(state: _WorkerState, task: MapTask) -> TaskDone:
    """Run the shared map task (kernel or interpreted, as the job says) over
    the task's resident or inline chunk."""
    warm = state.chunk_for(task) if task.payload is None else None
    result, span = fanout.run_map_task(
        (task.job_blob, task.relation, task.chunk_index, task.payload, task.traced),
        warm,
        shard=state.shard,
        chunk=task.chunk_index,
        resident=warm is not None,
    )
    state.map_tasks += 1
    return TaskDone(task_id=task.task_id, result=result, span=span)


def run_reduce_task(state: _WorkerState, task: ReduceTask) -> TaskDone:
    """Reduce every key group of one shuffle partition, in shipped order."""
    # The bucket index only routes a task to its shard; it is spent by now.
    facts, span = fanout.run_reduce_task(
        (task.job_blob, 0, task.items, task.traced), shard=state.shard
    )
    state.reduce_tasks += 1
    return TaskDone(task_id=task.task_id, result=facts, span=span)


def _handle(state: _WorkerState, message: object) -> Optional[object]:
    """One request → one response (``None`` ends the loop after replying)."""
    if isinstance(message, MapTask):
        return run_map_task(state, message)
    if isinstance(message, ReduceTask):
        return run_reduce_task(state, message)
    if isinstance(message, LoadRelation):
        previous = state.relations.get(message.name)
        state.relations[message.name] = (
            message.version,
            {
                index: decode_payload(payload)
                for index, payload in message.chunks.items()
            },
        )
        if previous is not None:
            for block in previous[1].values():
                block.release()  # evicted version: drop its shm attachments
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
        for _, chunks in state.relations.values():
            for block in chunks.values():
                try:
                    block.release()
                except Exception:  # pragma: no cover - best-effort detach
                    pass
        state.relations.clear()
        conn.close()
