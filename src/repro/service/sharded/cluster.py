"""The shard cluster: long-lived workers, supervised over asyncio RPC.

:class:`ShardCluster` owns ``shards`` worker processes, each running
:func:`~repro.service.sharded.worker.worker_main` over a private
``socketpair``.  The parent side lives on a dedicated ``asyncio`` event loop
in a background thread: synchronous callers (the execution backend, the
query service's thread pool) submit coroutines with
``run_coroutine_threadsafe``, while the asyncio front-end can await the same
coroutines natively.  Per-worker channels are strictly request/response, but
a batch of tasks for one shard is *pipelined* — all frames written, then all
responses read — and batches for different shards run concurrently, so a
fan-out costs one round trip, not one per task.

Failure semantics (the tier's graceful-degradation contract):

* a dropped connection is a dead worker: the cluster respawns the shard,
  reloads every resident chunk it owns, and retries the in-flight batch
  **once** — map tasks are pure given the resident state, so the
  retry is safe and the caller never sees the death;
* a second death on the retry raises :class:`WorkerCrashedError`;
* a worker-side exception (shipped back as a ``Failure`` frame) raises
  :class:`ShardedExecutionError` immediately — deterministic errors are
  findings, not flakes, and must not be retried into silence.

:meth:`inject_crash` arms a failure injection: the next batch sent to the
shard is prefixed with a ``Crash`` frame, so the worker dies *after* the
tasks are on the wire — mid-request, deterministically — which is exactly
the scenario the respawn/retry path exists for.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...exec.base import check_width
from ...model.relation import ColumnBlock
from .routing import shard_for_chunk
from .rpc import (
    Crash,
    Failure,
    LoadRelation,
    Ok,
    Ping,
    Shutdown,
    StatsRequest,
    WorkerDied,
    WorkerStats,
    encode_frame,
    pack_chunk,
    read_frame_async,
)
from .worker import worker_main

multiprocessing.allow_connection_pickling()


class ShardedExecutionError(RuntimeError):
    """A shard worker reported an error while executing a task."""


class WorkerCrashedError(ShardedExecutionError):
    """A shard worker died and its respawned replacement died too."""


@dataclass
class _Worker:
    """One live worker process and its parent-side channel."""

    shard: int
    generation: int
    process: multiprocessing.Process
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    #: Serialises use of the channel; batches pipeline *inside* one holder.
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


@dataclass
class _Resident:
    """The cluster's authoritative copy of one shipped relation."""

    version: int
    #: Identity token of the source relation's full column block — a COW
    #: copy shares the block, so identity means "rows unchanged".
    token: object
    chunks: List[ColumnBlock]


class ShardCluster:
    """Spawn, feed, supervise and respawn the shard workers.

    Parameters
    ----------
    shards:
        Number of worker processes (each owns one shard); below 1 is a
        ``ValueError``.
    start_method:
        ``multiprocessing`` start method (platform default when omitted).
    """

    def __init__(self, shards: int, start_method: Optional[str] = None) -> None:
        self.shards = check_width("shards", shards)
        self._context = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._workers: List[Optional[_Worker]] = [None] * self.shards
        self._resident: Dict[str, _Resident] = {}
        self._crash_armed = [False] * self.shards
        self._respawns = 0
        self._retries = 0
        self._start_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._loop is not None

    @property
    def respawns(self) -> int:
        """How many workers have been respawned after a death."""
        return self._respawns

    @property
    def retries(self) -> int:
        """How many in-flight batches were retried after a worker death."""
        return self._retries

    def start(self) -> None:
        """Spawn the workers and the supervisor loop (idempotent)."""
        with self._start_lock:
            if self._loop is not None:
                return
            loop = asyncio.new_event_loop()
            thread = threading.Thread(
                target=loop.run_forever, name="repro-shard-cluster", daemon=True
            )
            thread.start()
            self._loop, self._thread = loop, thread
            self._call(self._spawn_all())

    def close(self) -> None:
        """Shut every worker down and stop the loop (a later use restarts)."""
        with self._start_lock:
            if self._loop is None:
                return
            loop, thread = self._loop, self._thread
            try:
                asyncio.run_coroutine_threadsafe(
                    self._shutdown_all(), loop
                ).result(timeout=10)
            except Exception:
                pass  # workers are daemonic; the hard path below still runs
            for slot, worker in enumerate(self._workers):
                if worker is not None and worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=5)
                self._workers[slot] = None
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join(timeout=5)
            loop.close()
            self._loop = self._thread = None
            self._resident.clear()
            self._crash_armed = [False] * self.shards

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    def _call(self, coroutine):
        """Run *coroutine* on the supervisor loop from a synchronous caller."""
        assert self._loop is not None, "cluster not started"
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()

    # -- spawning ----------------------------------------------------------------

    async def _spawn_all(self) -> None:
        for shard in range(self.shards):
            if self._workers[shard] is None:
                self._workers[shard] = await self._spawn(shard, generation=0)

    async def _spawn(self, shard: int, generation: int) -> _Worker:
        parent_sock, child_sock = socket.socketpair()
        process = self._context.Process(
            target=worker_main,
            args=(shard, child_sock),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        process.start()
        child_sock.close()
        reader, writer = await asyncio.open_connection(sock=parent_sock)
        return _Worker(
            shard=shard,
            generation=generation,
            process=process,
            reader=reader,
            writer=writer,
        )

    async def _respawn(self, dead: _Worker) -> _Worker:
        """Replace a dead worker and reload the resident chunks it owns."""
        current = self._workers[dead.shard]
        if current is not None and current.generation > dead.generation:
            return current  # someone else already respawned this shard
        if current is not None:
            try:
                current.writer.close()
            except Exception:
                pass
            if current.process.is_alive():
                current.process.terminate()
            current.process.join(timeout=5)
        worker = await self._spawn(dead.shard, generation=dead.generation + 1)
        self._workers[dead.shard] = worker
        self._respawns += 1
        reloads = [
            message
            for name, resident in self._resident.items()
            if (message := self._load_message(name, resident, worker.shard))
            is not None
        ]
        if reloads:
            await self._request_many(worker, reloads)
        return worker

    def _load_message(
        self, name: str, resident: _Resident, shard: int
    ) -> Optional[LoadRelation]:
        # packed() is memoised on the immutable block, so a respawn's reload
        # re-sends the tuples the first load built.
        chunks = {
            index: pack_chunk(block)
            for index, block in enumerate(resident.chunks)
            if shard_for_chunk(name, index, self.shards) == shard
        }
        if not chunks:
            return None
        return LoadRelation(name=name, version=resident.version, chunks=chunks)

    # -- channel -----------------------------------------------------------------

    async def _request_many(
        self, worker: _Worker, messages: Sequence[object]
    ) -> List[object]:
        """Pipeline *messages* to one worker and read one reply per message.

        ``Crash`` messages expect no reply (the worker exits instead); they
        only appear when a crash injection is armed, and the dropped
        connection they cause surfaces as :class:`WorkerDied`.
        """
        expected = sum(1 for message in messages if not isinstance(message, Crash))
        async with worker.lock:
            try:
                for message in messages:
                    worker.writer.write(encode_frame(message))
                responses = []
                for _ in range(expected):
                    responses.append(await read_frame_async(worker.reader))
                return responses
            except (
                ConnectionError,
                asyncio.IncompleteReadError,
                BrokenPipeError,
                OSError,
            ) as exc:
                raise WorkerDied(worker.shard, f"{type(exc).__name__}: {exc}") from exc

    async def _run_shard_batch(
        self, shard: int, messages: List[object]
    ) -> List[object]:
        """One shard's batch, with the death → respawn → retry-once contract."""
        worker = self._workers[shard]
        assert worker is not None, "cluster not started"
        if self._crash_armed[shard]:
            self._crash_armed[shard] = False
            messages = [Crash(), *messages]
        try:
            return await self._request_many(worker, messages)
        except WorkerDied:
            replacement = await self._respawn(worker)
            self._retries += 1
            retried = [m for m in messages if not isinstance(m, Crash)]
            try:
                return await self._request_many(replacement, retried)
            except WorkerDied as exc:
                raise WorkerCrashedError(
                    f"shard {shard} worker died again on the retried batch "
                    f"({len(retried)} message(s)): {exc}"
                ) from exc

    # -- resident data -----------------------------------------------------------

    def resident_info(self, name: str, token: object) -> Optional[Tuple[int, int]]:
        """``(version, chunk count)`` when *name* is resident at *token*.

        The token is the relation's full column block; copy-on-write copies
        share it, so identity equality is an exact "rows unchanged" test.
        """
        resident = self._resident.get(name)
        if resident is None or resident.token is not token:
            return None
        return resident.version, len(resident.chunks)

    def load_relation(
        self, name: str, chunks: Sequence[ColumnBlock], token: object
    ) -> None:
        """Ship one relation's chunks to their owning shards (replacing any
        previous version) and record it as resident."""
        self.start()
        previous = self._resident.get(name)
        resident = _Resident(
            version=(previous.version + 1) if previous else 1,
            token=token,
            chunks=list(chunks),
        )
        self._resident[name] = resident
        batches = []
        for shard in range(self.shards):
            message = self._load_message(name, resident, shard)
            if message is not None:
                batches.append((shard, [message]))
        if batches:
            self._call(self._gather(batches))

    def drop_relations(self) -> None:
        """Forget all resident relations (the next run re-ships them)."""
        self._resident.clear()

    # -- task fan-out ------------------------------------------------------------

    async def _gather(
        self, batches: Sequence[Tuple[int, List[object]]]
    ) -> List[object]:
        results = await asyncio.gather(
            *(self._run_shard_batch(shard, messages) for shard, messages in batches)
        )
        flat: List[object] = []
        for responses in results:
            flat.extend(responses)
        return flat

    def run_tasks(self, tasks: Sequence[Tuple[int, object]]) -> List[object]:
        """Fan ``(shard, message)`` tasks out and return replies by task id.

        Batches for distinct shards run concurrently; within a shard the
        messages are pipelined in order.  Replies are reordered by their
        ``task_id`` (every task message carries one), so the caller's merge
        order is the task order it built — the order the serial engine uses.
        """
        if not tasks:
            return []
        self.start()
        by_shard: Dict[int, List[object]] = {}
        for shard, message in tasks:
            by_shard.setdefault(shard, []).append(message)
        responses = self._call(self._gather(sorted(by_shard.items())))
        for response in responses:
            if isinstance(response, Failure):
                raise ShardedExecutionError(
                    f"shard task failed: {response.message}\n{response.traceback}"
                )
        return sorted(responses, key=lambda r: r.task_id)

    # -- control plane -----------------------------------------------------------

    def ping(self) -> List[dict]:
        """Liveness probe of every shard: ``[{"shard": ..., "pid": ...}]``."""
        self.start()
        replies = self._call(
            self._gather([(shard, [Ping()]) for shard in range(self.shards)])
        )
        return [reply.info for reply in replies if isinstance(reply, Ok)]

    def worker_stats(self) -> List[WorkerStats]:
        """Per-shard resident inventory and task counters."""
        self.start()
        replies = self._call(
            self._gather([(shard, [StatsRequest()]) for shard in range(self.shards)])
        )
        return [reply.info for reply in replies if isinstance(reply, Ok)]

    def inventory(self) -> Dict[int, Dict[str, List[int]]]:
        """shard → {relation → sorted resident chunk indices}, from workers."""
        return {
            stats.shard: {
                name: list(indices) for name, (_, indices) in stats.resident.items()
            }
            for stats in self.worker_stats()
        }

    def inject_crash(self, shard: int) -> None:
        """Arm a mid-request crash: the next batch to *shard* kills its worker
        after the tasks are on the wire (they are then respawn-retried)."""
        self._crash_armed[shard] = True

    async def _shutdown_all(self) -> None:
        for worker in self._workers:
            if worker is None:
                continue
            try:
                replies = await asyncio.wait_for(
                    self._request_many(worker, [Shutdown()]), timeout=5
                )
                assert isinstance(replies[0], Ok)
            except Exception:
                pass  # dead already, or wedged; close() terminates it
            try:
                worker.writer.close()
            except Exception:
                pass
            worker.process.join(timeout=5)

    def __repr__(self) -> str:
        live = sum(
            1
            for worker in self._workers
            if worker is not None and worker.process.is_alive()
        )
        return (
            f"ShardCluster(shards={self.shards}, live={live}, "
            f"resident={len(self._resident)}, respawns={self._respawns})"
        )
