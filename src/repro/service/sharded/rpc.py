"""Length-prefixed pickle RPC: the wire protocol of the sharded tier.

Every message travels as one *frame*: a 4-byte big-endian unsigned length
followed by that many bytes of pickle (``pickle.HIGHEST_PROTOCOL``).  The
framing is symmetric — the parent's ``asyncio`` side and the worker's
blocking side speak the same bytes — and deliberately minimal: the sharded
tier is a request/response protocol over a private ``socketpair`` per
worker, so no message ids, routing headers or negotiation are needed beyond
the per-task ``task_id`` the router uses to reassemble fan-out batches.

The message vocabulary (all plain picklable dataclasses):

========================  =========================================================
request                   worker behaviour
========================  =========================================================
:class:`LoadRelation`     replace the named relation's resident chunks → :class:`Ok`
:class:`MapTask`          ``map_batch`` one resident/inline chunk → :class:`TaskDone`
:class:`Ping`             liveness + shard id → :class:`Ok`
:class:`StatsRequest`     resident inventory and task counters → :class:`Ok`
:class:`Crash`            ``os._exit`` *without replying* (failure injection)
:class:`Shutdown`         reply :class:`Ok`, then exit the recv loop
========================  =========================================================

A worker that catches an exception replies :class:`Failure` (message +
formatted traceback); a worker that dies simply drops the connection, which
the cluster surfaces as :class:`WorkerDied` and handles by respawning the
shard and retrying the in-flight batch once.
"""

from __future__ import annotations

import pickle
import socket
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...model.relation import ColumnBlock
from ...obs import metrics as obs_metrics

#: Frame header: payload length, 4-byte big-endian unsigned.
_HEADER = struct.Struct(">I")

#: Hard ceiling on one frame's payload (1 GiB) — a corrupted header must not
#: turn into an unbounded allocation.  The cap is *inclusive*: a payload of
#: exactly ``MAX_FRAME_BYTES`` is legal on both the encode and decode side;
#: one byte more raises :class:`FrameTooLargeError` (never a struct error).
MAX_FRAME_BYTES = 1 << 30


#: Typed (``'q'``/``'d'``) column bytes pickled into chunk payloads.
_BYTES_SHIPPED = obs_metrics.default_registry().counter(
    "repro_bytes_shipped", plane="pickle"
)


def pack_chunk(block: ColumnBlock) -> tuple:
    """*block* as a chunk payload: its :meth:`~ColumnBlock.packed` tuple.

    The worker rebuilds it with :meth:`~ColumnBlock.unpack`.  The typed
    column bytes are counted in ``repro_bytes_shipped{plane="pickle"}``.
    """
    packed = block.packed()
    _BYTES_SHIPPED.inc(
        sum(column.itemsize * len(column) for kind, column in packed[2] if kind != "o")
    )
    return packed


class RPCError(RuntimeError):
    """Base class for sharded-tier transport errors."""


class FrameTooLargeError(RPCError):
    """A frame exceeded :data:`MAX_FRAME_BYTES` (corrupt stream or huge payload)."""


class WorkerDied(RPCError):
    """The worker's connection dropped mid-conversation (process death)."""

    def __init__(self, shard: int, detail: str = "connection lost") -> None:
        super().__init__(f"shard {shard} worker died: {detail}")
        self.shard = shard


# -- messages ----------------------------------------------------------------------


@dataclass(frozen=True)
class LoadRelation:
    """Install (or replace) one relation's resident chunks on a worker.

    ``chunks`` maps *global* chunk index → :func:`pack_chunk` payload;
    only the chunks the receiving shard owns are included.
    ``version`` is the cluster's ship counter for the relation — map tasks
    name the version they expect, so a stale worker answers with a
    :class:`Failure` instead of stale data.
    """

    name: str
    version: int
    chunks: Dict[int, object]


@dataclass(frozen=True)
class MapTask:
    """One map chunk of one kernel job: ``job.map_batch`` over the chunk
    (see :func:`repro.service.sharded.worker.run_map_task`).

    ``payload`` is ``None`` for resident chunks (the worker reads its warm
    block) and a :func:`pack_chunk` payload for inline shipment
    (intermediate relations that only exist inside one program run).
    """

    task_id: int
    job_blob: bytes
    relation: str
    chunk_index: int
    version: int = 0
    payload: object = None
    traced: bool = False


@dataclass(frozen=True)
class Ping:
    """Liveness probe."""


@dataclass(frozen=True)
class StatsRequest:
    """Ask the worker for its resident inventory and task counters."""


@dataclass(frozen=True)
class Crash:
    """Kill the worker process *without* a reply (failure-injection hook)."""


@dataclass(frozen=True)
class Shutdown:
    """Acknowledge with :class:`Ok` and leave the recv loop."""


# -- responses ---------------------------------------------------------------------


@dataclass(frozen=True)
class TaskDone:
    """A finished map task: its partial batch plus an optional span payload.

    The batch pickles as its integer sums and reduce-kernel data only — no
    per-key mapping crosses the boundary (see
    :class:`~repro.mapreduce.kernels.MapBatch`).
    """

    task_id: int
    result: object
    span: Optional[dict] = None


@dataclass(frozen=True)
class Ok:
    """Generic acknowledgement; ``info`` carries ping/stats payloads."""

    info: object = None


@dataclass(frozen=True)
class Failure:
    """A worker-side exception, shipped back instead of a result."""

    message: str
    traceback: str = ""
    task_id: Optional[int] = None


@dataclass
class WorkerStats:
    """The payload of a ``StatsRequest`` reply."""

    shard: int
    pid: int
    #: relation name -> (version, sorted resident chunk indices).
    resident: Dict[str, Tuple[int, List[int]]] = field(default_factory=dict)
    map_tasks: int = 0
    requests: int = 0


# -- framing -----------------------------------------------------------------------


def encode_frame(message: object) -> bytes:
    """One wire frame: 4-byte length header + pickled message."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return _HEADER.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> object:
    """The message inside one frame's payload bytes."""
    return pickle.loads(payload)


def send_frame(sock: socket.socket, message: object) -> None:
    """Blocking send of one framed message (worker side)."""
    sock.sendall(encode_frame(message))


def recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly *count* bytes, raising ``ConnectionError`` on EOF."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> object:
    """Blocking receive of one framed message (worker side)."""
    (length,) = _HEADER.unpack(recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"incoming frame claims {length} bytes (cap {MAX_FRAME_BYTES})"
        )
    return decode_frame(recv_exact(sock, length))


async def read_frame_async(reader) -> object:
    """One framed message from an ``asyncio.StreamReader`` (parent side)."""
    header = await reader.readexactly(_HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"incoming frame claims {length} bytes (cap {MAX_FRAME_BYTES})"
        )
    return decode_frame(await reader.readexactly(length))
