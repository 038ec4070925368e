"""The fan-out job: one scheduler shared by every multi-process transport.

A *fan-out* backend runs the paper's job recipe (Figure 1) with real
processes: one map task per map chunk — the same strided chunks the serial
engine iterates — on a worker.  What a map task computes follows the job,
by the one rule every backend uses
(:func:`~repro.mapreduce.kernels.use_kernel`):

* a **kernel** job's task runs ``job.map_batch`` straight over the chunk's
  column block — attached from the data plane (:mod:`repro.exec.shm`) or
  already resident on the worker — and replies with the chunk's partial
  :class:`~repro.mapreduce.kernels.MapBatch`.  The rest of the job is the
  engine's :meth:`~repro.mapreduce.engine.MapReduceEngine.run_job_kernel`,
  unchanged: the partials' accounting summed, ``reduce_batch`` run on the
  driver, no shuffle sort and no reduce tasks.  This module supplies only
  *where ``map_batch`` runs*;
* any other job (``kernel_mode="off"``, or no kernel implemented) takes the
  **interpreted** fan-out, whose recipe is written once, here: the map task
  is :func:`map_chunk` (tuple-at-a-time, combined and sized per chunk), the
  shuffle is merged on the driver in task order, and a hash-partitioned
  reduce runs one :func:`reduce_bucket` task per non-empty reducer bucket.

:class:`FanoutBackend` owns the parent side — task building per input part,
shipping chunks over the data plane and releasing their segments, and for
interpreted jobs the shuffle merge, reducer bucketing and the metric
hand-off to
:meth:`~repro.mapreduce.engine.MapReduceEngine.finalise_job_metrics` — and
:func:`run_map_task` / :func:`run_reduce_task` (with the
:func:`job_from_blob` memo) are the worker side.  A *transport*
(:class:`~repro.exec.parallel.ParallelBackend`'s process pool,
:class:`~repro.service.sharded.backend.ShardedBackend`'s persistent shard
workers) subclasses :class:`FanoutBackend` and supplies two methods:
:meth:`~FanoutBackend.chunk_sources` (what to run a part's map tasks over)
and :meth:`~FanoutBackend.dispatch` (run one phase's tasks, return their
results in task order).

Because chunking, partitioning and byte accounting are shared with the
serial engine, outputs and simulated Hadoop metrics are bit-identical to
:class:`~repro.exec.simulated.SimulatedBackend` on every transport and on
both task kinds; only the measured wall-clock metrics differ.

Jobs are shipped to the workers by pickling, so jobs must be picklable (all
jobs in this package are: they hold only query dataclasses and options,
never closures).  The job is pickled once per job run and the resulting blob
shared by every task of both phases; workers memoise the deserialised job
per blob — compiled kernel included — so neither side pays the job's
serialisation cost per task.
"""

from __future__ import annotations

import pickle
from abc import abstractmethod
from collections import Counter, defaultdict
from functools import lru_cache, partial
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..mapreduce.counters import WallClockMetrics
from ..mapreduce.engine import (
    InputPart,
    JobResult,
    MapReduceEngine,
    add_output_fact,
    prepare_output_relations,
)
from ..mapreduce.job import Key, MapReduceJob
from ..mapreduce.kernels import use_kernel
from ..model.database import Database
from ..model.relation import ColumnBlock, Relation, tuple_sort_key
from ..obs import metrics as obs_metrics
from .. import obs
from .base import ExecutionBackend
from .partition import partition_index
from .shm import SegmentPool, decode_payload, encode_block, payload_segment

_MB = 1024.0 * 1024.0

#: A map task handed to :meth:`FanoutBackend.dispatch`: (job pickle, input
#: relation, chunk index within the relation, chunk source, trace this
#: task?).  The source is a data-plane payload (see
#: :func:`repro.exec.shm.decode_payload`) or the transport's own reference
#: to a chunk its workers already hold.
MapTask = Tuple[bytes, str, int, object, bool]

#: A reduce task handed to :meth:`FanoutBackend.dispatch`: (job pickle,
#: reducer bucket index, [(key, values), ...], trace this task?).
ReduceTask = Tuple[bytes, int, List[Tuple[Key, List[object]]], bool]

#: The result of one interpreted map task: (pairs in emission order,
#: intermediate bytes, per-key byte loads).
MapResult = Tuple[List[Tuple[Key, object]], int, Dict[Key, int]]

# -- worker side -------------------------------------------------------------------


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


def map_chunk(job: MapReduceJob, relation_name: str, block: ColumnBlock) -> MapResult:
    """Map, combine and size one chunk of rows — the serial engine's recipe.

    Returns the emitted ``(key, value)`` pairs in emission order (so the
    parent can rebuild the exact key-group ordering the serial engine
    produces), the chunk's intermediate bytes, and its per-key byte loads.
    """
    buffer: Dict[Key, List[object]] = {}
    for row in block.rows():
        for key, value in job.map(relation_name, row):
            buffer.setdefault(key, []).append(value)
    pairs: List[Tuple[Key, object]] = []
    intermediate_bytes = 0
    key_bytes: Dict[Key, int] = {}
    for key, values in buffer.items():
        if job.uses_combiner():
            values = job.combine(key, values)
        for value in values:
            pair_size = job.pair_bytes(key, value)
            intermediate_bytes += pair_size
            key_bytes[key] = key_bytes.get(key, 0) + pair_size
            pairs.append((key, value))
    return pairs, intermediate_bytes, key_bytes


def reduce_bucket(
    job: MapReduceJob, items: Sequence[Tuple[Key, List[object]]]
) -> List[Tuple[str, Tuple[object, ...]]]:
    """Reduce every key group of one shuffle partition, in shipped order."""
    facts: List[Tuple[str, Tuple[object, ...]]] = []
    for key, values in items:
        facts.extend(job.reduce(key, values))
    return facts


def _task_span(traced: bool, name: str, start_s: float, **attrs: object):
    """A worker-side span payload ending now (``None`` when not *traced*)."""
    if not traced:
        return None
    return obs.worker_payload(name, start_s, perf_counter(), **attrs)


def run_map_task(task: MapTask, warm: Optional[ColumnBlock] = None, **attrs: object):
    """Worker-side map task over the task's chunk.

    A kernel job (:func:`~repro.mapreduce.kernels.use_kernel` — the same rule
    the parent applied when it built the task) runs ``job.map_batch`` over
    the chunk's column block and returns the chunk's partial
    :class:`~repro.mapreduce.kernels.MapBatch`; any other job runs
    :func:`map_chunk` and returns a :data:`MapResult`.  The chunk is the
    task's data-plane payload — attached, and released again once it is
    mapped — unless the worker passes the *warm* block it already holds.
    Second element of the reply: a :func:`~repro.obs.trace.worker_payload`
    span dict (carrying *attrs*) when the parent asked for tracing, ``None``
    otherwise.
    """
    job_blob, relation_name, _, source, traced = task
    start_s = perf_counter() if traced else 0.0
    job = job_from_blob(job_blob)
    kernel = use_kernel(job)
    block = warm if warm is not None else decode_payload(source)
    rows = len(block)
    try:
        if kernel:
            result = job.map_batch(relation_name, [block])
            pairs = result.output_records
        else:
            result = map_chunk(job, relation_name, block)
            pairs = len(result[0])
    finally:
        if warm is None:
            block.release()  # transient chunk: unpin its shm segment (if any)
    span = _task_span(
        traced,
        "map_task",
        start_s,
        relation=relation_name,
        rows=rows,
        pairs=pairs,
        kernel=kernel,
        **attrs,
    )
    return result, span


def run_reduce_task(task: ReduceTask, **attrs: object):
    """Worker-side reduce task: :func:`reduce_bucket` plus the optional span."""
    job_blob, _, items, traced = task
    start_s = perf_counter() if traced else 0.0
    facts = reduce_bucket(job_from_blob(job_blob), items)
    span = _task_span(
        traced, "reduce_task", start_s, groups=len(items), facts=len(facts), **attrs
    )
    return facts, span


# -- parent side -------------------------------------------------------------------


class FanoutBackend(ExecutionBackend):
    """Runs a job's map chunks (and reduce buckets) as tasks on worker processes.

    Subclasses are *transports*: they set :attr:`path` and
    :attr:`width_attr`, call this constructor with their engine and their
    normalised data plane, and implement :meth:`chunk_sources` and
    :meth:`dispatch`.
    """

    #: ``path`` label of this transport's interpreted ``job`` spans and of
    #: its ``repro_jobs_total`` dispatch counter (kernel jobs are counted by
    #: the engine as ``path="kernel"`` wherever their map phase ran, the
    #: serial interpreter as ``path="interpreted"``).
    path: str

    #: Name of the instance attribute holding the transport's process count;
    #: also the ``job`` span attribute it is reported under.
    width_attr: str

    def __init__(self, engine: Optional[MapReduceEngine], data_plane: str) -> None:
        self.engine = engine or MapReduceEngine()
        self.data_plane = data_plane
        #: Parent-owned segments of chunks shipped *with* their tasks; each is
        #: released when its map phase's tasks have returned.
        self._segments = SegmentPool()
        self._jobs_total = obs_metrics.default_registry().counter(
            "repro_jobs_total", path=self.path
        )

    # -- the transport seam --------------------------------------------------------

    @abstractmethod
    def chunk_sources(
        self, relation_name: str, relation: Optional[Relation], mappers: int
    ) -> Sequence[object]:
        """What the map tasks of one input part run over, in chunk order.

        A :class:`~repro.model.relation.ColumnBlock` is shipped with its task
        over the data plane; anything else reaches :meth:`dispatch` untouched
        (the transport's reference to a chunk its workers already hold).
        *relation* is ``None`` when the database lacks the input.
        """

    @abstractmethod
    def dispatch(
        self, phase: str, tasks: List[tuple], wall: WallClockMetrics
    ) -> List[object]:
        """Run the ``"map"`` or ``"reduce"`` *tasks* on the workers.

        Returns one result per task, **in task order** — what
        :func:`run_map_task` returns per :data:`MapTask`, a list of
        ``(relation, row)`` facts per :data:`ReduceTask` — after recording
        the measured time with ``wall.record_wave`` and adopting any worker
        span payloads.
        """

    # -- single job ----------------------------------------------------------------

    def run_job(self, job: MapReduceJob, database: Database) -> JobResult:
        """Execute one MapReduce job with its map phase fanned out.

        A kernel job is the engine's
        :meth:`~repro.mapreduce.engine.MapReduceEngine.run_job_kernel` with
        the workers as its map phase: one ``map_batch`` per chunk there, the
        partials summed and ``reduce_batch`` run here.  Any other job is the
        interpreted fan-out: tuple-at-a-time map tasks, the shuffle merged
        here in task order, one reduce task per non-empty reducer bucket.
        Outputs and simulated metrics are identical either way.
        """
        width = getattr(self, self.width_attr)
        wall = WallClockMetrics(backend=self.name, workers=width)
        start = perf_counter()
        job_blob = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        if use_kernel(job):
            result = self.engine.run_job_kernel(
                job, database, partial(self._map_phase, job_blob, wall), wall
            )
        else:
            result = self._run_job_interpreted(job, job_blob, database, wall)
        wall.elapsed_s = perf_counter() - start
        result.metrics.wall = wall
        return result

    def _map_phase(
        self, job_blob: bytes, wall: WallClockMetrics, parts: List[InputPart]
    ) -> List[List[object]]:
        """One map task per chunk source of every input part, on the workers.

        Returns, per part, its tasks' results in chunk order (so flattening
        the parts gives the order the serial engine processes chunks in).
        Chunks that ship with their task are encoded for the data plane here
        and their segments released once the tasks are back — or shipping or
        a task failed: the workers have materialised what they need by then.
        """
        traced = obs.tracing_enabled()
        tasks: List[MapTask] = []
        task_parts: List[int] = []
        shipped_segments: List[str] = []
        try:
            for part_index, (relation, partition) in enumerate(parts):
                name = partition.relation
                sources = self.chunk_sources(name, relation, partition.mappers)
                for index, source in enumerate(sources):
                    if isinstance(source, ColumnBlock):
                        source = encode_block(source, self._segments, self.data_plane)
                        segment = payload_segment(source)
                        if segment is not None:
                            shipped_segments.append(segment)
                    task_parts.append(part_index)
                    tasks.append((job_blob, name, index, source, traced))
            results = self.dispatch("map", tasks, wall)
        finally:
            for segment in shipped_segments:
                self._segments.release(segment)
        per_part: List[List[object]] = [[] for _ in parts]
        for part_index, result in zip(task_parts, results):
            per_part[part_index].append(result)
        return per_part

    def _run_job_interpreted(
        self,
        job: MapReduceJob,
        job_blob: bytes,
        database: Database,
        wall: WallClockMetrics,
    ) -> JobResult:
        """The interpreted fan-out: map tasks, parent shuffle, reduce tasks."""
        self._jobs_total.inc()
        with obs.span(
            "job", job_id=job.job_id, kind=type(job).__name__, path=self.path
        ) as job_span:
            parts = self.engine.input_parts(job, database)
            results = self._map_phase(job_blob, wall, parts)

            # Shuffle: merge in task order — chunks of the first relation
            # first, then the next relation's, exactly the order the serial
            # engine processes them.
            groups: Dict[Key, List[object]] = defaultdict(list)
            key_bytes: Counter = Counter()
            partitions = [partition for _, partition in parts]
            for partition, part_results in zip(partitions, results):
                part_bytes = 0
                for pairs, chunk_bytes, chunk_key_bytes in part_results:
                    part_bytes += chunk_bytes
                    partition.output_records += len(pairs)
                    for key, value in pairs:
                        groups[key].append(value)
                    key_bytes.update(chunk_key_bytes)
                partition.intermediate_mb = part_bytes / _MB

            # Reduce: hash-partition the sorted key groups over the reducers,
            # one task per non-empty bucket.
            reducers = self.engine.reducers_for(
                job,
                sum(p.input_mb for p in partitions),
                sum(p.intermediate_mb for p in partitions),
            )
            buckets: List[List[Tuple[Key, List[object]]]] = [
                [] for _ in range(max(1, reducers))
            ]
            for key in sorted(groups, key=tuple_sort_key):
                buckets[partition_index(key, len(buckets))].append((key, groups[key]))
            traced = obs.tracing_enabled()
            reduce_tasks: List[ReduceTask] = [
                (job_blob, index, bucket, traced)
                for index, bucket in enumerate(buckets)
                if bucket
            ]
            outputs = prepare_output_relations(job)
            for facts in self.dispatch("reduce", reduce_tasks, wall):
                for relation_name, row in facts:
                    add_output_fact(job, outputs, relation_name, row)

            metrics = self.engine.finalise_job_metrics(
                job, partitions, key_bytes, outputs
            )
            job_span.set(reducers=reducers, **{self.width_attr: wall.workers})
            return JobResult(job_id=job.job_id, outputs=outputs, metrics=metrics)

    def __repr__(self) -> str:
        width = getattr(self, self.width_attr)
        return f"{type(self).__name__}({self.width_attr}={width})"
