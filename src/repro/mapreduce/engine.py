"""The in-process MapReduce execution engine.

This is the substrate substituting for the paper's 10-node Hadoop cluster.
It *actually executes* the map and reduce functions of every job over the
in-memory database (so results can be checked against the reference
semantics), while *charging time* with the cost model of Section 3.3 and a
wave-based slot scheduler — producing the four metrics the paper reports:
total time, net time, HDFS input bytes and mapper→reducer communication bytes.

Execution of one job proceeds exactly along Figure 1 of the paper:

1. every input relation forms one uniform part ``I_i`` of the input; its rows
   are split over ``m_i = ceil(N_i / split)`` map tasks;
2. the map function is applied per row; when the job uses a combiner (message
   packing), pairs are combined per map task before being sized;
3. intermediate pairs are grouped by key (the shuffle);
4. ``r`` reducers are allocated according to the job's policy;
5. the reduce function is applied per group and outputs are materialised as
   new relations.

Timing always uses the per-partition cost model (Equation (2)) because that
is the more faithful model of the underlying system; which cost model the
*planner* uses to choose a plan is an independent choice (experiment E3).
"""

from __future__ import annotations

import gc
import math
import os
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..cost.constants import (
    CostConstants,
    GUMBO_MB_PER_REDUCER,
    PIG_INPUT_MB_PER_REDUCER,
)
from ..cost.formulas import map_cost
from ..cost.models import GumboCostModel, JobProfile
from ..exec.partition import map_task_chunks, partition_index, stable_hash
from ..model.database import Database
from ..model.relation import ColumnBlock, Relation, tuple_sort_key
from ..obs import metrics as obs_metrics
from .. import obs
from .cluster import ClusterConfig
from .counters import JobMetrics, PartitionMetrics, ProgramMetrics, WallClockMetrics
from .job import Key, MapReduceJob
from .kernels import MapBatch, use_kernel
from .program import MRProgram
from .scheduler import makespan

_MB = 1024.0 * 1024.0

#: One uniform input part of a job (see :meth:`MapReduceEngine.input_parts`):
#: the relation, ``None`` when the database lacks it, and its partition
#: metrics, whose ``relation`` field names the input either way.
InputPart = Tuple[Optional[Relation], PartitionMetrics]

#: Per-key byte loads on demand (see :meth:`MapReduceEngine.finalise_job_metrics`).
KeyLoads = Callable[[], Iterable[Mapping[Key, int]]]

#: Where a kernel job's ``map_batch`` runs (see
#: :meth:`MapReduceEngine.run_job_kernel`): the job's input parts in, per
#: part its partial batches in chunk order out.
MapPhase = Callable[[List[InputPart]], List[List[MapBatch]]]

#: Backward-compatible alias; the shared implementation lives in
#: :mod:`repro.exec.partition` so every execution backend partitions
#: identically.
_stable_hash = stable_hash

#: Process-global execution counters (see :mod:`repro.obs.metrics`), created
#: once at import so per-job recording is a single locked add.  The dispatch
#: counters are bumped at the dispatch sites (interpreted here, kernel in
#: :meth:`MapReduceEngine.run_job_kernel`); the byte/row counters in
#: :meth:`finalise_job_metrics`, which every backend funnels through.
_JOBS_INTERPRETED = obs_metrics.default_registry().counter(
    "repro_jobs_total", path="interpreted"
)
_JOBS_KERNEL = obs_metrics.default_registry().counter(
    "repro_jobs_total", path="kernel"
)
_SHUFFLE_BYTES = obs_metrics.default_registry().counter(
    "repro_shuffle_bytes_total"
)
_ROWS_IN = obs_metrics.default_registry().counter("repro_rows_total", dir="in")
_ROWS_OUT = obs_metrics.default_registry().counter("repro_rows_total", dir="out")


def prepare_output_relations(job: MapReduceJob) -> Dict[str, Relation]:
    """Empty output relations for *job*, honouring its byte-size overrides."""
    outputs: Dict[str, Relation] = {}
    for name, arity in job.output_schema().items():
        override = job.output_tuple_bytes(name)
        bytes_per_field = (
            max(1, round(override / arity))
            if override
            else Relation(name, arity).bytes_per_field
        )
        outputs[name] = Relation(name, arity, bytes_per_field)
    return outputs


def add_output_fact(
    job: MapReduceJob,
    outputs: Dict[str, Relation],
    relation_name: str,
    row: Tuple[object, ...],
) -> None:
    """Materialise one reduce output fact, validating the target relation."""
    if relation_name not in outputs:
        raise KeyError(
            f"job {job.job_id!r} emitted to undeclared relation "
            f"{relation_name!r}"
        )
    outputs[relation_name].add(row)


@dataclass
class JobResult:
    """Outcome of running one job: its output relations and its metrics."""

    job_id: str
    outputs: Dict[str, Relation]
    metrics: JobMetrics


@dataclass
class ProgramResult:
    """Outcome of running an MR program."""

    program: MRProgram
    outputs: Dict[str, Relation]
    metrics: ProgramMetrics
    database: Database

    def relation(self, name: str) -> Relation:
        return self.outputs[name]


_pause_lock = threading.Lock()
_pause_depth = 0
_pause_restores = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the span of engine work.

    Engine work makes no reference cycles, so pausing frees nothing later
    than the collector would have; cycles made elsewhere are collected as
    before once the last pause ends.  Re-entrant and thread-safe: the last
    exit, on exceptions too, re-enables the collector only if the first
    entry found it enabled (a caller's ``gc.disable()`` holds).
    """
    global _pause_depth, _pause_restores
    with _pause_lock:
        if _pause_depth == 0:
            _pause_restores = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if _pause_depth == 0 and _pause_restores:
                gc.enable()


def _unpause_after_fork() -> None:
    """A child forked while paused (a respawned worker) starts unpaused."""
    global _pause_depth, _pause_lock
    _pause_lock = threading.Lock()
    if _pause_depth and _pause_restores:
        gc.enable()
    _pause_depth = 0


os.register_at_fork(after_in_child=_unpause_after_fork)


class MapReduceEngine:
    """Simulated Hadoop: executes jobs/programs and accounts costs.

    Parameters
    ----------
    cluster:
        The cluster configuration (defaults to the paper's 10-node cluster).
    constants:
        Cost constants (Table 5) used to charge time.
    mb_per_reducer_intermediate / mb_per_reducer_input:
        Reducer-allocation granularity for the two allocation policies.
    """

    def __init__(
        self,
        cluster: Optional[ClusterConfig] = None,
        constants: Optional[CostConstants] = None,
        mb_per_reducer_intermediate: float = GUMBO_MB_PER_REDUCER,
        mb_per_reducer_input: float = PIG_INPUT_MB_PER_REDUCER,
    ) -> None:
        self.cluster = cluster or ClusterConfig.paper_cluster()
        self.constants = constants or CostConstants.paper_values()
        self.cost_model = GumboCostModel(self.constants)
        self.mb_per_reducer_intermediate = mb_per_reducer_intermediate
        self.mb_per_reducer_input = mb_per_reducer_input

    # -- single job -------------------------------------------------------------

    def run_job(self, job: MapReduceJob, database: Database) -> JobResult:
        """Execute one MapReduce job against *database*.

        Kernel-capable jobs (see :mod:`repro.mapreduce.kernels`) are
        evaluated set-at-a-time through :meth:`run_job_kernel` unless their
        options say ``kernel_mode="off"``; outputs and simulated metrics are
        identical either way.
        """
        if use_kernel(job):
            return self.run_job_kernel(job, database)
        _JOBS_INTERPRETED.inc()
        with obs.span(
            "job", job_id=job.job_id, kind=type(job).__name__, path="interpreted"
        ):
            groups: Dict[Key, List[object]] = defaultdict(list)
            key_bytes: Counter = Counter()
            partition_metrics: List[PartitionMetrics] = []

            for relation_name in job.input_relations():
                with obs.span("map", relation=relation_name) as map_span:
                    partition = self._run_map_partition(
                        job, relation_name, database, groups, key_bytes
                    )
                    map_span.set(
                        mappers=partition.mappers,
                        rows=partition.input_records,
                        pairs=partition.output_records,
                    )
                partition_metrics.append(partition)

            with obs.span("reduce", groups=len(groups)):
                outputs = self._run_reduce(job, groups, database)
            metrics = self.finalise_job_metrics(
                job, partition_metrics, lambda: [key_bytes], outputs
            )
        return JobResult(job_id=job.job_id, outputs=outputs, metrics=metrics)

    def run_job_kernel(
        self,
        job: MapReduceJob,
        database: Database,
        map_phase: Optional[MapPhase] = None,
        wall: Optional[WallClockMetrics] = None,
    ) -> JobResult:
        """Execute one kernel-capable job through its batch path.

        Per input part the job's ``map_batch`` computes the intermediate
        bytes and records analytically (the numbers the interpreted map +
        combiner would have produced; per-key byte loads follow on demand,
        see :meth:`_key_loads`) together with the
        build/probe data its reduce kernel needs; ``reduce_batch`` then
        materialises the outputs as set operations.  All metric derivation
        funnels through :meth:`finalise_job_metrics`, exactly as on the
        interpreted path.

        *map_phase* decides only **where** ``map_batch`` runs: it takes the
        job's :meth:`input_parts` and returns, per part, that part's
        :class:`~repro.mapreduce.kernels.MapBatch` partials in chunk order.
        The default runs one whole-relation batch per part in this process;
        the multi-process backend (:mod:`repro.service.sharded.backend`) runs
        one batch per map chunk on its workers.  Either way the partials' accounting is
        summed here — every quantity is an exact integer sum over chunks, so
        the metrics do not depend on how a part was cut into batches — and
        ``reduce_batch`` runs here, on the driver.  A backend's *wall* gets
        the measured ``reduce_batch`` time added to its reduce subtotal (the
        map phase records its own waves).
        """
        _JOBS_KERNEL.inc()
        with obs.span(
            "job", job_id=job.job_id, kind=type(job).__name__, path="kernel"
        ):
            parts = self.input_parts(job, database)
            if map_phase is None:
                partials = self._map_batches(job, parts)
            else:
                partials = map_phase(parts)
            batches: List[MapBatch] = []
            for (_, partition), part_batches in zip(parts, partials):
                intermediate_bytes = 0
                for batch in part_batches:
                    intermediate_bytes += batch.intermediate_bytes
                    partition.output_records += batch.output_records
                partition.intermediate_mb = intermediate_bytes / _MB
                batches.extend(part_batches)

            outputs = prepare_output_relations(job)
            begin = perf_counter()
            with obs.span("reduce_batch"):
                for relation_name, rows in job.reduce_batch(batches).items():
                    if relation_name not in outputs:
                        raise KeyError(
                            f"job {job.job_id!r} emitted to undeclared relation "
                            f"{relation_name!r}"
                        )
                    outputs[relation_name].update(rows)
            if wall is not None:
                wall.reduce_elapsed_s += perf_counter() - begin
            metrics = self.finalise_job_metrics(
                job,
                [partition for _, partition in parts],
                partial(self._key_loads, job, parts, partials, wall),
                outputs,
            )
        return JobResult(job_id=job.job_id, outputs=outputs, metrics=metrics)

    def _key_loads(
        self,
        job: MapReduceJob,
        parts: List[InputPart],
        partials: List[List[MapBatch]],
        wall: Optional[WallClockMetrics] = None,
    ) -> Iterator[Dict[Key, int]]:
        """The batches' per-key byte loads, one mapping per batch.

        A part whose batches were mapped in another process came back without
        their ledgers (see :class:`~repro.mapreduce.kernels.MapBatch`); its
        loads are re-derived here by mapping the driver's own copy of the
        relation, which costs one in-process map of that part and only ever
        happens for a job with more than one reducer.  That second map runs
        under its own ``key_loads`` span and its time goes to *wall*'s map
        subtotal, so a trace does not show two ``map_batch`` spans for one
        part and the wall clock has no unaccounted gap.
        """
        for part, batches in zip(parts, partials):
            if any(batch.ledger is None for batch in batches):
                begin = perf_counter()
                with obs.span("key_loads", relation=part[1].relation):
                    batches = [self._map_part(job, part)]
                if wall is not None:
                    wall.map_elapsed_s += perf_counter() - begin
            for batch in batches:
                yield batch.key_loads()

    def _map_batches(
        self, job: MapReduceJob, parts: List[InputPart]
    ) -> List[List[MapBatch]]:
        """The in-process map phase: one whole-relation batch per input part."""
        partials: List[List[MapBatch]] = []
        for part in parts:
            partition = part[1]
            with obs.span(
                "map_batch",
                relation=partition.relation,
                mappers=partition.mappers,
                rows=partition.input_records,
            ):
                partials.append([self._map_part(job, part)])
        return partials

    @staticmethod
    def _map_part(job: MapReduceJob, part: InputPart) -> MapBatch:
        """One batch over all of *part*'s map-task chunks.

        Columnar chunks with the identical strided boundaries
        ``map_task_chunks`` would produce; a missing input is one mapper over
        zero rows.
        """
        relation, partition = part
        chunks = (
            relation.column_chunks(partition.mappers)
            if relation is not None
            else [ColumnBlock.from_rows([])]
        )
        return job.map_batch(partition.relation, chunks)

    # -- accounting shared with the execution backends ----------------------------

    def input_parts(self, job: MapReduceJob, database: Database) -> List[InputPart]:
        """One uniform input part per input relation of *job* (Figure 1, step 1).

        Each part is the relation (``None`` when *database* lacks it) and its
        :class:`PartitionMetrics` with the input side filled in — size,
        records, map-task count — and the map output still zero, to be
        filled in once the map phase has run.
        """
        parts: List[InputPart] = []
        for relation_name in job.input_relations():
            relation = database.get(relation_name)
            input_mb = relation.size_mb() if relation is not None else 0.0
            parts.append(
                (
                    relation,
                    PartitionMetrics(
                        relation=relation_name,
                        input_mb=input_mb,
                        input_records=len(relation) if relation is not None else 0,
                        intermediate_mb=0.0,
                        output_records=0,
                        mappers=self.mappers_for(input_mb),
                    ),
                )
            )
        return parts

    def mappers_for(self, input_mb: float) -> int:
        """Number of map tasks for one uniform input part of *input_mb* MB."""
        return max(1, math.ceil(input_mb / self.cluster.split_mb))

    def reducers_for(
        self, job: MapReduceJob, input_mb: float, intermediate_mb: float
    ) -> int:
        """Number of reduce tasks, per the job's allocation policy."""
        return job.choose_reducers(
            input_mb=input_mb,
            intermediate_mb=intermediate_mb,
            cluster=self.cluster,
            mb_per_reducer_intermediate=self.mb_per_reducer_intermediate,
            mb_per_reducer_input=self.mb_per_reducer_input,
        )

    def finalise_job_metrics(
        self,
        job: MapReduceJob,
        partition_metrics: List[PartitionMetrics],
        key_loads: KeyLoads,
        outputs: Dict[str, Relation],
    ) -> JobMetrics:
        """Assemble a job's simulated metrics from its observed phase data.

        Every execution backend funnels through this method, so the cost
        breakdown and task durations are identical however the map/reduce
        functions were actually run.  *key_loads* yields mappings from
        intermediate key to byte load (loads are additive, so a key may
        appear in several); it is called only when the job runs more than
        one reducer.
        """
        input_mb = sum(p.input_mb for p in partition_metrics)
        intermediate_mb = sum(p.intermediate_mb for p in partition_metrics)
        reducers = self.reducers_for(job, input_mb, intermediate_mb)
        output_mb = sum(rel.size_mb() for rel in outputs.values())
        output_records = sum(len(rel) for rel in outputs.values())

        metrics = JobMetrics(
            job_id=job.job_id,
            partitions=partition_metrics,
            reducers=reducers,
            output_mb=output_mb,
            output_records=output_records,
        )
        profile = JobProfile(
            partitions=metrics.map_partitions(),
            output_mb=output_mb,
            reducers=reducers,
            label=job.job_id,
        )
        metrics.breakdown = self.cost_model.job_breakdown(profile)
        metrics.map_task_durations = self._map_task_durations(metrics)
        metrics.reduce_task_durations = self._reduce_task_durations(metrics, key_loads)
        _SHUFFLE_BYTES.inc(intermediate_mb * _MB)
        _ROWS_IN.inc(metrics.input_records)
        _ROWS_OUT.inc(output_records)
        return metrics

    def level_net_time(
        self, map_durations: List[float], reduce_durations: List[float]
    ) -> float:
        """Net time of one program level: overhead plus phase makespans."""
        slots = self.cluster.total_slots
        return (
            self.constants.job_overhead
            + makespan(map_durations, slots)
            + makespan(reduce_durations, slots)
        )

    def _run_map_partition(
        self,
        job: MapReduceJob,
        relation_name: str,
        database: Database,
        groups: Dict[Key, List[object]],
        key_bytes: Optional[Dict[Key, int]] = None,
    ) -> PartitionMetrics:
        """Apply the map function to one input relation and shuffle its output."""
        relation = database.get(relation_name)
        rows: List[Tuple[object, ...]] = (
            relation.sorted_tuples() if relation is not None else []
        )
        input_mb = relation.size_mb() if relation is not None else 0.0
        mappers = self.mappers_for(input_mb)

        intermediate_bytes = 0
        output_records = 0
        combine = job.combine if job.uses_combiner() else None
        # defaultdict/Counter fast paths (the engine always passes those);
        # plain dicts from external callers keep working via setdefault/get.
        if isinstance(groups, defaultdict):
            group_for = groups.__getitem__
        else:
            group_for = lambda key: groups.setdefault(key, [])  # noqa: E731
        counting = isinstance(key_bytes, Counter)
        for chunk_rows in map_task_chunks(rows, mappers):
            buffer: Dict[Key, List[object]] = defaultdict(list)
            for row in chunk_rows:
                for key, value in job.map(relation_name, row):
                    buffer[key].append(value)
            for key, values in buffer.items():
                if combine is not None:
                    values = combine(key, values)
                for value in values:
                    pair_size = job.pair_bytes(key, value)
                    intermediate_bytes += pair_size
                    output_records += 1
                    group_for(key).append(value)
                    if counting:
                        key_bytes[key] += pair_size
                    elif key_bytes is not None:
                        key_bytes[key] = key_bytes.get(key, 0) + pair_size

        return PartitionMetrics(
            relation=relation_name,
            input_mb=input_mb,
            input_records=len(rows),
            intermediate_mb=intermediate_bytes / _MB,
            output_records=output_records,
            mappers=mappers,
        )

    def _run_reduce(
        self,
        job: MapReduceJob,
        groups: Dict[Key, List[object]],
        database: Database,
    ) -> Dict[str, Relation]:
        """Apply the reduce function per key group and materialise the outputs."""
        outputs = prepare_output_relations(job)
        for key in sorted(groups, key=tuple_sort_key):
            values = groups[key]
            for relation_name, row in job.reduce(key, values):
                add_output_fact(job, outputs, relation_name, row)
        return outputs

    # -- task durations -------------------------------------------------------------

    def _map_task_durations(self, metrics: JobMetrics) -> List[float]:
        durations: List[float] = []
        for partition in metrics.partitions:
            part = partition.as_map_partition()
            cost = map_cost(part, self.constants)
            per_task = cost / max(1, partition.mappers)
            durations.extend([per_task] * max(1, partition.mappers))
        return durations

    def _reduce_task_durations(
        self, metrics: JobMetrics, key_loads: KeyLoads
    ) -> List[float]:
        """Per-reducer durations, proportional to each reducer's actual key load.

        Keys are assigned to reducers by a stable hash (as Hadoop's default
        partitioner does), so data skew — a heavy-hitter join key — shows up as
        one long reduce task and therefore as increased net time, while the
        total (aggregate) time is unaffected.  The *key_loads* mappings are
        merged first, so a key is placed once, by the first representative
        seen: ``(1,)`` and ``(1.0,)`` are one reduce group, whichever inputs
        they came from, as in the interpreted shuffle.  (Which of the two
        objects is first can still differ from the shuffle's inside one
        chunk of a self-join, see :meth:`ChunkLedger.key_loads
        <repro.mapreduce.kernels.ChunkLedger.key_loads>`.)
        One reducer carries every key wherever it hashes, so its load is the
        job's intermediate bytes and no key is looked at.
        """
        reducers = max(1, metrics.reducers)
        total = self.cost_model.reduce_cost(
            metrics.intermediate_mb, metrics.output_mb, reducers
        )
        # Exactly float(total bytes): every partition's MB figure is an
        # integer byte count over 2**20, and such sums do not round.
        total_load = metrics.intermediate_mb * _MB
        if total_load <= 0:
            return [total / reducers] * reducers
        if reducers == 1:
            loads = [total_load]
        else:
            # Not redundant with the per-batch mappings: hashing each batch's
            # keys separately would place equal keys of different type, from
            # different inputs, on different reducers (crc32 of the repr).
            merged: Counter = Counter()
            for part in key_loads():
                merged.update(part)
            loads = [0.0] * reducers
            # map() drives the hash calls from C; the loop body only indexes.
            for index, size in zip(map(stable_hash, merged), merged.values()):
                loads[index % reducers] += size
        # Not ``[total]`` for one reducer: (total * load) / load may round.
        return [total * load / total_load for load in loads]

    # -- programs ---------------------------------------------------------------------

    @collector_paused()
    def run_program(
        self,
        program: MRProgram,
        database: Database,
        run_job: Optional[Callable[[MapReduceJob, Database], JobResult]] = None,
        **span_attrs: object,
    ) -> ProgramResult:
        """Execute an MR program level by level — the one level loop.

        Jobs within a level run concurrently and share the cluster's task
        slots; the level's net time is one job-startup overhead plus the map
        makespan plus the reduce makespan.  Outputs become visible to the next
        level (they are added to a working copy of the database).

        Execution backends drive this same loop through
        :meth:`repro.exec.base.ExecutionBackend.run_program`: *run_job* is the
        per-job callable (default: this engine's :meth:`run_job`) and
        *span_attrs* are extra attributes of the ``program`` span.
        """
        program.validate()
        run_job = run_job or self.run_job
        working = database.copy()
        all_outputs: Dict[str, Relation] = {}
        metrics = ProgramMetrics()
        levels = program.levels()
        metrics.rounds = len(levels)

        with obs.span(
            "program",
            program=program.name,
            jobs=len(program),
            rounds=len(levels),
            **span_attrs,
        ):
            for level_index, level_jobs in enumerate(levels):
                level_map_tasks: List[float] = []
                level_reduce_tasks: List[float] = []
                level_results: List[JobResult] = []
                with obs.span("level", index=level_index, jobs=len(level_jobs)):
                    for job in level_jobs:
                        result = run_job(job, working)
                        level_results.append(result)
                        metrics.add_job(result.metrics)
                        level_map_tasks.extend(result.metrics.map_task_durations)
                        level_reduce_tasks.extend(
                            result.metrics.reduce_task_durations
                        )
                for result in level_results:
                    for name, relation in result.outputs.items():
                        working.add_relation(relation)
                        all_outputs[name] = relation
                metrics.level_net_times.append(
                    self.level_net_time(level_map_tasks, level_reduce_tasks)
                )

        metrics.net_time = sum(metrics.level_net_times)
        return ProgramResult(
            program=program,
            outputs=all_outputs,
            metrics=metrics,
            database=working,
        )
