"""The MapReduce job abstraction executed by the simulator.

An MR job is a pair (map, reduce) of functions (Section 3.2).  Concrete jobs
(MSJ, EVAL, the fused 1-ROUND job, the Hive/Pig baseline jobs, …) subclass
:class:`MapReduceJob` and implement:

* :meth:`MapReduceJob.input_relations` — the relations read from HDFS;
* :meth:`MapReduceJob.map` — per input row, emit ``(key, value)`` pairs;
* :meth:`MapReduceJob.reduce` — per key group, emit ``(relation, row)`` output
  facts;
* :meth:`MapReduceJob.output_schema` — name → arity of the produced relations;
* the byte-accounting hooks :meth:`key_bytes` / :meth:`value_bytes`, so the
  simulator can charge the cost model with realistic intermediate data sizes
  (including Hadoop's 16-byte per-record metadata, which is added by the
  engine, not here);
* optionally :meth:`combine` — a map-side combiner modelling Gumbo's *message
  packing* optimisation.

Values emitted by ``map`` may be arbitrary Python objects; objects exposing a
``size_bytes()`` method (like the MSJ messages) are sized through it by the
default :meth:`value_bytes`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cluster import ClusterConfig

#: A map-output key: any hashable value (tuples of data values in practice).
Key = Tuple[object, ...]

#: Output of the reduce function: (output relation name, tuple).
OutputFact = Tuple[str, Tuple[object, ...]]

#: Reducer-allocation policies (Section 5.1 opt. 3 vs the Pig default).
REDUCERS_BY_INTERMEDIATE = "intermediate"   # Gumbo: 256 MB of map output per reducer
REDUCERS_BY_INPUT = "input"                 # Pig: 1 GB of map input per reducer


class MapReduceJob:
    """Base class for simulated MapReduce jobs."""

    #: Default per-field size (bytes) used when sizing plain tuple values.
    bytes_per_field: int = 10

    #: How the number of reducers is chosen (see module docstring).
    reducer_allocation: str = REDUCERS_BY_INTERMEDIATE

    #: Fixed number of reducers; overrides the allocation policy when set.
    fixed_reducers: Optional[int] = None

    def __init__(self, job_id: str) -> None:
        if not job_id:
            raise ValueError("job_id must be non-empty")
        self.job_id = job_id

    # -- interface to implement ------------------------------------------------

    def input_relations(self) -> Sequence[str]:
        """Names of the relations this job reads from HDFS."""
        raise NotImplementedError

    def map(self, relation: str, row: Tuple[object, ...]) -> Iterable[
        Tuple[Key, object]
    ]:
        """The map function, applied to every row of every input relation."""
        raise NotImplementedError

    def reduce(self, key: Key, values: List[object]) -> Iterable[OutputFact]:
        """The reduce function, applied to every key group."""
        raise NotImplementedError

    def output_schema(self) -> Dict[str, int]:
        """Mapping output-relation name → arity."""
        raise NotImplementedError

    # -- batch ("kernel") execution path ------------------------------------------

    def supports_kernel(self) -> bool:
        """Whether this job implements the batch kernel path faithfully.

        Kernel-capable jobs implement :meth:`map_batch` / :meth:`reduce_batch`
        and return True; the engine then evaluates the job set-at-a-time
        (subject to the ``kernel_mode`` option, see
        :mod:`repro.mapreduce.kernels`) while reproducing the interpreted
        path's outputs and simulated metrics bit for bit.  Subclasses that
        change ``map``/``reduce`` semantics (e.g. the skew-salted MSJ job)
        must override this back to False unless they also override the batch
        methods.
        """
        return False

    def map_batch(self, relation: str, chunks: Sequence[Sequence[Tuple[object, ...]]]):
        """Kernelised map phase over map-task chunks of one input partition.

        *chunks* holds all of the partition's chunks (the serial engine) or
        any subset of them — the fan-out workers call this once per chunk —
        and the returned :class:`~repro.mapreduce.kernels.MapBatch` accounts
        for exactly those chunks.  Only called when :meth:`supports_kernel`
        is True.
        """
        raise NotImplementedError(f"{type(self).__name__} has no batch kernel")

    def reduce_batch(self, batches) -> Dict[str, Iterable[Tuple[object, ...]]]:
        """Kernelised reduce phase over the partitions' :class:`MapBatch` data.

        *batches* holds any number of partial batches per input relation, in
        relation-then-chunk order: whatever several batches of one relation
        carry (key sets, probe rows) must be unioned, never overwritten.
        Returns ``{output relation name: iterable of rows}``.  Only called
        when :meth:`supports_kernel` is True.
        """
        raise NotImplementedError(f"{type(self).__name__} has no batch kernel")

    def __getstate__(self) -> Dict[str, object]:
        """Drop the per-process kernel cache when shipping jobs to workers."""
        state = self.__dict__.copy()
        state.pop("_kernel_cache", None)
        return state

    # -- optional hooks -----------------------------------------------------------

    def combine(self, key: Key, values: List[object]) -> List[object]:
        """Map-side combiner; the default performs no combining."""
        return values

    def uses_combiner(self) -> bool:
        """Whether the engine should invoke :meth:`combine` per map task."""
        return False

    def output_tuple_bytes(self, relation: str) -> Optional[int]:
        """Per-tuple size override for an output relation (None → arity×10)."""
        return None

    # -- byte accounting ------------------------------------------------------------

    def key_bytes(self, key: Key) -> int:
        """Size of a serialised key.  Defaults to 10 bytes per key component."""
        if isinstance(key, tuple):
            return max(1, len(key)) * self.bytes_per_field
        return self.bytes_per_field

    def value_bytes(self, value: object) -> int:
        """Size of a serialised value.

        Objects exposing ``size_bytes()`` are asked directly; tuples are sized
        at 10 bytes per field; anything else is charged a single field.
        """
        size_fn = getattr(value, "size_bytes", None)
        if callable(size_fn):
            return int(size_fn())
        if isinstance(value, tuple):
            return max(1, len(value)) * self.bytes_per_field
        return self.bytes_per_field

    def pair_bytes(self, key: Key, value: object) -> int:
        """Size of a serialised key-value pair."""
        return self.key_bytes(key) + self.value_bytes(value)

    # -- reducer allocation -----------------------------------------------------------

    def choose_reducers(
        self,
        input_mb: float,
        intermediate_mb: float,
        cluster: ClusterConfig,
        mb_per_reducer_intermediate: float,
        mb_per_reducer_input: float,
    ) -> int:
        """Number of reduce tasks for this job.

        Gumbo allocates one reducer per 256 MB of *intermediate* data
        (estimated via sampling; here we use the true value which is what the
        sampling approximates).  Pig allocates one reducer per 1 GB of map
        *input* data, which the paper identifies as a cause of its poor
        parallelism.  A fixed count can be forced via ``fixed_reducers``.
        """
        if self.fixed_reducers is not None:
            return max(1, self.fixed_reducers)
        if self.reducer_allocation == REDUCERS_BY_INPUT:
            basis, per_reducer = input_mb, mb_per_reducer_input
        else:
            basis, per_reducer = intermediate_mb, mb_per_reducer_intermediate
        if per_reducer <= 0:
            return 1
        return max(1, int(-(-basis // per_reducer)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(job_id={self.job_id!r})"
