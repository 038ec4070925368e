"""The batch ("kernel") execution path: protocol and shared accounting.

The interpreted engine evaluates jobs tuple-at-a-time: a ``job.map`` call per
row building a binding dict, a message object per emitted pair, a
``groups.setdefault(...).append(...)`` per pair and a ``job.reduce`` call per
key.  For the semi-join shaped jobs of this package all of that is avoidable:
a semi-join is a set operation — build a hash set of conditional join keys,
probe the guard rows — and the simulated Hadoop metrics are pure functions of
per-key pair *counts*, which the kernel computes analytically while probing.

A kernel-capable job implements three methods (see
:class:`~repro.mapreduce.job.MapReduceJob`):

* ``supports_kernel()`` — whether batch evaluation is implemented *and*
  faithful for this instance (e.g. the skew-salted MSJ job opts out);
* ``map_batch(relation, chunks)`` — evaluate the map phase over some or all
  of one input partition's map-task chunks, returning a :class:`MapBatch`
  with those chunks' byte/record accounting plus whatever data the job's
  reduce kernel needs from them (key sets to build, rows to probe);
* ``reduce_batch(batches)`` — combine the batches of all partitions into the
  output relations, returning ``{relation name: iterable of rows}``.

Where the two halves run is the backend's choice, never the job's.  On the
serial engine both run in-process, ``map_batch`` once per input relation
over all of its chunks.  On the multi-process backend (``"parallel"`` /
``"sharded"`` — see :mod:`repro.service.sharded.backend`) ``map_batch`` runs
*inside the workers*, once per map chunk, straight over the chunk's resident
or attached (``docs/dataplane.md``) :class:`ColumnBlock`; each worker replies
with its chunk's partial :class:`MapBatch` and the driver runs
``reduce_batch`` over all of them.  ``reduce_batch`` therefore receives *any
number* of partial batches per relation, in relation-then-chunk order, and
must union what they carry; the accounting needs no such care, because every
counted quantity is an exact integer sum over chunks
(:meth:`PackedChunkAccumulator.flush` already closes the books per chunk).
:meth:`~repro.mapreduce.engine.MapReduceEngine.run_job_kernel` is the one
recipe behind both.

Metric fidelity contract: for every job the kernel path must produce the
*identical* ``PartitionMetrics``, per-key byte loads and output relations the
interpreted path produces — byte for byte — so that
:meth:`~repro.mapreduce.engine.MapReduceEngine.finalise_job_metrics` derives
identical cost breakdowns, task durations and skew behaviour.  The
``tests/test_kernels.py`` parity suite and the fuzzer's kernel axis enforce
this contract.

Mode selection (``GumboOptions.kernel_mode``, carried by the job's options):

* ``"off"``  — always interpret (on every backend: the serial engine's
  tuple-at-a-time map, shuffle and reduce, on the driver);
* ``"auto"`` (default) and ``"on"`` — synonyms: use the kernel wherever the
  job supports it, on every backend.

Jobs that implement no kernel (the Hive/Pig baseline jobs, user-defined
jobs) are always interpreted, whatever the mode.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..model.relation import ColumnBlock
from .job import Key, MapReduceJob

#: Canonical kernel modes accepted by ``GumboOptions.kernel_mode``.
KERNEL_OFF = "off"
KERNEL_AUTO = "auto"
KERNEL_ON = "on"
KERNEL_MODES = (KERNEL_AUTO, KERNEL_ON, KERNEL_OFF)

#: Rows of one map-task chunk.
_ROWS = Sequence[Tuple[object, ...]]


def as_column_block(chunk: _ROWS) -> ColumnBlock:
    """Normalise one map-task chunk to a :class:`ColumnBlock`.

    The engine hands kernels column blocks sliced straight off the relation's
    cached column store; external callers (and older tests) may still pass
    plain row sequences, which are transposed here.
    """
    if isinstance(chunk, ColumnBlock):
        return chunk
    return ColumnBlock.from_rows(chunk)


def job_kernel_mode(job: MapReduceJob) -> str:
    """The kernel mode requested by *job*'s options (``"off"`` when absent)."""
    options = getattr(job, "options", None)
    mode = getattr(options, "kernel_mode", KERNEL_OFF)
    return mode if mode in KERNEL_MODES else KERNEL_OFF


def use_kernel(job: MapReduceJob) -> bool:
    """Whether *job* runs through the batch kernel path (on every backend)."""
    return job_kernel_mode(job) != KERNEL_OFF and job.supports_kernel()


def union_key_set(
    merged: Dict[object, set], owned: Set[object], slot: object, keys: set
) -> None:
    """Union *keys* into ``merged[slot]`` for a ``reduce_batch`` merging partials.

    The first contributor is aliased, not copied — on the serial engine it is
    the only one — and a slot is copied once, when a second contributor
    arrives (*owned* remembers which), so the batches' own sets are never
    mutated and merging n partials stays linear.
    """
    existing = merged.get(slot)
    if existing is None:
        merged[slot] = keys
    elif slot in owned:
        existing.update(keys)
    else:
        merged[slot] = existing | keys
        owned.add(slot)


@dataclass
class MapBatch:
    """Result of the kernelised map phase over one input partition, or over
    some of its map chunks (a *partial* batch, see the module docstring).

    ``intermediate_bytes`` / ``output_records`` / ``key_bytes`` reproduce the
    interpreted engine's accounting of those chunks exactly (combiner
    semantics included).  ``data`` carries job-specific reduce-kernel inputs — key sets
    built from conditional facts, guard rows to probe — opaque to the engine.
    """

    relation: str
    intermediate_bytes: int = 0
    output_records: int = 0
    key_bytes: Dict[Key, int] = field(default_factory=dict)
    data: object = None


class PackedChunkAccumulator:
    """Per-chunk pair accounting under message packing (the map combiner).

    With Gumbo's message-packing optimisation the interpreted engine combines
    all messages a map task emits under one key into a single packed value:
    per (chunk, key) it charges one record of size ``key + Σ request sizes +
    #distinct assert tags × TAG`` and adds that size to the key's byte load.
    This accumulator reproduces those numbers from counts alone — feed it the
    per-row emissions of one chunk, then :meth:`flush` after the chunk.  Keys
    must be tuples (every kernel's keys are), whose serialised size depends
    only on their field count.
    """

    __slots__ = (
        "job",
        "tag_bytes",
        "_stats",
        "_chunk_requests",
        "_chunk_assert_calls",
        "_chunk_rowwise",
        "intermediate_bytes",
        "records",
        "key_bytes",
    )

    def __init__(self, job: MapReduceJob, tag_bytes: int) -> None:
        self.job = job
        self.tag_bytes = tag_bytes
        #: key -> [request bytes, distinct assert tags (count or set)].
        self._stats: Dict[Key, list] = {}
        # Chunk-composition flags driving flush()'s fast paths.
        self._chunk_requests = False
        self._chunk_assert_calls = 0
        self._chunk_rowwise = False
        self.intermediate_bytes = 0
        self.records = 0
        self.key_bytes: Dict[Key, int] = Counter()

    def add_request(self, key: Key, size: int) -> None:
        self._chunk_requests = True
        self._chunk_rowwise = True
        entry = self._stats.get(key)
        if entry is None:
            self._stats[key] = [size, None]
        else:
            entry[0] += size

    def add_request_counts(self, counts: Dict[Key, int], size: int) -> None:
        """Batch :meth:`add_request`: per key, *counts* requests of *size*."""
        self._chunk_requests = True
        stats = self._stats
        if not stats:
            self._stats = {
                key: [size * count, None] for key, count in counts.items()
            }
            return
        for key, count in counts.items():
            entry = stats.get(key)
            if entry is None:
                stats[key] = [size * count, None]
            else:
                entry[0] += size * count

    def add_assert(self, key: Key, tag: int) -> None:
        self._chunk_rowwise = True
        entry = self._stats.get(key)
        if entry is None:
            self._stats[key] = [0, {tag}]
        elif entry[1] is None:
            entry[1] = {tag}
        else:
            entry[1].add(tag)

    def add_assert_keys(self, keys: Iterable[Key], tag: int) -> None:
        """Batch :meth:`add_assert` over the distinct *keys* of one chunk.

        Each call must present a *tag* not yet asserted for these keys this
        chunk (the kernels assert each tag's key set exactly once per chunk),
        so a plain distinct-tag count replaces the per-key tag set.  Do not
        mix with :meth:`add_assert` within one chunk.
        """
        del tag  # distinct by contract; only the count matters for sizing
        self._chunk_assert_calls += 1
        stats = self._stats
        if not stats:
            self._stats = {key: [0, 1] for key in keys}
            return
        for key in keys:
            entry = stats.get(key)
            if entry is None:
                stats[key] = [0, 1]
            elif entry[1] is None:
                entry[1] = 1
            else:
                entry[1] += 1

    def flush(self) -> None:
        """Close the current chunk: charge one packed pair per touched key.

        Keys are tuples and every job's ``key_bytes`` is a pure function of
        the key's field count (the paper's byte model sizes keys by fields,
        never by values), so one probe per distinct key length stands in for
        a ``key_bytes`` call per key.  Homogeneous chunks take all-C paths:
        a pure single-tag assert chunk charges one uniform size
        (``dict.fromkeys``), a pure request chunk skips the tag arithmetic.
        """
        stats = self._stats
        if not stats:
            return
        tag_bytes = self.tag_bytes
        job_key_bytes = self.job.key_bytes
        lengths = set(map(len, stats))
        size_by_len = {length: job_key_bytes((0,) * length) for length in lengths}
        uniform_base = (
            next(iter(size_by_len.values())) if len(lengths) == 1 else None
        )
        rowwise = self._chunk_rowwise
        if (
            uniform_base is not None
            and not rowwise
            and not self._chunk_requests
            and self._chunk_assert_calls == 1
        ):
            # Single assert pass: every entry is [0, 1], one uniform charge.
            sizes = dict.fromkeys(stats, uniform_base + tag_bytes)
        elif (
            uniform_base is not None
            and not rowwise
            and not self._chunk_assert_calls
        ):
            # Requests only: no tag component to evaluate.
            sizes = {
                key: uniform_base + entry[0] for key, entry in stats.items()
            }
        else:
            sizes = {
                key: size_by_len[len(key)]
                + entry[0]
                + (
                    tag_bytes
                    * (entry[1] if type(entry[1]) is int else len(entry[1]))
                    if entry[1]
                    else 0
                )
                for key, entry in stats.items()
            }
        self.intermediate_bytes += sum(sizes.values())
        self.records += len(sizes)
        self.key_bytes.update(sizes)
        self._stats = {}
        self._chunk_requests = False
        self._chunk_assert_calls = 0
        self._chunk_rowwise = False


class PlainPairAccumulator:
    """Pair accounting without a combiner: every message is its own pair.

    Chunk boundaries are irrelevant here (sizes and records are additive), so
    the accumulator can be fed whole partitions.
    """

    __slots__ = ("job", "intermediate_bytes", "records", "key_bytes")

    def __init__(self, job: MapReduceJob) -> None:
        self.job = job
        self.intermediate_bytes = 0
        self.records = 0
        self.key_bytes: Dict[Key, int] = Counter()

    def add_pair(self, key: Key, value_size: int) -> None:
        size = self.job.key_bytes(key) + value_size
        self.intermediate_bytes += size
        self.records += 1
        key_bytes = self.key_bytes
        key_bytes[key] = key_bytes.get(key, 0) + size

    def add_pairs(self, key: Key, value_size: int, count: int) -> None:
        """*count* identical-size pairs under one key in one go."""
        if count <= 0:
            return
        size = self.job.key_bytes(key) + value_size
        self.intermediate_bytes += size * count
        self.records += count
        key_bytes = self.key_bytes
        key_bytes[key] = key_bytes.get(key, 0) + size * count

    def add_key_counts(self, counts: Dict[Key, int], value_size: int) -> None:
        """Batch :meth:`add_pairs` over a ``key -> pair count`` mapping.

        Key sizes are memoised per key length (see
        :meth:`PackedChunkAccumulator.flush` for why that is exact).
        """
        job_key_bytes = self.job.key_bytes
        key_bytes = self.key_bytes
        size_by_len: Dict[int, int] = {}
        total = 0
        records = 0
        for key, count in counts.items():
            base = size_by_len.get(len(key))
            if base is None:
                base = size_by_len[len(key)] = job_key_bytes(key)
            subtotal = (base + value_size) * count
            total += subtotal
            records += count
            key_bytes[key] = key_bytes.get(key, 0) + subtotal
        self.intermediate_bytes += total
        self.records += records

    def add_uniform_pairs(self, keys: Sequence[Key], pair_size: int) -> None:
        """One pair per key, all of *pair_size* total bytes.

        For jobs whose key size is a function of the key *length* only (the
        EVAL job), a whole batch of distinct keys is charged without calling
        ``job.key_bytes`` per key.  ``key_bytes`` is a :class:`Counter`, so
        the merge adds (never overwrites) on repeated keys across chunks.
        """
        if not keys:
            return
        self.intermediate_bytes += pair_size * len(keys)
        self.records += len(keys)
        self.key_bytes.update(dict.fromkeys(keys, pair_size))

    def flush(self) -> None:  # symmetric API with PackedChunkAccumulator
        pass


__all__: List[str] = [
    "KERNEL_AUTO",
    "KERNEL_MODES",
    "KERNEL_OFF",
    "KERNEL_ON",
    "ColumnBlock",
    "MapBatch",
    "PackedChunkAccumulator",
    "PlainPairAccumulator",
    "as_column_block",
    "job_kernel_mode",
    "union_key_set",
    "use_kernel",
]
