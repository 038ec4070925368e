"""The batch ("kernel") execution path: protocol and shared accounting.

The interpreted engine evaluates jobs tuple-at-a-time: a ``job.map`` call per
row building a binding dict, a message object per emitted pair, a
``groups.setdefault(...).append(...)`` per pair and a ``job.reduce`` call per
key.  For the semi-join shaped jobs of this package all of that is avoidable:
a semi-join is a set operation — build a hash set of conditional join keys,
probe the guard rows — and the simulated Hadoop metrics are pure functions of
message and distinct-key *counts*, which the kernel reads off while probing.

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
(:meth:`ChunkLedger.close_chunk` closes the books per chunk).
:meth:`~repro.mapreduce.engine.MapReduceEngine.run_job_kernel` is the one
recipe behind both.

The accounting is by *cardinalities*: a :class:`ChunkLedger` turns the sizes
of the key lists and distinct-key sets a kernel holds anyway into the
chunk's bytes and records without visiting a key.  Per-key byte loads — what
spreads a job's reduce cost over its reducers — are a derivation on demand
(:meth:`MapBatch.key_loads`): a job with one reducer, which is every job
until the intermediate data outgrows one reducer's allowance, never asks,
and a worker's reply never carries them (the driver re-derives the loads of
such a job from its own copy of the relation).

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
from collections.abc import Collection, Mapping, Set
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

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


def conditional_keys(
    block: ColumnBlock, matcher, key_positions, key_of, packed: bool
):
    """Join keys of *block*'s rows conforming to a conditional atom.

    One assert message per element: under message packing asserts
    deduplicate per (chunk, key), so the distinct keys (a set, memoised on
    the block for an unrestricted atom); otherwise one key per row.
    """
    if matcher is not None:
        keys = [key_of(row) for row in block.rows() if matcher(row)]
        return set(keys) if packed else keys
    if packed:
        return block.distinct_keys(key_positions)
    return block.key_tuples(key_positions)


def union_key_set(
    merged: Dict[object, set], owned: set, slot: object, keys: set
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

    ``intermediate_bytes`` / ``output_records`` reproduce the interpreted
    engine's accounting of those chunks exactly (combiner semantics
    included).  ``data`` carries job-specific reduce-kernel inputs — key sets
    built from conditional facts, guard rows to probe — opaque to the engine.
    ``ledger`` is the :class:`ChunkLedger` that produced the sums; it backs
    :meth:`key_loads` and stays in the process that mapped the chunks — a
    pickled batch (a worker's reply) carries the integer sums and ``data``
    only.
    """

    relation: str
    intermediate_bytes: int = 0
    output_records: int = 0
    data: object = None
    ledger: Optional["ChunkLedger"] = None

    def key_loads(self) -> Dict[Key, int]:
        """Per-key byte loads of these chunks, derived on demand.

        Only a job spread over more than one reducer needs them; their values
        sum to ``intermediate_bytes``.
        """
        return self.ledger.key_loads()

    def __reduce__(self):
        return (
            MapBatch,
            (self.relation, self.intermediate_bytes, self.output_records, self.data),
        )


class ChunkLedger:
    """Map-output accounting of one ``map_batch`` call, by cardinalities.

    A kernel reports each group of messages it emits from one map chunk with
    :meth:`add` and ends the chunk with :meth:`close_chunk`.  Without a
    combiner every message is its own pair of ``key + value`` bytes.  Under
    message packing (the map combiner) the interpreted engine packs all
    messages a map task emits under one key into one record of ``key + Σ
    message sizes`` bytes, so a chunk costs ``Σ size × #messages`` plus one
    key per *distinct* key — ``len()`` of collections the kernels already
    hold.  Keys are tuples whose serialised size depends on their field count
    only (the paper's byte model sizes keys by fields, never by values), so
    one ``job.key_bytes`` probe per group stands in for a call per key.

    No per-key work happens here.  The groups are kept by reference, and
    :meth:`key_loads` replays them into the ``key -> bytes`` mapping only
    when a job's reducer loads are actually needed.
    """

    __slots__ = (
        "job",
        "packed",
        "intermediate_bytes",
        "records",
        "_open",
        "_chunks",
    )

    def __init__(self, job: MapReduceJob) -> None:
        self.job = job
        self.packed = job.uses_combiner()
        self.intermediate_bytes = 0
        self.records = 0
        #: Groups of the chunk being fed / of every closed chunk:
        #: ``(keys, size, prefix, key bytes, distinct keys)``.
        self._open: List[tuple] = []
        self._chunks: List[List[tuple]] = []

    def add(
        self,
        keys: Union[Collection[Key], Mapping[Key, int]],
        size: int,
        prefix: Key = (),
        distinct: Optional[Collection[Key]] = None,
    ) -> None:
        """Messages of *size* value bytes, one per element of *keys*.

        *keys* is a list (repeats are separate messages), a set, or a ``key ->
        message count`` mapping; all of one field count.  The emitted key is
        ``prefix + key`` (the fused job's query index, EVAL's target index).
        A caller that holds the distinct keys of a list passes them as
        *distinct*; under packing they are computed here otherwise.
        """
        if not keys:
            return
        messages = sum(keys.values()) if isinstance(keys, Mapping) else len(keys)
        base = self.job.key_bytes(prefix + next(iter(keys)))
        if self.packed:
            self.intermediate_bytes += size * messages
            if distinct is None:
                distinct = keys if isinstance(keys, (Set, Mapping)) else set(keys)
        else:
            self.intermediate_bytes += (base + size) * messages
            self.records += messages
        self._open.append((keys, size, prefix, base, distinct))

    def close_chunk(self) -> None:
        """End the current map chunk: under packing, one record per distinct key.

        Groups whose keys could coincide (same prefix and key size) are
        unioned before counting; a chunk fed one group (requests only, or one
        assert pass: the common case) needs no union at all.
        """
        chunk = self._open
        if not chunk:
            return
        self._open = []
        self._chunks.append(chunk)
        if not self.packed:
            return
        together: Dict[tuple, List[Collection[Key]]] = {}
        for _, _, prefix, base, distinct in chunk:
            together.setdefault((prefix, base), []).append(distinct)
        for (_, base), sets in together.items():
            count = len(sets[0] if len(sets) == 1 else set().union(*sets))
            self.records += count
            self.intermediate_bytes += base * count

    def batch(self, relation: str, data: object) -> MapBatch:
        """The :class:`MapBatch` of everything fed so far."""
        self.close_chunk()
        return MapBatch(relation, self.intermediate_bytes, self.records, data, self)

    def key_loads(self) -> Dict[Key, int]:
        """``key -> bytes`` over the closed chunks (sums to ``intermediate_bytes``).

        A key keeps the representative object of its first message, in feed
        order (a chunk's guard groups before its conditional groups).  The
        interpreted shuffle keeps the first in *row* order, which is the same
        object except when one chunk of a self-join mixes request and assert
        keys that are equal but of different numeric type — ``(1,)`` here,
        ``(1.0,)`` there (ROADMAP item 5).
        """
        loads: Counter = Counter()
        packed = self.packed
        for chunk in self._chunks:
            key_sizes: Dict[Key, int] = {}
            for keys, size, prefix, base, _ in chunk:
                counts = keys if isinstance(keys, Mapping) else Counter(keys)
                if prefix:
                    counts = {prefix + key: n for key, n in counts.items()}
                pair = size if packed else base + size
                for key, count in counts.items():
                    loads[key] += pair * count
                if packed:
                    key_sizes.update(dict.fromkeys(counts, base))
            loads.update(key_sizes)
        return loads


__all__: List[str] = [
    "KERNEL_AUTO",
    "KERNEL_MODES",
    "KERNEL_OFF",
    "KERNEL_ON",
    "ChunkLedger",
    "ColumnBlock",
    "MapBatch",
    "as_column_block",
    "conditional_keys",
    "job_kernel_mode",
    "union_key_set",
    "use_kernel",
]
