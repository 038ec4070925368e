"""The multi-semi-join operator ``⋉·(S)`` and its MapReduce job ``MSJ(S)``.

This is Algorithm 1 of the paper.  The operator takes a set of semi-join
equations ``S = {X_1 := π_x̄1(α_1 ⋉ κ_1), ..., X_n := π_x̄n(α_n ⋉ κ_n)}`` and
evaluates all of them in a single MapReduce job:

* the mapper emits, for every fact conforming to some guard ``α_i``, a request
  message keyed by the semi-join's join key, and, for every fact conforming to
  some conditional ``κ_i``, an assert message keyed by the conditional's join
  key;
* the reducer outputs a request's payload to ``X_i`` whenever an assert for
  the matching conditional arrived at the same key.

Two execution modes are supported:

* *standalone* mode (``emit_projection=True``, the literal Algorithm 1): the
  payload and the output tuples are the projections ``π_x̄i`` of the guard
  facts;
* *pipeline* mode (``emit_projection=False``), used inside BSGF query plans:
  the payload is the full guard row, which plays the role of the guard-tuple
  id so that the downstream EVAL job can combine semi-join outcomes
  *per guard fact* (this is what Gumbo's tuple-reference optimisation does,
  and it is required for correct Boolean combination when the projection is
  not injective on the guard).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..mapreduce.job import (
    Key,
    MapReduceJob,
    OutputFact,
    REDUCERS_BY_INPUT,
    REDUCERS_BY_INTERMEDIATE,
)
from ..mapreduce.kernels import (
    ChunkLedger,
    MapBatch,
    as_column_block,
    conditional_keys,
    union_key_set,
)
from ..model.atoms import Atom
from ..model.terms import Variable
from ..query.bsgf import SemiJoinSpec
from .messages import (
    AssertMessage,
    FIELD_BYTES,
    RequestMessage,
    TAG_BYTES,
    TUPLE_REFERENCE_BYTES,
    pack_messages,
    unpack_messages,
)
from .options import GumboOptions

#: A conditional tag: (conditional atom, ordered join-key variables).  Assert
#: messages are emitted once per distinct tag a fact conforms to, so identical
#: conditionals shared by several semi-joins are asserted only once.
ConditionalTag = Tuple[Atom, Tuple[Variable, ...]]


class MSJJob(MapReduceJob):
    """The single-job MapReduce implementation of the multi-semi-join operator."""

    def __init__(
        self,
        job_id: str,
        specs: Sequence[SemiJoinSpec],
        options: Optional[GumboOptions] = None,
        emit_projection: bool = True,
    ) -> None:
        super().__init__(job_id)
        specs = list(specs)
        if not specs:
            raise ValueError("MSJ needs at least one semi-join equation")
        outputs = [spec.output for spec in specs]
        if len(set(outputs)) != len(outputs):
            raise ValueError("semi-join output names must be pairwise distinct")
        self.specs: List[SemiJoinSpec] = specs
        self.options = options or GumboOptions()
        self.emit_projection = emit_projection
        self.reducer_allocation = (
            REDUCERS_BY_INTERMEDIATE
            if self.options.reducers_by_intermediate
            else REDUCERS_BY_INPUT
        )

        # Distinct conditional tags and the tag index of every semi-join.
        self._tags: List[ConditionalTag] = []
        self._tag_index: Dict[ConditionalTag, int] = {}
        self._spec_tag: List[int] = []
        for spec in specs:
            tag: ConditionalTag = (spec.conditional, spec.join_key)
            if tag not in self._tag_index:
                self._tag_index[tag] = len(self._tags)
                self._tags.append(tag)
            self._spec_tag.append(self._tag_index[tag])

    # -- structural accessors ----------------------------------------------------

    @property
    def guard_relations(self) -> List[str]:
        seen: List[str] = []
        for spec in self.specs:
            if spec.guard.relation not in seen:
                seen.append(spec.guard.relation)
        return seen

    @property
    def conditional_relations(self) -> List[str]:
        seen: List[str] = []
        for spec in self.specs:
            if spec.conditional.relation not in seen:
                seen.append(spec.conditional.relation)
        return seen

    def input_relations(self) -> Sequence[str]:
        """Every relation is read exactly once, even when it occurs in several roles."""
        seen: List[str] = []
        for name in self.guard_relations + self.conditional_relations:
            if name not in seen:
                seen.append(name)
        return seen

    def output_schema(self) -> Dict[str, int]:
        schema: Dict[str, int] = {}
        for spec in self.specs:
            arity = (
                max(1, len(spec.projection))
                if self.emit_projection
                else spec.guard.arity
            )
            schema[spec.output] = arity
        return schema

    def output_tuple_bytes(self, relation: str) -> Optional[int]:
        """Intermediate relations are stored as tuple ids under optimisation (2)."""
        for spec in self.specs:
            if spec.output == relation:
                if not self.emit_projection and self.options.tuple_reference:
                    return TUPLE_REFERENCE_BYTES
                if not self.emit_projection:
                    return max(1, len(spec.projection)) * FIELD_BYTES
                return None
        return None

    # -- map / combine / reduce ------------------------------------------------------

    def map(self, relation: str, row: Tuple[object, ...]) -> Iterable[
        Tuple[Key, object]
    ]:
        pairs: List[Tuple[Key, object]] = []
        for index, spec in enumerate(self.specs):
            if spec.guard.relation != relation:
                continue
            binding = spec.guard.match(row)
            if binding is None:
                continue
            key = tuple(binding[v] for v in spec.join_key)
            if self.emit_projection:
                payload = tuple(binding[v] for v in spec.projection)
            else:
                payload = tuple(row)
            pairs.append(
                (
                    key,
                    RequestMessage(
                        index=index,
                        payload=payload,
                        by_reference=self.options.tuple_reference,
                    ),
                )
            )
        for tag_idx, (conditional, join_key) in enumerate(self._tags):
            if conditional.relation != relation:
                continue
            binding = conditional.match(row)
            if binding is None:
                continue
            key = tuple(binding[v] for v in join_key)
            pairs.append((key, AssertMessage(tag_idx)))
        return pairs

    def uses_combiner(self) -> bool:
        return self.options.message_packing

    def combine(self, key: Key, values: List[object]) -> List[object]:
        return pack_messages(values)

    def reduce(self, key: Key, values: List[object]) -> Iterable[OutputFact]:
        messages = list(unpack_messages(values))
        asserted = {m.tag for m in messages if isinstance(m, AssertMessage)}
        for message in messages:
            if not isinstance(message, RequestMessage):
                continue
            if self._spec_tag[message.index] in asserted:
                spec = self.specs[message.index]
                yield (spec.output, message.payload)

    # -- batch kernel ----------------------------------------------------------------

    def supports_kernel(self) -> bool:
        return True

    def _kernel(self) -> "_MSJKernel":
        kernel = self.__dict__.get("_kernel_cache")
        if kernel is None:
            kernel = self.__dict__["_kernel_cache"] = _MSJKernel(self)
        return kernel

    def map_batch(self, relation: str, chunks) -> MapBatch:
        return self._kernel().map_batch(relation, chunks)

    def reduce_batch(self, batches) -> Dict[str, Iterable[Tuple[object, ...]]]:
        return self._kernel().reduce_batch(batches)

    def __repr__(self) -> str:
        inner = ", ".join(spec.output for spec in self.specs)
        return f"MSJJob({self.job_id!r}: {inner})"


class _GuardSpec:
    """One guard occurrence, precompiled for columnar evaluation."""

    __slots__ = (
        "index",
        "arity",
        "matcher",
        "key_positions",
        "payload_positions",
        "key_of",
        "payload_of",
        "request_size",
    )

    def __init__(
        self,
        index,
        arity,
        matcher,
        key_positions,
        payload_positions,
        key_of,
        payload_of,
        request_size,
    ) -> None:
        self.index = index
        self.arity = arity
        self.matcher = matcher
        self.key_positions = key_positions
        #: None means "the payload is the full row" (pipeline mode).
        self.payload_positions = payload_positions
        self.key_of = key_of
        self.payload_of = payload_of
        self.request_size = request_size


class _TagSpec:
    """One conditional tag occurrence, precompiled for columnar evaluation."""

    __slots__ = ("index", "arity", "matcher", "key_positions", "key_of")

    def __init__(self, index, arity, matcher, key_positions, key_of) -> None:
        self.index = index
        self.arity = arity
        self.matcher = matcher
        self.key_positions = key_positions
        self.key_of = key_of


class _MSJKernel:
    """Set-based evaluation plan for one :class:`MSJJob`.

    Built lazily per process (and dropped when the job is pickled to parallel
    workers): per input relation, the guard specs and conditional tags that
    read it, each with a compiled matcher, the join-key/projection *column
    positions* and — for guards — the constant serialized request size.
    Unrestricted atoms (no constants, no repeated variables — the common
    case) are evaluated entirely columnar: keys and payloads are sliced out
    of the chunk's :class:`~repro.model.relation.ColumnBlock` with one
    C-level ``zip`` per batch, and the pair accounting of the interpreted
    map+combiner is reproduced from list and set sizes (see
    :class:`~repro.mapreduce.kernels.ChunkLedger`).  Restricted
    atoms fall back to per-row matching over the chunk's row view.  The
    reduce kernel is a hash semi-join: per conditional tag a set of asserted
    keys, probed segment-at-a-time by the guard-side key/payload slices.
    """

    def __init__(self, job: MSJJob) -> None:
        self.job = job
        #: relation -> [_GuardSpec, ...]
        self.guards: Dict[str, List[_GuardSpec]] = {}
        #: relation -> [_TagSpec, ...]
        self.tags: Dict[str, List[_TagSpec]] = {}
        by_reference = job.options.tuple_reference
        for index, spec in enumerate(job.specs):
            compiled = spec.guard.compile()
            if job.emit_projection:
                payload_positions = compiled.positions(spec.projection)
                payload_of = compiled.extractor(spec.projection)
                payload_len = len(spec.projection)
            else:
                payload_positions = None
                payload_of = None
                payload_len = spec.guard.arity
            request_size = TAG_BYTES + (
                TUPLE_REFERENCE_BYTES
                if by_reference
                else max(1, payload_len) * FIELD_BYTES
            )
            self.guards.setdefault(spec.guard.relation, []).append(
                _GuardSpec(
                    index,
                    compiled.arity,
                    compiled.matcher,
                    compiled.positions(spec.join_key),
                    payload_positions,
                    compiled.extractor(spec.join_key),
                    payload_of,
                    request_size,
                )
            )
        for tag_index, (conditional, join_key) in enumerate(job._tags):
            compiled = conditional.compile()
            self.tags.setdefault(conditional.relation, []).append(
                _TagSpec(
                    tag_index,
                    compiled.arity,
                    compiled.matcher,
                    compiled.positions(join_key),
                    compiled.extractor(join_key),
                )
            )

    def map_batch(self, relation: str, chunks) -> MapBatch:
        job = self.job
        blocks = [as_column_block(chunk) for chunk in chunks]
        row_len = next((b.arity for b in blocks if b.length), None)
        guards = [g for g in self.guards.get(relation, ()) if g.arity == row_len]
        tags = [t for t in self.tags.get(relation, ()) if t.arity == row_len]
        probe: Dict[int, List[tuple]] = {g.index: [] for g in guards}
        build: Dict[int, set] = {t.index: set() for t in tags}
        ledger = ChunkLedger(job)
        packed = ledger.packed
        for block in blocks:
            if not block.length:
                continue
            for guard in guards:
                distinct = None
                if guard.matcher is None:
                    keys = block.key_tuples(guard.key_positions)
                    if packed:
                        distinct = block.distinct_keys(guard.key_positions)
                    if guard.payload_positions is None:
                        payloads = block.rows()
                    else:
                        payloads = block.key_tuples(guard.payload_positions)
                else:
                    rows = [r for r in block.rows() if guard.matcher(r)]
                    if not rows:
                        continue
                    key_of = guard.key_of
                    keys = [key_of(r) for r in rows]
                    if guard.payload_of is None:
                        payloads = rows
                    else:
                        payload_of = guard.payload_of
                        payloads = [payload_of(r) for r in rows]
                probe[guard.index].append((keys, payloads))
                ledger.add(keys, guard.request_size, distinct=distinct)
            for tag in tags:
                keys = conditional_keys(
                    block, tag.matcher, tag.key_positions, tag.key_of, packed
                )
                build[tag.index].update(keys)
                ledger.add(keys, TAG_BYTES)
            ledger.close_chunk()
        return ledger.batch(relation, (probe, build))

    def reduce_batch(self, batches) -> Dict[str, Iterable[Tuple[object, ...]]]:
        job = self.job
        asserted: Dict[int, set] = {}
        owned: set = set()
        for batch in batches:
            for tag_index, keys in batch.data[1].items():
                union_key_set(asserted, owned, tag_index, keys)
        outputs: Dict[str, set] = {spec.output: set() for spec in job.specs}
        for batch in batches:
            for index, segments in batch.data[0].items():
                keyset = asserted.get(job._spec_tag[index])
                if not keyset:
                    continue
                sink = outputs[job.specs[index].output]
                for keys, payloads in segments:
                    sink.update(
                        [p for k, p in zip(keys, payloads) if k in keyset]
                    )
        return outputs


def multi_semi_join(
    specs: Sequence[SemiJoinSpec],
    database,
    engine=None,
    options: Optional[GumboOptions] = None,
):
    """Evaluate the multi-semi-join operator ``⋉·(S)`` and return its relations.

    A convenience wrapper that builds a single :class:`MSJJob`, runs it on the
    given engine (a default :class:`~repro.mapreduce.engine.MapReduceEngine`
    when omitted) and returns ``{output name: Relation}``.
    """
    from ..mapreduce.engine import MapReduceEngine

    engine = engine or MapReduceEngine()
    job = MSJJob("msj", specs, options=options, emit_projection=True)
    result = engine.run_job(job, database)
    return result.outputs
