"""The fused 1-ROUND job: MSJ and EVAL combined into a single MapReduce job.

Section 5.1, optimisation (4): when all conditional atoms of a BSGF query
share the same join key with the guard, the semi-join evaluation and the
Boolean combination can be performed by one job — every guard fact and every
relevant conditional fact meet at the reducer responsible for the shared key,
so the reducer can evaluate the full condition and emit the output directly.
The same fusion applies to several BSGF queries at once (each query keeps its
own key space via a target index in the key).

Queries A3 and B2 of the paper's experiments are evaluated this way by the
1-ROUND strategy.
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
from collections import Counter

from ..mapreduce.kernels import (
    ChunkLedger,
    MapBatch,
    as_column_block,
    conditional_keys,
    union_key_set,
)
from ..model.atoms import Atom
from ..model.terms import Variable
from ..query.bsgf import BSGFQuery
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


class OneRoundNotApplicableError(ValueError):
    """Raised when a query does not satisfy the shared-join-key requirement."""


def one_round_applicable(query: BSGFQuery) -> bool:
    """True when the query can be evaluated by the fused 1-ROUND job.

    The requirement implemented here is the shared-join-key condition of
    Section 5.1 (all conditional atoms agree on the join key with the guard).
    Queries without any conditional atom are trivially applicable.
    """
    return query.shares_join_key()


class FusedOneRoundJob(MapReduceJob):
    """A single job evaluating one or more shared-key BSGF queries end to end."""

    def __init__(
        self,
        job_id: str,
        queries: Sequence[BSGFQuery],
        options: Optional[GumboOptions] = None,
    ) -> None:
        super().__init__(job_id)
        queries = list(queries)
        if not queries:
            raise ValueError("the fused job needs at least one query")
        for query in queries:
            if not one_round_applicable(query):
                raise OneRoundNotApplicableError(
                    f"query {query.output!r} has conditional atoms with "
                    f"different join keys; 1-ROUND evaluation is not applicable"
                )
        outputs = [q.output for q in queries]
        if len(set(outputs)) != len(outputs):
            raise ValueError("query outputs must be pairwise distinct")
        self.queries: List[BSGFQuery] = queries
        self.options = options or GumboOptions()
        self.reducer_allocation = (
            REDUCERS_BY_INTERMEDIATE
            if self.options.reducers_by_intermediate
            else REDUCERS_BY_INPUT
        )
        # Per query: the shared join key (guard-variable order) and, per
        # conditional atom, its global assert tag.
        self._join_keys: List[Tuple[Variable, ...]] = []
        self._atom_tags: List[Dict[Atom, int]] = []
        self._tags: List[Tuple[int, Atom, Tuple[Variable, ...]]] = []
        for q_index, query in enumerate(queries):
            specs = query.semijoin_specs()
            join_key = specs[0].join_key if specs else ()
            self._join_keys.append(join_key)
            tags: Dict[Atom, int] = {}
            for atom in query.conditional_atoms:
                tag = len(self._tags)
                tags[atom] = tag
                self._tags.append((q_index, atom, join_key))
            self._atom_tags.append(tags)

    # -- schema -------------------------------------------------------------------

    def input_relations(self) -> Sequence[str]:
        seen: List[str] = []
        for query in self.queries:
            if query.guard.relation not in seen:
                seen.append(query.guard.relation)
            for atom in query.conditional_atoms:
                if atom.relation not in seen:
                    seen.append(atom.relation)
        return seen

    def output_schema(self) -> Dict[str, int]:
        return {
            query.output: max(1, len(query.projection)) for query in self.queries
        }

    # -- map / combine / reduce -------------------------------------------------------

    def map(self, relation: str, row: Tuple[object, ...]) -> Iterable[
        Tuple[Key, object]
    ]:
        pairs: List[Tuple[Key, object]] = []
        for q_index, query in enumerate(self.queries):
            if query.guard.relation == relation:
                binding = query.guard.match(row)
                if binding is not None:
                    key_values = tuple(
                        binding[v] for v in self._join_keys[q_index]
                    )
                    pairs.append(
                        (
                            (q_index,) + key_values,
                            RequestMessage(
                                index=q_index,
                                payload=tuple(row),
                                by_reference=self.options.tuple_reference,
                            ),
                        )
                    )
        for tag, (q_index, atom, join_key) in enumerate(self._tags):
            if atom.relation != relation:
                continue
            binding = atom.match(row)
            if binding is None:
                continue
            key_values = tuple(binding[v] for v in join_key)
            pairs.append(((q_index,) + key_values, AssertMessage(tag)))
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
            q_index = message.index
            query = self.queries[q_index]
            tags = self._atom_tags[q_index]
            holds = query.condition.evaluate(lambda atom: tags[atom] in asserted)
            if not holds:
                continue
            binding = query.guard.match(message.payload)
            if binding is None:  # pragma: no cover - defensive
                continue
            projected = tuple(binding[v] for v in query.projection)
            yield (query.output, projected if projected else (message.payload[0],))

    # -- batch kernel ----------------------------------------------------------------

    def supports_kernel(self) -> bool:
        return True

    def _kernel(self) -> "_FusedKernel":
        kernel = self.__dict__.get("_kernel_cache")
        if kernel is None:
            kernel = self.__dict__["_kernel_cache"] = _FusedKernel(self)
        return kernel

    def map_batch(self, relation: str, chunks) -> MapBatch:
        return self._kernel().map_batch(relation, chunks)

    def reduce_batch(self, batches) -> Dict[str, Iterable[Tuple[object, ...]]]:
        return self._kernel().reduce_batch(batches)

    def __repr__(self) -> str:
        inner = ", ".join(q.output for q in self.queries)
        return f"FusedOneRoundJob({self.job_id!r}: {inner})"


class _FusedKernel:
    """Set-based evaluation plan for one :class:`FusedOneRoundJob`.

    The shared join key means every query can be evaluated as: build one key
    set per conditional atom tag, compute per guard row its membership
    bitmask over the query's atoms, and evaluate the Boolean condition once
    per distinct mask (memoised).  Pair accounting mirrors the interpreted
    map+combiner exactly: keys are ``(query index,) + join-key values``,
    requests carry the full guard row, asserts deduplicate per chunk-key
    under message packing.
    """

    def __init__(self, job: FusedOneRoundJob) -> None:
        self.job = job
        by_reference = job.options.tuple_reference
        #: relation -> [(q index, arity, matcher, key positions, key extractor,
        #:               req size)]
        self.guards: Dict[str, List[tuple]] = {}
        #: relation -> [(tag, q index, arity, matcher, key positions,
        #:               key extractor)]
        self.tags: Dict[str, List[tuple]] = {}
        for q_index, query in enumerate(job.queries):
            compiled = query.guard.compile()
            request_size = TAG_BYTES + (
                TUPLE_REFERENCE_BYTES
                if by_reference
                else max(1, query.guard.arity) * FIELD_BYTES
            )
            self.guards.setdefault(query.guard.relation, []).append(
                (
                    q_index,
                    compiled.arity,
                    compiled.matcher,
                    compiled.positions(job._join_keys[q_index]),
                    compiled.extractor(job._join_keys[q_index]),
                    request_size,
                )
            )
        for tag, (q_index, atom, join_key) in enumerate(job._tags):
            compiled = atom.compile()
            self.tags.setdefault(atom.relation, []).append(
                (
                    tag,
                    q_index,
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
        guards = [g for g in self.guards.get(relation, ()) if g[1] == row_len]
        tags = [t for t in self.tags.get(relation, ()) if t[2] == row_len]
        probe: Dict[int, List[tuple]] = {g[0]: [] for g in guards}
        build: Dict[int, set] = {t[0]: set() for t in tags}
        ledger = ChunkLedger(job)
        packed = ledger.packed
        for block in blocks:
            if not block.length:
                continue
            for q_index, _, matcher, key_positions, key_of, request_size in guards:
                distinct = None
                if matcher is None:
                    key_values = block.key_tuples(key_positions)
                    if packed:
                        distinct = block.distinct_keys(key_positions)
                    rows = block.rows()
                else:
                    rows = [r for r in block.rows() if matcher(r)]
                    if not rows:
                        continue
                    key_values = [key_of(r) for r in rows]
                probe[q_index].append((key_values, rows))
                ledger.add(key_values, request_size, (q_index,), distinct)
            for tag, q_index, _, matcher, key_positions, key_of in tags:
                key_values = conditional_keys(
                    block, matcher, key_positions, key_of, packed
                )
                build[tag].update(key_values)
                ledger.add(key_values, TAG_BYTES, (q_index,))
            ledger.close_chunk()
        return ledger.batch(relation, (probe, build))

    def reduce_batch(self, batches) -> Dict[str, Iterable[Tuple[object, ...]]]:
        job = self.job
        asserted: Dict[int, set] = {}
        owned: set = set()
        for batch in batches:
            for tag, keys in batch.data[1].items():
                union_key_set(asserted, owned, tag, keys)
        guard_segments: Dict[int, List[tuple]] = {}
        for batch in batches:
            for q_index, segments in batch.data[0].items():
                guard_segments.setdefault(q_index, []).extend(segments)
        outputs: Dict[str, set] = {q.output: set() for q in job.queries}
        for q_index, query in enumerate(job.queries):
            segments = guard_segments.get(q_index)
            if not segments:
                continue
            atom_tags = job._atom_tags[q_index]
            tag_list = list(atom_tags.items())  # (atom, tag) in atom order
            bit_of = {atom: i for i, (atom, _) in enumerate(tag_list)}
            sets = [asserted.get(tag, frozenset()) for _, tag in tag_list]
            condition = query.condition
            project = query.guard.compile().extractor(query.projection)
            projects = bool(query.projection)
            sink = outputs[query.output]

            def holds(mask: int) -> bool:
                return condition.evaluate(
                    lambda atom: mask >> bit_of[atom] & 1 == 1
                )

            # Mask per distinct join-key value (guard rows sharing a key share
            # their conditional memberships), assembled via set intersections.
            all_keys: set = set()
            for key_values, _ in segments:
                all_keys.update(key_values)
            masks: Counter = Counter()
            for i, keys in enumerate(sets):
                hit = all_keys & keys
                if hit:
                    masks.update(dict.fromkeys(hit, 1 << i))
            true_masks = {m for m in set(masks.values()) if holds(m)}
            if holds(0):
                true_masks.add(0)
            if not true_masks:
                continue
            get_mask = masks.get
            for key_values, rows in segments:
                selected = [
                    row
                    for kv, row in zip(key_values, rows)
                    if get_mask(kv, 0) in true_masks
                ]
                if selected:
                    sink.update(
                        map(project, selected)
                        if projects
                        else [(row[0],) for row in selected]
                    )
        return outputs
