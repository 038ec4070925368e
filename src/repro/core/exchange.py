"""The map phase of Algorithm 1, shared by the MSJ, 1-ROUND and SEQ-chain jobs.

Guard facts send request messages, conditional facts send asserts, and the
map phase is the same whatever the reducer then does with them.  A
:class:`RequestAssertJob` describes its messages with one
:class:`~repro.core.messages.MessageLayout` (built in its ``__init__``) and
inherits both map paths from here: the interpreted :meth:`~RequestAssertJob.map`
with its message-packing combiner, and the batch kernel
:meth:`~RequestAssertJob.map_batch`.  A subclass implements only its
``reduce`` / ``reduce_batch``.

The kernel hands ``reduce_batch`` ``(probe, build)``: ``probe`` maps a
request index to the ``(keys, payloads)`` segments of its rows, ``build``
maps an assert tag to the set of keys asserted.  Keys carry no prefix there;
the prefix is charged by the accounting only.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..mapreduce.job import (
    Key,
    MapReduceJob,
    REDUCERS_BY_INPUT,
    REDUCERS_BY_INTERMEDIATE,
)
from ..mapreduce.kernels import ChunkLedger, MapBatch, as_column_block, conditional_keys
from .messages import AssertMessage, MessageLayout, RequestMessage, pack_messages
from .options import GumboOptions


class _SidePlan(NamedTuple):
    """One layout side compiled for columnar evaluation of one relation."""

    slot: int  # request index or assert tag
    arity: int
    matcher: object
    key_positions: Tuple[int, ...]
    key_of: object
    payload_positions: Optional[Tuple[int, ...]]  # None: the full row
    payload_of: object
    size: int
    prefix: Tuple[object, ...]


def _side_plan(side, slot: int, payload) -> _SidePlan:
    compiled = side.atom.compile()
    return _SidePlan(
        slot,
        compiled.arity,
        compiled.matcher,
        compiled.positions(side.join_key),
        compiled.extractor(side.join_key),
        None if payload is None else compiled.positions(payload),
        None if payload is None else compiled.extractor(payload),
        side.size,
        side.prefix,
    )


class RequestAssertJob(MapReduceJob):
    """A job whose map phase is the request/assert exchange of ``self.layout``."""

    layout: MessageLayout

    def __init__(self, job_id: str, options: Optional[GumboOptions]) -> None:
        super().__init__(job_id)
        self.options = options or GumboOptions()
        self.reducer_allocation = (
            REDUCERS_BY_INTERMEDIATE
            if self.options.reducers_by_intermediate
            else REDUCERS_BY_INPUT
        )

    def input_relations(self) -> Sequence[str]:
        """Every relation read once: request relations, then assert relations."""
        seen: List[str] = []
        for side in self.layout.requests + self.layout.asserts:
            if side.relation not in seen:
                seen.append(side.relation)
        return seen

    # -- interpreted map / combine -------------------------------------------------

    def map(self, relation: str, row: Tuple[object, ...]) -> Iterable[
        Tuple[Key, object]
    ]:
        pairs: List[Tuple[Key, object]] = []
        by_reference = self.layout.by_reference
        for side in self.layout.requests:
            if side.relation != relation:
                continue
            binding = side.atom.match(row)
            if binding is None:
                continue
            key = side.prefix + tuple(binding[v] for v in side.join_key)
            if side.payload is None:
                payload = tuple(row)
            else:
                payload = tuple(binding[v] for v in side.payload)
            pairs.append((key, RequestMessage(side.index, payload, by_reference)))
        for side in self.layout.asserts:
            if side.relation != relation:
                continue
            binding = side.atom.match(row)
            if binding is None:
                continue
            key = side.prefix + tuple(binding[v] for v in side.join_key)
            pairs.append((key, AssertMessage(side.tag)))
        return pairs

    def uses_combiner(self) -> bool:
        return self.options.message_packing

    def combine(self, key: Key, values: List[object]) -> List[object]:
        return pack_messages(values)

    # -- batch kernel ----------------------------------------------------------------

    def supports_kernel(self) -> bool:
        return True

    def _relation_plan(self, relation: str):
        """The compiled request and assert sides reading *relation*.

        Built lazily per process and relation; the cache is dropped when the
        job is pickled to the workers (:meth:`MapReduceJob.__getstate__`).
        """
        cache: Dict[str, tuple] = self.__dict__.setdefault("_kernel_cache", {})
        plan = cache.get(relation)
        if plan is None:
            plan = cache[relation] = (
                [
                    _side_plan(side, side.index, side.payload)
                    for side in self.layout.requests
                    if side.relation == relation
                ],
                [
                    _side_plan(side, side.tag, None)
                    for side in self.layout.asserts
                    if side.relation == relation
                ],
            )
        return plan

    def map_batch(self, relation: str, chunks) -> MapBatch:
        """The map phase over *chunks*, with the interpreted path's accounting.

        Unrestricted atoms (no constants, no repeated variables — the common
        case) read keys and payloads as column slices of the chunk's
        :class:`~repro.model.relation.ColumnBlock`; restricted atoms match
        row by row.  Under message packing a chunk's request keys are
        counted through the block's memoised distinct keys, and its asserts
        deduplicate per key (:func:`~repro.mapreduce.kernels.conditional_keys`).
        """
        blocks = [as_column_block(chunk) for chunk in chunks]
        row_len = next((b.arity for b in blocks if b.length), None)
        request_plans, assert_plans = self._relation_plan(relation)
        requests = [p for p in request_plans if p.arity == row_len]
        asserts = [p for p in assert_plans if p.arity == row_len]
        probe: Dict[int, List[tuple]] = {p.slot: [] for p in requests}
        build: Dict[int, set] = {p.slot: set() for p in asserts}
        ledger = ChunkLedger(self)
        packed = ledger.packed
        for block in blocks:
            if not block.length:
                continue
            for plan in requests:
                distinct = None
                if plan.matcher is None:
                    keys = block.key_tuples(plan.key_positions)
                    if packed:
                        distinct = block.distinct_keys(plan.key_positions)
                    if plan.payload_positions is None:
                        payloads = block.rows()
                    else:
                        payloads = block.key_tuples(plan.payload_positions)
                else:
                    rows = [r for r in block.rows() if plan.matcher(r)]
                    if not rows:
                        continue
                    keys = list(map(plan.key_of, rows))
                    if plan.payload_of is None:
                        payloads = rows
                    else:
                        payloads = list(map(plan.payload_of, rows))
                probe[plan.slot].append((keys, payloads))
                ledger.add(keys, plan.size, plan.prefix, distinct)
            for plan in asserts:
                keys = conditional_keys(
                    block, plan.matcher, plan.key_positions, plan.key_of, packed
                )
                build[plan.slot].update(keys)
                ledger.add(keys, plan.size, plan.prefix)
            ledger.close_chunk()
        return ledger.batch(relation, (probe, build))
