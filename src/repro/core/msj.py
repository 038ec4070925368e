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

from ..mapreduce.job import Key, OutputFact
from ..mapreduce.kernels import union_key_set
from ..query.bsgf import SemiJoinSpec
from .exchange import RequestAssertJob
from .messages import (
    AssertMessage,
    AssertSide,
    MessageLayout,
    RequestMessage,
    RequestSide,
    payload_bytes,
    unpack_messages,
)
from .options import GumboOptions


def msj_layout(
    specs: Sequence[SemiJoinSpec], by_reference: bool, emit_projection: bool = False
) -> MessageLayout:
    """The messages of ``MSJ(specs)``.

    Request ``i`` is sent by the facts of spec ``i``'s guard, carrying the
    projection (*emit_projection*) or the full guard row.  Asserts are sent
    once per distinct conditional tag — (conditional atom, join key) — so
    identical conditionals shared by several semi-joins are asserted once.
    Sizes and packing: ``docs/operators.md`` § Message layout.
    """
    requests: List[RequestSide] = []
    asserts: Dict[tuple, AssertSide] = {}
    for index, spec in enumerate(specs):
        join_key = spec.join_key
        payload = spec.projection if emit_projection else None
        requests.append(
            RequestSide.build(
                spec.guard.relation,
                spec.guard,
                join_key,
                (),
                index,
                payload,
                by_reference,
            )
        )
        tag = (spec.conditional, join_key)
        if tag not in asserts:
            asserts[tag] = AssertSide(
                spec.conditional.relation, spec.conditional, join_key, (), len(asserts)
            )
    return MessageLayout(tuple(requests), tuple(asserts.values()), by_reference)


class MSJJob(RequestAssertJob):
    """The single-job MapReduce implementation of the multi-semi-join operator."""

    def __init__(
        self,
        job_id: str,
        specs: Sequence[SemiJoinSpec],
        options: Optional[GumboOptions] = None,
        emit_projection: bool = True,
    ) -> None:
        super().__init__(job_id, options)
        specs = list(specs)
        if not specs:
            raise ValueError("MSJ needs at least one semi-join equation")
        outputs = [spec.output for spec in specs]
        if len(set(outputs)) != len(outputs):
            raise ValueError("semi-join output names must be pairwise distinct")
        self.specs: List[SemiJoinSpec] = specs
        self.emit_projection = emit_projection
        self.layout = msj_layout(specs, self.options.tuple_reference, emit_projection)
        # The assert tag each semi-join's requests wait for.
        tag_of = {(a.atom, a.join_key): a.tag for a in self.layout.asserts}
        self._spec_tag: List[int] = [
            tag_of[spec.conditional, side.join_key]
            for spec, side in zip(specs, self.layout.requests)
        ]

    def output_schema(self) -> Dict[str, int]:
        if self.emit_projection:
            return {spec.output: max(1, len(spec.projection)) for spec in self.specs}
        return {spec.output: spec.guard.arity for spec in self.specs}

    def output_tuple_bytes(self, relation: str) -> Optional[int]:
        """Intermediate relations are stored as tuple ids under optimisation (2)."""
        if self.emit_projection:
            return None
        for spec in self.specs:
            if spec.output == relation:
                return payload_bytes(len(spec.projection), self.options.tuple_reference)
        return None

    # -- reduce ------------------------------------------------------------------------

    def reduce(self, key: Key, values: List[object]) -> Iterable[OutputFact]:
        messages = list(unpack_messages(values))
        asserted = {m.tag for m in messages if isinstance(m, AssertMessage)}
        for message in messages:
            if not isinstance(message, RequestMessage):
                continue
            if self._spec_tag[message.index] in asserted:
                spec = self.specs[message.index]
                yield (spec.output, message.payload)

    def reduce_batch(self, batches) -> Dict[str, Iterable[Tuple[object, ...]]]:
        """A hash semi-join: per conditional tag a set of asserted keys,
        probed segment-at-a-time by the requests' key/payload slices."""
        asserted: Dict[int, set] = {}
        owned: set = set()
        for batch in batches:
            for tag, keys in batch.data[1].items():
                union_key_set(asserted, owned, tag, keys)
        outputs: Dict[str, set] = {spec.output: set() for spec in self.specs}
        for batch in batches:
            for index, segments in batch.data[0].items():
                keyset = asserted.get(self._spec_tag[index])
                if not keyset:
                    continue
                sink = outputs[self.specs[index].output]
                for keys, payloads in segments:
                    sink.update(
                        [p for k, p in zip(keys, payloads) if k in keyset]
                    )
        return outputs

    def __repr__(self) -> str:
        inner = ", ".join(spec.output for spec in self.specs)
        return f"MSJJob({self.job_id!r}: {inner})"


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
