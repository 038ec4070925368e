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

from typing import Dict, List, Optional, Sequence

from ..query.bsgf import SemiJoinSpec
from ..query.conditions import AtomCondition
from .exchange import RequestAssertJob
from .messages import AssertSide, MessageLayout, RequestSide, payload_bytes
from .options import GumboOptions
from .selection import Selection


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
        # Semi-join i keeps its payloads whose key its conditional's tag asserts.
        tag_of = {(a.atom, a.join_key): a.tag for a in self.layout.asserts}
        self.selections = [
            Selection(
                spec.output,
                AtomCondition(spec.conditional),
                [(spec.conditional, tag_of[spec.conditional, side.join_key])],
                spec.guard,
            )
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
