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

from typing import Dict, List, Optional, Sequence

from ..query.bsgf import BSGFQuery
from .exchange import RequestAssertJob
from .messages import AssertSide, MessageLayout, RequestSide
from .options import GumboOptions
from .selection import Selection


class OneRoundNotApplicableError(ValueError):
    """Raised when a query does not satisfy the shared-join-key requirement."""


def one_round_applicable(query: BSGFQuery) -> bool:
    """True when the query can be evaluated by the fused 1-ROUND job.

    The requirement implemented here is the shared-join-key condition of
    Section 5.1 (all conditional atoms agree on the join key with the guard).
    Queries without any conditional atom are trivially applicable.
    """
    return query.shares_join_key()


def one_round_layout(queries: Sequence[BSGFQuery], by_reference: bool) -> MessageLayout:
    """The messages of the fused job over *queries*.

    Query ``q`` keys its messages by ``(q,)`` followed by its shared join key
    (guard-variable order): its guard facts send request ``q`` carrying the
    full guard row, and each of its conditional atoms gets its own assert tag.
    Sizes and packing: ``docs/operators.md`` § Message layout.
    """
    requests: List[RequestSide] = []
    asserts: List[AssertSide] = []
    for q_index, query in enumerate(queries):
        specs = query.semijoin_specs()
        join_key = specs[0].join_key if specs else ()
        prefix = (q_index,)
        requests.append(
            RequestSide.build(
                query.guard.relation,
                query.guard,
                join_key,
                prefix,
                q_index,
                None,
                by_reference,
            )
        )
        for atom in query.conditional_atoms:
            asserts.append(
                AssertSide(atom.relation, atom, join_key, prefix, len(asserts))
            )
    return MessageLayout(tuple(requests), tuple(asserts), by_reference)


class FusedOneRoundJob(RequestAssertJob):
    """A single job evaluating one or more shared-key BSGF queries end to end."""

    def __init__(
        self,
        job_id: str,
        queries: Sequence[BSGFQuery],
        options: Optional[GumboOptions] = None,
    ) -> None:
        super().__init__(job_id, options)
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
        self.layout = one_round_layout(queries, self.options.tuple_reference)
        # Query q keeps its guard rows by its condition over its atoms' tags.
        self.selections = [
            Selection.of_query(
                query, [a.tag for a in self.layout.asserts if a.prefix == (q_index,)]
            )
            for q_index, query in enumerate(queries)
        ]

    # -- schema -------------------------------------------------------------------

    def input_relations(self) -> Sequence[str]:
        """Every relation read once, query by query: guard, then conditionals."""
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

    def __repr__(self) -> str:
        inner = ", ".join(q.output for q in self.queries)
        return f"FusedOneRoundJob({self.job_id!r}: {inner})"
