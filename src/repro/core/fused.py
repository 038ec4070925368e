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

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..mapreduce.job import Key, OutputFact
from ..mapreduce.kernels import union_key_set
from ..model.atoms import Atom
from ..query.bsgf import BSGFQuery
from .exchange import RequestAssertJob
from .messages import (
    AssertMessage,
    AssertSide,
    MessageLayout,
    RequestMessage,
    RequestSide,
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
        # Per query, the assert tag of each conditional atom.
        self._atom_tags: List[Dict[Atom, int]] = [{} for _ in queries]
        for side in self.layout.asserts:
            self._atom_tags[side.prefix[0]][side.atom] = side.tag

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

    # -- reduce ---------------------------------------------------------------------

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

    def reduce_batch(self, batches) -> Dict[str, Iterable[Tuple[object, ...]]]:
        """Per query: one asserted-key set per conditional tag, and the
        Boolean condition evaluated once per distinct membership mask."""
        asserted: Dict[int, set] = {}
        owned: set = set()
        for batch in batches:
            for tag, keys in batch.data[1].items():
                union_key_set(asserted, owned, tag, keys)
        guard_segments: Dict[int, List[tuple]] = {}
        for batch in batches:
            for q_index, segments in batch.data[0].items():
                guard_segments.setdefault(q_index, []).extend(segments)
        outputs: Dict[str, set] = {q.output: set() for q in self.queries}
        for q_index, query in enumerate(self.queries):
            segments = guard_segments.get(q_index)
            if not segments:
                continue
            atom_tags = self._atom_tags[q_index]
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

    def __repr__(self) -> str:
        inner = ", ".join(q.output for q in self.queries)
        return f"FusedOneRoundJob({self.job_id!r}: {inner})"
