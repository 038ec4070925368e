"""MapReduce jobs modelling how Hive and Pig evaluate the 2-round plans.

Section 5.2 of the paper compares Gumbo against Pig and Hive implementations
of the same 2-round query plans.  We reproduce the *structure* of the plans
those engines generate (rather than the engines themselves), with the
inefficiencies the paper attributes to them:

* full tuples are shuffled on both sides of every join (no message packing,
  no tuple-id references);
* intermediate results are materialised at full guard width;
* reducers are allocated from the map *input* size (Pig: 1 GB per reducer,
  Hive: 256 MB per reducer), not from the intermediate size;
* Hive's outer-join variant (HPAR) keeps *all* guard rows in every join
  output (left outer join), and its join stages execute sequentially.

Three job classes are provided:

* :class:`HiveOuterJoinJob` — ``R LEFT OUTER JOIN S_i`` producing all guard
  rows extended with a match flag (used by HPAR);
* :class:`BaselineSemiJoinJob` — ``R LEFT SEMI JOIN S_i`` / Pig COGROUP
  filtering, producing the matching guard rows at full width (used by HPARS
  and PPAR);
* :class:`BaselineCombineJob` — the final Boolean combination over the
  materialised intermediates plus the guard relation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.selection import Selection
from ..mapreduce.job import Key, MapReduceJob, OutputFact, REDUCERS_BY_INPUT
from ..query.bsgf import BSGFQuery, SemiJoinSpec

#: Marker values distinguishing the two sides of a baseline join.
_GUARD_SIDE = "g"
_CONDITIONAL_SIDE = "c"


class _BaselineJoinBase(MapReduceJob):
    """Shared machinery of the Hive/Pig join-style jobs."""

    reducer_allocation = REDUCERS_BY_INPUT

    def __init__(
        self,
        job_id: str,
        spec: SemiJoinSpec,
        guard_input: Optional[str] = None,
    ) -> None:
        super().__init__(job_id)
        self.spec = spec
        self.guard_input = guard_input or spec.guard.relation

    def input_relations(self) -> Sequence[str]:
        names = [self.guard_input]
        if self.spec.conditional.relation not in names:
            names.append(self.spec.conditional.relation)
        return names

    def map(self, relation: str, row: Tuple[object, ...]) -> Iterable[
        Tuple[Key, object]
    ]:
        pairs: List[Tuple[Key, object]] = []
        if relation == self.guard_input:
            binding = self.spec.guard.match(row)
            if binding is not None:
                key = tuple(binding[v] for v in self.spec.join_key)
                pairs.append((key, (_GUARD_SIDE, tuple(row))))
        if relation == self.spec.conditional.relation:
            binding = self.spec.conditional.match(row)
            if binding is not None:
                key = tuple(binding[v] for v in self.spec.join_key)
                pairs.append((key, (_CONDITIONAL_SIDE, tuple(row))))
        return pairs

    def value_bytes(self, value: object) -> int:
        """Both sides ship their full tuples (no projection, no references)."""
        side, row = value
        return max(1, len(row)) * self.bytes_per_field


class HiveOuterJoinJob(_BaselineJoinBase):
    """``guard LEFT OUTER JOIN conditional``: every guard row survives, flagged."""

    def output_schema(self) -> Dict[str, int]:
        return {self.spec.output: self.spec.guard.arity + 1}

    def reduce(self, key: Key, values: List[object]) -> Iterable[OutputFact]:
        matched = any(side == _CONDITIONAL_SIDE for side, _ in values)
        flag = 1 if matched else 0
        for side, row in values:
            if side == _GUARD_SIDE:
                yield (self.spec.output, tuple(row) + (flag,))


class BaselineSemiJoinJob(_BaselineJoinBase):
    """``guard LEFT SEMI JOIN conditional`` (Hive) / COGROUP-filter (Pig)."""

    def output_schema(self) -> Dict[str, int]:
        return {self.spec.output: self.spec.guard.arity}

    def reduce(self, key: Key, values: List[object]) -> Iterable[OutputFact]:
        matched = any(side == _CONDITIONAL_SIDE for side, _ in values)
        if not matched:
            return
        for side, row in values:
            if side == _GUARD_SIDE:
                yield (self.spec.output, tuple(row))


class BaselineCombineJob(MapReduceJob):
    """Final-round Boolean combination over the materialised intermediates.

    The guard relation and every intermediate are re-read in full; rows are
    grouped on the full guard tuple and the query's condition is evaluated
    from the memberships (outer-join intermediates contribute via their match
    flag).  One combine job handles all queries of the set, as the 2-round
    plan of Section 4.5 prescribes.
    """

    reducer_allocation = REDUCERS_BY_INPUT

    def __init__(
        self,
        job_id: str,
        queries: Sequence[BSGFQuery],
        intermediates: Dict[str, List[str]],
        flagged: bool,
    ) -> None:
        super().__init__(job_id)
        self.queries = list(queries)
        self.intermediates = {k: list(v) for k, v in intermediates.items()}
        self.flagged = flagged
        self._membership: Dict[str, Tuple[int, int]] = {}
        for q_index, query in enumerate(self.queries):
            names = self.intermediates[query.output]
            if len(names) != len(query.conditional_atoms):
                raise ValueError(
                    f"query {query.output!r} needs one intermediate per conditional atom"
                )
            for c_index, name in enumerate(names):
                self._membership[name] = (q_index, c_index)
        self.selections = [
            Selection.of_query(query, range(len(query.conditional_atoms)))
            for query in self.queries
        ]

    def input_relations(self) -> Sequence[str]:
        names: List[str] = []
        for query in self.queries:
            if query.guard.relation not in names:
                names.append(query.guard.relation)
        for name in self._membership:
            if name not in names:
                names.append(name)
        return names

    def output_schema(self) -> Dict[str, int]:
        return {
            query.output: max(1, len(query.projection)) for query in self.queries
        }

    def map(self, relation: str, row: Tuple[object, ...]) -> Iterable[
        Tuple[Key, object]
    ]:
        pairs: List[Tuple[Key, object]] = []
        membership = self._membership.get(relation)
        if membership is not None:
            q_index, c_index = membership
            if self.flagged:
                guard_row, flag = tuple(row[:-1]), row[-1]
                if flag:
                    pairs.append(((q_index,) + guard_row, ("m", c_index)))
                else:
                    # Unmatched outer-join rows still travel to the reducer.
                    pairs.append(((q_index,) + guard_row, ("x", c_index)))
            else:
                pairs.append(((q_index,) + tuple(row), ("m", c_index)))
            return pairs
        for q_index, query in enumerate(self.queries):
            if query.guard.relation != relation:
                continue
            if query.guard.conforms(row):
                pairs.append(((q_index,) + tuple(row), ("g", None)))
        return pairs

    def reduce(self, key: Key, values: List[object]) -> Iterable[OutputFact]:
        if not any(kind == "g" for kind, _ in values):
            return
        selection = self.selections[key[0]]
        if selection.holds({index for kind, index in values if kind == "m"}):
            yield (selection.output, selection.project(tuple(key[1:])))

    def key_bytes(self, key: Key) -> int:
        """Keys carry the full guard tuple (no id compression)."""
        return max(1, len(key) - 1) * self.bytes_per_field + 4

    def value_bytes(self, value: object) -> int:
        return 4
