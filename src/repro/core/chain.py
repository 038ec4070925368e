"""Jobs used by sequential (SEQ) query plans.

The paper's SEQ strategy evaluates a BSGF query as a chain of classic
semi-join / anti-join reducer steps: each step filters the current guard
relation against one conditional atom in a dedicated MapReduce job, and the
output of one step is the (smaller) input of the next.  Conditions that are
not pure conjunctions are first rewritten into disjunctive normal form; each
disjunct becomes its own chain and a final union job combines (and projects)
the branch results — this is how the paper evaluates the uniqueness query B2
sequentially, with the four conjunctive subexpressions running in parallel.

Two job classes live here:

* :class:`SemiJoinChainJob` — one filtering step ``out := guard ⋉ κ`` (or the
  anti-join ``guard ▷ κ`` for a negative literal), keeping the full guard row
  so later steps can still join on any guard variable, and optionally applying
  the final projection;
* :class:`UnionProjectJob` — deduplicating union of several branch outputs
  with projection onto the query's SELECT list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..mapreduce.job import (
    Key,
    MapReduceJob,
    OutputFact,
    REDUCERS_BY_INPUT,
    REDUCERS_BY_INTERMEDIATE,
)
from ..mapreduce.kernels import ChunkLedger, MapBatch, as_column_block
from ..model.atoms import Atom
from ..model.terms import Variable
from ..query.conditions import And, AtomCondition, Condition, Not, Or, TrueCondition
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


@dataclass(frozen=True)
class Literal:
    """A positive or negated conditional atom of a DNF disjunct."""

    atom: Atom
    positive: bool = True

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"NOT {self.atom}"


def to_dnf(condition: Condition) -> List[List[Literal]]:
    """Rewrite a condition into disjunctive normal form (list of literal lists).

    Negation is pushed down to the atoms and conjunction distributed over
    disjunction.  The empty condition yields a single empty disjunct (always
    true).  The rewriting is exponential in the worst case, which is
    acceptable for query-plan construction on the paper's query shapes.
    """
    return _dnf(condition, negated=False)


def _dnf(condition: Condition, negated: bool) -> List[List[Literal]]:
    if isinstance(condition, TrueCondition):
        return [] if negated else [[]]
    if isinstance(condition, AtomCondition):
        return [[Literal(condition.atom, positive=not negated)]]
    if isinstance(condition, Not):
        return _dnf(condition.operand, not negated)
    if isinstance(condition, And):
        if negated:
            return _dnf(Or(Not(condition.left), Not(condition.right)), False)
        left = _dnf(condition.left, False)
        right = _dnf(condition.right, False)
        return [lhs + rhs for lhs in left for rhs in right]
    if isinstance(condition, Or):
        if negated:
            return _dnf(And(Not(condition.left), Not(condition.right)), False)
        return _dnf(condition.left, False) + _dnf(condition.right, False)
    raise TypeError(f"unknown condition node {type(condition).__name__}")


def chain_layout(
    input_name: str,
    guard_atom: Atom,
    literal: Literal,
    join_key: Tuple[Variable, ...],
    by_reference: bool,
) -> MessageLayout:
    """The messages of one chain step: the rows of *input_name* (full guard
    rows, bound through *guard_atom*) request, the literal's atom asserts.
    Sizes and packing: ``docs/operators.md`` § Message layout.
    """
    atom = literal.atom
    request = RequestSide.build(
        input_name, guard_atom, join_key, (), 0, None, by_reference
    )
    asserted = AssertSide(atom.relation, atom, join_key, (), 0)
    return MessageLayout((request,), (asserted,), by_reference)


class SemiJoinChainJob(RequestAssertJob):
    """One step of a sequential plan: filter the current guard relation.

    Parameters
    ----------
    input_name:
        Relation holding the current (partially filtered) guard tuples.  Its
        rows must conform to *guard_atom* (they are full guard rows).
    guard_atom:
        The original guard atom, used to bind variables of the rows.
    literal:
        The conditional literal to filter by (anti-join when negative).
    output_name:
        Name of the produced relation.
    projection:
        When given, the output rows are projected onto these variables
        (used by the final step of a single-disjunct chain); otherwise the
        full guard rows are kept.
    """

    def __init__(
        self,
        job_id: str,
        input_name: str,
        guard_atom: Atom,
        literal: Literal,
        output_name: str,
        projection: Optional[Tuple[Variable, ...]] = None,
        options: Optional[GumboOptions] = None,
    ) -> None:
        super().__init__(job_id, options)
        self.input_name = input_name
        self.guard_atom = guard_atom
        self.literal = literal
        self.output_name = output_name
        self.projection = tuple(projection) if projection is not None else None
        shared = guard_atom.shared_variables(literal.atom)
        self.join_key: Tuple[Variable, ...] = tuple(
            v for v in guard_atom.variables if v in shared
        )
        self.layout = chain_layout(
            input_name, guard_atom, literal, self.join_key, self.options.tuple_reference
        )

    def output_schema(self) -> Dict[str, int]:
        arity = (
            max(1, len(self.projection))
            if self.projection is not None
            else self.guard_atom.arity
        )
        return {self.output_name: arity}

    def reduce(self, key: Key, values: List[object]) -> Iterable[OutputFact]:
        messages = list(unpack_messages(values))
        asserted = any(isinstance(m, AssertMessage) for m in messages)
        keep = asserted if self.literal.positive else not asserted
        if not keep:
            return
        for message in messages:
            if not isinstance(message, RequestMessage):
                continue
            row = message.payload
            if self.projection is None:
                yield (self.output_name, row)
            else:
                binding = self.guard_atom.match(row)
                if binding is None:  # pragma: no cover - defensive
                    continue
                projected = tuple(binding[v] for v in self.projection)
                yield (self.output_name, projected if projected else (row[0],))

    def reduce_batch(self, batches) -> Dict[str, Iterable[Tuple[object, ...]]]:
        """Kernelised reduce: one hash semi-join (anti-join when negative)."""
        asserted: set = set()
        for batch in batches:
            asserted.update(batch.data[1].get(0, ()))
        positive = self.literal.positive
        rows: set = set()
        if self.projection is not None:
            project = self.guard_atom.compile().extractor(self.projection)
            projects = bool(self.projection)
        else:
            project = None
            projects = False
        for batch in batches:
            for keys, request_rows in batch.data[0].get(0, ()):
                if positive:
                    kept = [
                        row
                        for key, row in zip(keys, request_rows)
                        if key in asserted
                    ]
                else:
                    kept = [
                        row
                        for key, row in zip(keys, request_rows)
                        if key not in asserted
                    ]
                if not kept:
                    continue
                if project is None:
                    rows.update(kept)
                elif projects:
                    rows.update(map(project, kept))
                else:
                    rows.update([(row[0],) for row in kept])
        return {self.output_name: rows}

    def __repr__(self) -> str:
        return (
            f"SemiJoinChainJob({self.job_id!r}: {self.input_name} "
            f"{'⋉' if self.literal.positive else '▷'} {self.literal.atom} "
            f"-> {self.output_name})"
        )


class UnionProjectJob(MapReduceJob):
    """Deduplicating union of branch outputs, with projection onto the SELECT list.

    The input relations hold full guard rows (one per surviving guard fact per
    branch); the output contains each projected tuple once.
    """

    def __init__(
        self,
        job_id: str,
        input_names: Sequence[str],
        guard_atom: Atom,
        projection: Tuple[Variable, ...],
        output_name: str,
        options: Optional[GumboOptions] = None,
    ) -> None:
        super().__init__(job_id)
        if not input_names:
            raise ValueError("union needs at least one input relation")
        self.input_names = list(input_names)
        self.guard_atom = guard_atom
        self.projection = tuple(projection)
        self.output_name = output_name
        self.options = options or GumboOptions()
        self.reducer_allocation = (
            REDUCERS_BY_INTERMEDIATE
            if self.options.reducers_by_intermediate
            else REDUCERS_BY_INPUT
        )

    def input_relations(self) -> Sequence[str]:
        return list(self.input_names)

    def output_schema(self) -> Dict[str, int]:
        return {self.output_name: max(1, len(self.projection))}

    def map(self, relation: str, row: Tuple[object, ...]) -> Iterable[
        Tuple[Key, object]
    ]:
        binding = self.guard_atom.match(row)
        if binding is None:
            return []
        projected = tuple(binding[v] for v in self.projection)
        key = projected if projected else (row[0],)
        return [(key, 1)]

    def reduce(self, key: Key, values: List[object]) -> Iterable[OutputFact]:
        yield (self.output_name, tuple(key))

    def value_bytes(self, value: object) -> int:
        return 1

    # -- batch kernel ----------------------------------------------------------------

    def supports_kernel(self) -> bool:
        return True

    def map_batch(self, relation: str, chunks) -> MapBatch:
        """Kernelised map: project every conforming row (1-byte values, no
        combiner, so pair accounting is a straight per-row accumulation)."""
        compiled = self.guard_atom.compile()
        blocks = [as_column_block(chunk) for chunk in chunks]
        row_len = next((b.arity for b in blocks if b.length), None)
        keys: set = set()
        ledger = ChunkLedger(self)
        if compiled.arity == row_len:
            matcher = compiled.matcher
            positions = (
                compiled.positions(self.projection) if self.projection else (0,)
            )
            project = compiled.extractor(self.projection)
            projects = bool(self.projection)
            for block in blocks:
                if not block.length:
                    continue
                if matcher is None:
                    block_keys = block.key_tuples(positions)
                else:
                    rows = [r for r in block.rows() if matcher(r)]
                    block_keys = [
                        project(r) if projects else (r[0],) for r in rows
                    ]
                keys.update(block_keys)
                ledger.add(block_keys, 1)
        return ledger.batch(relation, keys)

    def reduce_batch(self, batches) -> Dict[str, Iterable[Tuple[object, ...]]]:
        """Kernelised reduce: the deduplicating union is a set union."""
        rows: set = set()
        for batch in batches:
            rows.update(batch.data)
        return {self.output_name: rows}

    def __repr__(self) -> str:
        return f"UnionProjectJob({self.job_id!r}: {self.input_names} -> {self.output_name})"
