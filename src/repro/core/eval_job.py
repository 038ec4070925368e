"""The EVAL MapReduce job (Section 4.3): Boolean combination of semi-join results.

After the MSJ jobs have computed, for every semi-join ``X_i``, which guard
facts satisfy it, the EVAL job combines those outcomes according to the
query's Boolean condition.  Conceptually it evaluates ``X_0 ∧ φ`` where
``X_0`` is the guard relation and ``φ`` the Boolean formula over the ``X_i``:
the mapper tags every fact with the relation it came from, the reducer
receives — per guard fact — the set of ``X_i`` containing it, and outputs the
(projected) fact when the formula evaluates to true.

Several Boolean formulas (one per BSGF query of a query set) are evaluated in
one EVAL job, as in ``EVAL(R_1, φ_1, ..., R_n, φ_n)`` of Section 4.5.
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
from ..mapreduce.kernels import (
    ChunkLedger,
    MapBatch,
    as_column_block,
    union_key_set,
)
from ..model.atoms import Atom
from ..query.bsgf import BSGFQuery
from .messages import (
    MARKER_BYTES,
    GuardMessage,
    MembershipMessage,
    payload_bytes,
)
from .options import GumboOptions
from .selection import Selection


@dataclass(frozen=True)
class EvalTarget:
    """One Boolean combination to evaluate: a BSGF query plus the names of the
    intermediate relations holding its semi-join results.

    ``intermediates[i]`` is the relation produced by the MSJ job for the
    query's ``i``-th conditional atom (the order of
    :attr:`~repro.query.bsgf.BSGFQuery.conditional_atoms`).
    """

    query: BSGFQuery
    intermediates: Tuple[str, ...]

    def __post_init__(self) -> None:
        expected = len(self.query.conditional_atoms)
        if len(self.intermediates) != expected:
            raise ValueError(
                f"query {self.query.output!r} has {expected} conditional atoms "
                f"but {len(self.intermediates)} intermediate names were given"
            )

    @property
    def output(self) -> str:
        return self.query.output

    @property
    def guard(self) -> Atom:
        return self.query.guard


class EvalJob(MapReduceJob):
    """The EVAL job combining semi-join memberships per guard fact."""

    def __init__(
        self,
        job_id: str,
        targets: Sequence[EvalTarget],
        options: Optional[GumboOptions] = None,
    ) -> None:
        super().__init__(job_id)
        targets = list(targets)
        if not targets:
            raise ValueError("EVAL needs at least one target")
        outputs = [t.output for t in targets]
        if len(set(outputs)) != len(outputs):
            raise ValueError("EVAL target outputs must be pairwise distinct")
        self.targets: List[EvalTarget] = targets
        self.options = options or GumboOptions()
        self.reducer_allocation = (
            REDUCERS_BY_INTERMEDIATE
            if self.options.reducers_by_intermediate
            else REDUCERS_BY_INPUT
        )
        # Map intermediate relation name -> (target index, conditional index).
        self._membership: Dict[str, Tuple[int, int]] = {}
        for t_index, target in enumerate(targets):
            for c_index, name in enumerate(target.intermediates):
                if name in self._membership:
                    raise ValueError(
                        f"intermediate relation {name!r} is used by two targets"
                    )
                self._membership[name] = (t_index, c_index)
        # Target t keeps its guard rows by its condition over the memberships
        # of its intermediates, slot (t, i) for the i-th.
        self.selections = [
            Selection.of_query(
                target.query, [(t_index, i) for i in range(len(target.intermediates))]
            )
            for t_index, target in enumerate(targets)
        ]

    # -- schema --------------------------------------------------------------

    def input_relations(self) -> Sequence[str]:
        seen: List[str] = []
        for target in self.targets:
            if target.guard.relation not in seen:
                seen.append(target.guard.relation)
        for name in self._membership:
            if name not in seen:
                seen.append(name)
        return seen

    def output_schema(self) -> Dict[str, int]:
        return {
            target.output: max(1, len(target.query.projection))
            for target in self.targets
        }

    # -- map / reduce -----------------------------------------------------------

    def map(self, relation: str, row: Tuple[object, ...]) -> Iterable[
        Tuple[Key, object]
    ]:
        pairs: List[Tuple[Key, object]] = []
        membership = self._membership.get(relation)
        if membership is not None:
            t_index, c_index = membership
            pairs.append(((t_index,) + tuple(row), MembershipMessage(t_index, c_index)))
            return pairs
        for t_index, target in enumerate(self.targets):
            if target.guard.relation != relation:
                continue
            if target.guard.conforms(row):
                pairs.append(((t_index,) + tuple(row), GuardMessage(t_index)))
        return pairs

    def reduce(self, key: Key, values: List[object]) -> Iterable[OutputFact]:
        if not any(isinstance(v, GuardMessage) for v in values):
            return
        selection = self.selections[key[0]]
        present = {
            (v.target, v.index) for v in values if isinstance(v, MembershipMessage)
        }
        if selection.holds(present):
            yield (selection.output, selection.project(tuple(key[1:])))

    # -- byte accounting ------------------------------------------------------------

    def key_bytes(self, key: Key) -> int:
        """Keys are (target index, guard tuple); guard tuples may be shipped by id."""
        return MARKER_BYTES + payload_bytes(len(key) - 1, self.options.tuple_reference)

    # -- batch kernel ----------------------------------------------------------------

    def supports_kernel(self) -> bool:
        return True

    def map_batch(self, relation: str, chunks) -> MapBatch:
        """Kernelised map: count the pairs, collect rows for the set-probe.

        Intermediate relations contribute one membership message per row;
        guard relations one guard message per (target, conforming row).  Both
        message kinds serialise to ``MARKER_BYTES``; keys are ``(target,) +
        row`` and the EVAL job uses no combiner, so the pair accounting is a
        row count per target — no key is ever assembled here.
        """
        ledger = ChunkLedger(self)
        blocks = [as_column_block(chunk) for chunk in chunks]
        membership = self._membership.get(relation)
        if membership is not None:
            prefix = (membership[0],)
            rows: set = set()
            for block in blocks:
                if not block.length:
                    continue
                block_rows = block.rows()
                rows.update(block_rows)
                ledger.add(block_rows, MARKER_BYTES, prefix)
            return ledger.batch(relation, ("member", membership, rows))
        guards = []
        row_len = next((b.arity for b in blocks if b.length), None)
        for t_index, target in enumerate(self.targets):
            if target.guard.relation != relation:
                continue
            compiled = target.guard.compile()
            if compiled.arity == row_len:
                guards.append((t_index, compiled.matcher))
        conforming: Dict[int, List[Tuple[object, ...]]] = {t: [] for t, _ in guards}
        for block in blocks:
            if not block.length:
                continue
            block_rows = block.rows()
            for t_index, matcher in guards:
                rows_for_target = (
                    block_rows
                    if matcher is None
                    else [r for r in block_rows if matcher(r)]
                )
                conforming[t_index].extend(rows_for_target)
                ledger.add(rows_for_target, MARKER_BYTES, (t_index,))
        return ledger.batch(relation, ("guard", conforming))

    def reduce_batch(self, batches) -> Dict[str, Iterable[Tuple[object, ...]]]:
        """Kernelised reduce: each target's guard rows, which are their own
        keys, go through its selection over the intermediates' row sets."""
        members: Dict[Tuple[int, int], set] = {}
        owned: set = set()
        guard_rows: Dict[int, List[Tuple[object, ...]]] = {}
        for batch in batches:
            kind = batch.data[0]
            if kind == "member":
                union_key_set(members, owned, batch.data[1], batch.data[2])
            else:
                for t_index, rows in batch.data[1].items():
                    guard_rows.setdefault(t_index, []).extend(rows)
        outputs: Dict[str, set] = {s.output: set() for s in self.selections}
        for t_index, rows in guard_rows.items():
            selection = self.selections[t_index]
            selection.select(members, [(rows, rows)], outputs[selection.output])
        return outputs

    def __repr__(self) -> str:
        inner = ", ".join(t.output for t in self.targets)
        return f"EvalJob({self.job_id!r}: {inner})"
