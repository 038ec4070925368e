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
from collections import Counter

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
        t_index = key[0]
        row = tuple(key[1:])
        target = self.targets[t_index]
        present = {
            v.index for v in values if isinstance(v, MembershipMessage)
        }
        has_guard = any(isinstance(v, GuardMessage) for v in values)
        if not has_guard:
            return
        atoms = target.query.conditional_atoms
        index_of = {atom: i for i, atom in enumerate(atoms)}
        holds = target.query.condition.evaluate(lambda atom: index_of[atom] in present)
        if not holds:
            return
        binding = target.guard.match(row)
        if binding is None:  # pragma: no cover - defensive
            return
        projected = tuple(binding[v] for v in target.query.projection)
        yield (target.output, projected if projected else (row[0],))

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
        """Kernelised reduce: per guard row a membership bitmask, memoised
        Boolean evaluation per distinct mask, projection via compiled
        extractors."""
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
        outputs: Dict[str, set] = {t.output: set() for t in self.targets}
        for t_index, target in enumerate(self.targets):
            rows = guard_rows.get(t_index)
            if not rows:
                continue
            atoms = target.query.conditional_atoms
            index_of = {atom: i for i, atom in enumerate(atoms)}
            sets = [members.get((t_index, i), frozenset()) for i in range(len(atoms))]
            condition = target.query.condition
            project = target.guard.compile().extractor(target.query.projection)
            projects = bool(target.query.projection)
            sink = outputs[target.output]

            def holds(mask: int) -> bool:
                return condition.evaluate(
                    lambda atom: mask >> index_of[atom] & 1 == 1
                )

            # Membership bitmask per guard row, assembled set-at-a-time: each
            # conditional's intersection with the guard rows contributes its
            # bit through one Counter merge (bits are powers of two, so the
            # Counter's sums equal the bitwise OR).
            row_set = set(rows)
            masks: Counter = Counter()
            for i, present in enumerate(sets):
                hit = row_set & present
                if hit:
                    masks.update(dict.fromkeys(hit, 1 << i))
            true_masks = {m for m in set(masks.values()) if holds(m)}
            if true_masks:
                selected = [row for row, mask in masks.items() if mask in true_masks]
                sink.update(
                    map(project, selected)
                    if projects
                    else [(row[0],) for row in selected]
                )
            if len(masks) < len(row_set) and holds(0):
                zero_rows = row_set.difference(masks.keys())
                sink.update(
                    map(project, zero_rows)
                    if projects
                    else [(row[0],) for row in zero_rows]
                )
        return outputs

    def __repr__(self) -> str:
        inner = ", ".join(t.output for t in self.targets)
        return f"EvalJob({self.job_id!r}: {inner})"
