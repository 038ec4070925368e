"""Materialized (B)SGF results with the state needed for delta maintenance.

A :class:`Materialization` stores, per BSGF statement of an SGF query:

* a **conditional-atom index** per conditional atom κ_i — the number of
  conforming κ-rows per join-key value (the variables shared with the
  guard).  Presence of a key is exactly the truth of κ_i for a guard tuple
  binding that key (the semantics of the reference evaluator's
  ``_ConditionalIndex``), and counting rows per key makes truth *flips*
  detectable in O(|delta|) without keeping the rows themselves;
* a **guard index** per distinct join key — conforming guard rows listed by
  key value, so the old guard tuples affected by a conditional flip are
  found without scanning the guard;
* a **support counter** — for every output tuple, how many guard tuples
  project to it while satisfying the condition.  Projections collapse guard
  tuples, so an output tuple may only be removed when its support reaches
  zero (the classic counting algorithm of incremental view maintenance).

The statement-level delta rule (:meth:`_StatementState.apply_delta`) is
semi-naive: only inserted guard tuples, guard tuples whose condition may
have changed (their join key flipped for some conditional atom), and deleted
guard tuples are re-evaluated, by reading the condition off the indexes;
everything else is untouched.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..model.atoms import Atom, tuple_extractor
from ..model.database import Database
from ..model.relation import Relation
from ..model.terms import Variable
from ..query.bsgf import BSGFQuery
from ..query.sgf import SGFQuery
from .delta import Delta, Row


class IncrementalError(RuntimeError):
    """Raised when a materialization cannot be built or refreshed safely."""


class _AtomIndex:
    """Number of conforming rows of one conditional atom per join-key value."""

    def __init__(self, atom: Atom, guard: Atom) -> None:
        shared = guard.shared_variables(atom)
        self.atom = atom
        self.join_key: Tuple[Variable, ...] = tuple(
            v for v in guard.variables if v in shared
        )
        self.count_by_key: Dict[Row, int] = {}

    def build(self, relation: Optional[Relation]) -> None:
        if relation is None:
            return
        for row in relation:
            self.add(row)

    def key_of(self, guard_binding: Dict[Variable, object]) -> Row:
        return tuple(guard_binding[v] for v in self.join_key)

    def truth(self, key: Row) -> bool:
        return key in self.count_by_key

    def add(self, row: Row) -> Optional[Row]:
        """Count *row* if it conforms; returns its key (None otherwise).

        Every row is added once: base inserts are deduplicated against the
        database and an upstream statement only reports output tuples that
        newly appeared.
        """
        binding = self.atom.match(row)
        if binding is None:
            return None
        key = tuple(binding[v] for v in self.join_key)
        self.count_by_key[key] = self.count_by_key.get(key, 0) + 1
        return key

    def discard(self, row: Row) -> Optional[Row]:
        """Uncount *row* if it conforms; returns its key (None otherwise).

        Deletions only come from an upstream statement's removed outputs,
        which were counted, so a conforming row under a missing key is a
        delta-rule bug.
        """
        binding = self.atom.match(row)
        if binding is None:
            return None
        key = tuple(binding[v] for v in self.join_key)
        count = self.count_by_key.get(key)
        if count is None:
            raise IncrementalError(
                f"{self.atom.relation!r} row {row!r} deleted under the "
                f"unindexed key {key!r}"
            )
        if count == 1:
            del self.count_by_key[key]
        else:
            self.count_by_key[key] = count - 1
        return key

    def apply(self, inserted: Iterable[Row], deleted: Iterable[Row]) -> Set[Row]:
        """Apply a relation delta; returns the keys whose *truth* flipped."""
        truth_before: Dict[Row, bool] = {}
        for row in inserted:
            key = self.add(row)
            if key is not None:
                truth_before.setdefault(key, self.count_by_key[key] > 1)
        for row in deleted:
            key = self.discard(row)
            if key is not None:
                truth_before.setdefault(key, True)
        return {
            key for key, before in truth_before.items() if self.truth(key) != before
        }


class _StatementState:
    """Delta-maintenance state of one BSGF statement."""

    def __init__(self, query: BSGFQuery, bytes_per_field: int) -> None:
        self.query = query
        self.guard = query.guard
        positions = self.guard.compile().projection_positions(query.projection)
        self._project = tuple_extractor(positions)
        self.indexes: Dict[Atom, _AtomIndex] = {
            atom: _AtomIndex(atom, self.guard) for atom in query.conditional_atoms
        }
        self.guard_rows: Set[Row] = set()
        #: One guard index per *distinct* join key used by the atoms.  A row
        #: is listed once: inserts are deduplicated and ``guard_rows``
        #: filters the rows already indexed.
        self.guard_by_key: Dict[Tuple[Variable, ...], Dict[Row, List[Row]]] = {
            key: {} for key in {i.join_key for i in self.indexes.values()} if key
        }
        self.support: Dict[Row, int] = {}
        self.output = Relation(
            query.output, max(1, len(query.projection)), bytes_per_field
        )

    # -- construction ---------------------------------------------------------

    def build(self, relation_of: Callable[[str], Optional[Relation]]) -> None:
        """Index the current database state and materialize the output."""
        for atom, index in self.indexes.items():
            index.build(relation_of(atom.relation))
        guard_relation = relation_of(self.guard.relation)
        if guard_relation is None:
            return
        for row in guard_relation:
            binding = self.guard.match(row)
            if binding is None:
                continue
            self._index_guard_row(row, binding)
            if self._holds_now(binding):
                self._bump(self._project(row), +1, set(), set())

    # -- evaluation helpers -----------------------------------------------------

    def _holds_now(self, binding: Dict[Variable, object]) -> bool:
        """Condition value under the *current* (post-delta) indexes."""
        return self.query.condition.evaluate(
            lambda atom: self.indexes[atom].truth(self.indexes[atom].key_of(binding))
        )

    def _holds_before(
        self,
        binding: Dict[Variable, object],
        flipped: Dict[Atom, Set[Row]],
    ) -> bool:
        """Condition value under the *pre-delta* indexes.

        The indexes already hold the new state; a key's old truth differs
        from its new truth exactly when the key flipped, so XOR-ing with the
        flip set reconstructs the old assignment without keeping a copy.
        """

        def old_truth(atom: Atom) -> bool:
            index = self.indexes[atom]
            key = index.key_of(binding)
            truth = index.truth(key)
            return not truth if key in flipped.get(atom, ()) else truth

        return self.query.condition.evaluate(old_truth)

    # -- guard index maintenance ---------------------------------------------------

    def _index_guard_row(self, row: Row, binding: Dict[Variable, object]) -> None:
        self.guard_rows.add(row)
        for key_vars, by_key in self.guard_by_key.items():
            key = tuple(binding[v] for v in key_vars)
            by_key.setdefault(key, []).append(row)

    def _unindex_guard_row(self, row: Row, binding: Dict[Variable, object]) -> None:
        self.guard_rows.discard(row)
        for key_vars, by_key in self.guard_by_key.items():
            key = tuple(binding[v] for v in key_vars)
            rows = by_key[key]
            rows.remove(row)
            if not rows:
                del by_key[key]

    # -- support counting -----------------------------------------------------

    def _bump(
        self, out: Row, delta: int, added: Set[Row], removed: Set[Row]
    ) -> None:
        count = self.support.get(out, 0) + delta
        if count < 0:  # pragma: no cover - would indicate a delta-rule bug
            raise IncrementalError(
                f"negative support for {out!r} in {self.query.output!r}"
            )
        if count == 0:
            self.support.pop(out, None)
            if delta < 0:
                self.output.discard(out)
                if out in added:
                    added.discard(out)
                else:
                    removed.add(out)
            return
        self.support[out] = count
        if delta > 0 and count == delta and out not in self.output:
            self.output.add(out)
            if out in removed:
                removed.discard(out)
            else:
                added.add(out)

    # -- the statement-level delta rule ------------------------------------------------

    def apply_delta(self, delta: Delta) -> Tuple[Set[Row], Set[Row], int]:
        """Propagate *delta* through this statement.

        Returns ``(added, removed, affected)``: the output tuples that
        appeared / disappeared and the number of guard tuples re-evaluated.
        """
        guard_name = self.guard.relation
        ins_guard: Dict[Row, Dict[Variable, object]] = {}
        for row in delta.inserted.get(guard_name, ()):
            if row in self.guard_rows:
                continue
            binding = self.guard.match(row)
            if binding is not None:
                ins_guard[row] = binding
        del_guard: Dict[Row, Dict[Variable, object]] = {}
        for row in delta.deleted.get(guard_name, ()):
            if row not in self.guard_rows:
                continue
            binding = self.guard.match(row)
            if binding is not None:
                del_guard[row] = binding

        # 1. Update the conditional indexes, collecting truth flips per atom.
        flipped: Dict[Atom, Set[Row]] = {}
        for atom, index in self.indexes.items():
            inserted = delta.inserted.get(atom.relation, ())
            deleted = delta.deleted.get(atom.relation, ())
            if not inserted and not deleted:
                continue
            flips = index.apply(inserted, deleted)
            if flips:
                flipped[atom] = flips

        # 2. Existing guard rows whose condition value may have changed.
        touched: Set[Row] = set()
        for atom, keys in flipped.items():
            key_vars = self.indexes[atom].join_key
            if not key_vars:
                # A Boolean (key-less) conditional flipped: every guard row
                # is affected.
                touched |= self.guard_rows
                break
            by_key = self.guard_by_key[key_vars]
            for key in keys:
                touched.update(by_key.get(key, ()))
        touched -= set(del_guard)

        # 3. Support updates: inserted, flipped and deleted guard rows, with
        #    the new condition values read off the updated indexes.
        added: Set[Row] = set()
        removed: Set[Row] = set()
        for row, binding in ins_guard.items():
            if self._holds_now(binding):
                self._bump(self._project(row), +1, added, removed)
        for row in touched:  # indexed rows only, so disjoint from ins_guard
            binding = self.guard.match(row)
            assert binding is not None  # guard_rows only holds conforming rows
            before = self._holds_before(binding, flipped)
            after = self._holds_now(binding)
            if before != after:
                self._bump(
                    self._project(row),
                    +1 if after else -1,
                    added,
                    removed,
                )
        for row, binding in del_guard.items():
            if self._holds_before(binding, flipped):
                self._bump(self._project(row), -1, added, removed)

        # 4. Guard index maintenance (after step 2 read the old index).
        for row, binding in ins_guard.items():
            self._index_guard_row(row, binding)
        for row, binding in del_guard.items():
            self._unindex_guard_row(row, binding)

        return added, removed, len(ins_guard) + len(touched)


class Materialization:
    """A fully evaluated SGF query plus the state to maintain it under inserts.

    Built by :func:`repro.incremental.engine.materialize_query` (or
    :meth:`Gumbo.materialize <repro.core.gumbo.Gumbo.materialize>`); refreshed
    by :func:`repro.incremental.engine.refresh` /
    :meth:`Gumbo.execute_delta <repro.core.gumbo.Gumbo.execute_delta>`.  The
    ``result`` is a :class:`~repro.core.gumbo.GumboResult` whose output
    relations are updated **in place** by every refresh.
    """

    def __init__(
        self,
        query: SGFQuery,
        database: Database,
        states: List[_StatementState],
        result,  # GumboResult; untyped to avoid an import cycle with core.
        requested_strategy: str,
    ) -> None:
        self.query = query
        self.database = database
        self.states = states
        self.result = result
        self.requested_strategy = requested_strategy
        self.refreshes = 0

    @property
    def strategy(self) -> str:
        """The concrete strategy that planned the materialized run."""
        return self.result.strategy

    @property
    def outputs(self) -> Dict[str, Relation]:
        """Every output relation (roots and intermediates), live."""
        return {state.query.output: state.output for state in self.states}

    def output(self, name: Optional[str] = None) -> Relation:
        return self.outputs[name or self.query.output]

    def answers(self) -> Dict[str, FrozenSet[Row]]:
        """Frozen snapshots of every output's tuples (for comparisons)."""
        return {
            name: frozenset(relation.tuples())
            for name, relation in self.outputs.items()
        }

    def __repr__(self) -> str:
        outputs = ", ".join(
            f"{state.query.output}[{len(state.output)}]" for state in self.states
        )
        return (
            f"Materialization(strategy={self.strategy!r}, "
            f"refreshes={self.refreshes}, outputs={outputs})"
        )
