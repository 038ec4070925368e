"""The reduce rule every semi-join job shares: keep a guard row when φ holds.

A reducer of the paper keeps a guard fact when its semi-join memberships
satisfy a Boolean condition φ, then projects it onto the SELECT list.  MSJ
(Algorithm 1) applies it with φ one atom per semi-join, a SEQ chain step
with φ one literal, EVAL (Sections 4.3 and 4.5) and the fused 1-ROUND job
(optimisation 4) with the query's whole condition.  A :class:`Selection`
holds the rule for one output; the jobs differ only in the messages the
memberships arrive in (``docs/operators.md`` § Message layout).
"""

from __future__ import annotations

from itertools import compress
from operator import not_
from typing import Collection, Dict, Iterable, Mapping, Optional, Set, Tuple

from ..model.atoms import Atom, tuple_extractor
from ..query.bsgf import BSGFQuery
from ..query.conditions import And, AtomCondition, Condition, Not, Or

_EMPTY: frozenset = frozenset()


class Selection:
    """Keep a guard row when ``condition`` holds over its memberships; project it.

    ``slots`` maps each atom of the condition to the slot its membership
    arrives in: an assert tag, or an EVAL ``(target, conditional)`` pair.  A
    kept row becomes its projection onto *projection* over *guard*, or stays
    itself when *projection* is ``None``.
    """

    __slots__ = ("output", "condition", "slots", "positions")

    def __init__(self, output, condition, slots, guard, projection=None) -> None:
        self.output: str = output
        self.condition: Condition = condition
        self.slots: Dict[Atom, object] = dict(slots)
        self.positions: Optional[Tuple[int, ...]] = None
        if projection is not None:
            self.positions = guard.compile().projection_positions(projection)

    @classmethod
    def of_query(cls, query: BSGFQuery, slots: Iterable[object]) -> "Selection":
        """*query*'s rule; *slots* follow its conditional atoms."""
        pairs = zip(query.conditional_atoms, slots)
        return cls(query.output, query.condition, pairs, query.guard, query.projection)

    def holds(self, present: Collection[object]) -> bool:
        """Whether φ holds for a row that is a member of the *present* slots."""
        slots = self.slots
        return self.condition.evaluate(lambda atom: slots[atom] in present)

    def project(self, row: Tuple[object, ...]) -> Tuple[object, ...]:
        """The output row of a kept guard row."""
        return row if self.positions is None else tuple_extractor(self.positions)(row)

    def members(self, sets: Mapping) -> Tuple[Collection, bool]:
        """φ over whole key sets: ``(S, negated)``, φ holding for a key exactly
        when its membership in ``S`` differs from *negated*.

        *sets* holds per slot the member keys (a missing slot has none).  An
        atom is its slot's set, ``Not`` flips the flag and ``And`` is ``&``,
        ``-`` or ``|`` by the flags of its operands; ``Or`` is ``And`` by De
        Morgan.  No complement is ever built: TRUE is the empty set, negated.
        """
        return _members(self.condition, self.slots, sets)

    def select(self, sets: Mapping, segments: Iterable, sink: Set[tuple]) -> None:
        """Add the output rows of the kept rows of *segments*, ``(keys, rows)``
        pairs, to *sink*; *sets* holds per slot the member keys."""
        keys_in, negated = self.members(sets)
        if not keys_in and not negated:
            return
        extract = None if self.positions is None else tuple_extractor(self.positions)
        for keys, rows in segments:
            if keys_in:
                hits = map(keys_in.__contains__, keys)
                rows = compress(rows, map(not_, hits) if negated else hits)
            sink.update(rows if extract is None else map(extract, rows))


def _members(condition: Condition, slots: Mapping, sets: Mapping):
    """:meth:`Selection.members` of *condition*."""
    if isinstance(condition, AtomCondition):
        return sets.get(slots[condition.atom], _EMPTY), False
    if isinstance(condition, Not):
        keys, negated = _members(condition.operand, slots, sets)
        return keys, not negated
    if isinstance(condition, (And, Or)):
        disjunction = isinstance(condition, Or)
        left, left_negated = _members(condition.left, slots, sets)
        right, right_negated = _members(condition.right, slots, sets)
        # a OR b is NOT (NOT a AND NOT b).
        left_negated ^= disjunction
        right_negated ^= disjunction
        if left_negated and right_negated:
            keys, negated = left | right, True
        elif left_negated:
            keys, negated = right - left, False
        elif right_negated:
            keys, negated = left - right, False
        else:
            keys, negated = left & right, False
        return keys, negated ^ disjunction
    return _EMPTY, True  # TRUE: the complement of no key
