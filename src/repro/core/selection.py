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

from collections import Counter
from typing import Collection, Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

from ..model.atoms import Atom, tuple_extractor
from ..query.bsgf import BSGFQuery
from ..query.conditions import AtomCondition, Condition, Not

_EMPTY: frozenset = frozenset()


class Selection:
    """Keep a guard row when ``condition`` holds over its memberships; project it.

    ``slots`` maps each atom of the condition to the slot its membership
    arrives in: an assert tag, or an EVAL ``(target, conditional)`` pair.  A
    kept row becomes its projection onto *projection* over *guard*, or stays
    itself when *projection* is ``None``.
    """

    __slots__ = ("output", "condition", "slots", "positions", "_literal")

    def __init__(self, output, condition, slots, guard, projection=None) -> None:
        self.output: str = output
        self.condition: Condition = condition
        self.slots: Dict[Atom, object] = dict(slots)
        self.positions: Optional[Tuple[int, ...]] = None
        if projection is not None:
            self.positions = guard.compile().projection_positions(projection)
        leaf = condition.operand if isinstance(condition, Not) else condition
        # A single (negated) atom: its slot and sign, for a direct filter.
        self._literal = None
        if isinstance(leaf, AtomCondition):
            self._literal = (self.slots[leaf.atom], leaf is condition)

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

    def emit(self, rows: Iterable[Tuple[object, ...]], sink: Set[tuple]) -> None:
        """Add the output rows of the kept *rows* to *sink*."""
        if self.positions is not None:
            rows = map(tuple_extractor(self.positions), rows)
        sink.update(rows)

    def masks(self, sets: Mapping, keys: Set[object]) -> Tuple[Counter, Set[int]]:
        """The mask algorithm: the membership bitmask (bit ``i``: the ``i``-th
        slot) of each key of *keys* found in some ``sets[slot]``, and the masks
        φ accepts, ``0`` (found nowhere) included.  φ is evaluated once per
        distinct mask; bits are powers of two, so the Counter's sums are ORs.
        """
        masks: Counter = Counter()
        bits: Dict[Atom, int] = {}
        for bit, (atom, slot) in enumerate(self.slots.items()):
            bits[atom] = 1 << bit
            hit = keys & sets.get(slot, _EMPTY)
            if hit:
                masks.update(dict.fromkeys(hit, 1 << bit))
        accepted = set()
        for mask in {0, *masks.values()}:
            if self.condition.evaluate(lambda atom: mask & bits[atom]):
                accepted.add(mask)
        return masks, accepted

    def select(self, sets: Mapping, segments: Sequence, sink: Set[tuple]) -> None:
        """Emit the kept rows of *segments*, ``(keys, rows)`` pairs, into *sink*;
        *sets* holds per slot the member keys.  A single (negated) atom is a
        hash semi-join (anti-join), any other φ goes through :meth:`masks`.
        """
        if self._literal is None:
            all_keys: Set[object] = set()
            for keys, _ in segments:
                all_keys.update(keys)
            masks, accepted = self.masks(sets, all_keys)
            if not accepted:
                return
            mask_of = masks.get
            for keys, rows in segments:
                kept = [r for k, r in zip(keys, rows) if mask_of(k, 0) in accepted]
                self.emit(kept, sink)
            return
        slot, positive = self._literal
        present = sets.get(slot, _EMPTY)
        if positive and not present:
            return
        for keys, rows in segments:
            if positive:
                self.emit([r for k, r in zip(keys, rows) if k in present], sink)
            else:
                self.emit([r for k, r in zip(keys, rows) if k not in present], sink)
