"""NP-hardness constructions of Appendix A (Theorems 2–4).

The paper proves that choosing an optimal multiway topological sort
(``SGF-Opt``) is NP-complete by reduction from Subset Sum, via an auxiliary
*Subset Cost* problem.  This module provides executable versions of both
constructions so the reductions can be tested:

* :class:`SubsetCostInstance` — a set of items with the cost function of
  Equation (11) (``w(X) = γ`` when the special item ``◦ ∈ X``, the sum of the
  items otherwise), a brute-force optimal-partition solver, and the
  achievable-cost set used to check the iff of Theorem 3;
* :func:`build_sgf_reduction` — the SGF-Opt instance of Theorem 4: empty
  binary relations ``R_1..R_n, R°``, data relations ``S_i`` with ``|S_i| =
  a_i`` (1 MB per tuple), queries ``f_i = R_i(x,y) ⋉ S_i(x, 1)`` and the big
  query ``f°``, together with the degenerate cost constants (all zero except
  ``h_r = 1``) that make ``cost(GOPT({f_i})) = a_i``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set, Tuple

from ..cost.constants import CostConstants
from ..model.atoms import Atom
from ..model.database import Database
from ..model.relation import Relation
from ..model.terms import Constant, Variable
from ..query.bsgf import BSGFQuery
from ..query.conditions import AtomCondition, conjunction
from ..query.sgf import SGFQuery
from .greedy_bsgf import set_partitions

#: Size of one tuple in the reduction's data relations (1 MB, as in the paper).
REDUCTION_TUPLE_MB = 1.0


@dataclass(frozen=True)
class SubsetCostInstance:
    """An instance of the Subset Cost problem of Theorem 3.

    ``items`` are the positive integers of the Subset Sum instance; ``gamma``
    is the fixed cost charged to any block containing the special item ``◦``.
    """

    items: Tuple[int, ...]
    gamma: int

    def cost(self, block: Iterable[object]) -> int:
        """The cost function w of Equation (11); ``None`` encodes the item ◦."""
        block = list(block)
        if any(item is SPECIAL for item in block):
            return self.gamma
        return sum(int(item) for item in block)

    def universe(self) -> Tuple[object, ...]:
        return tuple(self.items) + (SPECIAL,)

    def partition_cost(self, partition: Sequence[Sequence[object]]) -> int:
        return sum(self.cost(block) for block in partition)

    def achievable_costs(self) -> Set[int]:
        """All values ``Σ_i w(S_i)`` over partitions of the universe.

        By Theorem 3 this set equals ``{γ + Σ B : B ⊆ items}`` (take the block
        containing ◦ to absorb the complement of B).
        """
        costs: Set[int] = set()
        universe = self.universe()
        for partition in set_partitions(universe):
            costs.add(self.partition_cost(partition))
        return costs

    def subset_sums(self) -> Set[int]:
        """All subset sums of the items."""
        sums: Set[int] = set()
        for r in range(len(self.items) + 1):
            for combo in itertools.combinations(self.items, r):
                sums.add(sum(combo))
        return sums


class _Special:
    """The special item ◦ of the Subset Cost construction."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "◦"


SPECIAL = _Special()


# -- the SGF-Opt reduction (Theorem 4) ----------------------------------------------------


@dataclass
class SGFReduction:
    """The constructed SGF-Opt instance for a Subset Sum instance ``(A, k)``."""

    items: Tuple[int, ...]
    query: SGFQuery
    database: Database
    constants: CostConstants

    @property
    def gamma(self) -> int:
        return sum(self.items)


def build_sgf_reduction(items: Sequence[int]) -> SGFReduction:
    """Construct the SGF-Opt instance of Theorem 4 for the item set *items*.

    For each ``a_i`` a query ``f_i := R_i(x, y) ⋉ S_i(x, 1)`` is created where
    ``R_i`` is empty and ``S_i`` holds ``a_i`` tuples of 1 MB each (with 0 in
    the second field so that the constant-1 condition filters everything).
    The query ``f°`` guards the empty relation ``R°`` and references every
    ``R_i`` and ``S_i``.  The cost constants are all zero except ``h_r = 1``,
    so the cost of any job collapses to the number of MB it reads from HDFS.
    """
    items = tuple(int(a) for a in items)
    if not items or any(a <= 0 for a in items):
        raise ValueError("items must be positive integers")

    x, y = Variable("x"), Variable("y")
    database = Database()
    queries: List[BSGFQuery] = []
    bytes_per_field = int(REDUCTION_TUPLE_MB * 1024 * 1024 / 2)

    conditional_atoms: List[Atom] = []
    for index, a_i in enumerate(items, start=1):
        r_name, s_name = f"R{index}", f"S{index}"
        database.ensure_relation(r_name, 2, bytes_per_field)
        s_relation = Relation(s_name, 2, bytes_per_field)
        for row_id in range(a_i):
            s_relation.add((f"s{index}_{row_id}", 0))
        database.add_relation(s_relation)
        queries.append(
            BSGFQuery(
                output=f"f{index}",
                projection=(x,),
                guard=Atom(r_name, (x, y)),
                condition=AtomCondition(Atom(s_name, (x, Constant(1)))),
            )
        )
        # Each conditional atom of f° uses its own variables so that the
        # guardedness restriction (shared variables must occur in the guard)
        # is respected; the relations referenced are what matters for the cost.
        conditional_atoms.append(
            Atom(r_name, (Variable(f"xr{index}"), Variable(f"yr{index}")))
        )
        conditional_atoms.append(Atom(s_name, (Variable(f"xs{index}"), Constant(1))))

    database.ensure_relation("Rcirc", 2, bytes_per_field)
    queries.append(
        BSGFQuery(
            output="fcirc",
            projection=(x,),
            guard=Atom("Rcirc", (x, Constant(1))),
            condition=conjunction([AtomCondition(a) for a in conditional_atoms]),
        )
    )

    query = SGFQuery(tuple(queries), name="sgf-opt-reduction")
    constants = CostConstants.reduction_values()
    return SGFReduction(
        items=items, query=query, database=database, constants=constants
    )
