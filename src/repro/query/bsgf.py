"""Basic strictly guarded fragment (BSGF) queries.

A BSGF query (paper, Section 3.1, Equation (1)) has the form::

    Z := SELECT x̄ FROM R(t̄) [WHERE C];

where

* ``Z`` is the output relation name,
* ``x̄`` is a sequence of variables all occurring in the guard atom ``R(t̄)``,
* ``C`` is a Boolean combination of conditional atoms such that any two
  distinct conditional atoms may only share variables that also occur in the
  guard (the *guardedness* requirement).

:class:`BSGFQuery` stores the query, validates guardedness, and exposes the
derived objects needed by the planner: the list of conditional atoms, the
semi-join equations ``X_i := pi_w̄(R(t̄) ⋉ κ_i)`` and the Boolean formula
``phi_C`` over the ``X_i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..model.atoms import Atom
from ..model.terms import Variable, computed_once
from .conditions import TRUE, AtomCondition, Condition


class GuardednessError(ValueError):
    """Raised when a query violates the strictly-guarded-fragment restrictions."""


@dataclass(frozen=True)
class SemiJoinSpec:
    """One semi-join ``X := pi_w̄(guard ⋉ conditional)`` derived from a BSGF query.

    ``output`` names the intermediate relation ``X_i``; ``projection`` is the
    variable sequence ``w̄`` (the SELECT list of the surrounding query), and
    ``join_key`` is the ordered tuple of variables shared by guard and
    conditional atom — the key on which the repartition join hashes.

    Specs key the planner's memos: the hash and the join key are computed
    once, on first use.
    """

    output: str
    guard: Atom
    conditional: Atom
    projection: Tuple[Variable, ...]

    @computed_once
    def join_key(self) -> Tuple[Variable, ...]:
        shared = self.guard.shared_variables(self.conditional)
        return tuple(v for v in self.guard.variables if v in shared)

    def __hash__(self) -> int:
        return self._hash

    @computed_once
    def _hash(self) -> int:
        return hash((self.output, self.guard, self.conditional, self.projection))

    def __reduce__(self):
        return (
            self.__class__,
            (self.output, self.guard, self.conditional, self.projection),
        )

    def __str__(self) -> str:
        proj = ", ".join(str(v) for v in self.projection)
        return f"{self.output} := pi({proj})({self.guard} ⋉ {self.conditional})"


@dataclass(frozen=True)
class BSGFQuery:
    """A basic SGF query ``Z := SELECT x̄ FROM guard WHERE condition``.

    Like its atoms and specs, a query computes its hash, its conditional
    atoms and its default semi-join specs once, on first use.
    """

    output: str
    projection: Tuple[Variable, ...]
    guard: Atom
    condition: Condition = TRUE

    def __post_init__(self) -> None:
        object.__setattr__(self, "projection", tuple(self.projection))
        self.validate()

    def __hash__(self) -> int:
        return self._hash

    @computed_once
    def _hash(self) -> int:
        return hash((self.output, self.projection, self.guard, self.condition))

    def __reduce__(self):
        return (
            self.__class__,
            (self.output, self.projection, self.guard, self.condition),
        )

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Check the syntactic restrictions of the strictly guarded fragment.

        1. Every SELECT variable occurs in the guard.
        2. For every pair of distinct conditional atoms, shared variables also
           occur in the guard.
        """
        guard_vars = self.guard.variable_set()
        for variable in self.projection:
            if variable not in guard_vars:
                raise GuardednessError(
                    f"selected variable {variable} does not occur in guard "
                    f"{self.guard}"
                )
        atoms = self.conditional_atoms
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                shared = atoms[i].shared_variables(atoms[j])
                illegal = shared - guard_vars
                if illegal:
                    names = ", ".join(sorted(str(v) for v in illegal))
                    raise GuardednessError(
                        f"conditional atoms {atoms[i]} and {atoms[j]} share "
                        f"variable(s) {names} not occurring in the guard "
                        f"{self.guard}"
                    )

    # -- derived structure ------------------------------------------------------

    @computed_once
    def conditional_atoms(self) -> Tuple[Atom, ...]:
        """The distinct conditional atoms κ_1, ..., κ_n (left-to-right order)."""
        return self.condition.atoms()

    @property
    def relation_names(self) -> FrozenSet[str]:
        """All relation symbols mentioned by the query (guard + conditionals)."""
        names = {self.guard.relation}
        names.update(a.relation for a in self.conditional_atoms)
        return frozenset(names)

    @property
    def conditional_relation_names(self) -> FrozenSet[str]:
        return frozenset(a.relation for a in self.conditional_atoms)

    @property
    def has_condition(self) -> bool:
        return self.condition is not TRUE and self.conditional_atoms != ()

    def semijoin_specs(self, prefix: Optional[str] = None) -> List[SemiJoinSpec]:
        """The semi-join equations ``X_i := pi_w̄(guard ⋉ κ_i)``.

        Intermediate relation names default to ``"<output>#<i>"`` which keeps
        them unique across multiple BSGF queries evaluated together.  With
        the default names every call returns a fresh list over the same spec
        objects, so memo keys built from them compare by identity.
        """
        if prefix is None:
            return list(self._default_specs)
        return self._specs(prefix)

    @computed_once
    def _default_specs(self) -> Tuple[SemiJoinSpec, ...]:
        return tuple(self._specs(self.output))

    def _specs(self, prefix: str) -> List[SemiJoinSpec]:
        return [
            SemiJoinSpec(
                output=f"{prefix}#{i}",
                guard=self.guard,
                conditional=atom,
                projection=self.projection,
            )
            for i, atom in enumerate(self.conditional_atoms)
        ]

    def formula_over(self, names: Sequence[str]) -> Condition:
        """The Boolean formula phi_C with atom κ_i replaced by relation ``names[i]``.

        The replacement atoms reuse the projection variables, since the
        intermediate relations ``X_i`` hold projected guard tuples.
        """
        atoms = self.conditional_atoms
        if len(names) != len(atoms):
            raise ValueError(f"expected {len(atoms)} names, got {len(names)}")
        mapping: Dict[Atom, Condition] = {
            atom: AtomCondition(Atom(names[i], self.projection))
            for i, atom in enumerate(atoms)
        }
        return self.condition.map_atoms(lambda a: mapping[a])

    def shares_join_key(self) -> bool:
        """True when all conditional atoms share one common join key with the guard.

        This is the structural property that enables the 1-ROUND evaluation of
        Section 5.1, optimization (4): when every semi-join hashes on the same
        key, MSJ and EVAL can be fused into a single MapReduce job.
        """
        specs = self.semijoin_specs()
        if not specs:
            return True
        keys = {spec.join_key for spec in specs}
        return len(keys) == 1

    # -- rewriting ----------------------------------------------------------------

    def rename_output(self, new_name: str) -> "BSGFQuery":
        return BSGFQuery(new_name, self.projection, self.guard, self.condition)

    # -- rendering -------------------------------------------------------------------

    def unparse(self) -> str:
        """Render the query in the parser's concrete syntax.

        The result re-parses to an equal query:
        ``parse_bsgf(q.unparse()) == q`` (see :mod:`repro.query.unparse`).
        """
        from .unparse import unparse_bsgf

        return unparse_bsgf(self)

    def __str__(self) -> str:
        proj = ", ".join(str(v) for v in self.projection)
        text = f"{self.output} := SELECT ({proj}) FROM {self.guard}"
        if self.has_condition:
            text += f" WHERE {self.condition}"
        return text + ";"


def select(
    output: str,
    projection: Sequence[object],
    guard: Atom,
    condition: Condition = TRUE,
) -> BSGFQuery:
    """Convenience constructor accepting variable names as plain strings."""
    variables = tuple(
        v if isinstance(v, Variable) else Variable(str(v)) for v in projection
    )
    return BSGFQuery(output, variables, guard, condition)
