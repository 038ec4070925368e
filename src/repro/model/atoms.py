"""Atoms, facts, conformance and projection.

These are the notational building blocks of Section 4 of the paper:

* an *atom* is an expression ``R(t1, ..., tn)`` where ``R`` is a relation
  symbol of arity ``n`` and each ``ti`` is a term (variable or constant);
* a *fact* is an atom whose terms are all data values, i.e. a concrete tuple
  stored in the database;
* a tuple ``a = (a1, ..., an)`` *conforms* to a term vector ``t = (t1, ..., tn)``
  when equal terms are bound to equal values and constants match exactly
  (Section 4, "conforms to");
* the *projection* ``pi_{alpha; x}(f)`` of a fact ``f`` conforming to atom
  ``alpha`` onto a variable sequence ``x`` extracts the values bound to those
  variables.

All classes are immutable and hashable so they can be used as dictionary /
set keys throughout the MapReduce simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .terms import Constant, Term, Variable, as_term, computed_once


@dataclass(frozen=True)
class Atom:
    """An atom ``R(t1, ..., tn)`` over relation symbol *relation*.

    Parameters
    ----------
    relation:
        The relation symbol (name) of the atom.
    terms:
        The tuple of terms.  Use :meth:`Atom.of` to build an atom from plain
        Python values (strings become variables, other values constants).
    """

    relation: str
    terms: Tuple[Term, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.relation, str) or not self.relation:
            raise ValueError("relation symbol must be a non-empty string")
        object.__setattr__(self, "terms", tuple(self.terms))

    # -- identity ------------------------------------------------------------
    #
    # Atoms key the planner's memos, so equality tests identity first and the
    # hash (and the variable views below) are computed once, on first use.

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.relation == other.relation and self.terms == other.terms

    def __hash__(self) -> int:
        return self._hash

    @computed_once
    def _hash(self) -> int:
        return hash((self.relation, self.terms))

    def __reduce__(self):
        return (self.__class__, (self.relation, self.terms))

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, relation: str, *values: object) -> "Atom":
        """Build an atom coercing *values* into terms via :func:`as_term`."""
        return cls(relation, tuple(as_term(v) for v in values))

    # -- basic properties --------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of term positions of the atom."""
        return len(self.terms)

    @computed_once
    def variables(self) -> Tuple[Variable, ...]:
        """Distinct variables of the atom, in order of first occurrence."""
        seen = []
        for term in self.terms:
            if isinstance(term, Variable) and term not in seen:
                seen.append(term)
        return tuple(seen)

    @property
    def constants(self) -> Tuple[Constant, ...]:
        """Distinct constants of the atom, in order of first occurrence."""
        seen = []
        for term in self.terms:
            if isinstance(term, Constant) and term not in seen:
                seen.append(term)
        return tuple(seen)

    def variable_set(self) -> frozenset:
        """The set of variables occurring in the atom."""
        return self._variable_set

    @computed_once
    def _variable_set(self) -> frozenset:
        return frozenset(self.variables)

    def shared_variables(self, other: "Atom") -> frozenset:
        """Variables occurring in both this atom and *other*."""
        return self.variable_set() & other.variable_set()

    @computed_once
    def first_positions(self) -> Dict[Variable, int]:
        """Each variable's first position (0-based); do not mutate."""
        positions: Dict[Variable, int] = {}
        for index, term in enumerate(self.terms):
            if isinstance(term, Variable) and term not in positions:
                positions[term] = index
        return positions

    def positions_of(self, variable: Variable) -> Tuple[int, ...]:
        """All positions (0-based) where *variable* occurs."""
        return tuple(i for i, t in enumerate(self.terms) if t == variable)

    def rename(self, mapping: Dict[Variable, Variable]) -> "Atom":
        """Return a copy with variables renamed according to *mapping*."""
        new_terms = tuple(
            mapping.get(t, t) if isinstance(t, Variable) else t for t in self.terms
        )
        return Atom(self.relation, new_terms)

    # -- conformance and matching ------------------------------------------

    def conforms(self, values: Sequence[object]) -> bool:
        """Check whether the value tuple *values* conforms to this atom.

        Conformance (Section 4): equal terms must map to equal values, and
        constant terms must equal the corresponding value.
        """
        values = tuple(values)
        if len(values) != len(self.terms):
            return False
        binding: Dict[Variable, object] = {}
        for term, value in zip(self.terms, values):
            if isinstance(term, Constant):
                if term.value != value:
                    return False
            else:
                bound = binding.get(term, _UNBOUND)
                if bound is _UNBOUND:
                    binding[term] = value
                elif bound != value:
                    return False
        return True

    def match(self, values: Sequence[object]) -> Optional[Dict[Variable, object]]:
        """Return the substitution binding this atom's variables to *values*.

        Returns ``None`` when *values* does not conform to the atom; otherwise
        a dictionary mapping each variable to its bound data value.
        """
        values = tuple(values)
        if len(values) != len(self.terms):
            return None
        binding: Dict[Variable, object] = {}
        for term, value in zip(self.terms, values):
            if isinstance(term, Constant):
                if term.value != value:
                    return None
            else:
                bound = binding.get(term, _UNBOUND)
                if bound is _UNBOUND:
                    binding[term] = value
                elif bound != value:
                    return None
        return binding

    def project(
        self, values: Sequence[object], variables: Sequence[Variable]
    ) -> Tuple[object, ...]:
        """Project a conforming value tuple onto *variables*.

        This is ``pi_{alpha; x}(f)`` from the paper.  Raises ``ValueError``
        when *values* does not conform to the atom or a requested variable
        does not occur in the atom.
        """
        binding = self.match(values)
        if binding is None:
            raise ValueError(f"{values!r} does not conform to {self}")
        try:
            return tuple(binding[v] for v in variables)
        except KeyError as exc:  # pragma: no cover - defensive
            raise ValueError(f"variable {exc} does not occur in {self}") from exc

    def substitute(self, binding: Dict[Variable, object]) -> Tuple[object, ...]:
        """Apply a substitution to produce a concrete value tuple.

        Every variable of the atom must be bound in *binding*.
        """
        out = []
        for term in self.terms:
            if isinstance(term, Constant):
                out.append(term.value)
            else:
                if term not in binding:
                    raise ValueError(f"unbound variable {term} in substitution")
                out.append(binding[term])
        return tuple(out)

    # -- compilation ---------------------------------------------------------

    def compile(self) -> "CompiledAtom":
        """The batch-kernel matcher for this atom (cached per atom value).

        A :class:`CompiledAtom` precomputes the constant/repeated-variable
        checks and the first-occurrence position of every variable, so the
        kernel execution path can test conformance and extract join keys /
        projections with plain index arithmetic — no per-row binding dict.
        """
        return compile_atom(self)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.terms)
        return f"{self.relation}({inner})"

    def __repr__(self) -> str:
        return f"Atom({self.relation!r}, {self.terms!r})"


class CompiledAtom:
    """Precomputed conformance checks and extractors for one atom.

    Attributes
    ----------
    arity:
        Number of term positions; rows of a different length never conform.
    matcher:
        ``None`` when the atom is unrestricted (no constants, no repeated
        variables) — every row of the right arity conforms — otherwise a
        predicate ``row -> bool`` equivalent to :meth:`Atom.conforms` for
        rows of the right arity.
    """

    __slots__ = ("atom", "arity", "matcher", "_positions")

    def __init__(self, atom: Atom) -> None:
        self.atom = atom
        self.arity = atom.arity
        const_checks: List[Tuple[int, object]] = []
        positions: Dict[Variable, int] = {}
        eq_checks: List[Tuple[int, int]] = []
        for index, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                const_checks.append((index, term.value))
            elif term in positions:
                eq_checks.append((positions[term], index))
            else:
                positions[term] = index
        self._positions = positions
        self.matcher = _build_matcher(tuple(const_checks), tuple(eq_checks))

    def conforms(self, row: Tuple[object, ...]) -> bool:
        """Whether *row* conforms to the atom (arity check included)."""
        if len(row) != self.arity:
            return False
        return self.matcher is None or self.matcher(row)

    def positions(self, variables: Sequence[Variable]) -> Tuple[int, ...]:
        """First-occurrence column positions of *variables*, in order.

        The columnar kernel path slices these positions out of a
        :class:`~repro.model.relation.ColumnBlock` wholesale — one ``zip``
        per batch instead of an extractor call per row.  Raises ``KeyError``
        when a variable does not occur in the atom.
        """
        return tuple(self._positions[v] for v in variables)

    def extractor(
        self, variables: Sequence[Variable]
    ) -> Callable[[Tuple[object, ...]], Tuple[object, ...]]:
        """A ``row -> tuple`` function projecting onto *variables*.

        Equivalent to binding the row against the atom and reading the given
        variables, but via precomputed positions.  Raises ``KeyError`` when a
        variable does not occur in the atom.
        """
        indices = tuple(self._positions[v] for v in variables)
        return tuple_extractor(indices)

    def projection_positions(self, variables: Sequence[Variable]) -> Tuple[int, ...]:
        """The columns of a row's projection onto the SELECT list *variables*;
        an empty list yields the first field, as in the reference evaluator."""
        return self.positions(variables) if variables else (0,)


def _build_matcher(
    const_checks: Tuple[Tuple[int, object], ...],
    eq_checks: Tuple[Tuple[int, int], ...],
) -> Optional[Callable[[Tuple[object, ...]], bool]]:
    if not const_checks and not eq_checks:
        return None
    if not eq_checks and len(const_checks) == 1:
        ((index, value),) = const_checks
        return lambda row: row[index] == value

    def matcher(row: Tuple[object, ...]) -> bool:
        for index, value in const_checks:
            if row[index] != value:
                return False
        for first, other in eq_checks:
            if row[first] != row[other]:
                return False
        return True

    return matcher


def tuple_extractor(
    indices: Tuple[int, ...],
) -> Callable[[Tuple[object, ...]], Tuple[object, ...]]:
    """A function extracting the given positions of a row as a tuple."""
    if not indices:
        return lambda row: ()
    if len(indices) == 1:
        index = indices[0]
        return lambda row: (row[index],)
    return itemgetter(*indices)


@lru_cache(maxsize=4096)
def compile_atom(atom: Atom) -> CompiledAtom:
    """Compile (and memoise) the kernel matcher for *atom*."""
    return CompiledAtom(atom)


class _Unbound:
    """Sentinel distinguishing 'not yet bound' from a bound ``None`` value."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unbound>"


_UNBOUND = _Unbound()


@dataclass(frozen=True)
class Fact:
    """A concrete database fact ``R(a1, ..., an)``."""

    relation: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))

    @property
    def arity(self) -> int:
        return len(self.values)

    def conforms_to(self, atom: Atom) -> bool:
        """``f |= alpha``: this fact conforms to *atom*."""
        return self.relation == atom.relation and atom.conforms(self.values)

    def project(self, atom: Atom, variables: Sequence[Variable]) -> Tuple[object, ...]:
        """``pi_{alpha; x}(f)`` — project onto *variables* via *atom*."""
        if self.relation != atom.relation:
            raise ValueError(
                f"fact relation {self.relation!r} differs from atom relation "
                f"{atom.relation!r}"
            )
        return atom.project(self.values, variables)

    def __str__(self) -> str:
        inner = ", ".join(repr(v) for v in self.values)
        return f"{self.relation}({inner})"


def facts_conforming(facts: Iterable[Fact], atom: Atom) -> Iterable[Fact]:
    """Yield the facts from *facts* that conform to *atom*."""
    for fact in facts:
        if fact.conforms_to(atom):
            yield fact
