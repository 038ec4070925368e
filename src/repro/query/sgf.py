"""Strictly guarded fragment (SGF) queries: sequences of BSGF subqueries.

An SGF query (Section 3.1) is a collection ``Z_1 := ξ_1; ...; Z_n := ξ_n``
of BSGF queries where each ``ξ_i`` may mention the output relations ``Z_j``
of earlier subqueries (``j < i``).  The output of the SGF query is the last
relation ``Z_n`` (or, for *query sets* as used in the experiments of
Section 5.3, all root relations).

:class:`SGFQuery` validates that the sequence is well-formed (outputs are
distinct, references only go backwards) and exposes the dependency structure
used by ``Greedy-SGF``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

from .bsgf import BSGFQuery


class SGFValidationError(ValueError):
    """Raised when a sequence of BSGF queries is not a valid SGF query."""


@dataclass(frozen=True)
class SGFQuery:
    """A (possibly nested) SGF query: an ordered sequence of BSGF subqueries."""

    subqueries: Tuple[BSGFQuery, ...]
    name: str = "Q"

    def __post_init__(self) -> None:
        object.__setattr__(self, "subqueries", tuple(self.subqueries))
        self.validate()

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        if not self.subqueries:
            raise SGFValidationError("an SGF query needs at least one subquery")
        seen_outputs: Set[str] = set()
        for query in self.subqueries:
            if query.output in seen_outputs:
                raise SGFValidationError(
                    f"duplicate output relation {query.output!r}"
                )
            referenced = query.relation_names
            forward = referenced & self._later_outputs(query)
            if query.output in referenced:
                raise SGFValidationError(
                    f"subquery {query.output!r} references its own output"
                )
            if forward:
                names = ", ".join(sorted(forward))
                raise SGFValidationError(
                    f"subquery {query.output!r} references later output(s) {names}"
                )
            seen_outputs.add(query.output)

    def _later_outputs(self, query: BSGFQuery) -> FrozenSet[str]:
        index = self.subqueries.index(query)
        return frozenset(q.output for q in self.subqueries[index + 1 :])

    # -- structure ---------------------------------------------------------------

    def __iter__(self) -> Iterator[BSGFQuery]:
        return iter(self.subqueries)

    def __len__(self) -> int:
        return len(self.subqueries)

    def __getitem__(self, index: int) -> BSGFQuery:
        return self.subqueries[index]

    @property
    def output(self) -> str:
        """The output relation of the SGF query (the last subquery's output)."""
        return self.subqueries[-1].output

    @property
    def output_names(self) -> Tuple[str, ...]:
        """Outputs of all subqueries, in definition order."""
        return tuple(q.output for q in self.subqueries)

    @property
    def intermediate_names(self) -> FrozenSet[str]:
        """Output names that are consumed by later subqueries."""
        produced = set(self.output_names)
        consumed: Set[str] = set()
        for query in self.subqueries:
            consumed.update(query.relation_names & produced)
        return frozenset(consumed)

    @cached_property
    def root_names(self) -> Tuple[str, ...]:
        """Outputs not consumed by any other subquery (the user-visible results).

        Cached on the (immutable) query: every result built for it reads it.
        """
        consumed = self.intermediate_names
        return tuple(name for name in self.output_names if name not in consumed)

    @property
    def base_relation_names(self) -> FrozenSet[str]:
        """Relation symbols read from the database (not produced by subqueries)."""
        produced = set(self.output_names)
        names: Set[str] = set()
        for query in self.subqueries:
            names.update(query.relation_names - produced)
        return frozenset(names)

    def subquery(self, output: str) -> BSGFQuery:
        """Look up a subquery by its output relation name."""
        for query in self.subqueries:
            if query.output == output:
                return query
        raise KeyError(output)

    def dependencies(self) -> Dict[str, FrozenSet[str]]:
        """Map each subquery output to the outputs of subqueries it depends on.

        An edge ``Z_i -> Z_j`` in the paper's dependency graph ``G_Q`` exists
        when ``Z_i`` is mentioned in ``ξ_j``; here we return, for each ``Z_j``,
        the set of such ``Z_i``.
        """
        produced = set(self.output_names)
        result: Dict[str, FrozenSet[str]] = {}
        for query in self.subqueries:
            result[query.output] = frozenset(query.relation_names & produced)
        return result

    def is_basic(self) -> bool:
        """True when the query consists of a single BSGF subquery."""
        return len(self.subqueries) == 1

    def levels(self) -> List[List[BSGFQuery]]:
        """Partition subqueries into bottom-up dependency levels.

        Level 0 contains subqueries with no dependencies on other subqueries;
        level ``k`` contains subqueries all of whose dependencies live in
        levels ``< k``.  This is the structure used by the PARUNIT strategy of
        Section 5.3 ("level by level").
        """
        deps = self.dependencies()
        level_of: Dict[str, int] = {}
        for query in self.subqueries:  # definition order is a topological order
            parents = deps[query.output]
            level_of[query.output] = (
                0 if not parents else 1 + max(level_of[p] for p in parents)
            )
        max_level = max(level_of.values())
        levels: List[List[BSGFQuery]] = [[] for _ in range(max_level + 1)]
        for query in self.subqueries:
            levels[level_of[query.output]].append(query)
        return levels

    # -- construction helpers --------------------------------------------------------

    @classmethod
    def from_queries(
        cls, queries: Iterable[BSGFQuery], name: str = "Q"
    ) -> "SGFQuery":
        return cls(tuple(queries), name=name)

    @classmethod
    def union(cls, sgf_queries: Sequence["SGFQuery"], name: str = "U") -> "SGFQuery":
        """Combine several SGF queries into one (Section 4.7).

        Output relation names must be globally unique across the inputs.
        """
        combined: List[BSGFQuery] = []
        for sgf in sgf_queries:
            combined.extend(sgf.subqueries)
        return cls(tuple(combined), name=name)

    # -- rendering ---------------------------------------------------------------

    def unparse(self) -> str:
        """Render the program in the parser's concrete syntax.

        The concrete syntax does not carry the query's *name*, so re-parsing
        is equal once the name is supplied:
        ``parse_sgf(q.unparse(), name=q.name) == q``
        (see :mod:`repro.query.unparse`).
        """
        from .unparse import unparse_sgf

        return unparse_sgf(self)

    def __str__(self) -> str:
        return "\n".join(str(q) for q in self.subqueries)
