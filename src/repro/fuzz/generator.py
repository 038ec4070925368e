"""Seeded random generation of (B)SGF programs and matching databases.

The generator is *guardedness-respecting by construction*: conditional atoms
draw their variables from the guard atom's variables, from constants, and
from atom-local fresh variables that are never shared between two distinct
conditional atoms — exactly the strictly-guarded fragment of Section 3.1.
Constructing :class:`~repro.query.bsgf.BSGFQuery` /
:class:`~repro.query.sgf.SGFQuery` re-validates every invariant, so a
generator bug can never silently produce an out-of-fragment program.

What the generated space covers (all driven by :class:`FuzzConfig`
probabilities from one seeded :class:`random.Random`):

* guard arities 1..``max_guard_arity`` with repeated variables and constants
  (both numeric and string constants, which never match the integer data —
  deliberately, so constant-pruned paths are exercised);
* nested AND/OR/NOT conditions over 1..``max_conditional_atoms`` conditional
  atoms, including duplicated atoms and queries without a WHERE clause;
* conditional relations shared across statements, conditional atoms over
  earlier outputs, and guards over earlier outputs — multi-level dependency
  chains as in the paper's C-queries;
* databases drawn through a pluggable :class:`~repro.fuzz.profiles.ValueProfile`
  (uniform / Zipf-skewed / correlated / degenerate / mixed), including empty
  relations;
* a map split size per case, under which the case's largest relation reads
  as 1..:data:`MAX_CHUNKS` map chunks (the paper's split would make every
  relation one chunk at these sizes).

Every generated program round-trips through the concrete syntax
(:mod:`repro.query.unparse` + :mod:`repro.query.parser`), which is asserted
at generation time so repro scripts can always carry plain query text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..model.atoms import Atom
from ..model.database import Database
from ..model.relation import Relation
from ..model.terms import Constant, Term, Variable
from ..query.bsgf import BSGFQuery
from ..query.conditions import And, AtomCondition, Condition, Not, Or, TRUE
from ..query.parser import parse_sgf
from ..query.sgf import SGFQuery
from .profiles import ValueProfile, make_profile


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of the random program/database generator.

    All sizes are upper bounds; the generator draws uniformly (or by the
    stated probabilities) below them.  The defaults keep individual cases
    small enough that a full strategy × backend differential sweep of one
    case stays in the tens of milliseconds.
    """

    max_statements: int = 4
    max_guard_arity: int = 4
    max_conditional_atoms: int = 4
    max_conditional_arity: int = 3
    max_tuples: int = 12
    domain: int = 8
    profile: str = "mixed"

    #: Probability that a guard / conditional term position is a constant.
    p_constant: float = 0.15
    #: Probability that a constant is a string (never matches integer data).
    p_string_constant: float = 0.1
    #: Probability that a guard position repeats an earlier guard variable.
    p_repeat_variable: float = 0.15
    #: Probability that a statement has no WHERE clause.
    p_no_condition: float = 0.1
    #: Probability that a condition node is negated.
    p_not: float = 0.25
    #: Probability that a binary condition node is OR (vs AND).
    p_or: float = 0.4
    #: Probability that a guard reads an earlier output (dependency chain).
    p_dependent_guard: float = 0.35
    #: Probability that a conditional atom reads an earlier output.
    p_dependent_conditional: float = 0.25
    #: Probability that a conditional atom reuses an already-seen base
    #: relation (shared conditionals across statements).
    p_shared_relation: float = 0.5
    #: Probability that a conditional atom term is an atom-local fresh
    #: variable (existentially quantified, never shared between atoms).
    p_fresh_variable: float = 0.15

    def with_overrides(self, **changes: object) -> "FuzzConfig":
        return replace(self, **changes)


@dataclass
class FuzzCase:
    """One generated (program, database) pair plus its reproduction key."""

    seed: int
    index: int
    config: FuzzConfig
    program: SGFQuery
    database: Database
    #: Map split size (MB) the case runs under; ``None``: the engine's own.
    split_mb: Optional[float] = None

    @property
    def case_id(self) -> str:
        return f"seed={self.seed} index={self.index}"


def case_rng(seed: int, index: int) -> random.Random:
    """The deterministic RNG of case *index* under *seed*."""
    return random.Random(f"repro-fuzz:{seed}:{index}")


class _ProgramBuilder:
    """Builds one random SGF program, tracking the evolving schema."""

    def __init__(self, rng: random.Random, config: FuzzConfig) -> None:
        self.rng = rng
        self.config = config
        #: relation name -> arity, for base relations and outputs alike.
        self.schema: Dict[str, int] = {}
        self.base_names: List[str] = []
        self.outputs: List[str] = []
        self._base_counter = 0

    # -- relation symbols ---------------------------------------------------------

    def _new_base_relation(self, arity: int) -> str:
        name = f"R{self._base_counter}"
        self._base_counter += 1
        self.schema[name] = arity
        self.base_names.append(name)
        return name

    def _pick_base_relation(self, max_arity: int) -> str:
        reusable = [n for n in self.base_names if self.schema[n] <= max_arity]
        if reusable and self.rng.random() < self.config.p_shared_relation:
            return self.rng.choice(reusable)
        return self._new_base_relation(self.rng.randint(1, max_arity))

    # -- terms --------------------------------------------------------------------

    def _constant(self) -> Constant:
        if self.rng.random() < self.config.p_string_constant:
            return Constant(f"s{self.rng.randrange(self.config.domain)}")
        return Constant(self.rng.randrange(self.config.domain))

    def _guard_terms(self, arity: int) -> Tuple[Term, ...]:
        terms: List[Term] = []
        used: List[Variable] = []
        for position in range(arity):
            roll = self.rng.random()
            if roll < self.config.p_constant:
                terms.append(self._constant())
            elif used and roll < self.config.p_constant + self.config.p_repeat_variable:
                terms.append(self.rng.choice(used))
            else:
                variable = Variable(f"x{position}")
                used.append(variable)
                terms.append(variable)
        if not used:
            # A guard needs at least one variable (the SELECT list must be
            # non-empty and all its variables must occur in the guard).
            variable = Variable("x0")
            terms[0] = variable
        return tuple(terms)

    # -- statements ---------------------------------------------------------------

    def build_statement(self, index: int) -> BSGFQuery:
        rng, config = self.rng, self.config
        output = f"Z{index + 1}"

        # Guard: an earlier output (dependency chain) or a base relation.
        if self.outputs and rng.random() < config.p_dependent_guard:
            guard_name = rng.choice(self.outputs)
        else:
            guard_name = self._pick_base_relation(config.max_guard_arity)
        guard = Atom(guard_name, self._guard_terms(self.schema[guard_name]))
        guard_variables = list(guard.variables)

        # Projection: a non-empty draw (with replacement, so duplicates and
        # reorderings occur) from the guard's variables.
        width = rng.randint(1, len(guard_variables))
        if rng.random() < 0.5:
            projection = tuple(rng.sample(guard_variables, width))
        else:
            projection = tuple(rng.choice(guard_variables) for _ in range(width))

        condition: Condition = TRUE
        if rng.random() >= config.p_no_condition:
            atom_count = rng.randint(1, config.max_conditional_atoms)
            fresh_counter = [0]
            leaves = [
                self._conditional_atom(guard_variables, fresh_counter)
                for _ in range(atom_count)
            ]
            condition = self._condition_tree(leaves)

        query = BSGFQuery(output, projection, guard, condition)
        self.schema[output] = len(projection)
        self.outputs.append(output)
        return query

    def _conditional_atom(
        self, guard_variables: Sequence[Variable], fresh_counter: List[int]
    ) -> Condition:
        rng, config = self.rng, self.config
        if self.outputs and rng.random() < config.p_dependent_conditional:
            name = rng.choice(self.outputs)
        else:
            name = self._pick_base_relation(config.max_conditional_arity)
        arity = self.schema[name]
        terms: List[Term] = []
        for _ in range(arity):
            roll = rng.random()
            if roll < config.p_constant:
                terms.append(self._constant())
            elif roll < config.p_constant + config.p_fresh_variable:
                # Atom-local fresh variable: the counter is per statement and
                # every draw is unique, so no two conditional atoms can share
                # a non-guard variable (the guardedness requirement).
                terms.append(Variable(f"f{fresh_counter[0]}"))
                fresh_counter[0] += 1
            else:
                terms.append(rng.choice(list(guard_variables)))
        return AtomCondition(Atom(name, tuple(terms)))

    def _condition_tree(self, leaves: List[Condition]) -> Condition:
        """Combine *leaves* into a random AND/OR/NOT tree (random shape)."""
        rng, config = self.rng, self.config
        nodes = list(leaves)
        while len(nodes) > 1:
            right = nodes.pop(rng.randrange(len(nodes)))
            left = nodes.pop(rng.randrange(len(nodes)))
            joined: Condition = (
                Or(left, right) if rng.random() < config.p_or else And(left, right)
            )
            if rng.random() < config.p_not:
                joined = Not(joined)
            nodes.append(joined)
        root = nodes[0]
        if rng.random() < config.p_not:
            root = Not(root)
        return root


def generate_program(
    rng: random.Random, config: Optional[FuzzConfig] = None
) -> SGFQuery:
    """Generate one random SGF program (1..``max_statements`` statements)."""
    config = config or FuzzConfig()
    builder = _ProgramBuilder(rng, config)
    count = rng.randint(1, max(1, config.max_statements))
    statements = [builder.build_statement(i) for i in range(count)]
    program = SGFQuery(tuple(statements))
    # The fuzzer's contract: every generated program lives inside the
    # concrete syntax.  Round-trip through the parser to enforce it (a real
    # raise, not an assert, so the check survives ``python -O``).
    if parse_sgf(program.unparse()) != program:
        raise ValueError(
            f"unparse/parse round-trip changed the program:\n{program.unparse()}"
        )
    return program


def generate_database(
    rng: random.Random,
    program: SGFQuery,
    config: Optional[FuzzConfig] = None,
    profile: Optional[ValueProfile] = None,
) -> Database:
    """Generate a database for *program*'s base relations under a profile.

    Every base relation the program mentions is materialised (possibly
    empty), with its arity inferred from the program's atoms; values come
    from the profile.  Relations are generated in sorted-name order so the
    result is a pure function of the RNG state.
    """
    config = config or FuzzConfig()
    profile = profile or make_profile(config.profile)
    arities = _base_arities(program)
    database = Database()
    for name in sorted(arities):
        arity = arities[name]
        relation = Relation(name, arity)
        for row in profile.generate(rng, arity, config.max_tuples, config.domain):
            relation.add(row)
        database.add_relation(relation)
    return database


def _base_arities(program: SGFQuery) -> Dict[str, int]:
    """Arity of every base (non-output) relation mentioned by *program*."""
    outputs = set(program.output_names)
    arities: Dict[str, int] = {}
    for query in program:
        for atom in (query.guard, *query.conditional_atoms):
            if atom.relation in outputs:
                continue
            existing = arities.get(atom.relation)
            if existing is not None and existing != atom.arity:
                raise ValueError(
                    f"relation {atom.relation!r} used with arities "
                    f"{existing} and {atom.arity}"
                )
            arities[atom.relation] = atom.arity
    return arities


def generate_insert_batch(
    seed: int,
    index: int,
    program: SGFQuery,
    config: Optional[FuzzConfig] = None,
) -> Dict[str, List[Tuple[object, ...]]]:
    """A deterministic random insert batch for the incremental oracle mode.

    Rows are drawn for a random subset of the program's base relations, with
    values slightly *beyond* the generation domain as well as inside it — so
    batches both create fresh join keys (new guard tuples, new conditional
    keys) and hit existing ones (truth flips for already-stored guard
    tuples).  The batch RNG is independent of the case RNG: the same
    ``(seed, index)`` always yields the same (program, database, batch)
    triple without perturbing ordinary case generation.
    """
    config = config or FuzzConfig()
    rng = random.Random(f"repro-fuzz-delta:{seed}:{index}")
    arities = _base_arities(program)
    names = sorted(arities)
    if not names:
        return {}
    chosen = rng.sample(names, rng.randint(1, len(names)))
    batch: Dict[str, List[Tuple[object, ...]]] = {}
    for name in sorted(chosen):
        count = rng.randint(1, max(1, config.max_tuples // 2))
        rows = {
            tuple(rng.randrange(config.domain + 2) for _ in range(arities[name]))
            for _ in range(count)
        }
        batch[name] = sorted(rows)
    return batch


#: The most map chunks a case's largest relation is split into.
MAX_CHUNKS = 20


def generate_case(
    seed: int, index: int, config: Optional[FuzzConfig] = None
) -> FuzzCase:
    """Deterministically generate case *index* of the campaign under *seed*
    (the split is drawn last: program and database do not depend on it)."""
    config = config or FuzzConfig()
    rng = case_rng(seed, index)
    program = generate_program(rng, config)
    database = generate_database(rng, program, config)
    # 1..MAX_CHUNKS chunks for the largest relation, half a chunk of slack.
    largest = max((relation.size_mb() for relation in database), default=0.0)
    split_mb = largest / (rng.randint(1, MAX_CHUNKS) - 0.5) if largest else None
    return FuzzCase(seed, index, config, program, database, split_mb)
