"""A second opinion on *answers*: SGF programs translated to sqlite3, whole.

Section 3.1 defines a BSGF statement as a Boolean combination of semi-joins,
which is literally ``SELECT … FROM guard g WHERE <condition over EXISTS>``.
:func:`sql_answers` evaluates a program that way and shares no code with the
planner, the jobs, the engine or :func:`~repro.query.reference.evaluate_sgf`
(it reads the query AST and the stored rows, nothing else), so the fuzzer's
expected answers rest on two independent implementations of the definition.

* Every relation is loaded once as ``rel_k(pos INTEGER PRIMARY KEY, c0, …)``
  of canonical TEXT tokens (:func:`token`) chosen so that token equality ≡
  Python ``==``/``hash`` equality: ``1``/``1.0``/``True`` and ``-0.0``/``0``
  share a token, ``None`` is ``"N"`` (SQL ``NULL = NULL`` is not true).
* A statement is ``SELECT g.pos FROM guard g WHERE <atom conformance> AND
  <AND/OR/NOT over correlated EXISTS>``; an atom's conformance is one
  ``c_i = ?`` per constant and one ``c_i = c_first`` per repeated variable,
  and an ``EXISTS`` equates each shared variable with the guard's column.
* The query returns row *positions*; the output is projected from the
  original Python rows, so no value round-trips through sqlite, and is then
  loaded as a table for later statements.

NaN (whose join semantics are identity-based until ROADMAP item 5 settles
them), strings sqlite cannot store and exotic types raise
:class:`SQLOracleUnsupported`; the caller skips the second opinion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from ..model.atoms import Atom
from ..model.database import Database
from ..model.terms import Constant
from ..query.bsgf import BSGFQuery
from ..query.conditions import And, Condition, Not, Or, TrueCondition
from ..query.sgf import SGFQuery

if TYPE_CHECKING:  # pragma: no cover - see sql_answers for the real import
    import sqlite3

__all__ = ["SQLOracleUnsupported", "sql_answers", "token"]

Row = Tuple[object, ...]


class SQLOracleUnsupported(ValueError):
    """A value the token table cannot represent with Python's equality."""


def token(value: object) -> str:
    """The canonical TEXT token of a data value or query constant."""
    if value is None:
        return "N"
    kind = type(value)  # exact types: a subclass may redefine equality
    if kind is bool or kind is int:
        return "i%d" % value
    if kind is float:
        if value != value:
            raise SQLOracleUnsupported("NaN has no value-equality token")
        # 1.0 == 1 == True and -0.0 == 0 as set members: one token per class.
        return "i%d" % value if value.is_integer() else "f%r" % value
    if kind is str:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise SQLOracleUnsupported(
                f"string is not UTF-8 encodable: {value!r}"
            ) from None
        return "s" + value
    raise SQLOracleUnsupported(f"no token for {kind.__name__} value {value!r}")


class _Tables:
    """The relations of one evaluation, each loaded into sqlite at most once."""

    def __init__(self, connection: sqlite3.Connection, database: Database) -> None:
        self.connection = connection
        self._database = database
        #: relation name -> (table name, arity, rows by ``pos``).
        self._loaded: Dict[str, Tuple[str, int, List[Row]]] = {}
        self._created = 0

    def get(self, name: str) -> Optional[Tuple[str, int, List[Row]]]:
        """The loaded form of relation *name* (None: not in the database)."""
        if name not in self._loaded:
            relation = self._database.get(name)
            if relation is None:
                return None
            self.load(name, relation.arity, list(relation))
        return self._loaded[name]

    def load(self, name: str, arity: int, rows: List[Row]) -> None:
        """(Re)define relation *name*; a statement's output shadows a base one."""
        self._created += 1
        table = "rel_%d" % self._created
        columns = "".join(", c%d TEXT" % i for i in range(arity))
        self.connection.execute(
            f"CREATE TABLE {table} (pos INTEGER PRIMARY KEY{columns})"
        )
        self.connection.executemany(
            f"INSERT INTO {table} VALUES (?{', ?' * arity})",
            [(pos, *map(token, row)) for pos, row in enumerate(rows)],
        )
        self._loaded[name] = (table, arity, rows)


def _conformance(alias: str, atom: Atom, params: List[str]) -> List[str]:
    """SQL conjuncts true iff the row under *alias* conforms to *atom*."""
    clauses = []
    first: Dict[object, int] = {}
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            clauses.append(f"{alias}.c{position} = ?")
            params.append(token(term.value))
        elif term in first:
            clauses.append(f"{alias}.c{position} = {alias}.c{first[term]}")
        else:
            first[term] = position
    return clauses


def _condition(
    node: Condition, guard: Atom, tables: _Tables, params: List[str]
) -> str:
    """*node* as an SQL predicate over the guard row ``g`` (text left to right,
    so *params* fills in placeholder order)."""
    if isinstance(node, TrueCondition):
        return "1"
    if isinstance(node, Not):
        return f"NOT {_condition(node.operand, guard, tables, params)}"
    if isinstance(node, (And, Or)):
        left = _condition(node.left, guard, tables, params)
        right = _condition(node.right, guard, tables, params)
        return f"({left} {'AND' if isinstance(node, And) else 'OR'} {right})"
    atom = node.atom  # the one remaining node type: AtomCondition
    loaded = tables.get(atom.relation)
    if loaded is None or loaded[1] != atom.arity:
        return "0"  # no such relation, or no fact of that arity
    clauses = _conformance("c", atom, params)
    for variable in atom.variables:
        guard_positions = guard.positions_of(variable)
        if guard_positions:  # a shared variable: part of the semi-join's key
            position = atom.positions_of(variable)[0]
            clauses.append(f"c.c{position} = g.c{guard_positions[0]}")
    where = " AND ".join(clauses) or "1"
    return f"EXISTS (SELECT 1 FROM {loaded[0]} c WHERE {where})"


def _statement_rows(statement: BSGFQuery, tables: _Tables) -> List[Row]:
    """The output rows of one BSGF statement (deduplicated by Python equality)."""
    guard = statement.guard
    loaded = tables.get(guard.relation)
    if loaded is None or loaded[1] != guard.arity:
        return []
    table, _, rows = loaded
    params: List[str] = []
    clauses = _conformance("g", guard, params)
    clauses.append(_condition(statement.condition, guard, tables, params))
    cursor = tables.connection.execute(
        f"SELECT g.pos FROM {table} g WHERE {' AND '.join(clauses)}", params
    )
    columns = [guard.positions_of(variable)[0] for variable in statement.projection]
    if not columns:  # an empty projection keeps the guard's first field
        columns = [0]
    return list({tuple(rows[pos][c] for c in columns) for (pos,) in cursor})


def sql_answers(
    program: SGFQuery, database: Database
) -> Dict[str, FrozenSet[Row]]:
    """Every statement's answer, computed by sqlite3 (see the module docstring).

    Raises :class:`SQLOracleUnsupported` when a stored value or a query
    constant has no token.
    """
    # Not a module-level import: ``import repro`` re-exports the fuzzer, and
    # every process doing so would carry the sqlite3 extension (~1.5 MB RSS).
    import sqlite3

    connection = sqlite3.connect(":memory:")
    try:
        tables = _Tables(connection, database)
        answers: Dict[str, FrozenSet[Row]] = {}
        for statement in program:
            rows = _statement_rows(statement, tables)
            answers[statement.output] = frozenset(rows)
            tables.load(statement.output, max(len(statement.projection), 1), rows)
        return answers
    finally:
        connection.close()
