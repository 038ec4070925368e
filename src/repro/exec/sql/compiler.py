"""GUMBO job → SQL compilation for the sqlite3 execution backend.

Each kernel-capable job class exposes a ``to_sql()`` hook returning a *plan*
from this module (:class:`MSJPlan`, :class:`ChainPlan`, :class:`UnionPlan`,
:class:`EvalPlan`, :class:`FusedPlan`).  A plan answers two questions for the
backend:

* :meth:`partition` — the simulated map-phase accounting of one input
  partition (intermediate bytes, records, per-key byte loads), derived
  analytically from SQL-side ``GROUP BY`` counts and fed through the *same*
  :class:`~repro.mapreduce.kernels.ChunkLedger` the batch kernels use, so
  every number is bit-identical to the interpreted engine;
* :meth:`outputs` — the output relations, computed by one SQL query per
  semi-join/query: guard conformance compiles to a ``WHERE`` clause over the
  canonical value tokens (see :mod:`repro.exec.sql.codec`), semi-joins to
  correlated ``EXISTS``, guarded negation to ``NOT EXISTS``, and Boolean
  guard conditions to ``CASE`` expressions.  Queries return *row positions*;
  the original Python rows are re-read and projected with the jobs' own
  compiled extractors, so outputs are bit-identical by construction.

Translation rules (the full table lives in ``docs/operators.md``):

==========================  ====================================================
GUMBO construct             SQL form
==========================  ====================================================
constant term ``c`` at i    ``t.c<i> = ?`` (canonical token parameter)
repeated variable (i, j)    ``t.c<i> = t.c<j> AND substr(t.c<i>,1,1) != 'n'``
NaN constant                predicate is unsatisfiable (``conforms`` uses ==)
positive semi-join          ``EXISTS (SELECT 1 FROM cond WHERE pred AND keys)``
negated literal             ``NOT EXISTS (...)``
Boolean condition           ``(CASE WHEN <φ over EXISTS> THEN 1 ELSE 0 END) = 1``
membership test (EVAL)      ``EXISTS`` correlated on *all* columns
==========================  ====================================================

The ``substr(...) != 'n'`` conjunct excludes NaN from repeated-variable
checks: the matcher compares with ``!=``, under which a NaN never equals
anything (itself included), while its identity token *would* equal itself.

Map-phase accounting uses one grouped query per guard/tag occurrence::

    SELECT t.pos % <chunks> AS chunk, MIN(t.pos), COUNT(*)
    FROM <table> t WHERE <pred> GROUP BY chunk, t.c<k0>, t.c<k1>, ...

Map-task chunks are strided (chunk *i* holds rows ``i, i+c, i+2c, ...``, see
:func:`repro.exec.partition.map_task_chunks`), so ``pos % chunks`` recovers
the chunk index, and ``MIN(pos)`` is the group's first occurrence within the
chunk — exactly the representative object a kernel ``Counter`` would keep.
Token groups coincide with Python key-equality classes (the codec's whole
point), so feeding the reconstructed per-chunk count dicts through the shared
ledger — guards before tags, one ``close_chunk`` per chunk, same as the
kernels — yields identical ``intermediate_mb`` / ``output_records`` /
key-load numbers.

Anything this compiler cannot translate faithfully raises
:class:`~repro.exec.sql.codec.SQLUnsupportedValueError` at plan-build or
table-load time; the backend then falls back to the interpreted engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ...core.messages import FIELD_BYTES, TAG_BYTES, TUPLE_REFERENCE_BYTES
from ...mapreduce.kernels import ChunkLedger
from ...model.atoms import tuple_extractor
from ...model.terms import Constant
from ...query.conditions import And, AtomCondition, Condition, Not, Or, TrueCondition
from .codec import SQLUnsupportedValueError, encode_scalar

__all__ = [
    "AtomSQL",
    "ChainPlan",
    "EvalPlan",
    "FusedPlan",
    "MSJPlan",
    "UnionPlan",
    "condition_sql",
]


class AtomSQL:
    """SQL compilation of one atom's conformance check.

    Mirrors :class:`~repro.model.atoms.CompiledAtom`: constants become
    token-equality comparisons, repeated variables become column-equality
    comparisons (with the NaN-identity exclusion), and the first-occurrence
    position map drives join-key/projection extraction.  A NaN constant makes
    the whole predicate unsatisfiable (``where`` returns ``None``), matching
    ``Atom.conforms``'s ``!=`` semantics.
    """

    __slots__ = ("atom", "arity", "impossible", "_consts", "_eqs", "_positions")

    def __init__(self, atom) -> None:
        self.atom = atom
        self.arity = atom.arity
        consts: List[Tuple[int, str]] = []
        eqs: List[Tuple[int, int]] = []
        positions: Dict[object, int] = {}
        impossible = False
        for index, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                value = term.value
                if isinstance(value, float) and value != value:
                    impossible = True
                else:
                    consts.append((index, encode_scalar(value)))
            elif term in positions:
                eqs.append((positions[term], index))
            else:
                positions[term] = index
        self.impossible = impossible
        self._consts = consts
        self._eqs = eqs
        self._positions = positions

    def key_positions(self, variables: Sequence[object]) -> Tuple[int, ...]:
        """First-occurrence column positions of *variables*, in order."""
        return tuple(self._positions[v] for v in variables)

    def where(self, alias: str) -> Optional[Tuple[str, List[str]]]:
        """``(clause, params)`` testing conformance, or ``None`` if unsatisfiable.

        The clause references columns as ``<alias>.c<i>``; ``"1"`` when the
        atom is unrestricted.
        """
        if self.impossible:
            return None
        clauses: List[str] = []
        params: List[str] = []
        for index, token in self._consts:
            clauses.append(f"{alias}.c{index} = ?")
            params.append(token)
        for first, other in self._eqs:
            clauses.append(f"{alias}.c{first} = {alias}.c{other}")
            clauses.append(f"substr({alias}.c{first}, 1, 1) != 'n'")
        return (" AND ".join(clauses) if clauses else "1", params)


class _MapSpec:
    """One guard or conditional-tag occurrence in a partition's accounting."""

    __slots__ = ("atomsql", "positions", "prefix", "request_size", "tag")

    def __init__(self, atomsql, positions, prefix, request_size, tag) -> None:
        self.atomsql = atomsql
        self.positions = positions
        self.prefix = prefix
        self.request_size = request_size
        self.tag = tag


def _chunk_counts(ctx, table, atomsql, positions, prefix):
    """``chunk index -> {key: count}`` over the conforming rows of *table*.

    One grouped query per spec; keys are reconstructed from the group's
    ``MIN(pos)`` row via the same first-occurrence positions the kernels use,
    prefixed with *prefix* (the fused job's query index).  Token groups equal
    Python key-equality classes, so counts and representative objects match a
    per-chunk ``Counter`` exactly.
    """
    where = atomsql.where("t")
    if where is None:
        return {}
    clause, params = where
    group_cols = "".join(f", t.c{p}" for p in positions)
    sql = (
        f"SELECT t.pos % {table.chunk_count} AS chunk, MIN(t.pos), COUNT(*) "
        f"FROM {table.sql_name} t WHERE {clause} GROUP BY chunk{group_cols}"
    )
    extract = tuple_extractor(positions)
    rows_py = table.rows
    per_chunk: Dict[int, Dict[tuple, int]] = {}
    for chunk, first_pos, count in ctx.execute(sql, params):
        per_chunk.setdefault(chunk, {})[prefix + extract(rows_py[first_pos])] = count
    return per_chunk


def _accounted_partition(ctx, job, table, guard_specs, tag_specs):
    """Replay one partition's map-phase accounting from SQL-side counts.

    Feeds the per-chunk count dicts to the same ledger the batch kernels
    use — guards before tags, one ``close_chunk`` per chunk — so the
    resulting ``intermediate_bytes`` / ``records`` / key loads are
    bit-identical to the kernel (and hence the interpreted) path.
    """
    ledger = ChunkLedger(job)
    row_len = table.row_len
    guard_data = [
        (spec, _chunk_counts(ctx, table, spec.atomsql, spec.positions, spec.prefix))
        for spec in guard_specs
        if spec.atomsql.arity == row_len
    ]
    tag_data = [
        _chunk_counts(ctx, table, spec.atomsql, spec.positions, spec.prefix)
        for spec in tag_specs
        if spec.atomsql.arity == row_len
    ]
    for chunk in range(table.chunk_count):
        for spec, data in guard_data:
            ledger.add(data.get(chunk, ()), spec.request_size)
        for data in tag_data:
            counts = data.get(chunk, {})
            # Packed asserts are one message per distinct key of the chunk.
            ledger.add(counts.keys() if ledger.packed else counts, TAG_BYTES)
        ledger.close_chunk()
    return ledger


def _exists_clause(ctx, cond_table, cond_where, cond_positions, guard_positions):
    """A correlated ``EXISTS`` probing *cond_table* on equal join-key tokens.

    Token equality reproduces the kernels' hash-set probe exactly, NaN
    identity semantics included, so no NaN exclusion is needed here.  An
    empty join key yields an uncorrelated ``EXISTS`` (the kernels' ``()``
    key).
    """
    ctx.ensure_index(cond_table, cond_positions)
    clause, params = cond_where
    correlation = " AND ".join(
        f"c.c{cp} = g.c{gp}" for gp, cp in zip(guard_positions, cond_positions)
    )
    inner = f"{clause} AND {correlation}" if correlation else clause
    return f"EXISTS (SELECT 1 FROM {cond_table.sql_name} c WHERE {inner})", list(params)


def condition_sql(condition: Condition, leaf) -> Tuple[str, List[str]]:
    """Compile a Boolean condition tree to an SQL expression.

    *leaf* maps an atom to its ``(clause, params)`` (an ``EXISTS`` probe or a
    ``"0"``/``"1"`` literal).  Raises
    :class:`~repro.exec.sql.codec.SQLUnsupportedValueError` on unknown node
    types, sending the job down the interpreted fallback.
    """
    if isinstance(condition, TrueCondition):
        return "1", []
    if isinstance(condition, AtomCondition):
        return leaf(condition.atom)
    if isinstance(condition, Not):
        inner, params = condition_sql(condition.operand, leaf)
        return f"NOT ({inner})", params
    if isinstance(condition, And):
        left, lparams = condition_sql(condition.left, leaf)
        right, rparams = condition_sql(condition.right, leaf)
        return f"({left} AND {right})", lparams + rparams
    if isinstance(condition, Or):
        left, lparams = condition_sql(condition.left, leaf)
        right, rparams = condition_sql(condition.right, leaf)
        return f"({left} OR {right})", lparams + rparams
    raise SQLUnsupportedValueError(
        f"condition node {type(condition).__name__} has no SQL translation"
    )


def _case(clause: str) -> str:
    """Wrap a Boolean expression as the paper-prescribed CASE guard test."""
    return f"(CASE WHEN {clause} THEN 1 ELSE 0 END) = 1"


def _guard_positions(ctx, table, where):
    """Row positions satisfying *where*, in the kernels' chunk-major order.

    Ordering by ``(pos % chunks, pos)`` visits rows exactly as the kernels'
    per-chunk loops do, so set-insertion representatives of equal-but-distinct
    output tuples match the kernel path.
    """
    clause, params = where
    sql = (
        f"SELECT g.pos FROM {table.sql_name} g WHERE {clause} "
        f"ORDER BY g.pos % {table.chunk_count}, g.pos"
    )
    return [pos for (pos,) in ctx.execute(sql, params)]


def _validate_condition(condition: Condition, known_atoms) -> None:
    """Reject conditions the SQL path cannot compile (fallback, not failure)."""
    known = set(known_atoms)
    for node in condition.walk():
        if isinstance(node, AtomCondition):
            if node.atom not in known:
                raise SQLUnsupportedValueError(
                    f"condition references unknown conditional atom {node.atom}"
                )
        elif not isinstance(node, (TrueCondition, Not, And, Or)):
            raise SQLUnsupportedValueError(
                f"condition node {type(node).__name__} has no SQL translation"
            )


class MSJPlan:
    """SQL plan for :class:`~repro.core.msj.MSJJob`.

    Each semi-join equation becomes one query: conforming guard rows filtered
    by a correlated ``EXISTS`` against the conditional's table on the
    join-key columns.
    """

    def __init__(self, job) -> None:
        self.job = job
        self._atom_sqls: Dict[object, AtomSQL] = {}
        self.guard_specs: Dict[str, List[_MapSpec]] = {}
        self.tag_specs: Dict[str, List[_MapSpec]] = {}
        by_reference = job.options.tuple_reference
        for spec in job.specs:
            atomsql = self._atom_sql(spec.guard)
            payload_len = (
                len(spec.projection) if job.emit_projection else spec.guard.arity
            )
            request_size = TAG_BYTES + (
                TUPLE_REFERENCE_BYTES
                if by_reference
                else max(1, payload_len) * FIELD_BYTES
            )
            self.guard_specs.setdefault(spec.guard.relation, []).append(
                _MapSpec(
                    atomsql,
                    atomsql.key_positions(spec.join_key),
                    (),
                    request_size,
                    None,
                )
            )
        for tag_index, (conditional, join_key) in enumerate(job._tags):
            atomsql = self._atom_sql(conditional)
            self.tag_specs.setdefault(conditional.relation, []).append(
                _MapSpec(atomsql, atomsql.key_positions(join_key), (), None, tag_index)
            )

    def _atom_sql(self, atom) -> AtomSQL:
        compiled = self._atom_sqls.get(atom)
        if compiled is None:
            compiled = self._atom_sqls[atom] = AtomSQL(atom)
        return compiled

    def partition(self, ctx, relation: str):
        """Accounting ledger for one input partition."""
        return _accounted_partition(
            ctx,
            self.job,
            ctx.table(relation),
            self.guard_specs.get(relation, ()),
            self.tag_specs.get(relation, ()),
        )

    def outputs(self, ctx) -> Dict[str, set]:
        """Output rows per relation, bit-identical to the kernel reduce."""
        job = self.job
        out: Dict[str, set] = {spec.output: set() for spec in job.specs}
        for spec in job.specs:
            guard_sql = self._atom_sql(spec.guard)
            guard_table = ctx.table(spec.guard.relation)
            if guard_sql.arity != guard_table.row_len:
                continue
            guard_where = guard_sql.where("g")
            if guard_where is None:
                continue
            cond_sql = self._atom_sql(spec.conditional)
            cond_table = ctx.table(spec.conditional.relation)
            if cond_sql.arity != cond_table.row_len:
                continue
            cond_where = cond_sql.where("c")
            if cond_where is None:
                continue
            exists, exists_params = _exists_clause(
                ctx,
                cond_table,
                cond_where,
                cond_sql.key_positions(spec.join_key),
                guard_sql.key_positions(spec.join_key),
            )
            clause, params = guard_where
            positions = _guard_positions(
                ctx, guard_table, (f"{clause} AND {exists}", params + exists_params)
            )
            rows_py = guard_table.rows
            if job.emit_projection:
                payload_of = spec.guard.compile().extractor(spec.projection)
                picked = [payload_of(rows_py[pos]) for pos in positions]
            else:
                picked = [rows_py[pos] for pos in positions]
            out[spec.output].update(picked)
        return out


class ChainPlan:
    """SQL plan for :class:`~repro.core.chain.SemiJoinChainJob`.

    The positive literal is a correlated ``EXISTS``; the negated literal a
    ``NOT EXISTS`` (the anti-join).  A literal that can never conform —
    NaN constant, arity mismatch, missing relation — makes the ``EXISTS``
    constantly false: no output for a positive step, the full conforming
    guard set for a negative one.
    """

    def __init__(self, job) -> None:
        self.job = job
        self.guard_sql = AtomSQL(job.guard_atom)
        self.literal_sql = AtomSQL(job.literal.atom)
        request_size = TAG_BYTES + (
            TUPLE_REFERENCE_BYTES
            if job.options.tuple_reference
            else max(1, job.guard_atom.arity) * FIELD_BYTES
        )
        self._guard_spec = _MapSpec(
            self.guard_sql,
            self.guard_sql.key_positions(job.join_key),
            (),
            request_size,
            None,
        )
        self._literal_spec = _MapSpec(
            self.literal_sql,
            self.literal_sql.key_positions(job.join_key),
            (),
            None,
            0,
        )

    def partition(self, ctx, relation: str):
        """Accounting ledger for one input partition."""
        job = self.job
        guards = [self._guard_spec] if relation == job.input_name else []
        tags = [self._literal_spec] if relation == job.literal.atom.relation else []
        return _accounted_partition(ctx, job, ctx.table(relation), guards, tags)

    def outputs(self, ctx) -> Dict[str, set]:
        """Output rows, bit-identical to the kernel reduce."""
        job = self.job
        out: set = set()
        guard_table = ctx.table(job.input_name)
        if self.guard_sql.arity == guard_table.row_len:
            guard_where = self.guard_sql.where("g")
        else:
            guard_where = None
        if guard_where is not None:
            literal_table = ctx.table(job.literal.atom.relation)
            literal_where = (
                self.literal_sql.where("c")
                if self.literal_sql.arity == literal_table.row_len
                else None
            )
            clause, params = guard_where
            if literal_where is not None:
                exists, exists_params = _exists_clause(
                    ctx,
                    literal_table,
                    literal_where,
                    self.literal_sql.key_positions(job.join_key),
                    self.guard_sql.key_positions(job.join_key),
                )
                verb = "" if job.literal.positive else "NOT "
                where = (f"{clause} AND {verb}{exists}", params + exists_params)
                positions = _guard_positions(ctx, guard_table, where)
            elif job.literal.positive:
                positions = []  # semi-join against nothing keeps nothing
            else:
                positions = _guard_positions(ctx, guard_table, guard_where)
            rows_py = guard_table.rows
            kept = [rows_py[pos] for pos in positions]
            if job.projection is None:
                out.update(kept)
            elif job.projection:
                project = job.guard_atom.compile().extractor(job.projection)
                out.update(map(project, kept))
            else:
                out.update([(row[0],) for row in kept])
        return {job.output_name: out}


class UnionPlan:
    """SQL plan for :class:`~repro.core.chain.UnionProjectJob`.

    One projection query per input relation; the deduplicating union is the
    output set itself.
    """

    def __init__(self, job) -> None:
        self.job = job
        self.guard_sql = AtomSQL(job.guard_atom)
        self.positions = (
            self.guard_sql.key_positions(job.projection) if job.projection else (0,)
        )

    def partition(self, ctx, relation: str):
        """Accounting ledger for one input partition (1-byte values)."""
        job = self.job
        table = ctx.table(relation)
        ledger = ChunkLedger(job)
        if self.guard_sql.arity == table.row_len:
            data = _chunk_counts(ctx, table, self.guard_sql, self.positions, ())
            for chunk in range(table.chunk_count):
                ledger.add(data.get(chunk, ()), 1)
        ledger.close_chunk()
        return ledger

    def outputs(self, ctx) -> Dict[str, set]:
        """The union of the projected conforming rows of every input."""
        job = self.job
        out: set = set()
        project = job.guard_atom.compile().extractor(job.projection)
        projects = bool(job.projection)
        for relation in job.input_relations():
            table = ctx.table(relation)
            if self.guard_sql.arity != table.row_len:
                continue
            where = self.guard_sql.where("g")
            if where is None:
                continue
            rows_py = table.rows
            for pos in _guard_positions(ctx, table, where):
                row = rows_py[pos]
                out.add(project(row) if projects else (row[0],))
        return {job.output_name: out}


class EvalPlan:
    """SQL plan for :class:`~repro.core.eval_job.EvalJob`.

    Per target, the Boolean condition over semi-join memberships compiles to
    a ``CASE`` expression whose leaves are ``EXISTS`` probes of the
    intermediate relations, correlated on *all* guard columns (membership is
    whole-row containment).  A guard relation that doubles as an intermediate
    is consumed by the membership branch only, exactly like the kernel's
    early return.
    """

    def __init__(self, job) -> None:
        self.job = job
        self.guard_sqls = [AtomSQL(t.guard) for t in job.targets]
        self.guard_targets: Dict[str, List[Tuple[int, AtomSQL]]] = {}
        for t_index, target in enumerate(job.targets):
            self.guard_targets.setdefault(target.guard.relation, []).append(
                (t_index, self.guard_sqls[t_index])
            )
            _validate_condition(
                target.query.condition, target.query.conditional_atoms
            )

    def partition(self, ctx, relation: str):
        """Accounting ledger for one input partition.

        Membership partitions charge one uniform pair per row (no SQL
        needed); guard partitions one pair per (target, conforming row).
        """
        job = self.job
        table = ctx.table(relation)
        ledger = ChunkLedger(job)
        membership = job._membership.get(relation)
        rows_py = table.rows
        if membership is not None:
            ledger.add(rows_py, TAG_BYTES, (membership[0],))
            ledger.close_chunk()
            return ledger
        row_len = table.row_len
        for t_index, atomsql in self.guard_targets.get(relation, ()):
            if atomsql.arity != row_len:
                continue
            where = atomsql.where("t")
            if where is None:
                continue
            clause, params = where
            sql = (
                f"SELECT t.pos FROM {table.sql_name} t WHERE {clause} "
                f"ORDER BY t.pos % {table.chunk_count}, t.pos"
            )
            rows = [rows_py[pos] for (pos,) in ctx.execute(sql, params)]
            ledger.add(rows, TAG_BYTES, (t_index,))
        ledger.close_chunk()
        return ledger

    def outputs(self, ctx) -> Dict[str, set]:
        """Output rows per target, bit-identical to the kernel reduce."""
        job = self.job
        out: Dict[str, set] = {t.output: set() for t in job.targets}
        for t_index, target in enumerate(job.targets):
            if target.guard.relation in job._membership:
                continue  # guard rows were consumed by the membership branch
            guard_sql = self.guard_sqls[t_index]
            guard_table = ctx.table(target.guard.relation)
            if guard_sql.arity != guard_table.row_len:
                continue
            guard_where = guard_sql.where("g")
            if guard_where is None:
                continue
            atoms = target.query.conditional_atoms
            index_of = {atom: i for i, atom in enumerate(atoms)}
            guard_arity = guard_sql.arity

            def leaf(atom):
                member_table = ctx.table(
                    target.intermediates[index_of[atom]]  # noqa: B023
                )
                if member_table.row_len != guard_arity:  # noqa: B023
                    return "0", []
                ctx.ensure_index(member_table, tuple(range(guard_arity)))  # noqa: B023
                correlation = " AND ".join(
                    f"m.c{i} = g.c{i}" for i in range(guard_arity)  # noqa: B023
                )
                return (
                    f"EXISTS (SELECT 1 FROM {member_table.sql_name} m "
                    f"WHERE {correlation})",
                    [],
                )

            case_clause, case_params = condition_sql(target.query.condition, leaf)
            clause, params = guard_where
            positions = _guard_positions(
                ctx,
                guard_table,
                (f"{clause} AND {_case(case_clause)}", params + case_params),
            )
            project = target.guard.compile().extractor(target.query.projection)
            projects = bool(target.query.projection)
            rows_py = guard_table.rows
            sink = out[target.output]
            for pos in positions:
                row = rows_py[pos]
                sink.add(project(row) if projects else ((row[0],)))
        return out


class FusedPlan:
    """SQL plan for :class:`~repro.core.fused.FusedOneRoundJob`.

    Per fused query, the shared-key condition compiles to one ``CASE``
    expression whose leaves are ``EXISTS`` probes on the query's join key —
    per-row ``EXISTS`` on the key is equivalent to the kernel's per-key
    membership mask, since guard rows sharing a join key share memberships.
    """

    def __init__(self, job) -> None:
        self.job = job
        self._atom_sqls: Dict[object, AtomSQL] = {}
        self.guard_specs: Dict[str, List[_MapSpec]] = {}
        self.tag_specs: Dict[str, List[_MapSpec]] = {}
        by_reference = job.options.tuple_reference
        for q_index, query in enumerate(job.queries):
            atomsql = self._atom_sql(query.guard)
            request_size = TAG_BYTES + (
                TUPLE_REFERENCE_BYTES
                if by_reference
                else max(1, query.guard.arity) * FIELD_BYTES
            )
            self.guard_specs.setdefault(query.guard.relation, []).append(
                _MapSpec(
                    atomsql,
                    atomsql.key_positions(job._join_keys[q_index]),
                    (q_index,),
                    request_size,
                    None,
                )
            )
            _validate_condition(query.condition, query.conditional_atoms)
        for tag, (q_index, atom, join_key) in enumerate(job._tags):
            atomsql = self._atom_sql(atom)
            self.tag_specs.setdefault(atom.relation, []).append(
                _MapSpec(
                    atomsql, atomsql.key_positions(join_key), (q_index,), None, tag
                )
            )

    def _atom_sql(self, atom) -> AtomSQL:
        compiled = self._atom_sqls.get(atom)
        if compiled is None:
            compiled = self._atom_sqls[atom] = AtomSQL(atom)
        return compiled

    def partition(self, ctx, relation: str):
        """Accounting ledger for one input partition."""
        return _accounted_partition(
            ctx,
            self.job,
            ctx.table(relation),
            self.guard_specs.get(relation, ()),
            self.tag_specs.get(relation, ()),
        )

    def outputs(self, ctx) -> Dict[str, set]:
        """Output rows per query, bit-identical to the kernel reduce."""
        job = self.job
        out: Dict[str, set] = {q.output: set() for q in job.queries}
        for q_index, query in enumerate(job.queries):
            guard_sql = self._atom_sql(query.guard)
            guard_table = ctx.table(query.guard.relation)
            if guard_sql.arity != guard_table.row_len:
                continue
            guard_where = guard_sql.where("g")
            if guard_where is None:
                continue
            guard_positions = guard_sql.key_positions(job._join_keys[q_index])
            join_key = job._join_keys[q_index]

            def leaf(atom):
                atomsql = self._atom_sql(atom)
                cond_table = ctx.table(atom.relation)
                if atomsql.arity != cond_table.row_len:
                    return "0", []
                cond_where = atomsql.where("c")
                if cond_where is None:
                    return "0", []
                return _exists_clause(
                    ctx,
                    cond_table,
                    cond_where,
                    atomsql.key_positions(join_key),  # noqa: B023
                    guard_positions,  # noqa: B023
                )

            case_clause, case_params = condition_sql(query.condition, leaf)
            clause, params = guard_where
            positions = _guard_positions(
                ctx,
                guard_table,
                (f"{clause} AND {_case(case_clause)}", params + case_params),
            )
            project = query.guard.compile().extractor(query.projection)
            projects = bool(query.projection)
            rows_py = guard_table.rows
            sink = out[query.output]
            for pos in positions:
                row = rows_py[pos]
                sink.add(project(row) if projects else ((row[0],)))
        return out
