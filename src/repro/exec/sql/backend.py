"""The sqlite3 execution backend behind the :class:`ExecutionBackend` seam.

:class:`SQLBackend` runs every SQL-expressible job (MSJ, EVAL, fused,
semi-join chain, union — i.e. everything the batch kernels cover) as SQL
queries over an in-memory or on-disk sqlite3 database, and transparently
falls back to the interpreted engine for anything the compiler cannot
translate faithfully.  The contract is the same as the kernel path's:

* **outputs** are bit-identical to the interpreted oracle — queries return
  row *positions* and the original Python tuples are re-read and projected
  with the jobs' own compiled extractors (see :mod:`repro.exec.sql.codec`
  for why values themselves never round-trip through SQLite);
* **simulated metrics** are derived analytically from SQL-side ``GROUP BY``
  counts fed through the very same ledger class the kernels use, then
  funnelled through the engine's unchanged
  :meth:`~repro.mapreduce.engine.MapReduceEngine.finalise_job_metrics` —
  so every :class:`~repro.mapreduce.counters.JobMetrics` field matches the
  serial backend exactly.

Program runs compile level-at-once: through the :meth:`SQLBackend.level_context`
hook of the shared level loop all jobs of one MRProgram level share a
single :class:`SQLContext` (one database, each input relation loaded once),
which is what makes on-disk databases (``sql_db=PATH``) useful for guard
relations larger than memory.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

from ...mapreduce.counters import PartitionMetrics, WallClockMetrics
from ...mapreduce.engine import JobResult, MapReduceEngine, prepare_output_relations
from ...mapreduce.job import MapReduceJob
from ...model.database import Database
from ...model.relation import Relation
from ...obs import metrics as obs_metrics
from ... import obs
from ..base import SQL, ExecutionBackend
from .codec import SQLUnsupportedValueError, ValueCodec

_MB = 1024.0 * 1024.0

#: Third dispatch counter besides ``interpreted`` and ``kernel`` (see
#: :mod:`repro.mapreduce.engine`): jobs that actually ran as SQL.  Fallback
#: jobs are counted by the engine's own dispatch site instead.
_JOBS_SQL = obs_metrics.default_registry().counter(
    "repro_jobs_total", path="sql"
)


class _Table:
    """One loaded relation: its SQLite table plus the engine-side numbers.

    ``row_len`` is the relation's arity when it has rows and ``None``
    otherwise — the exact quantity the kernels' arity filter computes from
    their first non-empty block, so empty and missing relations disable
    specs identically.  ``sql_name`` is ``None`` when no SQLite table was
    created (no rows → nothing to query).
    """

    __slots__ = (
        "name",
        "sql_name",
        "arity",
        "row_len",
        "rows",
        "input_records",
        "input_mb",
        "mappers",
        "chunk_count",
    )

    def __init__(
        self,
        name: str,
        sql_name: Optional[str],
        arity: int,
        rows: List[Tuple[object, ...]],
        input_mb: float,
        mappers: int,
    ) -> None:
        self.name = name
        self.sql_name = sql_name
        self.arity = arity
        self.row_len = arity if rows else None
        self.rows = rows
        self.input_records = len(rows)
        self.input_mb = input_mb
        self.mappers = mappers
        self.chunk_count = min(mappers, len(rows)) or 1


class SQLContext:
    """One SQL execution context: a connection plus the loaded tables.

    Relations load once per context (a level shares one context, so a guard
    used by several jobs is inserted once) into tables
    ``rel_<k>(pos INTEGER PRIMARY KEY, c0 TEXT, ...)`` holding the canonical
    value tokens of :class:`~repro.exec.sql.codec.ValueCodec`; ``pos`` is the
    row's index in the relation's deterministic sorted order, which is what
    queries return and what re-reads the original Python tuples.  The codec
    is shared across every table of the context so NaN identity joins work
    across relations.
    """

    def __init__(
        self,
        connection: sqlite3.Connection,
        engine: MapReduceEngine,
        file_backed: bool = False,
    ) -> None:
        self.connection = connection
        self.engine = engine
        self.codec = ValueCodec()
        self._file_backed = file_backed
        self._tables: Dict[str, Optional[_Table]] = {}
        self._indexes: set = set()
        self._created: List[str] = []
        # Scratch-database settings: the contents are rebuilt per context, so
        # crash durability buys nothing (harmless no-ops for ":memory:").
        connection.execute("PRAGMA journal_mode=MEMORY")
        connection.execute("PRAGMA synchronous=OFF")

    def load(self, name: str, relation: Optional[Relation]) -> _Table:
        """Load *relation* as a table (cached per name).

        Missing or empty relations produce a stub with no SQLite table.
        Raises :class:`~repro.exec.sql.codec.SQLUnsupportedValueError` when a
        value has no faithful encoding; the failure is cached so sibling jobs
        fall back without re-encoding.
        """
        if name in self._tables:
            table = self._tables[name]
            if table is None:
                raise SQLUnsupportedValueError(
                    f"relation {name!r} holds values the SQL backend "
                    "cannot encode"
                )
            return table
        if relation is None:
            table = _Table(name, None, 0, [], 0.0, self.engine.mappers_for(0.0))
            self._tables[name] = table
            return table
        rows = relation.sorted_tuples()
        input_mb = relation.size_mb()
        mappers = self.engine.mappers_for(input_mb)
        if not rows:
            table = _Table(name, None, relation.arity, [], input_mb, mappers)
            self._tables[name] = table
            return table
        try:
            encoded = [self.codec.encode_row(row) for row in rows]
        except SQLUnsupportedValueError:
            self._tables[name] = None
            raise
        sql_name = f"rel_{len(self._created)}"
        columns = ", ".join(f"c{i} TEXT" for i in range(relation.arity))
        self.connection.execute(f"DROP TABLE IF EXISTS {sql_name}")
        self.connection.execute(
            f"CREATE TABLE {sql_name} (pos INTEGER PRIMARY KEY, {columns})"
        )
        placeholders = ", ".join(["?"] * (relation.arity + 1))
        self.connection.executemany(
            f"INSERT INTO {sql_name} VALUES ({placeholders})",
            [(pos,) + tokens for pos, tokens in enumerate(encoded)],
        )
        self._created.append(sql_name)
        table = _Table(name, sql_name, relation.arity, rows, input_mb, mappers)
        self._tables[name] = table
        return table

    def table(self, name: str) -> _Table:
        """The previously loaded table for *name* (plans call this)."""
        table = self._tables[name]
        if table is None:
            raise SQLUnsupportedValueError(
                f"relation {name!r} holds values the SQL backend cannot encode"
            )
        return table

    def execute(self, sql: str, params: Sequence[object] = ()) -> sqlite3.Cursor:
        """Run one query and return its cursor."""
        return self.connection.execute(sql, params)

    def ensure_index(self, table: _Table, positions: Tuple[int, ...]) -> None:
        """Create an index over *positions* of *table* once per context."""
        if table.sql_name is None or not positions:
            return
        key = (table.sql_name, positions)
        if key in self._indexes:
            return
        name = f"idx_{table.sql_name}_" + "_".join(str(p) for p in positions)
        columns = ", ".join(f"c{p}" for p in positions)
        self.connection.execute(
            f"CREATE INDEX IF NOT EXISTS {name} ON {table.sql_name} ({columns})"
        )
        self._indexes.add(key)

    def close(self) -> None:
        """Drop this context's tables from a file-backed scratch database."""
        if not self._file_backed:
            return
        for sql_name in self._created:
            self.connection.execute(f"DROP TABLE IF EXISTS {sql_name}")
        self.connection.commit()


class SQLBackend(ExecutionBackend):
    """Runs SQL-expressible jobs on sqlite3; interpreted fallback otherwise.

    Parameters
    ----------
    engine:
        The simulation engine used for metric finalisation and as the
        fallback executor (defaults to a fresh
        :class:`~repro.mapreduce.engine.MapReduceEngine`).
    sql_db:
        Path of an on-disk scratch database for out-of-core runs; ``None``
        (the default) keeps every context in ``:memory:``.  The file's
        scratch tables are dropped when each context closes.

    Raises
    ------
    Nothing job-specific: jobs the compiler cannot express —
    :meth:`~repro.mapreduce.job.MapReduceJob.supports_sql` is ``False``, a
    value has no faithful SQL encoding, a condition shape is untranslatable —
    silently fall back to the interpreted engine, which is always
    output- and metric-identical.  sqlite3 errors are compiler bugs and
    propagate.
    """

    name = SQL

    def __init__(
        self,
        engine: Optional[MapReduceEngine] = None,
        sql_db: Optional[str] = None,
    ) -> None:
        self.engine = engine or MapReduceEngine()
        self.sql_db = sql_db

    @contextmanager
    def _context(self) -> Iterator[SQLContext]:
        connection = sqlite3.connect(self.sql_db or ":memory:")
        ctx = SQLContext(
            connection, self.engine, file_backed=self.sql_db is not None
        )
        try:
            yield ctx
        finally:
            ctx.close()
            connection.close()

    @staticmethod
    def _plan_for(job: MapReduceJob):
        """The job's SQL plan, or ``None`` when it must run interpreted."""
        if not job.supports_sql():
            return None
        try:
            return job.to_sql()
        except SQLUnsupportedValueError:
            return None

    def _run_job_sql(
        self,
        job: MapReduceJob,
        plan,
        database: Database,
        ctx: SQLContext,
    ) -> JobResult:
        """Execute one job as SQL within *ctx*.

        Mirrors :meth:`~repro.mapreduce.engine.MapReduceEngine.run_job_kernel`
        step for step: per input partition the plan replays the map-phase
        accounting from grouped counts, then one query per semi-join/query
        materialises the outputs, and everything funnels through
        ``finalise_job_metrics``.  All inputs load *before* any accounting so
        an unsupported value falls back with no partial work.
        """
        for relation_name in job.input_relations():
            ctx.load(relation_name, database.get(relation_name))
        _JOBS_SQL.inc()
        with obs.span("job", job_id=job.job_id, kind=type(job).__name__, path="sql"):
            ledgers = []
            partition_metrics: List[PartitionMetrics] = []
            for relation_name in job.input_relations():
                with obs.span("map_batch", relation=relation_name) as map_span:
                    table = ctx.table(relation_name)
                    ledger = plan.partition(ctx, relation_name)
                    map_span.set(mappers=table.mappers, rows=table.input_records)
                ledgers.append(ledger)
                partition_metrics.append(
                    PartitionMetrics(
                        relation=relation_name,
                        input_mb=table.input_mb,
                        input_records=table.input_records,
                        intermediate_mb=ledger.intermediate_bytes / _MB,
                        output_records=ledger.records,
                        mappers=table.mappers,
                    )
                )
            outputs = prepare_output_relations(job)
            with obs.span("reduce_batch"):
                for relation_name, rows in plan.outputs(ctx).items():
                    if relation_name not in outputs:
                        raise KeyError(
                            f"job {job.job_id!r} emitted to undeclared relation "
                            f"{relation_name!r}"
                        )
                    outputs[relation_name].update(rows)
            metrics = self.engine.finalise_job_metrics(
                job,
                partition_metrics,
                lambda: [ledger.key_loads() for ledger in ledgers],
                outputs,
            )
        return JobResult(job_id=job.job_id, outputs=outputs, metrics=metrics)

    def _run_with_fallback(
        self, job: MapReduceJob, database: Database, ctx: SQLContext
    ) -> JobResult:
        """SQL execution when possible, interpreted engine otherwise."""
        plan = self._plan_for(job)
        if plan is not None:
            try:
                return self._run_job_sql(job, plan, database, ctx)
            except SQLUnsupportedValueError:
                pass
        return self.engine.run_job(job, database)

    def run_job(
        self,
        job: MapReduceJob,
        database: Database,
        ctx: Optional[SQLContext] = None,
    ) -> JobResult:
        """Execute one job as SQL and stamp wall-clock time.

        Args:
            job: The job to run.
            database: Input database; never mutated.
            ctx: The level's shared SQL context when called from a program
                run (see :meth:`level_context`); a private context is opened
                for the job when omitted.

        Returns:
            A :class:`~repro.mapreduce.engine.JobResult` whose outputs and
            simulated metrics are bit-identical to the serial backend's.
        """
        start = perf_counter()
        with self._context() if ctx is None else nullcontext(ctx) as ctx:
            result = self._run_with_fallback(job, database, ctx)
        result.metrics.wall = WallClockMetrics(
            backend=self.name, workers=1, elapsed_s=perf_counter() - start
        )
        return result

    def level_context(self) -> ContextManager[SQLContext]:
        """One SQL context per program level, shared by the level's jobs."""
        return self._context()
