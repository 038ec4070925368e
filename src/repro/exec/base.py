"""The execution-backend seam: one planner, interchangeable runtimes.

The planning layers (strategies, Gumbo, the dynamic executor) produce
:class:`~repro.mapreduce.program.MRProgram` DAGs; *how* those programs are
executed is an independent choice captured by :class:`ExecutionBackend`:

* :class:`~repro.exec.simulated.SimulatedBackend` (``"serial"``) runs every
  task in-process on the serial :class:`~repro.mapreduce.engine.MapReduceEngine`
  — the seed behaviour, and the reference semantics;
* :class:`~repro.exec.parallel.ParallelBackend` (``"parallel"``) fans map
  tasks and reduce partitions out across a ``multiprocessing`` worker pool;
* :class:`~repro.exec.sql.SQLBackend` (``"sql"``) compiles SQL-expressible
  jobs to queries over an in-memory or on-disk sqlite3 database, falling
  back to the interpreted engine per job where it cannot;
* :class:`~repro.service.sharded.backend.ShardedBackend` (``"sharded"``)
  fans tasks out to long-lived worker processes that each hold a
  hash-partitioned shard of the database warm across requests (the
  persistent service tier).

Every backend returns the engine's :class:`~repro.mapreduce.engine.JobResult`
/ :class:`~repro.mapreduce.engine.ProgramResult` types with identical output
relations and identical *simulated* Hadoop metrics; backends additionally
stamp real wall-clock measurements (see
:class:`~repro.mapreduce.counters.WallClockMetrics`) so simulated-vs-real
speedup curves can be drawn.  Future runtimes (async, sharded, distributed)
plug in by subclassing :class:`ExecutionBackend` and registering a name.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import nullcontext
from time import perf_counter
from typing import TYPE_CHECKING, ContextManager, Dict, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..mapreduce.engine import JobResult, MapReduceEngine, ProgramResult
    from ..mapreduce.job import MapReduceJob
    from ..mapreduce.program import MRProgram
    from ..model.database import Database

#: Canonical backend names accepted by :func:`make_backend` and the CLI.
SERIAL = "serial"
PARALLEL = "parallel"
SQL = "sql"
SHARDED = "sharded"
BACKEND_NAMES = (SERIAL, PARALLEL, SQL, SHARDED)

#: Accepted aliases for backend names.
_ALIASES = {
    "simulated": SERIAL,
    "sim": SERIAL,
    "single": SERIAL,
    "multiprocessing": PARALLEL,
    "mp": PARALLEL,
    "sqlite": SQL,
    "sqlite3": SQL,
    "shard": SHARDED,
    "shards": SHARDED,
}


def normalise_backend(name: str) -> str:
    """Canonical form of a backend name.

    Args:
        name: A canonical name (``"serial"``, ``"parallel"``, ``"sql"``) or
            an accepted alias (``"sim"``, ``"mp"``, ``"sqlite3"``, ...),
            case-insensitive.

    Returns:
        The canonical name from :data:`BACKEND_NAMES`.

    Raises:
        ValueError: If *name* is not a known backend or alias.
    """
    canonical = _ALIASES.get(name.strip().lower(), name.strip().lower())
    if canonical not in BACKEND_NAMES:
        raise ValueError(
            f"unknown execution backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    return canonical


class ExecutionBackend(ABC):
    """Executes MR jobs and programs, producing results plus wall-clock metrics.

    Concrete backends hold a :class:`~repro.mapreduce.engine.MapReduceEngine`
    (exposed as :attr:`engine`) that supplies the cluster configuration, cost
    constants and the simulated-metric accounting; the backend decides only
    *where and when the map/reduce functions actually run*.
    """

    #: Canonical name of the backend (``"serial"``, ``"parallel"``, ...).
    name: str = "abstract"

    #: The engine providing cluster config, constants and metric accounting.
    engine: "MapReduceEngine"

    @abstractmethod
    def run_job(self, job: "MapReduceJob", database: "Database") -> "JobResult":
        """Execute one MapReduce job against *database*.

        Implementations stamp a
        :class:`~repro.mapreduce.counters.WallClockMetrics` carrying this
        backend's :attr:`name` on the result's metrics.
        """

    def run_program(
        self, program: "MRProgram", database: "Database"
    ) -> "ProgramResult":
        """Execute an MR program level by level against *database*.

        Every backend walks the engine's one level loop
        (:meth:`~repro.mapreduce.engine.MapReduceEngine.run_program`) with its
        own :meth:`run_job`; the result's metrics carry the backend's name
        and the measured wall-clock time of the whole run.
        """
        start = perf_counter()
        result = self.engine.run_program(
            program,
            database,
            run_job=self.run_job,
            level_context=self.level_context,
            backend=self.name,
            **self.prepare(database),
        )
        result.metrics.backend = self.name
        result.metrics.wall_elapsed_s = perf_counter() - start
        return result

    def prepare(self, database: "Database") -> Dict[str, object]:
        """Hook: per-program set-up; returns extra ``program``-span attributes."""
        return {}

    def level_context(self) -> ContextManager[object]:
        """Hook: a context shared by one level's jobs.

        A value other than ``None`` is handed to :meth:`run_job` as a third
        positional argument for every job of the level.
        """
        return nullcontext()

    def close(self) -> None:
        """Release any resources (worker pools); safe to call repeatedly."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def make_backend(
    backend: Union[str, ExecutionBackend, None] = None,
    engine: Optional["MapReduceEngine"] = None,
    workers: Optional[int] = None,
    sql_db: Optional[str] = None,
    shards: Optional[int] = None,
    data_plane: Optional[str] = None,
) -> ExecutionBackend:
    """Build an execution backend from a name (or pass an instance through).

    Args:
        backend: ``"serial"``/``"parallel"``/``"sql"``/``"sharded"`` (or an
            alias), an existing :class:`ExecutionBackend` instance (returned
            unchanged), or ``None`` for the serial default.
        engine: The engine the backend should account against (a
            paper-cluster default is created when omitted).
        workers: Worker-pool size for the parallel backend (ignored by the
            others; defaults to the machine's CPU count).
        sql_db: On-disk scratch-database path for the SQL backend (ignored by
            the others; ``None`` keeps it in ``:memory:``).
        shards: Persistent worker count for the sharded backend (ignored by
            the others; ``None`` uses its default of 2).
        data_plane: How chunk payloads cross process boundaries on the
            parallel and sharded backends (``"shm"``/``"pickle"``/``"auto"``,
            see :mod:`repro.exec.shm`; ignored by serial and SQL; ``None``
            keeps the ``"auto"`` default).

    Returns:
        A ready-to-use :class:`ExecutionBackend`.

    Raises:
        ValueError: If *backend* is an unknown name, or an instance was
            passed together with a conflicting ``engine``, ``workers``,
            ``sql_db``, ``shards`` or ``data_plane``.
    """
    if isinstance(backend, ExecutionBackend):
        if engine is not None and engine is not backend.engine:
            raise ValueError(
                "an ExecutionBackend instance carries its own engine; "
                "pass engine= only when selecting a backend by name"
            )
        if workers is not None and workers != getattr(backend, "workers", workers):
            raise ValueError(
                "an ExecutionBackend instance carries its own worker count; "
                "pass workers= only when selecting a backend by name"
            )
        if sql_db is not None and sql_db != getattr(backend, "sql_db", sql_db):
            raise ValueError(
                "an ExecutionBackend instance carries its own database path; "
                "pass sql_db= only when selecting a backend by name"
            )
        if shards is not None and shards != getattr(backend, "shards", shards):
            raise ValueError(
                "an ExecutionBackend instance carries its own shard count; "
                "pass shards= only when selecting a backend by name"
            )
        if data_plane is not None:
            from .shm import normalise_data_plane

            plane = normalise_data_plane(data_plane)
            if plane != getattr(backend, "data_plane", plane):
                raise ValueError(
                    "an ExecutionBackend instance carries its own data plane; "
                    "pass data_plane= only when selecting a backend by name"
                )
        return backend
    name = normalise_backend(backend or SERIAL)
    if name == SERIAL:
        from .simulated import SimulatedBackend

        return SimulatedBackend(engine)
    if name == SQL:
        from .sql import SQLBackend

        return SQLBackend(engine, sql_db=sql_db)
    if name == SHARDED:
        from ..service.sharded.backend import ShardedBackend

        return ShardedBackend(engine, shards=shards, data_plane=data_plane)
    from .parallel import ParallelBackend

    return ParallelBackend(engine, workers=workers, data_plane=data_plane)
