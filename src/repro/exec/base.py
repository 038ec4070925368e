"""The execution-backend seam: one planner, interchangeable runtimes.

The planning layers (strategies, Gumbo, the dynamic executor) produce
:class:`~repro.mapreduce.program.MRProgram` DAGs; *how* those programs are
executed is an independent choice captured by :class:`ExecutionBackend`:

* :class:`~repro.exec.simulated.SimulatedBackend` (``"serial"``) runs every
  task in-process on the serial :class:`~repro.mapreduce.engine.MapReduceEngine`
  — the seed behaviour, and the reference semantics;
* :class:`~repro.service.sharded.backend.ShardedBackend` (``"parallel"`` and
  ``"sharded"`` — two names, one class) runs a kernel job's ``map_batch``
  tasks on long-lived worker processes that each hold a hash-placed share
  of the database's map chunks warm across requests; jobs without a batch
  kernel run through the serial engine on the driver.

Every backend returns the engine's :class:`~repro.mapreduce.engine.JobResult`
/ :class:`~repro.mapreduce.engine.ProgramResult` types with identical output
relations and identical *simulated* Hadoop metrics; backends additionally
stamp real wall-clock measurements (see
:class:`~repro.mapreduce.counters.WallClockMetrics`) so simulated-vs-real
speedup curves can be drawn.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..mapreduce.engine import JobResult, MapReduceEngine, ProgramResult
    from ..mapreduce.job import MapReduceJob
    from ..mapreduce.program import MRProgram
    from ..model.database import Database

#: Canonical backend names accepted by :func:`make_backend` and the CLI.
SERIAL = "serial"
PARALLEL = "parallel"
SHARDED = "sharded"
BACKEND_NAMES = (SERIAL, PARALLEL, SHARDED)

#: Accepted aliases for backend names.
_ALIASES = {
    "simulated": SERIAL,
    "sim": SERIAL,
    "single": SERIAL,
    "multiprocessing": PARALLEL,
    "mp": PARALLEL,
    "shard": SHARDED,
    "shards": SHARDED,
}


def normalise_backend(name: str) -> str:
    """Canonical form of a backend name.

    Args:
        name: A canonical name (``"serial"``, ``"parallel"``, ``"sharded"``)
            or an accepted alias (``"sim"``, ``"mp"``, ``"shards"``, ...),
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
            backend=self.name,
            **self.prepare(database),
        )
        result.metrics.backend = self.name
        result.metrics.wall_elapsed_s = perf_counter() - start
        return result

    def prepare(self, database: "Database") -> Dict[str, object]:
        """Hook: per-program set-up; returns extra ``program``-span attributes."""
        return {}

    def close(self) -> None:
        """Release any resources (worker processes); safe to call repeatedly."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def check_width(name: str, value: int) -> int:
    """*value* as a worker-process count: ``ValueError`` below 1."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _one_width(workers: Optional[int], shards: Optional[int]) -> Optional[int]:
    """The process count ``workers=`` / ``shards=`` spell (``None``: neither)."""
    if workers is not None:
        check_width("workers", workers)
    if shards is not None:
        check_width("shards", shards)
    if workers is not None and shards is not None and workers != shards:
        raise ValueError(
            f"workers={workers} and shards={shards} are two spellings of one "
            "process count; pass one of them, or the same value for both"
        )
    return workers if workers is not None else shards


def make_backend(
    backend: Union[str, ExecutionBackend, None] = None,
    engine: Optional["MapReduceEngine"] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
) -> ExecutionBackend:
    """Build an execution backend from a name (or pass an instance through).

    Args:
        backend: ``"serial"``/``"parallel"``/``"sharded"`` (or an
            alias), an existing :class:`ExecutionBackend` instance (returned
            unchanged), or ``None`` for the serial default.  ``"parallel"``
            and ``"sharded"`` build the same class; the name asked for is
            kept as the instance's :attr:`~ExecutionBackend.name`.
        engine: The engine the backend should account against (a
            paper-cluster default is created when omitted).
        workers: Worker-process count of the multi-process backend (ignored
            by the others).  ``None`` with ``shards`` also ``None`` gives
            ``"parallel"`` the machine's CPU count and ``"sharded"`` 2.
        shards: Another spelling of *workers*; giving both with different
            values is an error.

    Returns:
        A ready-to-use :class:`ExecutionBackend`.

    Raises:
        ValueError: If *backend* is an unknown name, ``workers`` or
            ``shards`` is below 1 (whatever the backend), the two disagree,
            or an instance was passed together with a conflicting
            ``engine`` or ``workers``/``shards``.
    """
    width = _one_width(workers, shards)
    if isinstance(backend, ExecutionBackend):
        if engine is not None and engine is not backend.engine:
            raise ValueError(
                "an ExecutionBackend instance carries its own engine; "
                "pass engine= only when selecting a backend by name"
            )
        if width is not None and width != getattr(backend, "shards", width):
            raise ValueError(
                "an ExecutionBackend instance carries its own process count; "
                "pass workers=/shards= only when selecting a backend by name"
            )
        return backend
    name = normalise_backend(backend or SERIAL)
    if name == SERIAL:
        from .simulated import SimulatedBackend

        return SimulatedBackend(engine)
    from ..service.sharded.backend import ShardedBackend

    if width is None and name == PARALLEL:
        width = os.cpu_count() or 1
    process_backend = ShardedBackend(engine, shards=width)
    process_backend.name = name
    return process_backend
