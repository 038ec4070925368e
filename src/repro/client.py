"""The unified client API: ``repro.connect()`` → :class:`Connection`.

Historically each layer had its own entry point with its own result type:
:class:`~repro.core.gumbo.Gumbo` returned ``GumboResult``, the query service
returned ``ServiceResult``, incremental refreshes returned ``DeltaResult``.
:func:`connect` is the one front door now — it accepts anything that can
describe a database (a :class:`~repro.model.database.Database`, a plain
name→rows mapping, or a CSV directory path), selects any execution backend
(``serial``/``parallel``/``sharded``) by name, and returns a
:class:`Connection` whose every query comes back as the single
:class:`Result` type::

    import repro

    with repro.connect({"R": [(1, 2)], "S": [(1,)]}) as conn:
        result = conn.execute("Z := SELECT (x, y) FROM R(x, y) WHERE S(x);")
        result.tuples()            # {(1, 2)}
        result.strategy            # "greedy"

    # The sharded persistent tier, same API:
    with repro.connect(db, backend="sharded", shards=4) as conn:
        conn.execute(query)

Under the hood a :class:`Connection` is a thin veneer over the plan-caching
:class:`~repro.service.service.QueryService`, so repeated queries hit the
plan cache, materializations are maintained incrementally by
:meth:`Connection.refresh`, and failures are counted in the service stats.
The older entry points (``Gumbo``, ``QueryService``) keep working unchanged
— see their docstrings — but new code should start here.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from .core.config import ExecutionConfig
from .core.options import GumboOptions
from .core.strategies import AUTO
from .mapreduce.counters import ProgramMetrics
from .model.database import Database
from .model.relation import Relation
from .service.service import QueryService, ServiceResult

#: Anything :func:`connect` accepts as the database: a built Database, a
#: name→rows mapping, or a directory path of CSV/TSV files.
DatabaseLike = Union[Database, Mapping[str, Sequence[tuple]], str]


class Result:
    """The one result type of the client API.

    Wraps a served query uniformly, whatever backend or cache path produced
    it: output relations, the strategy that ran, the simulated metrics, and
    the serving-layer facts (plan-cache hit, timings, fingerprint).
    """

    def __init__(self, served: ServiceResult) -> None:
        self._served = served

    # -- outputs -----------------------------------------------------------------

    @property
    def outputs(self) -> Dict[str, Relation]:
        """All output relations, keyed by name."""
        return self._served.outputs

    def output(self, name: Optional[str] = None) -> Relation:
        """One output relation (the single output when *name* is omitted)."""
        outputs = self.outputs
        if name is None:
            if len(outputs) != 1:
                raise ValueError(
                    f"query has {len(outputs)} outputs "
                    f"({', '.join(sorted(outputs))}); pass a name"
                )
            return next(iter(outputs.values()))
        return outputs[name]

    def tuples(self, name: Optional[str] = None) -> frozenset:
        """The tuples of one output relation, as a frozenset."""
        return frozenset(self.output(name).tuples())

    # -- provenance --------------------------------------------------------------

    @property
    def strategy(self) -> str:
        """The strategy that actually ran (AUTO resolves to its winner)."""
        return self._served.strategy

    @property
    def backend(self) -> str:
        """The execution backend that produced the result."""
        return self._served.metrics.backend

    @property
    def metrics(self) -> ProgramMetrics:
        """The simulated MapReduce metrics of the execution."""
        return self._served.metrics

    @property
    def fingerprint(self) -> str:
        """The (query, schema, database-version) fingerprint served."""
        return self._served.fingerprint

    @property
    def plan_cached(self) -> bool:
        """True when planning was skipped (plan cache or materialization)."""
        return self._served.plan_cached

    @property
    def plan_s(self) -> float:
        """Planning wall time (0.0 on a cache hit)."""
        return self._served.plan_s

    @property
    def exec_s(self) -> float:
        """Execution wall time."""
        return self._served.exec_s

    @property
    def service_result(self) -> ServiceResult:
        """The underlying service-layer result (escape hatch)."""
        return self._served

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{name}={len(relation)}" for name, relation in sorted(self.outputs.items())
        )
        return (
            f"Result(strategy={self.strategy!r}, backend={self.backend!r}, "
            f"plan_cached={self.plan_cached}, outputs[{sizes}])"
        )


class Connection:
    """A connection to one database on one execution backend.

    Built by :func:`connect`; a veneer over the plan-caching
    :class:`~repro.service.service.QueryService` (available as
    :attr:`service` for anything the facade does not surface).
    """

    def __init__(self, service: QueryService, config: ExecutionConfig) -> None:
        self.service = service
        self.config = config
        self._closed = False

    # -- serving -----------------------------------------------------------------

    def execute(self, query, strategy: Optional[str] = None) -> Result:
        """Evaluate *query* (text or a parsed query) and return its Result."""
        return Result(self.service.execute(query, strategy))

    def execute_many(
        self, queries: Iterable[object], strategy: Optional[str] = None
    ) -> Tuple[Result, ...]:
        """Evaluate a batch concurrently; failures raise after the batch
        completes (see :meth:`QueryService.execute_many
        <repro.service.service.QueryService.execute_many>` for the
        failure-collecting form)."""
        batch = self.service.execute_many(queries, strategy)
        if batch.failures:
            raise batch.failures[0].exception
        return tuple(Result(served) for served in batch.results)

    def materialize(self, query, strategy: Optional[str] = None) -> Result:
        """Evaluate *query* and keep its result maintained incrementally:
        subsequent :meth:`execute` calls serve it without re-running, and
        :meth:`refresh` updates it in place."""
        return Result(self.service.materialize(query, strategy))

    def refresh(
        self, relation: str, rows: Iterable[Sequence[object]]
    ) -> int:
        """Insert *rows* into *relation* and incrementally refresh every
        materialized result (no plan/statistics invalidation).

        Returns the number of materializations refreshed.
        """
        deltas = self.service.add_tuples(relation, rows, incremental=True)
        return len(deltas or ())

    # -- introspection -----------------------------------------------------------

    @property
    def database(self) -> Database:
        """The database served by this connection."""
        return self.service.database

    @property
    def backend(self) -> str:
        """Canonical name of the execution backend."""
        return self.service.gumbo.backend.name

    def stats(self):
        """The service's serving-layer counters (ServiceStats)."""
        return self.service.stats()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the backend (its worker processes); idempotent."""
        if not self._closed:
            self._closed = True
            self.service.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"Connection(backend={self.backend!r}, "
            f"relations={len(list(self.database))}, {state})"
        )


def connect(
    database: DatabaseLike,
    *,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    data_plane: Optional[str] = None,
    strategy: str = AUTO,
    plan_cache_size: int = 256,
    max_workers: int = 4,
    options: Optional[GumboOptions] = None,
    config: Optional[ExecutionConfig] = None,
) -> Connection:
    """Open a :class:`Connection` to *database* on the chosen backend.

    Parameters
    ----------
    database:
        A :class:`~repro.model.database.Database`, a name→rows mapping
        (built with ``Database.from_dict``), or a directory path of CSV/TSV
        files (loaded with :func:`repro.io.load_database`).
    backend:
        ``"serial"`` (default), ``"parallel"`` or ``"sharded"`` — or any
        accepted alias.
    workers / shards / data_plane:
        The backend knobs (worker-process count under either spelling,
        shared-memory vs pickle chunk shipping), as in
        :class:`~repro.core.config.ExecutionConfig`.
    strategy:
        Default plan strategy for queries that do not name one
        (default ``"auto"``: cost-based selection).
    plan_cache_size:
        Plans cached by the underlying service (0 disables caching).
    max_workers:
        Thread-pool size for concurrent :meth:`Connection.execute_many`.
    options:
        Full :class:`~repro.core.options.GumboOptions` override (mutually
        exclusive with the individual backend knobs above).
    config:
        Full :class:`~repro.core.config.ExecutionConfig` override (mutually
        exclusive with both *options* and the individual knobs).

    Returns
    -------
    Connection
        Use as a context manager so worker processes are released
        deterministically.
    """
    if isinstance(database, str):
        from .io import load_database

        database = load_database(database)
    elif not isinstance(database, Database):
        database = Database.from_dict(database)
    if config is not None:
        if (
            options is not None
            or backend is not None
            or workers
            or shards
            or data_plane
        ):
            raise ValueError(
                "pass either config= or the individual "
                "backend/workers/shards/data_plane/options knobs, not both"
            )
    elif options is not None:
        if workers or shards or data_plane:
            raise ValueError(
                "pass either options= or the individual "
                "workers/shards/data_plane knobs, not both"
            )
        config = ExecutionConfig(
            backend=backend or options.backend,
            workers=options.workers,
            shards=options.shards,
            data_plane=options.data_plane,
            kernel_mode=options.kernel_mode,
            strategy=strategy,
            message_packing=options.message_packing,
            tuple_reference=options.tuple_reference,
            reducers_by_intermediate=options.reducers_by_intermediate,
            fuse_one_round=options.fuse_one_round,
            trace=options.trace,
        )
    else:
        config = ExecutionConfig(
            backend=backend or "serial",
            workers=workers,
            shards=shards,
            data_plane=data_plane or "auto",
            strategy=strategy,
        )
    service = QueryService(
        database,
        strategy=strategy,
        plan_cache_size=plan_cache_size,
        max_workers=max_workers,
        config=config,
    )
    return Connection(service, config)
