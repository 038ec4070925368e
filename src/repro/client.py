"""The client API: ``repro.connect()`` → :class:`Connection`.

:func:`connect` is the one front door: it accepts anything that can
describe a database (a :class:`~repro.model.database.Database`, a plain
name→rows mapping, or a CSV directory path), selects any execution backend
(``serial``/``parallel``/``sharded``) by name, and returns a
:class:`Connection` whose every query comes back as the service's one
:class:`~repro.service.service.Result` type::

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
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from .core.options import GumboOptions
from .core.strategies import AUTO
from .model.database import Database
from .service.service import QueryService, Result

#: Anything :func:`connect` accepts as the database: a built Database, a
#: name→rows mapping, or a directory path of CSV/TSV files.
DatabaseLike = Union[Database, Mapping[str, Sequence[tuple]], str]


class Connection:
    """A connection to one database on one execution backend.

    Built by :func:`connect`; a veneer over the plan-caching
    :class:`~repro.service.service.QueryService` (available as
    :attr:`service` for anything the facade does not surface).
    """

    def __init__(self, service: QueryService) -> None:
        self.service = service
        self._closed = False

    # -- serving -----------------------------------------------------------------

    def execute(self, query, strategy: Optional[str] = None) -> Result:
        """Evaluate *query* (text or a parsed query) and return its Result."""
        return self.service.execute(query, strategy)

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
        return batch.results

    def materialize(self, query, strategy: Optional[str] = None) -> Result:
        """Evaluate *query* and keep its result maintained incrementally:
        subsequent :meth:`execute` calls serve it without re-running, and
        :meth:`refresh` updates it in place."""
        return self.service.materialize(query, strategy)

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
    def options(self) -> GumboOptions:
        """The options this connection's planner runs with."""
        return self.service.gumbo.options

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
    strategy: Optional[str] = None,
    plan_cache_size: int = 256,
    max_workers: int = 4,
    options: Optional[GumboOptions] = None,
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
        accepted alias.  Overrides ``options.backend``.
    workers / shards:
        The worker-process count under either spelling, as in
        :class:`~repro.core.options.GumboOptions` (mutually exclusive with
        *options*, which carries its own).
    strategy:
        Default plan strategy for queries that do not name one; when
        omitted, ``options.default_strategy`` if *options* is given, else
        ``"auto"`` (cost-based selection).
    plan_cache_size:
        Plans cached by the underlying service (0 disables caching).
    max_workers:
        Thread-pool size for concurrent :meth:`Connection.execute_many`.
    options:
        Full :class:`~repro.core.options.GumboOptions` override.

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
    if options is None:
        options = GumboOptions(workers=workers, shards=shards, default_strategy=AUTO)
    elif workers is not None or shards is not None:
        raise ValueError("pass either options= or workers=/shards=, not both")
    if backend is not None or strategy is not None:
        options = replace(
            options,
            backend=backend or options.backend,
            default_strategy=strategy or options.default_strategy,
        )
    service = QueryService(
        database,
        strategy=options.default_strategy,
        plan_cache_size=plan_cache_size,
        max_workers=max_workers,
        options=options,
    )
    return Connection(service)
