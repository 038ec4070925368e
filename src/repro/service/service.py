"""The query service: plan-caching, statistics-caching, concurrent serving.

:class:`QueryService` is the serving layer on top of the
:class:`~repro.core.gumbo.Gumbo` planner/executor.  Where ``Gumbo.execute``
re-collects statistics and re-plans on every call, the service makes repeated
and high-volume workloads cheap:

* **plan cache** — an LRU mapping query fingerprints (canonical query text +
  database schema, see :mod:`repro.service.fingerprint`) to planned programs,
  so a repeated query skips statistics collection, strategy selection and
  plan construction entirely;
* **statistics cache** — one :class:`~repro.core.costing.PlanCostEstimator`
  (and its :class:`~repro.cost.estimates.StatisticsCatalog`) is shared by
  every planning miss until the database changes;
* **explicit invalidation** — :meth:`invalidate` (or any mutation routed
  through :meth:`mutate` / :meth:`add_tuples` / :meth:`replace_database`)
  bumps the database version and drops both caches, so stale plans are never
  served;
* **concurrent execution** — queries submitted through :meth:`submit` /
  :meth:`submit_many` run on a thread pool against the shared execution
  backend (the serial simulated backend is pure and runs concurrently;
  other backends are serialised with a lock), with per-query metrics;
* **admission and deadlines** — submissions past ``max_workers +
  max_queue`` in flight are shed; a request past ``request_timeout_s``
  stops before its next job.

The default strategy is ``AUTO`` — cost-based selection over every applicable
strategy — because a serving layer should not require callers to name one.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from threading import Lock, RLock
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.costing import PlanCostEstimator
from ..core.gumbo import Gumbo, GumboResult, PlannedQuery, QueryLike
from ..core.options import GumboOptions
from ..core.strategies import AUTO, normalise_strategy
from ..exec.base import ExecutionBackend, SERIAL, check_width
from ..incremental.engine import DeltaResult, materialize_query, refresh_all
from ..incremental.materialize import IncrementalError, Materialization
from ..model.relation import SchemaError
from ..mapreduce.counters import ProgramMetrics
from ..model.database import Database
from ..model.relation import Relation
from .. import obs
from ..obs.metrics import Histogram, MetricsRegistry
from ..query.sgf import SGFQuery
from .cache import CacheStats, LRUCache
from .fingerprint import query_fingerprint

#: Plan-cache key: (query fingerprint, normalised requested strategy).
PlanKey = Tuple[str, str]


class ServiceError(RuntimeError):
    """Base class of the typed serving errors: a shed or a timed-out request."""


class ServiceOverloadedError(ServiceError):
    """The request was shed: every worker is busy and the queue is full."""

    def __init__(self, in_flight: int, limit: int) -> None:
        super().__init__(
            f"service overloaded: {in_flight} requests in flight "
            f"(admission limit {limit}); request shed"
        )
        self.in_flight = in_flight
        self.limit = limit


class RequestTimeoutError(ServiceError):
    """A request ran past its deadline; it stopped before its next job."""

    def __init__(self, timeout_s: float) -> None:
        super().__init__(f"request exceeded the {timeout_s:g}s timeout")
        self.timeout_s = timeout_s


class Deadline:
    """A request's wall-time budget, from the moment it starts executing;
    the engine's level loop calls :meth:`check` before every job."""

    __slots__ = ("timeout_s", "at")

    def __init__(self, timeout_s: float) -> None:
        self.timeout_s = timeout_s
        self.at = perf_counter() + timeout_s

    def check(self) -> None:
        """Raise :class:`RequestTimeoutError` once the deadline has passed."""
        if perf_counter() >= self.at:
            raise RequestTimeoutError(self.timeout_s)


@dataclass(frozen=True, repr=False)
class Result:
    """One served query: the one result type of :func:`repro.connect`, the
    :class:`QueryService` and the sharded front-end.

    It carries the output relations, the strategy that ran, the simulated
    metrics and the serving-layer facts (plan-cache hit, timings,
    fingerprint), whatever backend or cache path produced it.
    """

    #: The execution itself (every output, the program, AUTO's choice).
    result: GumboResult
    fingerprint: str
    requested_strategy: str
    plan_cached: bool
    plan_s: float
    exec_s: float

    @property
    def strategy(self) -> str:
        """The strategy that actually ran (AUTO resolves to its winner)."""
        return self.result.strategy

    @property
    def backend(self) -> str:
        """The execution backend that produced the result."""
        return self.result.metrics.backend

    @property
    def query(self) -> SGFQuery:
        """The query served (parsed form)."""
        return self.result.query

    @property
    def outputs(self) -> Dict[str, Relation]:
        """The query's root output relations, keyed by name."""
        return self.result.outputs

    @property
    def metrics(self) -> ProgramMetrics:
        """The simulated MapReduce metrics of the execution."""
        return self.result.metrics

    @property
    def total_s(self) -> float:
        """Total serving time: planning plus execution."""
        return self.plan_s + self.exec_s

    def output(self, name: Optional[str] = None) -> Relation:
        """The output relation called *name* (any output of the query), or
        with no name the single root output (``ValueError`` when the query
        has several roots)."""
        if name is not None:
            return self.result.all_outputs[name]
        if len(self.outputs) != 1:
            raise ValueError(
                f"query has {len(self.outputs)} outputs "
                f"({', '.join(sorted(self.outputs))}); pass a name"
            )
        return next(iter(self.outputs.values()))

    def tuples(self, name: Optional[str] = None) -> frozenset:
        """The tuples of one output relation (as :meth:`output` picks it)."""
        return frozenset(self.output(name).tuples())

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{name}={len(relation)}" for name, relation in sorted(self.outputs.items())
        )
        return (
            f"Result(strategy={self.strategy!r}, backend={self.backend!r}, "
            f"plan_cached={self.plan_cached}, outputs[{sizes}])"
        )


@dataclass(frozen=True)
class BatchFailure:
    """One failed query of a batch: its submission position and the error."""

    #: Position of the failed query in the submitted batch.
    index: int
    #: ``TypeName: message`` of the raised exception.
    error: str
    #: The exception itself, for callers that need to re-raise or inspect.
    exception: BaseException = field(repr=False, compare=False, default=None)


@dataclass(frozen=True)
class BatchResult:
    """Outcome of a batched submission, with aggregate serving metrics.

    ``results`` holds the successful queries in submission order;
    ``failures`` holds the failed ones (with their batch positions) — a
    failing query no longer aborts the rest of the batch.
    """

    results: Tuple[Result, ...]
    elapsed_s: float
    failures: Tuple[BatchFailure, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every query of the batch succeeded."""
        return not self.failures

    @property
    def throughput_qps(self) -> float:
        """Queries served per wall-clock second."""
        return len(self.results) / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def plan_cache_hits(self) -> int:
        """How many of the batch's queries skipped planning entirely."""
        return sum(1 for r in self.results if r.plan_cached)

    def summary(self) -> Dict[str, float]:
        """Aggregate batch metrics as a JSON-ready mapping."""
        return {
            "queries": len(self.results),
            "failures": len(self.failures),
            "elapsed_s": self.elapsed_s,
            "throughput_qps": self.throughput_qps,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_s_total": sum(r.plan_s for r in self.results),
            "exec_s_total": sum(r.exec_s for r in self.results),
        }


@dataclass
class QueryMetricsHistory:
    """Cumulative serving metrics of one query fingerprint.

    The history is *never* dropped: cache invalidations (mutations, database
    swaps) clear plans and statistics, not the record of what was served.
    """

    fingerprint: str
    queries: int = 0
    plan_cache_hits: int = 0
    materialized_hits: int = 0
    failures: int = 0
    plan_s_total: float = 0.0
    exec_s_total: float = 0.0
    #: Distribution of execution times (p50/p95/p99 via ``summary()``).
    exec_seconds: Histogram = field(
        default_factory=lambda: Histogram("repro_query_exec_seconds")
    )

    def record(self, result: "Result", materialized: bool = False) -> None:
        """Fold one served result into the cumulative counters."""
        self.queries += 1
        self.plan_cache_hits += 1 if result.plan_cached else 0
        self.materialized_hits += 1 if materialized else 0
        self.plan_s_total += result.plan_s
        self.exec_s_total += result.exec_s
        self.exec_seconds.observe(result.exec_s)

    def copy(self) -> "QueryMetricsHistory":
        """An independent copy (the histogram is mutable, so snapshot it)."""
        return replace(self, exec_seconds=self.exec_seconds.snapshot())

    def as_dict(self) -> Dict[str, object]:
        """The counters (with exec-time percentiles) as a JSON-ready mapping."""
        record = {**vars(self), "exec_seconds": self.exec_seconds.summary()}
        del record["fingerprint"]
        return record


@dataclass(frozen=True)
class ServiceStats:
    """A snapshot of the service's serving-layer counters."""

    queries_served: int
    plan_cache: CacheStats
    plan_cache_size: int
    database_version: int
    statistics_rebuilds: int
    materialized_results: int = 0
    materialized_hits: int = 0
    incremental_refreshes: int = 0
    metrics_histories: int = 0
    queries_failed: int = 0

    def as_dict(self) -> Dict[str, object]:
        """The snapshot as a JSON-ready mapping."""
        return {**vars(self), "plan_cache": self.plan_cache.as_dict()}


class QueryService:
    """Serve (B)SGF queries over one database with plan and statistics caching.

    :func:`repro.connect` wraps this service in a ``Connection`` that
    returns its :class:`Result` unchanged; build a ``QueryService``
    directly to share one :class:`~repro.core.gumbo.Gumbo` or to reach the
    serving layer itself.

    Parameters
    ----------
    database:
        The database served.  The service assumes it is only mutated through
        the service's own mutation helpers (or that :meth:`invalidate` is
        called after any out-of-band change).
    gumbo:
        The planner/executor to serve with; a fresh one (with *backend* /
        *options*) is created — and owned, i.e. closed with the service —
        when omitted.
    strategy:
        Default strategy for calls that do not name one (default ``AUTO``).
    plan_cache_size:
        Maximum cached plans (0 disables plan caching).
    max_workers:
        Thread-pool size for concurrent submissions (``ValueError`` below
        1).
    max_queue:
        Submitted requests allowed to wait beyond the executing ones; past
        ``max_workers + max_queue`` in flight a submission is shed with
        :class:`ServiceOverloadedError`.  ``None`` (default): unbounded.
    request_timeout_s:
        Wall-time budget of each :meth:`execute` from its start (queue wait
        excluded); past it the request stops before its next job with
        :class:`RequestTimeoutError`.  ``None`` (default): no deadline.
    backend:
        A backend name or :class:`~repro.exec.base.ExecutionBackend`
        instance for the fresh Gumbo (overrides ``options.backend``).
    options:
        The fresh Gumbo's :class:`~repro.core.options.GumboOptions`
        (backend, worker count, optimisation switches, tracing).
    """

    def __init__(
        self,
        database: Database,
        gumbo: Optional[Gumbo] = None,
        *,
        strategy: str = AUTO,
        plan_cache_size: int = 256,
        max_workers: int = 4,
        max_queue: Optional[int] = None,
        request_timeout_s: Optional[float] = None,
        backend: Union[str, ExecutionBackend, None] = None,
        options: Optional[GumboOptions] = None,
    ) -> None:
        check_width("max_workers", max_workers)
        if max_queue is not None and max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be > 0, got {request_timeout_s}"
            )
        self._owns_gumbo = gumbo is None
        if gumbo is None:
            gumbo = Gumbo(options=options, backend=backend)
        self.gumbo = gumbo
        self.database = database
        self.default_strategy = strategy
        self.plan_cache: LRUCache[PlanKey, PlannedQuery] = LRUCache(plan_cache_size)
        self.max_workers = max_workers
        self.max_queue = max_queue
        self.request_timeout_s = request_timeout_s
        #: Submitted requests allowed in flight at once (None: unbounded).
        self.admission_limit = None if max_queue is None else max_workers + max_queue
        #: Submitted requests queued or executing.
        self._in_flight = 0
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-service"
        )
        self._plan_lock = RLock()
        self._state_lock = Lock()
        # The serial backend is pure (every run works on a copy of the
        # database), so it is safe to run concurrently; other backends are
        # serialised — the worker shards are one shared channel.
        self._exec_lock: Optional[Lock] = (
            None if gumbo.backend.name == SERIAL else Lock()
        )
        self._version = 0
        self._queries_served = 0
        self._statistics_rebuilds = 0
        self._estimator: Optional[PlanCostEstimator] = None
        #: Materialized results maintained incrementally, keyed like plans.
        self._materialized: Dict[PlanKey, Materialization] = {}
        self._materialized_hits = 0
        self._incremental_refreshes = 0
        #: Bumped by every incremental batch; materialize() uses it (together
        #: with the invalidation version) to detect a mutation that landed
        #: while it executed outside the locks, and retries on fresh state.
        self._incremental_epoch = 0
        #: Per-fingerprint cumulative serving metrics; survives invalidation.
        self._history: Dict[str, QueryMetricsHistory] = {}
        self._queries_failed = 0
        #: Per-service instrument registry (two services never mix counters);
        #: exporters combine it with the process-global default registry.
        self.metrics = MetricsRegistry()
        self._m_requests = self.metrics.counter("repro_service_requests_total")
        self._m_failures = self.metrics.counter("repro_service_failures_total")
        self._m_shed = self.metrics.counter("repro_service_shed_total")
        self._m_timeouts = self.metrics.counter("repro_service_timeouts_total")
        self._m_in_flight = self.metrics.gauge("repro_service_in_flight")
        self._m_plan_hits = self.metrics.counter(
            "repro_service_plan_cache_total", outcome="hit"
        )
        self._m_plan_misses = self.metrics.counter(
            "repro_service_plan_cache_total", outcome="miss"
        )
        self._m_request_seconds = self.metrics.histogram(
            "repro_service_request_seconds"
        )
        self._m_refresh_seconds = self.metrics.histogram(
            "repro_service_refresh_seconds"
        )

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut the thread pool down and release an owned Gumbo's backend."""
        self._pool.shutdown(wait=True)
        if self._owns_gumbo:
            self.gumbo.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # -- fingerprints and cached statistics --------------------------------------

    def fingerprint(self, query: QueryLike) -> str:
        """The plan-cache fingerprint of *query* over the current database."""
        return query_fingerprint(Gumbo.as_sgf(query), self.database)

    def estimator(self) -> PlanCostEstimator:
        """The cached cost estimator (statistics catalog) for this version."""
        with self._plan_lock:
            if self._estimator is None:
                self._estimator = self.gumbo.estimator(self.database)
                self._statistics_rebuilds += 1
            return self._estimator

    # -- planning ----------------------------------------------------------------

    def _normalise_strategy(self, strategy: Optional[str]) -> str:
        name = strategy if strategy is not None else self.default_strategy
        return normalise_strategy(name)

    def plan(
        self, query: QueryLike, strategy: Optional[str] = None
    ) -> Tuple[PlannedQuery, bool]:
        """The (possibly cached) plan for *query*: ``(planned, was_cached)``."""
        planned, was_cached, _ = self._plan(query, strategy, self.database)
        return planned, was_cached

    def _plan(
        self,
        query: QueryLike,
        strategy: Optional[str],
        database: Database,
        fingerprint: Optional[str] = None,
    ) -> Tuple[PlannedQuery, bool, str]:
        """Plan *query* against *database*: ``(planned, was_cached, fingerprint)``.

        On a miss the query is planned with the cached statistics catalog —
        through a scratch copy, so the intermediate-size estimates one query
        registers while planning (whose names may collide with another
        query's outputs) never pollute the shared catalog — and the result is
        stored under ``(fingerprint, requested strategy)``.  The *requested*
        name keys the cache, so ``"auto"`` and an explicit ``"greedy"`` do
        not collide even when AUTO happens to choose greedy.
        """
        requested = self._normalise_strategy(strategy)
        sgf = Gumbo.as_sgf(query)
        if fingerprint is None:
            fingerprint = query_fingerprint(sgf, database)
        key = (fingerprint, requested)
        # One lookup per call, under the planning lock: hit/miss counters
        # stay exact and concurrent misses for the same query plan only
        # once.  Execution (the expensive part) is never serialised here.
        with self._plan_lock:
            cached = self.plan_cache.get(key)
            if cached is not None:
                return cached, True, fingerprint
            planned = self.gumbo.plan_with(
                sgf,
                database,
                requested,
                estimator=self.estimator().scratch_copy(),
            )
            # Only cache when the served database is still the one this plan
            # was built for (invalidate() also takes the planning lock, so a
            # swap can only have happened before we acquired it).
            if database is self.database:
                self.plan_cache.put(key, planned)
        return planned, False, fingerprint

    # -- execution ---------------------------------------------------------------

    def execute(
        self, query: QueryLike, strategy: Optional[str] = None
    ) -> Result:
        """Serve one query synchronously (plan from cache when possible).

        The database reference is snapshotted once per request, so a
        concurrent :meth:`replace_database` never splits one request between
        two databases: the plan, the execution and the reported fingerprint
        all refer to the same snapshot.  (In-place mutation of the *current*
        database while queries are in flight remains the caller's
        responsibility — route changes through :meth:`mutate`.)

        Parameters
        ----------
        query:
            The query served: an :class:`~repro.query.sgf.SGFQuery`, a
            :class:`~repro.query.bsgf.BSGFQuery`, or concrete query text.
        strategy:
            Strategy name; ``None`` uses the service default (``AUTO``).

        Returns
        -------
        Result
            The execution result plus serving-layer metrics (plan-cache hit,
            plan and execution wall times).

        Raises
        ------
        RequestTimeoutError
            When ``request_timeout_s`` is set and the request is still
            running at its deadline (checked before every job).
        Exception
            Planning and execution errors propagate unchanged; the failure is
            counted against the service and the query's fingerprint first.
        """
        return self._execute(query, strategy)

    def _execute(
        self,
        query: QueryLike,
        strategy: Optional[str],
        queued_s: Optional[float] = None,
    ) -> Result:
        """:meth:`execute`; *queued_s* is the admission-queue wait, if any."""
        self._m_requests.inc()
        request_start = perf_counter()
        timeout = self.request_timeout_s
        deadline = None if timeout is None else Deadline(timeout)
        database = self.database
        # Unparseable/ill-typed queries fail before a fingerprint exists;
        # they are counted under a sentinel so no failure is lost.
        fingerprint = "<unparseable>"
        with obs.trace(
            "service.request", enabled=self.gumbo.options.trace
        ) as request_span:
            if queued_s is not None:
                request_span.set(queued_ms=queued_s * 1e3)
            try:
                requested = self._normalise_strategy(strategy)
                sgf = Gumbo.as_sgf(query)
                fingerprint = query_fingerprint(sgf, database)
                request_span.set(
                    fingerprint=fingerprint, requested_strategy=requested
                )
                materialized = self._serve_materialized(fingerprint, requested)
                if materialized is not None:
                    request_span.set(materialized=True, plan_cached=True)
                    self._m_plan_hits.inc()
                    self._m_request_seconds.observe(perf_counter() - request_start)
                    return materialized
                plan_start = perf_counter()
                planned, was_cached, fingerprint = self._plan(
                    sgf, requested, database, fingerprint
                )
                plan_s = perf_counter() - plan_start
                (self._m_plan_hits if was_cached else self._m_plan_misses).inc()
                request_span.set(
                    plan_cached=was_cached, strategy=planned.strategy
                )
                exec_start = perf_counter()
                result = self._run(planned, database, deadline)
                exec_s = perf_counter() - exec_start
            except Exception as exc:
                if isinstance(exc, RequestTimeoutError):
                    self._m_timeouts.inc()
                self._record_failure(fingerprint)
                raise
        served = Result(
            result=result,
            fingerprint=fingerprint,
            requested_strategy=requested,
            plan_cached=was_cached,
            plan_s=plan_s,
            exec_s=exec_s,
        )
        self._record(served)
        self._m_request_seconds.observe(perf_counter() - request_start)
        return served

    def _history_of(self, fingerprint: str) -> QueryMetricsHistory:
        """The history of *fingerprint*, created on first use (caller holds
        ``_state_lock``)."""
        history = self._history.get(fingerprint)
        if history is None:
            history = self._history[fingerprint] = QueryMetricsHistory(fingerprint)
        return history

    def _record(self, served: Result, materialized: bool = False) -> None:
        with self._state_lock:
            self._queries_served += 1
            if materialized:
                self._materialized_hits += 1
            self._history_of(served.fingerprint).record(served, materialized)

    def _record_failure(self, fingerprint: str) -> None:
        """Count a failed request against the service and its fingerprint."""
        self._m_failures.inc()
        with self._state_lock:
            self._queries_failed += 1
            self._history_of(fingerprint).failures += 1

    def _serve_materialized(
        self, fingerprint: str, requested: str
    ) -> Optional[Result]:
        """Serve a query straight from its maintained materialization.

        The materialized relations are mutated in place by incremental
        refreshes, so the served result carries copies snapshotted under the
        planning lock — callers never observe a half-applied delta.
        """
        start = perf_counter()
        with self._plan_lock:
            materialization = self._materialized.get((fingerprint, requested))
            if materialization is None:
                return None
            snapshot = self._snapshot_result(materialization.result)
        served = Result(
            result=snapshot,
            fingerprint=fingerprint,
            requested_strategy=requested,
            plan_cached=True,
            plan_s=0.0,
            exec_s=perf_counter() - start,
        )
        self._record(served, materialized=True)
        return served

    @staticmethod
    def _snapshot_result(result: GumboResult) -> GumboResult:
        return replace(
            result,
            all_outputs={
                name: relation.copy()
                for name, relation in result.all_outputs.items()
            },
        )

    def materialize(
        self, query: QueryLike, strategy: Optional[str] = None
    ) -> Result:
        """Execute *query* and keep its result maintained under inserts.

        The result is registered under ``(fingerprint, requested strategy)``;
        subsequent :meth:`execute` calls for the same key are served from the
        materialization without re-executing, and
        :meth:`add_tuples(..., incremental=True) <add_tuples>` refreshes it
        with delta evaluation instead of invalidating.  Planning reuses the
        plan cache and the cached statistics catalog.

        Raises
        ------
        IncrementalError
            When concurrent mutations kept landing mid-execution for five
            consecutive attempts, so no quiescent snapshot could be
            registered.
        """
        requested = self._normalise_strategy(strategy)
        sgf = Gumbo.as_sgf(query)
        for _ in range(5):
            database = self.database
            fingerprint = query_fingerprint(sgf, database)
            existing = self._serve_materialized(fingerprint, requested)
            if existing is not None:
                return existing
            with self._state_lock:
                stamp = (self._incremental_epoch, self._version)
            plan_start = perf_counter()
            planned, was_cached, fingerprint = self._plan(
                sgf, requested, database, fingerprint
            )
            plan_s = perf_counter() - plan_start
            exec_start = perf_counter()
            result = self._run(planned, database)
            # Build + register under the planning lock: incremental batches
            # (add_tuples(..., incremental=True)) also hold it, so the state
            # is never built over a half-applied mutation.  A batch or
            # invalidation that landed while the query executed outside the
            # locks is detected by the stamp; the result is then stale, so
            # re-execute on the fresh state instead of registering it.
            with self._plan_lock:
                with self._state_lock:
                    moved = stamp != (self._incremental_epoch, self._version)
                if moved or database is not self.database:
                    continue
                materialization = materialize_query(
                    self.gumbo, sgf, database, requested, result=result
                )
                self._materialized[(fingerprint, requested)] = materialization
                served = Result(
                    result=self._snapshot_result(materialization.result),
                    fingerprint=fingerprint,
                    requested_strategy=requested,
                    plan_cached=was_cached,
                    plan_s=plan_s,
                    exec_s=perf_counter() - exec_start,
                )
            self._record(served)
            return served
        raise IncrementalError(
            "materialize() could not observe a quiescent database in 5 "
            "attempts (concurrent mutations kept landing mid-execution)"
        )

    def _run(
        self,
        planned: PlannedQuery,
        database: Database,
        deadline: Optional[Deadline] = None,
    ) -> GumboResult:
        """Run *planned* on the backend, one program at a time unless serial."""
        if self._exec_lock is not None:
            with obs.span("service.exec_lock"):
                self._exec_lock.acquire()
        try:
            return self.gumbo.execute_program(
                planned.query,
                database,
                planned.program,
                strategy=planned.strategy,
                choice=planned.choice,
                deadline=deadline,
            )
        finally:
            if self._exec_lock is not None:
                self._exec_lock.release()

    @property
    def in_flight(self) -> int:
        """Submitted requests queued or executing right now."""
        return self._in_flight

    def submit(
        self, query: QueryLike, strategy: Optional[str] = None
    ) -> "Future[Result]":
        """Serve one query on the thread pool; returns a future.

        Past the :attr:`admission_limit` the request is shed: the returned
        future has already failed with :class:`ServiceOverloadedError`, and
        the request counts as a failure.
        """
        limit = self.admission_limit
        with self._state_lock:
            in_flight = self._in_flight
            admitted = limit is None or in_flight < limit
            if admitted:
                self._in_flight += 1
                self._m_in_flight.set(self._in_flight)
        if admitted:
            return self._pool.submit(self._admitted, query, strategy, perf_counter())
        self._m_requests.inc()
        self._m_shed.inc()
        self._record_failure("<shed>")
        shed: "Future[Result]" = Future()
        shed.set_exception(ServiceOverloadedError(in_flight, limit))
        return shed

    def _admitted(
        self, query: QueryLike, strategy: Optional[str], submitted: float
    ) -> Result:
        """One admitted request on a pool thread; leaves the in-flight count
        before its future completes."""
        try:
            return self._execute(query, strategy, perf_counter() - submitted)
        finally:
            with self._state_lock:
                self._in_flight -= 1
                self._m_in_flight.set(self._in_flight)

    def submit_many(
        self,
        queries: Iterable[QueryLike],
        strategy: Optional[str] = None,
    ) -> List["Future[Result]"]:
        """Submit a batch of queries; futures preserve submission order."""
        return [self.submit(query, strategy) for query in queries]

    def execute_many(
        self,
        queries: Iterable[QueryLike],
        strategy: Optional[str] = None,
    ) -> BatchResult:
        """Submit a batch, wait for every query, and report batch metrics.

        A failing query does not abort the batch: its exception is captured
        as a :class:`BatchFailure` (carrying the query's submission
        position) in ``BatchResult.failures``, counted against
        :attr:`ServiceStats.queries_failed`, and the remaining queries'
        results are still returned.
        """
        start = perf_counter()
        futures = self.submit_many(queries, strategy)
        results: List[Result] = []
        failures: List[BatchFailure] = []
        for index, future in enumerate(futures):
            try:
                results.append(future.result())
            except Exception as exc:
                failures.append(
                    BatchFailure(
                        index=index,
                        error=f"{type(exc).__name__}: {exc}",
                        exception=exc,
                    )
                )
        return BatchResult(
            results=tuple(results),
            elapsed_s=perf_counter() - start,
            failures=tuple(failures),
        )

    # -- mutation and invalidation ------------------------------------------------

    def invalidate(self) -> int:
        """Drop cached plans, statistics and materializations.

        Call after any out-of-band database mutation.  The database version
        is bumped so stale statistics are never reused; returns the number of
        plans dropped.  Cumulative serving metrics (:meth:`metrics_history`,
        the plan cache's hit/miss counters) are preserved — invalidation
        resets derived state, not the service's measurement record.
        """
        with self._plan_lock:
            self._estimator = None
            self._materialized.clear()
            with self._state_lock:
                self._version += 1
            return self.plan_cache.clear()

    def mutate(self, mutator: Callable[[Database], None]) -> None:
        """Apply *mutator* to the database, then invalidate the caches (also
        when the mutator raises: it may have changed the database first)."""
        try:
            mutator(self.database)
        finally:
            self.invalidate()

    def add_tuples(
        self,
        relation: str,
        rows: Iterable[Sequence[object]],
        incremental: bool = False,
    ) -> Optional[List[DeltaResult]]:
        """Append facts to a relation (creating it from the rows if needed).

        By default the mutation invalidates every cache, exactly as before.
        With ``incremental=True`` the service instead *refreshes in place*:
        the batch is propagated through every registered materialization by
        delta evaluation against its maintained indexes, the cached
        statistics catalog is updated for the mutated relation, and cached
        plans are kept — they remain correct; only their cost-optimality may
        drift, which the refreshed statistics correct at the next planning
        miss.  Returns the per-materialization
        :class:`~repro.incremental.engine.DeltaResult` list (None on the
        invalidation path).

        Raises
        ------
        SchemaError
            When a row's arity does not match the target relation (raised
            before anything mutates).
        IncrementalError
            When *relation* is the output of a registered materialization —
            outputs are derived; insert into base relations.
        """
        rows = [tuple(row) for row in rows]
        if not rows:
            return [] if incremental else None
        # Validate the batch up front so nothing is half-applied: every row
        # must match the target relation's arity (or, for a new relation,
        # the batch must agree with itself).
        existing = self.database.get(relation)
        arity = existing.arity if existing is not None else len(rows[0])
        for row in rows:
            if len(row) != arity:
                raise SchemaError(
                    f"tuple {row!r} has arity {len(row)}, relation "
                    f"{relation!r} expects {arity}"
                )
        if not incremental:
            self.mutate(
                lambda database: database.ensure_relation(relation, arity).update(rows)
            )
            return None
        with self._plan_lock:
            materializations = list(self._materialized.values())
            # Bad-argument errors are raised before anything mutates (the
            # fail-safe below is for crashes mid-batch, not for these).
            for materialization in materializations:
                if relation in materialization.query.output_names:
                    raise IncrementalError(
                        f"cannot insert into output relation {relation!r}; "
                        f"outputs are derived, insert into base relations"
                    )
            try:
                refresh_start = perf_counter()
                with obs.trace(
                    "service.refresh",
                    enabled=self.gumbo.options.trace,
                    relation=relation,
                    rows=len(rows),
                    materializations=len(materializations),
                ):
                    # A concurrent non-serial run must not see the database
                    # mutate mid-request.
                    with self._exec_lock or nullcontext():
                        results = refresh_all(
                            materializations, self.database, {relation: rows}
                        )
                self._m_refresh_seconds.observe(perf_counter() - refresh_start)
                if self._estimator is not None:
                    self._estimator.catalog.refresh_relation(relation)
            except Exception:
                # Fail safe, not half-refreshed: a crash mid-batch (some
                # materializations refreshed, others not, statistics not yet
                # patched) must never leave stale results serveable — drop
                # every derived cache and let callers re-plan from the
                # database as it now stands.
                self.invalidate()
                raise
            with self._state_lock:
                self._incremental_refreshes += 1
                self._incremental_epoch += 1
        return results

    def replace_database(self, database: Database) -> None:
        """Swap the served database and invalidate the caches."""
        self.database = database
        self.invalidate()

    # -- introspection -------------------------------------------------------------

    @property
    def database_version(self) -> int:
        """The invalidation counter (bumped by every cache-dropping mutation)."""
        return self._version

    def stats(self) -> ServiceStats:
        """A snapshot of the serving-layer counters."""
        with self._state_lock:
            return ServiceStats(
                queries_served=self._queries_served,
                plan_cache=CacheStats(**vars(self.plan_cache.stats)),
                plan_cache_size=len(self.plan_cache),
                database_version=self._version,
                statistics_rebuilds=self._statistics_rebuilds,
                materialized_results=len(self._materialized),
                materialized_hits=self._materialized_hits,
                incremental_refreshes=self._incremental_refreshes,
                metrics_histories=len(self._history),
                queries_failed=self._queries_failed,
            )

    def metrics_history(self) -> Dict[str, QueryMetricsHistory]:
        """Cumulative per-fingerprint serving metrics (survives invalidation)."""
        with self._state_lock:
            return {
                fingerprint: history.copy()
                for fingerprint, history in self._history.items()
            }

    def stats_snapshot(self) -> Dict[str, object]:
        """A JSON-ready dump of everything the service measures.

        Combines the serving-layer counters (:meth:`stats`), the cumulative
        per-fingerprint histories (with their exec-time percentiles) and the
        per-service instrument registry — the payload behind
        ``repro serve --stats-json``.
        """
        history = self.metrics_history()
        return {
            "stats": self.stats().as_dict(),
            "history": {
                fingerprint: record.as_dict()
                for fingerprint, record in sorted(history.items())
            },
            "metrics": self.metrics.as_dict(),
        }

    def materializations(self) -> Dict[PlanKey, Materialization]:
        """The registered materializations (snapshot of the mapping)."""
        with self._plan_lock:
            return dict(self._materialized)

    def __repr__(self) -> str:
        return (
            f"QueryService(relations={len(self.database)}, "
            f"strategy={self.default_strategy!r}, "
            f"backend={self.gumbo.backend.name!r}, cache={self.plan_cache!r})"
        )
