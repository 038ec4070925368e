"""The asyncio front-end: admission control over the sharded service tier.

:class:`ShardedService` wraps a :class:`~repro.service.service.QueryService`
(running on the :class:`~repro.service.sharded.backend.ShardedBackend`) with
the serving discipline a persistent tier needs under open-loop load:

* **bounded admission** — at most ``max_concurrency`` requests execute at
  once and at most ``max_queue`` more may wait; a request arriving beyond
  that is *shed* immediately with the typed
  :class:`ServiceOverloadedError`, so overload degrades into fast failures
  instead of unbounded queueing;
* **per-request timeout** — ``request_timeout_s`` bounds each admitted
  request's wall time; expiry raises :class:`RequestTimeoutError` (the
  underlying worker thread is not interrupted — the timeout bounds the
  *caller's* wait, as in any thread-offloading asyncio service);
* **observability** — queue depth (gauge), shed and timeout counts
  (counters) and request latency (histogram) land in the wrapped service's
  per-service metrics registry, next to its cache and failure counters.

The front-end is deliberately thin: queries still flow through the query
service's plan cache, materializations and failure accounting, and the
sharded backend's worker supervision (respawn + retry) is invisible here —
a killed worker mid-request surfaces as a slightly slower success.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Dict, Optional

from ...core.options import GumboOptions
from ...core.strategies import AUTO
from ...exec.base import check_width
from ...mapreduce.engine import MapReduceEngine
from ...model.database import Database
from ..service import QueryService, Result
from .backend import ShardedBackend


class ShardedServiceError(RuntimeError):
    """Base class for sharded front-end serving errors."""


class ServiceOverloadedError(ShardedServiceError):
    """The request was shed: concurrency and queue limits are both full."""

    def __init__(self, in_flight: int, limit: int) -> None:
        super().__init__(
            f"service overloaded: {in_flight} requests in flight "
            f"(admission limit {limit}); request shed"
        )
        self.in_flight = in_flight
        self.limit = limit


class RequestTimeoutError(ShardedServiceError):
    """An admitted request exceeded the per-request timeout."""

    def __init__(self, timeout_s: float) -> None:
        super().__init__(f"request exceeded the {timeout_s:.3f}s timeout")
        self.timeout_s = timeout_s


def _check_limits(max_concurrency: int, max_queue: int) -> None:
    """``ValueError`` unless one request can execute and the queue is >= 0."""
    check_width("max_concurrency", max_concurrency)
    if max_queue < 0:
        raise ValueError(f"max_queue must be >= 0, got {max_queue}")


class ShardedService:
    """Admission-controlled async serving over a sharded query service.

    Parameters
    ----------
    service:
        The query service to front (normally running on a
        :class:`~repro.service.sharded.backend.ShardedBackend`; any backend
        works — admission control is backend-agnostic).  Owned (closed with
        the front-end) only when built by :meth:`create`.
    max_concurrency:
        Requests executing at once (each occupies one offload thread);
        ``ValueError`` below 1.
    max_queue:
        Admitted requests allowed to *wait* beyond the executing ones;
        arrivals past ``max_concurrency + max_queue`` are shed.
        ``ValueError`` below 0.
    request_timeout_s:
        Optional per-request wall-time bound for admitted requests.
    """

    def __init__(
        self,
        service: QueryService,
        *,
        max_concurrency: int = 8,
        max_queue: int = 64,
        request_timeout_s: Optional[float] = None,
    ) -> None:
        _check_limits(max_concurrency, max_queue)
        self.service = service
        self.max_concurrency = max_concurrency
        self.max_queue = max_queue
        self.request_timeout_s = request_timeout_s
        self._owns_service = False
        self._in_flight = 0
        self._semaphore = asyncio.Semaphore(self.max_concurrency)
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_concurrency,
            thread_name_prefix="repro-sharded-frontend",
        )
        registry = service.metrics
        self._m_requests = registry.counter("repro_sharded_requests_total")
        self._m_shed = registry.counter("repro_sharded_shed_total")
        self._m_timeouts = registry.counter("repro_sharded_timeouts_total")
        self._m_queue_depth = registry.gauge("repro_sharded_queue_depth")
        self._m_request_seconds = registry.histogram(
            "repro_sharded_request_seconds"
        )

    @classmethod
    def create(
        cls,
        database: Database,
        *,
        shards: int = 2,
        engine: Optional[MapReduceEngine] = None,
        strategy: str = AUTO,
        plan_cache_size: int = 256,
        options: Optional[GumboOptions] = None,
        max_concurrency: int = 8,
        max_queue: int = 64,
        request_timeout_s: Optional[float] = None,
    ) -> "ShardedService":
        """Build the whole tier: sharded backend → query service → front-end.

        The returned front-end owns the stack; :meth:`close` shuts down the
        service, its Gumbo, and the shard cluster.
        """
        _check_limits(max_concurrency, max_queue)
        backend = ShardedBackend(engine=engine, shards=shards)
        service = QueryService(
            database,
            backend=backend,
            strategy=strategy,
            plan_cache_size=plan_cache_size,
            max_workers=max_concurrency,
            options=options,
        )
        frontend = cls(
            service,
            max_concurrency=max_concurrency,
            max_queue=max_queue,
            request_timeout_s=request_timeout_s,
        )
        frontend._owns_service = True
        return frontend

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut the offload pool down (and the owned service stack, if any)."""
        self._pool.shutdown(wait=True)
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # -- admission-controlled serving --------------------------------------------

    @property
    def in_flight(self) -> int:
        """Requests currently admitted (executing or queued)."""
        return self._in_flight

    @property
    def admission_limit(self) -> int:
        """Admitted requests allowed at once (executing + queued)."""
        return self.max_concurrency + self.max_queue

    async def execute(self, query, strategy: Optional[str] = None) -> Result:
        """Serve one query under admission control.

        Raises
        ------
        ServiceOverloadedError
            When the admission limit is full (the request is shed without
            queueing).
        RequestTimeoutError
            When the admitted request exceeds ``request_timeout_s``.
        """
        self._m_requests.inc()
        if self._in_flight >= self.admission_limit:
            self._m_shed.inc()
            raise ServiceOverloadedError(self._in_flight, self.admission_limit)
        self._in_flight += 1
        self._m_queue_depth.set(self._in_flight)
        start = perf_counter()
        try:
            async with self._semaphore:
                loop = asyncio.get_running_loop()
                future = loop.run_in_executor(
                    self._pool, self.service.execute, query, strategy
                )
                if self.request_timeout_s is None:
                    result = await future
                else:
                    try:
                        result = await asyncio.wait_for(
                            future, self.request_timeout_s
                        )
                    except asyncio.TimeoutError:
                        self._m_timeouts.inc()
                        raise RequestTimeoutError(self.request_timeout_s) from None
            self._m_request_seconds.observe(perf_counter() - start)
            return result
        finally:
            self._in_flight -= 1
            self._m_queue_depth.set(self._in_flight)

    async def materialize(
        self, query, strategy: Optional[str] = None
    ) -> Result:
        """Materialize *query* on the offload pool (no admission gating —
        materialization is a warm-up step, not serving traffic)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool, self.service.materialize, query, strategy
        )

    # -- introspection ------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Front-end serving counters (shed/timeout/depth), JSON-ready."""
        return {
            "requests": self._m_requests.value,
            "shed": self._m_shed.value,
            "timeouts": self._m_timeouts.value,
            "queue_depth": self._m_queue_depth.value,
            "max_concurrency": self.max_concurrency,
            "max_queue": self.max_queue,
        }

    def __repr__(self) -> str:
        return (
            f"ShardedService(in_flight={self._in_flight}, "
            f"max_concurrency={self.max_concurrency}, "
            f"max_queue={self.max_queue}, "
            f"timeout={self.request_timeout_s})"
        )
