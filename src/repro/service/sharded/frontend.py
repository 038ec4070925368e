"""The asyncio front-end: a thin adapter over the query service.

Admission control (shedding with ``ServiceOverloadedError``), per-request
deadlines (``RequestTimeoutError``, raised before the next job, so the
request's thread stops too) and their counters live in the wrapped
:class:`~repro.service.service.QueryService`.  :meth:`ShardedService.execute`
awaits the service's own :meth:`~repro.service.service.QueryService.submit`
future: one thread hop from the event loop to the service's pool.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from ...core.options import GumboOptions
from ...core.strategies import AUTO
from ...mapreduce.engine import MapReduceEngine
from ...model.database import Database
from ..service import QueryService, Result
from .backend import ShardedBackend


class ShardedService:
    """Async serving over a query service (any backend), which it owns."""

    def __init__(self, service: QueryService) -> None:
        self.service = service

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
        """Build the tier: sharded backend → query service → adapter
        (*max_concurrency* is the service's ``max_workers``)."""
        return cls(
            QueryService(
                database,
                backend=ShardedBackend(engine=engine, shards=shards),
                strategy=strategy,
                plan_cache_size=plan_cache_size,
                max_workers=max_concurrency,
                max_queue=max_queue,
                request_timeout_s=request_timeout_s,
                options=options,
            )
        )

    def close(self) -> None:
        """Close the service, its Gumbo and (if owned) the shard cluster."""
        self.service.close()

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    @property
    def in_flight(self) -> int:
        """Requests currently admitted (executing or queued)."""
        return self.service.in_flight

    @property
    def admission_limit(self) -> Optional[int]:
        """Admitted requests allowed at once (executing + queued)."""
        return self.service.admission_limit

    async def execute(self, query, strategy: Optional[str] = None) -> Result:
        """Serve one query under the service's admission limit and deadline."""
        return await asyncio.wrap_future(self.service.submit(query, strategy))

    async def materialize(self, query, strategy: Optional[str] = None) -> Result:
        """Materialize *query* off the event loop (warm-up: not admission-gated)."""
        return await asyncio.to_thread(self.service.materialize, query, strategy)

    def stats(self) -> Dict[str, float]:
        """Serving counters (requests, shed, timeouts, in flight), JSON-ready."""
        metrics = self.service.metrics
        return {
            "requests": metrics.counter("repro_service_requests_total").value,
            "shed": metrics.counter("repro_service_shed_total").value,
            "timeouts": metrics.counter("repro_service_timeouts_total").value,
            "queue_depth": metrics.gauge("repro_service_in_flight").value,
            "max_concurrency": self.service.max_workers,
            "max_queue": self.service.max_queue,
        }
