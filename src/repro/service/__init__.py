"""The serving subsystem: plan-caching, statistics-caching query service.

See :class:`~repro.service.service.QueryService` for the in-process entry
point and :mod:`repro.service.sharded` for the persistent sharded tier
(multi-process backend plus the admission-controlled async front-end).
"""

from .cache import CacheStats, LRUCache
from .fingerprint import canonical_text, query_fingerprint, schema_signature
from .service import (
    BatchFailure,
    BatchResult,
    QueryMetricsHistory,
    QueryService,
    Result,
    ServiceStats,
)

__all__ = [
    "BatchFailure",
    "BatchResult",
    "CacheStats",
    "LRUCache",
    "QueryMetricsHistory",
    "QueryService",
    "RequestTimeoutError",
    "Result",
    "ServiceOverloadedError",
    "ServiceStats",
    "ShardCluster",
    "ShardedBackend",
    "ShardedService",
    "canonical_text",
    "query_fingerprint",
    "schema_signature",
]

#: Sharded-tier symbols loaded lazily (PEP 562) so importing the in-process
#: service does not pull in asyncio/multiprocessing machinery.
_SHARDED_EXPORTS = (
    "RequestTimeoutError",
    "ServiceOverloadedError",
    "ShardCluster",
    "ShardedBackend",
    "ShardedService",
)


def __getattr__(name: str):
    if name in _SHARDED_EXPORTS:
        from . import sharded

        return getattr(sharded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
