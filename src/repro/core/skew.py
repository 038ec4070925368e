"""Skew handling for the MSJ operator (the extension sketched in Section 6).

The paper notes that "the presented framework can readily be adapted to
[handle skew] when information on so-called heavy hitters is available or can
be computed at the expense of an additional round".  This module implements
that adaptation:

* :func:`detect_heavy_hitters` estimates, from the statistics catalog's
  samples, which join-key values receive a disproportionate share of the
  messages of a set of semi-joins (the "information on heavy hitters");
* :class:`SkewAwareMSJJob` extends :class:`~repro.core.msj.MSJJob` with the
  classic salting scheme: request messages for a heavy key are spread over
  ``salt_factor`` sub-keys (appending a deterministic salt derived from the
  guard tuple), and assert messages for a heavy key are replicated to every
  salt, so the heavy reducer's load is split across ``salt_factor`` reducers
  while the reduce-side logic stays untouched.

Correctness is unaffected (every request still meets every assert it needs);
what changes is the distribution of reducer loads, which the simulator's
per-reducer timing turns into lower net time on skewed data.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from ..cost.estimates import StatisticsCatalog
from ..query.bsgf import SemiJoinSpec
from .messages import AssertMessage, RequestMessage
from .msj import MSJJob
from .options import GumboOptions

#: Default number of sub-keys a heavy key is split into.
DEFAULT_SALT_FACTOR = 8

#: Default share of the sampled messages a key must receive to count as heavy.
DEFAULT_HEAVY_FRACTION = 0.1


@dataclass(frozen=True)
class HeavyHitterReport:
    """Outcome of heavy-hitter detection for a set of semi-joins."""

    heavy_keys: FrozenSet[Tuple[object, ...]]
    sampled_keys: int
    threshold: float

    def __bool__(self) -> bool:
        return bool(self.heavy_keys)


def detect_heavy_hitters(
    catalog: StatisticsCatalog,
    specs: Sequence[SemiJoinSpec],
    heavy_fraction: float = DEFAULT_HEAVY_FRACTION,
) -> HeavyHitterReport:
    """Estimate the heavy join-key values of the given semi-joins.

    The guard samples of the catalog are probed with every spec's join key;
    any key value receiving more than ``heavy_fraction`` of the sampled
    key occurrences is reported as heavy.  The extra sampling pass is the
    "additional round" the paper alludes to; here it reuses the catalog's
    existing samples.
    """
    if not 0.0 < heavy_fraction <= 1.0:
        raise ValueError("heavy_fraction must be in (0, 1]")
    counts: Counter = Counter()
    for spec in specs:
        for row in catalog.sample(spec.guard.relation):
            binding = spec.guard.match(row)
            if binding is None:
                continue
            counts[tuple(binding[v] for v in spec.join_key)] += 1
    total = sum(counts.values())
    if total == 0:
        return HeavyHitterReport(frozenset(), 0, heavy_fraction)
    heavy = frozenset(
        key for key, count in counts.items() if count / total >= heavy_fraction
    )
    return HeavyHitterReport(heavy, total, heavy_fraction)


def _salt(payload: Tuple[object, ...], salt_factor: int) -> int:
    """Deterministic salt derived from the request payload."""
    return zlib.crc32(repr(payload).encode("utf-8")) % max(1, salt_factor)


class SkewAwareMSJJob(MSJJob):
    """An MSJ job that salts heavy join keys across several reducers.

    Parameters
    ----------
    heavy_keys:
        The join-key values (as tuples) to treat as heavy.  Typically the
        result of :func:`detect_heavy_hitters`.
    salt_factor:
        How many sub-keys each heavy key is split into.
    """

    def __init__(
        self,
        job_id: str,
        specs: Sequence[SemiJoinSpec],
        heavy_keys: Iterable[Tuple[object, ...]],
        options: Optional[GumboOptions] = None,
        emit_projection: bool = True,
        salt_factor: int = DEFAULT_SALT_FACTOR,
    ) -> None:
        super().__init__(
            job_id, specs, options=options, emit_projection=emit_projection
        )
        if salt_factor < 1:
            raise ValueError("salt_factor must be >= 1")
        self.heavy_keys: Set[Tuple[object, ...]] = {tuple(k) for k in heavy_keys}
        self.salt_factor = salt_factor

    def supports_kernel(self) -> bool:
        """Salted keys change the per-key byte accounting; the MSJ batch
        kernel does not model them, so this job always interprets."""
        return False

    def map(self, relation: str, row: Tuple[object, ...]):
        for key, message in super().map(relation, row):
            if tuple(key) not in self.heavy_keys or self.salt_factor == 1:
                yield (key, message)
            elif isinstance(message, RequestMessage):
                # Requests go to exactly one salted sub-key.
                salt = _salt(message.payload, self.salt_factor)
                yield (tuple(key) + (f"#salt{salt}",), message)
            elif isinstance(message, AssertMessage):
                # Asserts are replicated to every sub-key of the heavy key.
                for salt in range(self.salt_factor):
                    yield (tuple(key) + (f"#salt{salt}",), message)
            else:  # pragma: no cover - no other message kinds are emitted
                yield (key, message)


def skew_aware_msj(
    job_id: str,
    specs: Sequence[SemiJoinSpec],
    catalog: StatisticsCatalog,
    options: Optional[GumboOptions] = None,
    emit_projection: bool = True,
    heavy_fraction: float = DEFAULT_HEAVY_FRACTION,
    salt_factor: int = DEFAULT_SALT_FACTOR,
) -> Tuple[SkewAwareMSJJob, HeavyHitterReport]:
    """Build a skew-aware MSJ job with heavy hitters detected from *catalog*."""
    report = detect_heavy_hitters(catalog, specs, heavy_fraction)
    job = SkewAwareMSJJob(
        job_id,
        specs,
        report.heavy_keys,
        options=options,
        emit_projection=emit_projection,
        salt_factor=salt_factor,
    )
    return job, report
