"""The delta engine: build materializations, refresh them under insert batches.

:func:`materialize_query` executes a query through a :class:`Gumbo` planner
(any strategy, any backend), then builds the per-statement maintenance state
of :mod:`repro.incremental.materialize` and cross-checks the directly
materialized outputs against the planned MR program's outputs — every
materialization is born verified against the MSJ/EVAL/fused/chain machinery
that produced it.

:func:`refresh` applies a batch of inserted tuples semi-naive style: per
statement (bottom-up), the affected guard tuples — newly inserted ones plus
existing ones whose join key flipped for some conditional atom — are
re-evaluated and the output delta is merged into the materialized relations
via support counting.  The re-evaluation reads the maintained indexes and
runs no MapReduce program: the indexes already hold the truth of every
semi-join of the condition, and the cross-check above ties them to the
planned program once, when the materialization is built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional

from ..model.database import Database
from ..model.relation import Relation
from ..obs import metrics as obs_metrics
from .. import obs
from .delta import Delta, InsertBatch, Row, apply_inserts, dedupe_inserts
from .materialize import (
    IncrementalError,
    Materialization,
    _StatementState,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.gumbo import Gumbo, GumboResult

#: Refresh latencies (per materialization), fed to the default registry.
_REFRESH_SECONDS = obs_metrics.default_registry().histogram(
    "repro_refresh_seconds"
)


@dataclass(frozen=True)
class DeltaResult:
    """Outcome of one incremental refresh."""

    materialization: Materialization
    #: Output tuples that appeared / disappeared, per output relation.
    added: Dict[str, FrozenSet[Row]]
    removed: Dict[str, FrozenSet[Row]]
    inserted_tuples: int
    affected_guard_tuples: int
    wall_s: float

    @property
    def result(self) -> "GumboResult":
        """The refreshed result (relations updated in place)."""
        return self.materialization.result

    def added_count(self) -> int:
        return sum(len(rows) for rows in self.added.values())

    def removed_count(self) -> int:
        return sum(len(rows) for rows in self.removed.values())

    def summary(self) -> Dict[str, float]:
        return {
            "inserted_tuples": self.inserted_tuples,
            "affected_guard_tuples": self.affected_guard_tuples,
            "added_tuples": self.added_count(),
            "removed_tuples": self.removed_count(),
            "wall_s": self.wall_s,
        }


# -- building a materialization ---------------------------------------------------


def materialize_query(
    gumbo: "Gumbo",
    query,
    database: Database,
    strategy: Optional[str] = None,
    result: Optional["GumboResult"] = None,
) -> Materialization:
    """Execute *query* and build its delta-maintenance state.

    A pre-computed *result* (e.g. from the query service's plan cache) is
    reused instead of re-executing.  The directly materialized outputs are
    verified tuple-for-tuple against the planned program's outputs.
    """
    from ..core.gumbo import Gumbo, GumboResult  # local: avoid import cycle

    sgf = Gumbo.as_sgf(query)
    if result is None:
        result = gumbo.execute(sgf, database, strategy)

    states: List[_StatementState] = []
    produced: Dict[str, Relation] = {}

    def relation_of(name: str) -> Optional[Relation]:
        if name in produced:
            return produced[name]
        return database.get(name)

    for subquery in sgf:
        guard_relation = relation_of(subquery.guard.relation)
        bytes_per_field = (
            guard_relation.bytes_per_field if guard_relation is not None else 10
        )
        state = _StatementState(subquery, bytes_per_field)
        state.build(relation_of)
        expected = result.all_outputs[subquery.output]
        if state.output.tuples() != expected.tuples():
            raise IncrementalError(
                f"materialization of {subquery.output!r} disagrees with the "
                f"planned {result.strategy!r} program: "
                f"{len(state.output)} vs {len(expected)} tuples"
            )
        produced[subquery.output] = state.output
        states.append(state)

    roots = set(sgf.root_names)
    refreshed = GumboResult(
        query=sgf,
        strategy=result.strategy,
        program=result.program,
        outputs={name: rel for name, rel in produced.items() if name in roots},
        all_outputs=dict(produced),
        metrics=result.metrics,
        choice=result.choice,
    )
    return Materialization(
        query=sgf,
        database=database,
        states=states,
        result=refreshed,
        requested_strategy=strategy if strategy is not None else "auto",
    )


# -- refreshing -------------------------------------------------------------------


def refresh(materialization: Materialization, inserts: InsertBatch) -> DeltaResult:
    """Apply *inserts* to the materialization's database and its outputs.

    The batch is deduplicated against the stored relations (an insert of an
    existing tuple is a no-op), applied to the database, and propagated
    through every statement.
    """
    start = perf_counter()
    result = refresh_all([materialization], materialization.database, inserts)[0]
    # Report the whole refresh (dedupe + apply + propagate) as this call's
    # wall time, not just the per-materialization propagation slice.
    return replace(result, wall_s=perf_counter() - start)


def _refresh_prepared(materialization: Materialization, delta: Delta):
    """Propagate an already-applied delta through every statement, in order."""
    added_by: Dict[str, FrozenSet[Row]] = {}
    removed_by: Dict[str, FrozenSet[Row]] = {}
    affected_total = 0
    for state in materialization.states:
        added, removed, affected = state.apply_delta(delta)
        affected_total += affected
        if added or removed:
            delta.record(state.query.output, added, removed)
        if added:
            added_by[state.query.output] = frozenset(added)
        if removed:
            removed_by[state.query.output] = frozenset(removed)
    materialization.refreshes += 1
    return added_by, removed_by, affected_total


def refresh_all(
    materializations: List[Materialization],
    database: Database,
    inserts: InsertBatch,
) -> List[DeltaResult]:
    """Refresh several materializations of one shared *database* from one batch.

    The batch is deduplicated and applied to the database exactly once; each
    materialization then propagates its own scoped copy of the delta (so the
    intermediate deltas one query records never leak into another).  Every
    materialization must serve the given database.
    """
    for materialization in materializations:
        if materialization.database is not database:
            raise IncrementalError(
                "refresh_all requires every materialization to serve the "
                "shared database"
            )
        clashes = set(materialization.query.output_names) & set(inserts)
        if clashes:
            raise IncrementalError(
                f"cannot insert into output relation(s) "
                f"{', '.join(sorted(clashes))}"
            )
    inserted = dedupe_inserts(database, inserts)
    apply_inserts(database, inserted)
    base = Delta(inserted=dict(inserted))
    inserted_count = sum(len(rows) for rows in inserted.values())
    results: List[DeltaResult] = []
    for materialization in materializations:
        mat_start = perf_counter()
        with obs.span(
            "incremental.refresh",
            output=materialization.query.output,
            inserted_tuples=inserted_count,
        ) as refresh_span:
            added_by, removed_by, affected = _refresh_prepared(
                materialization, base.scoped()
            )
            result = DeltaResult(
                materialization=materialization,
                added=added_by,
                removed=removed_by,
                inserted_tuples=inserted_count,
                affected_guard_tuples=affected,
                wall_s=perf_counter() - mat_start,
            )
            refresh_span.set(
                affected=affected,
                added=result.added_count(),
                removed=result.removed_count(),
            )
        _REFRESH_SECONDS.observe(result.wall_s)
        results.append(result)
    return results
