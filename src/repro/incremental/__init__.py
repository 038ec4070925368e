"""Incremental delta evaluation for (B)SGF programs.

Re-deriving a materialized query result after a batch of inserted tuples
does not require re-running the whole MR program: only the *delta-affected*
guard tuples — freshly inserted ones, plus existing ones whose join key
flipped for some conditional atom — can change the output.  This package
implements that semi-naive maintenance loop on top of the planning and
execution machinery of the rest of the library:

* :mod:`repro.incremental.delta`       — insert/delete batches;
* :mod:`repro.incremental.materialize` — per-statement maintenance state
  (conditional join-key indexes, guard indexes, output support counters);
* :mod:`repro.incremental.engine`      — building materializations and
  refreshing them, with the affected tuples re-evaluated against the
  maintained indexes.  The indexes are the only refresh path: they hold the
  truth of every semi-join of the condition, and ``materialize_query``
  cross-checks every materialization against its planned MSJ program.

Entry points: :meth:`Gumbo.materialize <repro.core.gumbo.Gumbo.materialize>`
/ :meth:`Gumbo.execute_delta <repro.core.gumbo.Gumbo.execute_delta>`, and
``QueryService.add_tuples(..., incremental=True)`` in the serving layer.
Conditions may use negation and disjunction, so a batch of *inserts* can
both add and remove output tuples; support counting over the guard tuples
makes the removals exact.
"""

from .delta import Delta, apply_inserts, dedupe_inserts
from .engine import DeltaResult, materialize_query, refresh, refresh_all
from .materialize import IncrementalError, Materialization

__all__ = [
    "Delta",
    "DeltaResult",
    "IncrementalError",
    "Materialization",
    "apply_inserts",
    "dedupe_inserts",
    "materialize_query",
    "refresh",
    "refresh_all",
]
