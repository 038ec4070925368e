"""Benchmark — incremental delta refresh vs full re-execution.

Measures what the incremental subsystem buys on a Section 5 workload (A3):
a materialized result is refreshed after a small insert batch (≤ 1% of the
guard relation, half new guard tuples, half conditional-key flips) and the
refresh is raced against what an invalidating service would do — a full
re-execution (statistics collection + AUTO strategy selection + plan
construction + run) over the mutated database.  The refreshed output is
verified tuple-for-tuple against the recomputed one before any timing is
trusted.

The race against the full re-execution is *reported* (``incremental_speedup``)
but it is not the regression gate: that ratio shrinks every time the engine
it races gets faster (15× → 6-10× with columnar storage, → 2-4× with
accounting by cardinalities) while the refresh itself stayed at 4-6 ms, so
each such PR had to loosen the bar and with it the protection of the refresh
path.  The gate is the refresh against a yardstick no engine PR moves:
``repro.query.reference.evaluate_sgf`` — the query evaluated by definition over
the mutated database, no planning, no MapReduce, no metrics, untouched since
the seed commit.  The refresh has to be ≥ 7.5× faster than that.  While it ran
a restricted MR program per statement it measured 11-19× (median ≈ 14×), so a
2× slowdown landed at 6-9× and failed most runs.  Reading the condition off
the maintained indexes instead, the refresh takes ~1.7-3 ms and measures
15-29× (speedup over the full re-execution 2.8-4.7×, against 2.1-2.3×
before); the bar stays where it was.

Results are written to ``BENCH_incremental.json`` (override the path with
``REPRO_BENCH_INCREMENTAL_JSON``) so CI can archive the perf trajectory and
gate regressions against the committed baseline
(``benchmarks/baselines/incremental.json``).
"""

from __future__ import annotations

import os
import random
from time import perf_counter

from common import write_bench_artifact
from repro.core.gumbo import Gumbo
from repro.incremental import apply_inserts, dedupe_inserts
from repro.query.reference import evaluate_sgf
from repro.workloads.queries import database_for, workload_query

#: Guard-relation cardinality of the benchmark workload.
DEFAULT_TUPLES = int(os.environ.get("REPRO_BENCH_INCREMENTAL_TUPLES", 4_000))

#: Where the JSON artifact is written.
ARTIFACT_PATH = os.environ.get("REPRO_BENCH_INCREMENTAL_JSON", "BENCH_incremental.json")

#: Timed repetitions (medians reported).
REPEATS = 3

#: Strategy for both paths (AUTO = what the serving layer runs by default).
STRATEGY = "auto"


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _insert_batch(database, guard_tuples: int):
    """≤ 1% of the guard: half fresh guard rows, half conditional-key flips."""
    rng = random.Random(2016)
    count = max(2, guard_tuples // 100)
    guard = database["R"]
    stored = guard.sorted_tuples()
    ceiling = 1 + max(v for row in stored for v in row)
    batch = {
        "R": [
            tuple(ceiling + rng.randrange(10 * count) for _ in range(guard.arity))
            for _ in range(count - count // 2)
        ],
        # A3's condition is S(x) ∧ T(x) ∧ U(x) ∧ V(x): keys drawn from stored
        # guard rows flip the S-atom's truth for existing tuples.
        "S": [(rng.choice(stored)[0],) for _ in range(count // 2)],
    }
    assert sum(len(rows) for rows in batch.values()) <= max(2, guard_tuples // 100)
    return batch


def test_bench_incremental_refresh_vs_recompute(capsys):
    query = workload_query("A3")
    database = database_for(query, guard_tuples=DEFAULT_TUPLES, seed=7)
    batch = _insert_batch(database, DEFAULT_TUPLES)
    inserted = sum(len(rows) for rows in batch.values())

    gumbo = Gumbo()

    # -- full re-execution: stats + AUTO planning + run on the mutated data.
    mutated = database.copy()
    apply_inserts(mutated, dedupe_inserts(mutated, batch))
    full_times = []
    for _ in range(REPEATS):
        start = perf_counter()
        full = gumbo.execute(query, mutated, STRATEGY)
        full_times.append(perf_counter() - start)
    full_s = _median(full_times)
    expected = {
        name: frozenset(rel.tuples()) for name, rel in full.all_outputs.items()
    }

    # -- the yardstick: the same answer by definition, no engine involved.
    reference_times = []
    for _ in range(REPEATS):
        start = perf_counter()
        reference = evaluate_sgf(query, mutated)
        reference_times.append(perf_counter() - start)
    reference_s = _median(reference_times)
    assert {n: frozenset(rel.tuples()) for n, rel in reference.items()} == expected

    # -- incremental: materialize once per repeat, time only the refresh.
    refresh_times = []
    last_delta = None
    for _ in range(REPEATS):
        materialization = gumbo.materialize(query, database.copy(), STRATEGY)
        start = perf_counter()
        last_delta = gumbo.execute_delta(materialization, batch)
        refresh_times.append(perf_counter() - start)
        # Correctness first: the refreshed output equals the recompute.
        assert materialization.answers() == expected
    refresh_s = _median(refresh_times)

    speedup = full_s / refresh_s if refresh_s > 0 else float("inf")
    vs_reference = reference_s / refresh_s if refresh_s > 0 else float("inf")
    write_bench_artifact(
        ARTIFACT_PATH,
        "incremental",
        {
            "full_recompute_s": full_s,
            "incremental_refresh_s": refresh_s,
            "incremental_speedup": speedup,
            "reference_eval_s": reference_s,
            "refresh_vs_reference": vs_reference,
        },
        workload="A3",
        guard_tuples=DEFAULT_TUPLES,
        inserted_tuples=inserted,
        insert_fraction=inserted / DEFAULT_TUPLES,
        affected_guard_tuples=last_delta.affected_guard_tuples,
        added_tuples=last_delta.added_count(),
        removed_tuples=last_delta.removed_count(),
    )

    with capsys.disabled():
        print()
        print(
            f"incremental benchmark (A3, {DEFAULT_TUPLES} guard tuples, "
            f"{inserted} inserts = "
            f"{100 * inserted / DEFAULT_TUPLES:.1f}% of the guard)"
        )
        print(f"  full re-execution (median):   {full_s * 1e3:9.3f} ms")
        print(f"  incremental refresh (median): {refresh_s * 1e3:9.3f} ms")
        print(f"  speedup:                      {speedup:9.1f}x")
        print(f"  evaluation by definition:     {reference_s * 1e3:9.3f} ms")
        print(f"  refresh vs by-definition:     {vs_reference:9.1f}x")
        print(f"  affected guard tuples:        {last_delta.affected_guard_tuples}")
        print(f"  artifact:                     {ARTIFACT_PATH}")

    # The regression gate (see the module docstring): the refresh against the
    # by-definition evaluation, a rival that does not get faster when the
    # engine does.  Measured 11-19x; a 2x slowdown of the refresh is 6-9x.
    assert vs_reference >= 7.5, (
        f"incremental refresh too slow: {refresh_s * 1e3:.3f} ms vs "
        f"{reference_s * 1e3:.3f} ms for evaluate_sgf ({vs_reference:.1f}x)"
    )
    # And it still has to be worth having next to the engine it races.
    assert speedup > 1.0, (
        f"incremental refresh {refresh_s * 1e3:.3f} ms does not beat the full "
        f"recompute {full_s * 1e3:.3f} ms"
    )
    # The batch really was small and really did something.
    assert inserted <= DEFAULT_TUPLES // 100
    assert last_delta.added_count() + last_delta.removed_count() > 0
