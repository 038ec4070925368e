#!/usr/bin/env python
"""Cross-hash-seed determinism check for the execution engine.

Runs a fixed workload mix — the Section 5 A3 query plus a handwritten
mixed-type database that stresses the type-tagged sort order (ints, floats,
strings, ``None`` sharing columns), read also by a query with an empty
SELECT list and a NOT-only condition, plus a two-level query whose
intermediate is one all-string column (one map chunk, which the kernels read
in set order, so in an order that changes with the hash seed) — under both
kernel modes and every applicable strategy, then prints a canonical digest
per combination.  A
final pass re-runs the mix on the multi-process backend (every ``map_batch``
task executed in worker processes with their own interpreters, chunks routed
by ``stable_hash`` placement), kernels on — the only mode its workers have —
whose digests must equal the serial ones line for line:

* ``outputs`` — SHA-256 over the sorted output relations, with floats
  rendered as their IEEE-754 bit patterns so the digest is bit-exact;
* ``shuffle`` — SHA-256 over the per-job map/reduce task-duration vectors,
  which expose the simulated shuffle's key-to-reducer placement (the part
  of the metrics most sensitive to set/dict iteration order);
* ``estimates`` — one line per strategy, kernel mode aside: SHA-256 over the
  planner's :meth:`~repro.core.costing.PlanCostEstimator.program_estimate`
  of the strategy's program — every job's estimated cost, output size,
  reducers and per-partition input/intermediate sizes, records and mappers,
  floats as IEEE-754 bit patterns.  The estimator groups messages by key
  signature, so set- or dict-order dependence there would silently change
  the AUTO strategy's choices.

A last case guards against *history* dependence: join keys that are equal but
not identical (``1``, ``1.0`` and ``True``) on an engine that spreads every
job over several reducers, where each key must be placed by its own job's
data and by nothing an earlier job left behind (a memo keyed by equality once
made ``stable_hash((1.0,))`` return whatever ``(1,)`` had hashed to).  Its two
databases — one meeting the ints first, one the floats — are run in one
order and then, in the same process, in the opposite one; ``--reverse-jobs``
swaps which order the cold process sees.

A planning-history pass guards the planner the same way: one
:class:`~repro.service.QueryService` plans (AUTO) the five batch shapes, a
few multi-level SGF texts whose intermediate names collide, a pair whose
first query estimates an intermediate at 0 tuples, a flat text whose PAR and
GREEDY partitions coincide, one of six semi-joins over conditionals with tied
statistics (OPTIMAL scans all 203 partitions of its price table, many of
them tied) and a nested one whose Greedy-SGF and SGF-Opt sorts differ, in
list order or, under ``--reverse-jobs``, in reverse.  One
sorted line per query gives the winner and a digest of every candidate's
estimated cost, as IEEE-754 bit patterns: a statistic or memoised estimate
one query leaves behind for the next shows up as a difference between the
two orders.

A last pass digests dynamic re-planning
(:meth:`~repro.core.gumbo.Gumbo.execute_dynamic`) of each SGF text over
that database: one ``dynamic`` line per text with its stage count, its
``outputs`` and ``shuffle`` digests and a ``summary`` digest of the merged
simulated metrics.

Every line must be identical under every ``PYTHONHASHSEED`` and either job
order: CI runs the script twice, with different seeds and opposite orders,
and diffs the stdout; any divergence pinpoints the combination that went
hash-order or history dependent.

Usage::

    PYTHONPATH=src python tools/determinism_check.py [--tuples N] [--reverse-jobs]
"""

from __future__ import annotations

import argparse
import hashlib
import struct

from repro.core.gumbo import Gumbo
from repro.core.options import GumboOptions
from repro.core.strategies import applicable_strategies
from repro.model.database import Database
from repro.query.bsgf import BSGFQuery
from repro.query.parser import parse_sgf
from repro.workloads.queries import database_for, workload_query

#: Mixed-type case: typed packing falls back to object columns and the
#: type-tagged sort order decides every ordering.
MIXED_QUERY = "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND NOT T(y);"
MIXED_DB = {
    "R": [
        (1, "a"),
        (2.5, None),
        ("s3", 3),
        (None, "b"),
        (7, 7.5),
        ("s3", None),
        (1, 1.5),
        (None, None),
    ],
    "S": [(1,), ("s3",), (None,), (9,), (2.5,)],
    "T": [("a",), (3,), (None,), (7.5,)],
}

#: The 0-ary output rule (an empty SELECT list yields the guard row's first
#: field) and the zero membership mask (NOT-only: rows in no conditional are
#: kept), over the mixed-type database.  The grammar has no empty SELECT
#: list, so the query is this text with its projection dropped.
ZERO_ARY_QUERY = "Z := SELECT (x, y) FROM R(x, y) WHERE NOT S(y) AND NOT T(x);"


#: An intermediate the next level reads as one chunk of one str column: an
#: order-free relation, whose block comes straight from its tuple set.
STR_INTERMEDIATE_QUERY = (
    "Z1 := SELECT y FROM R(x, y) WHERE S(x); "
    "Z2 := SELECT (x, y) FROM G(x, y) WHERE Z1(y) AND NOT T(x);"
)
STR_INTERMEDIATE_DB = {
    "R": [(i, f"s{i % 11}") for i in range(40)],
    "S": [(i,) for i in range(0, 40, 3)],
    "G": [(i, f"s{i % 13}") for i in range(30)],
    "T": [(i,) for i in range(0, 30, 4)],
}


#: Equal-but-not-identical join keys: every class {1, 1.0, True}, {2, 2.0},
#: {0, 0.0, False} meets all its members, in a different order per database.
NUMERIC_QUERY = "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR T(x);"
NUMERIC_DBS = {
    "ints-first": {
        "R": [(1, "a"), (1.0, "b"), (True, "c"), (2, "d"), (2.0, "e"), (0, "f"),
              (False, "g"), (0.0, "h"), (3, "i")],
        "S": [(1.0,), (2,), (False,), (5,)],
        "T": [(True,), (2.0,), (0,), (3.0,)],
    },
    "floats-first": {
        "R": [(1.0, "a"), (True, "b"), (1, "c"), (2.0, "d"), (2, "e"), (0.0, "f"),
              (0, "g"), (False, "h"), (3.0, "i")],
        "S": [(True,), (2.0,), (0,), (5.0,)],
        "T": [(1,), (2,), (0.0,), (3,)],
    },
}
#: Small enough that these few hundred bytes spread over ~10-20 reducers.
NUMERIC_MB_PER_REDUCER = 2e-5

#: The planning-history pass: the batch shapes, then SGF texts over the same
#: relations.  No fact of ``R`` conforms to ``empty-z1``'s first guard (the
#: generated values stay far below 99999), so its ``Z1`` is estimated empty.
BATCH_SHAPES = ("A1", "A3", "B2", "C3", "C4")
PLANNING_TEXTS = {
    "sgf-two-level": (
        "Z1 := SELECT (x, y) FROM R(x, y, z, w) WHERE S(x) OR T(y); "
        "Z2 := SELECT x FROM G(x, y, z, w) WHERE Z1(x, y) AND NOT U(z);"
    ),
    "sgf-three-level": (
        "Z1 := SELECT z FROM H(x, y, z, w) WHERE U(x) AND V(y); "
        "Z2 := SELECT z FROM R(x, y, z, w) WHERE Z1(z) OR S(x); "
        "Z3 := SELECT x FROM I(x, y, z, w) WHERE Z2(x) AND NOT Z1(y);"
    ),
    "empty-z1": (
        "Z1 := SELECT x FROM R(x, y, z, 99999) WHERE S(x); "
        "Z2 := SELECT x FROM R(x, y, z, w) WHERE Z1(x) AND T(y);"
    ),
    "after-empty-z1": (
        "Z1 := SELECT x FROM R(x, y, z, w) WHERE S(x); "
        "Z2 := SELECT x FROM R(x, y, z, w) WHERE Z1(x) AND NOT T(y);"
    ),
}

#: Planning-history texts only (no dynamic pass), for the ways AUTO reuses
#: work: a flat query whose PAR, GREEDY and OPTIMAL partitions coincide (one
#: priced partition), a flat one of six semi-joins whose conditionals have
#: equal statistics (OPTIMAL's subset table, its scan over every partition
#: and its tie-break), and a nested one on which Greedy-SGF and SGF-Opt
#: choose different multiway sorts.
PRICING_TEXTS = {
    "par-is-greedy": "Z := SELECT (x, y) FROM G(x, y, z, w) WHERE NOT S(x);",
    "optimal-six-tied": (
        "Z := SELECT (x, y) FROM R(x, y, z, w) "
        "WHERE S(x) AND T(x) AND U(x) AND V(x) AND S(y) AND T(y);"
    ),
    "sgf-sorts-differ": (
        "Z1 := SELECT x FROM R(x, y, z, w) WHERE S(x); "
        "Z2 := SELECT x FROM G(x, y, z, w) WHERE T(y); "
        "Z3 := SELECT x FROM R(x, y, z, w) WHERE Z1(x) AND Z2(y);"
    ),
}


def canonical(value: object) -> str:
    """A bit-exact, hash-order-independent rendering of one field."""
    if isinstance(value, float):
        return "f:" + struct.pack(">d", value).hex()
    return repr(value)


def digest(lines) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


def _digest_run(outputs, metrics) -> str:
    """``outputs=`` and ``shuffle=`` digests of one run's relations and metrics."""
    output_lines = []
    for name in sorted(outputs):
        relation = outputs[name]
        for row in relation.sorted_tuples():
            output_lines.append(name + "|" + ",".join(canonical(v) for v in row))

    shuffle_lines = []
    for job_id in sorted(metrics.job_metrics):
        job = metrics.job_metrics[job_id]
        shuffle_lines.append(
            "%s|map:%s|reduce:%s"
            % (
                job_id,
                ",".join(map(canonical, job.map_task_durations)),
                ",".join(map(canonical, job.reduce_task_durations)),
            )
        )
    return f"outputs={digest(output_lines)} shuffle={digest(shuffle_lines)}"


def _digest_result(label: str, strategy: str, mode: str, result) -> str:
    return f"{label} strategy={strategy} kernel={mode} " + _digest_run(
        result.all_outputs, result.metrics
    )


def _digest_estimates(label: str, strategy: str, gumbo, query, database) -> str:
    program = gumbo.plan_with(query, database, strategy).program
    estimate = gumbo.estimator(database).program_estimate(program)
    lines = []
    for job_id, job in estimate.jobs:
        profile = job.profile
        parts = [
            f"{p.label}:{canonical(p.input_mb)}:{canonical(p.intermediate_mb)}"
            f":{p.records}:{p.mappers}"
            for p in profile.partitions
        ]
        lines.append(
            f"{job_id}|{canonical(job.cost)}|{canonical(profile.output_mb)}"
            f"|{profile.reducers}|" + "|".join(parts)
        )
    return f"{label} strategy={strategy} estimates={digest(lines)}"


def run_case(
    label: str, query, database, backend=None, modes=("auto", "off"), emit=print
) -> None:
    for strategy in applicable_strategies(query, include_optimal=False):
        gumbo = Gumbo(backend=backend)
        emit(_digest_estimates(label, strategy, gumbo, query, database))
        for mode in modes:
            gumbo = Gumbo(
                backend=backend, options=GumboOptions(kernel_mode=mode)
            )
            result = gumbo.execute(query, database, strategy)
            emit(_digest_result(label, strategy, mode, result))


#: The fan-out transports of the final pass (one: 2 worker shards).
FANOUT_TRANSPORTS = ("parallel",)


def run_fanout_case(label: str, query, database, transport: str) -> None:
    """The same digests, computed by the kernels inside the workers.

    One backend serves every strategy, so the check also covers warm-shard
    reuse; worker processes inherit the parent's ``PYTHONHASHSEED``, so
    hash-order dependence on either side of the process boundary shows up
    as a digest change.
    """
    from repro.exec import make_backend

    with make_backend(transport, workers=2) as backend:
        run_case(
            f"{label}[{transport}]", query, database, backend=backend, modes=("auto",)
        )


def run_numeric_case(reverse: bool) -> None:
    """Both numeric databases, in one job order and then in the opposite one.

    ``pass=cold`` lines come from the order this process ran first and the
    ``pass=warm`` lines must repeat them digest for digest; they are printed
    sorted, so the output does not show which order that was.
    """
    from repro.exec import make_backend
    from repro.mapreduce.engine import MapReduceEngine

    query = parse_sgf(NUMERIC_QUERY)
    engine = MapReduceEngine(mb_per_reducer_intermediate=NUMERIC_MB_PER_REDUCER)
    order = sorted(NUMERIC_DBS, reverse=reverse)
    lines: list = []
    for run, labels in (("cold", order), ("warm", order[::-1])):
        for transport, modes in (("serial", ("auto", "off")), ("parallel", ("auto",))):
            with make_backend(transport, engine=engine, workers=2) as backend:
                for label in labels:
                    run_case(
                        f"numeric-keys pass={run} {label}[{transport}]",
                        query,
                        Database.from_dict(NUMERIC_DBS[label]),
                        backend=backend,
                        modes=modes,
                        emit=lines.append,
                    )
    print("\n".join(sorted(lines)))


def _history_database(tuples: int) -> Database:
    """The database of the batch shapes, which the SGF texts also read."""
    return database_for(
        [sub for shape in BATCH_SHAPES for sub in workload_query(shape)],
        guard_tuples=tuples,
        seed=7,
    )


def run_planning_history(tuples: int, reverse: bool) -> None:
    """AUTO-plan every query of the list on one service, in order or reversed."""
    from repro.service import QueryService

    queries = {shape: workload_query(shape) for shape in BATCH_SHAPES}
    database = _history_database(tuples)
    texts = {**PLANNING_TEXTS, **PRICING_TEXTS}
    queries.update((label, parse_sgf(text)) for label, text in texts.items())
    order = list(queries)[::-1] if reverse else list(queries)
    lines = []
    with QueryService(database) as service:
        for label in order:
            choice = service.plan(queries[label], "auto")[0].choice
            costs = [f"{name}:{canonical(cost)}" for name, cost in choice.costs.items()]
            lines.append(
                f"planning-history {label} strategy={choice.strategy} "
                f"costs={digest(costs)}"
            )
    print("\n".join(sorted(lines)))


def run_dynamic(tuples: int) -> None:
    """Dynamic re-planning of every SGF text: outputs and merged metrics."""
    database = _history_database(tuples)
    gumbo = Gumbo()
    for label, text in PLANNING_TEXTS.items():
        result = gumbo.execute_dynamic(parse_sgf(text), database)
        metrics = result.metrics
        summary = [f"{k}:{canonical(v)}" for k, v in sorted(metrics.summary().items())]
        print(
            f"dynamic {label} stages={len(result.stages)} "
            f"{_digest_run(result.outputs, metrics)} summary={digest(summary)}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tuples",
        type=int,
        default=400,
        help="guard cardinality of the A3 workload (default 400)",
    )
    parser.add_argument(
        "--reverse-jobs",
        action="store_true",
        help="run the numeric-keys databases and the planning-history "
        "queries in the opposite order",
    )
    args = parser.parse_args()

    a3 = workload_query("A3")
    a3_db = database_for(a3, guard_tuples=args.tuples, seed=7)
    mixed = parse_sgf(MIXED_QUERY)
    mixed_db = Database.from_dict(MIXED_DB)
    run_case("A3", a3, a3_db)
    (zero_ary,) = parse_sgf(ZERO_ARY_QUERY)
    zero_ary = Gumbo.as_sgf(BSGFQuery("Z", (), zero_ary.guard, zero_ary.condition))
    run_case("mixed-types", mixed, mixed_db)
    run_case("zero-ary", zero_ary, mixed_db)
    str_intermediate = parse_sgf(STR_INTERMEDIATE_QUERY)
    str_db = Database.from_dict(STR_INTERMEDIATE_DB)
    run_case("str-intermediate", str_intermediate, str_db)
    for transport in FANOUT_TRANSPORTS:
        run_fanout_case("A3", a3, a3_db, transport)
        run_fanout_case("mixed-types", mixed, mixed_db, transport)
        run_fanout_case("zero-ary", zero_ary, mixed_db, transport)
        run_fanout_case("str-intermediate", str_intermediate, str_db, transport)
    run_numeric_case(args.reverse_jobs)
    run_planning_history(args.tuples, args.reverse_jobs)
    run_dynamic(args.tuples)


if __name__ == "__main__":
    main()
