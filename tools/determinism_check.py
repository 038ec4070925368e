#!/usr/bin/env python
"""Cross-hash-seed determinism check for the execution engine.

Runs a fixed workload mix — the Section 5 A3 query plus a handwritten
mixed-type database that stresses the type-tagged sort order (ints, floats,
strings, ``None`` sharing columns) — under both kernel modes and every
applicable strategy, then prints a canonical digest per combination.  A
final pass re-runs the mix on the multi-process backend (every ``map_batch``
task executed in worker processes with their own interpreters, chunks routed
by ``stable_hash`` placement), kernels on — the only mode its workers have —
whose digests must equal the serial ones line for line:

* ``outputs`` — SHA-256 over the sorted output relations, with floats
  rendered as their IEEE-754 bit patterns so the digest is bit-exact;
* ``shuffle`` — SHA-256 over the per-job map/reduce task-duration vectors,
  which expose the simulated shuffle's key-to-reducer placement (the part
  of the metrics most sensitive to set/dict iteration order).

A last case guards against *history* dependence: join keys that are equal but
not identical (``1``, ``1.0`` and ``True``) on an engine that spreads every
job over several reducers, where each key must be placed by its own job's
data and by nothing an earlier job left behind (a memo keyed by equality once
made ``stable_hash((1.0,))`` return whatever ``(1,)`` had hashed to).  Its two
databases — one meeting the ints first, one the floats — are run in one
order and then, in the same process, in the opposite one; ``--reverse-jobs``
swaps which order the cold process sees.

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


def _digest_result(label: str, strategy: str, mode: str, result) -> str:
    output_lines = []
    for name in sorted(result.all_outputs):
        relation = result.all_outputs[name]
        for row in relation.sorted_tuples():
            output_lines.append(name + "|" + ",".join(canonical(v) for v in row))

    shuffle_lines = []
    for job_id in sorted(result.metrics.job_metrics):
        metrics = result.metrics.job_metrics[job_id]
        shuffle_lines.append(
            "%s|map:%s|reduce:%s"
            % (
                job_id,
                ",".join(map(canonical, metrics.map_task_durations)),
                ",".join(map(canonical, metrics.reduce_task_durations)),
            )
        )

    return (
        f"{label} strategy={strategy} kernel={mode} "
        f"outputs={digest(output_lines)} shuffle={digest(shuffle_lines)}"
    )


def run_case(
    label: str, query, database, backend=None, modes=("off", "on"), emit=print
) -> None:
    for strategy in applicable_strategies(query, include_optimal=False):
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
            f"{label}[{transport}]", query, database, backend=backend, modes=("on",)
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
        for transport, modes in (("serial", ("off", "on")), ("parallel", ("on",))):
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
        help="run the numeric-keys databases in the opposite order first",
    )
    args = parser.parse_args()

    a3 = workload_query("A3")
    a3_db = database_for(a3, guard_tuples=args.tuples, seed=7)
    mixed = parse_sgf(MIXED_QUERY)
    mixed_db = Database.from_dict(MIXED_DB)
    run_case("A3", a3, a3_db)
    run_case("mixed-types", mixed, mixed_db)
    for transport in FANOUT_TRANSPORTS:
        run_fanout_case("A3", a3, a3_db, transport)
        run_fanout_case("mixed-types", mixed, mixed_db, transport)
    run_numeric_case(args.reverse_jobs)


if __name__ == "__main__":
    main()
