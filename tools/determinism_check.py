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

Every line must be identical under every ``PYTHONHASHSEED``: CI runs the
script twice with different seeds and diffs the stdout; any divergence
pinpoints the combination that went hash-order dependent.

Usage::

    PYTHONPATH=src python tools/determinism_check.py [--tuples N]
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


def run_case(label: str, query, database, backend=None, modes=("off", "on")) -> None:
    for strategy in applicable_strategies(query, include_optimal=False):
        for mode in modes:
            gumbo = Gumbo(
                backend=backend, options=GumboOptions(kernel_mode=mode)
            )
            result = gumbo.execute(query, database, strategy)
            print(_digest_result(label, strategy, mode, result))


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tuples",
        type=int,
        default=400,
        help="guard cardinality of the A3 workload (default 400)",
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


if __name__ == "__main__":
    main()
