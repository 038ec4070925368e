"""The fuzzing campaign driver: generate, check, shrink, report.

:func:`run_fuzz` runs a seeded campaign of random (program, database) cases
through the :class:`~repro.fuzz.oracle.DifferentialOracle`; every divergence
is greedily shrunk (:mod:`repro.fuzz.shrink`) and packaged as a
:class:`Counterexample` carrying a standalone reproduction script — plain
query text plus data literals, no fuzzer state needed — so a failure seen in
CI can be replayed from the log alone.  Campaigns are reproducible from
``(seed, index, FuzzConfig)``: case *i* is always
:func:`repro.fuzz.generator.generate_case(seed, i, config)`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..model.database import Database
from ..query.sgf import SGFQuery
from .generator import FuzzCase, FuzzConfig, generate_case, generate_insert_batch
from .oracle import DifferentialOracle, Divergence
from .shrink import shrink_case

#: An insert batch: relation name -> rows.
InsertBatch = Dict[str, List[Tuple[object, ...]]]


@dataclass(frozen=True)
class FuzzOptions:
    """Campaign-level switches (the generator's knobs live in FuzzConfig)."""

    seed: int = 0
    iterations: int = 100
    config: FuzzConfig = field(default_factory=FuzzConfig)
    backends: Sequence[str] = ("serial", "parallel")
    workers: Optional[int] = None
    #: Persistent worker count for a ``sharded`` axis (None = its default).
    shards: Optional[int] = None
    #: Data plane for the parallel/sharded axes (``"shm"``/``"pickle"``/
    #: ``"auto"``; None keeps the ``"auto"`` default) — the dedicated shm
    #: fuzz axis pins ``"shm"`` and requires zero divergence and zero
    #: leaked ``/dev/shm/repro_*`` segments.
    data_plane: Optional[str] = None
    shrink: bool = True
    stop_on_failure: bool = True
    include_dynamic: bool = True
    include_optimal: bool = True
    include_auto: bool = True
    check_metrics: bool = True
    #: Also sweep every backend with the batch-kernel path forced on (the
    #: ``<backend>+kernel`` axes); outputs *and* simulated metrics must match
    #: the interpreted axes exactly.
    kernel_axis: bool = True
    #: Incremental oracle mode: every case additionally gets a random insert
    #: batch, and the incremental refresh of a materialization built by every
    #: strategy (on the first backend) must equal a full recompute.
    incremental: bool = False


@dataclass
class Counterexample:
    """A divergence, its provenance, and the shrunk minimal repro."""

    case: FuzzCase
    divergences: List[Divergence]
    program: SGFQuery  # shrunk (== case.program when shrinking is off)
    database: Database  # shrunk
    shrunk_divergences: List[Divergence]
    #: The insert batch of an incremental-mode divergence (None otherwise).
    inserts: Optional[InsertBatch] = None
    #: :attr:`DifferentialOracle.arguments` of the oracle that found it.
    oracle_arguments: Dict[str, object] = field(default_factory=dict)

    def script(self) -> str:
        """A standalone Python script reproducing the divergence."""
        return repro_script(self)

    def describe(self) -> str:
        lines = [f"counterexample ({self.case.case_id}):"]
        for divergence in self.shrunk_divergences or self.divergences:
            lines.append(f"  {divergence}")
        lines.append("shrunk program:")
        for statement in self.program.unparse().splitlines():
            lines.append(f"  {statement}")
        lines.append("shrunk database:")
        for relation in self.database:
            rows = ", ".join(repr(t) for t in relation.sorted_tuples()[:8])
            suffix = " ..." if len(relation) > 8 else ""
            lines.append(
                f"  {relation.name}/{relation.arity}: "
                f"{rows or '(empty)'}{suffix}"
            )
        if self.inserts is not None:
            lines.append("insert batch:")
            for name in sorted(self.inserts):
                rows = ", ".join(repr(t) for t in self.inserts[name][:8])
                suffix = " ..." if len(self.inserts[name]) > 8 else ""
                lines.append(f"  {name}: {rows or '(empty)'}{suffix}")
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Summary of one fuzzing campaign."""

    seed: int
    iterations: int
    cases_run: int = 0
    statements_generated: int = 0
    combinations_checked: int = 0
    counterexamples: List[Counterexample] = field(default_factory=list)
    #: Reference answers sqlite3 could not cross-check (a value without an
    #: SQL token); no committed profile generates one, so this must be 0.
    sql_skipped: int = 0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    @property
    def programs_per_second(self) -> float:
        return self.cases_run / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def format(self) -> str:
        lines = [
            f"fuzz campaign: seed={self.seed} cases={self.cases_run}/{self.iterations}",
            f"  statements generated:   {self.statements_generated}",
            f"  combinations checked:   {self.combinations_checked}",
            f"  divergences:            {len(self.counterexamples)}",
            f"  sql_skipped:            {self.sql_skipped}",
            f"  elapsed:                {self.elapsed_s:.2f}s "
            f"({self.programs_per_second:.1f} programs/s)",
        ]
        return "\n".join(lines)


def run_fuzz(
    options: Optional[FuzzOptions] = None,
    oracle: Optional[DifferentialOracle] = None,
    on_case: Optional[Callable[[FuzzCase], None]] = None,
) -> FuzzReport:
    """Run a seeded differential-fuzzing campaign.

    An externally supplied *oracle* is reused (and not closed); otherwise one
    is created from the options and closed before returning.  *on_case* is a
    progress hook called with every generated case before it is checked.
    """
    options = options or FuzzOptions()
    own_oracle = oracle is None
    if oracle is None:
        oracle = DifferentialOracle(
            backends=options.backends,
            workers=options.workers,
            shards=options.shards,
            data_plane=options.data_plane,
            include_dynamic=options.include_dynamic,
            include_optimal=options.include_optimal,
            include_auto=options.include_auto,
            check_metrics=options.check_metrics,
            kernel_axis=options.kernel_axis,
        )
    report = FuzzReport(seed=options.seed, iterations=options.iterations)
    skipped_before = oracle.sql_skipped
    start = perf_counter()
    try:
        for index in range(options.iterations):
            case = generate_case(options.seed, index, options.config)
            if on_case is not None:
                on_case(case)
            report.cases_run += 1
            report.statements_generated += len(case.program)
            inserts: Optional[InsertBatch] = None
            if options.incremental:
                inserts = generate_insert_batch(
                    options.seed, index, case.program, options.config
                )
                report.combinations_checked += len(
                    oracle.incremental_combinations(case.program)
                )
                divergences = oracle.check_incremental(
                    case.program, case.database, inserts
                )
            else:
                report.combinations_checked += len(oracle.combinations(case.program))
                divergences = oracle.check(case.program, case.database)
            if not divergences:
                continue
            report.counterexamples.append(
                _build_counterexample(case, divergences, oracle, options, inserts)
            )
            if options.stop_on_failure:
                break
    finally:
        if own_oracle:
            oracle.close()
        report.sql_skipped = oracle.sql_skipped - skipped_before
        report.elapsed_s = perf_counter() - start
    return report


def _build_counterexample(
    case: FuzzCase,
    divergences: List[Divergence],
    oracle: DifferentialOracle,
    options: FuzzOptions,
    inserts: Optional[InsertBatch] = None,
) -> Counterexample:
    program, database = case.program, case.database
    shrunk_divergences = divergences
    if options.shrink:
        # Each shrink probe re-checks only the combinations that originally
        # diverged (stopping at the first hit), not the full matrix — this
        # also keeps the shrinker anchored to the *same* bug.
        targets = frozenset(
            (divergence.strategy, backend)
            for divergence in divergences
            # Metric-parity divergences need every backend of the strategy
            # re-run to be observable; mismatches/errors only need their own.
            for backend in (
                oracle.backend_names
                if divergence.kind == "metrics"
                else (divergence.backend,)
            )
        )
        if inserts is not None:
            # Incremental mode: the insert batch is held fixed while the
            # program/database shrink (inserts into dropped relations simply
            # recreate them, which preserves the check's semantics).
            def probe(p: SGFQuery, d: Database) -> bool:
                return bool(
                    oracle.check_incremental(
                        p, d, inserts, only=targets, stop_at_first=True
                    )
                )

        else:

            def probe(p: SGFQuery, d: Database) -> bool:
                return bool(oracle.check(p, d, only=targets, stop_at_first=True))

        program, database = shrink_case(program, database, probe)
        if inserts is not None:
            shrunk_divergences = oracle.check_incremental(program, database, inserts)
        else:
            shrunk_divergences = oracle.check(program, database)
    return Counterexample(
        case=case,
        divergences=divergences,
        program=program,
        database=database,
        shrunk_divergences=shrunk_divergences,
        inserts=inserts,
        oracle_arguments=oracle.arguments,
    )


# -- repro scripts ------------------------------------------------------------------


def repro_script(counterexample: Counterexample) -> str:
    """A standalone script replaying the (shrunk) divergence.

    The script depends only on the installed ``repro`` package: the program
    is embedded as concrete syntax, the database as plain literals.  The
    original case can also be regenerated from its seed (see the header
    comment in the emitted script).
    """
    case = counterexample.case
    # Embedded via repr(), not a triple-quoted block: string constants may
    # contain backslashes or quote runs that would break a plain literal.
    program_text = counterexample.program.unparse()
    relation_literals = ",\n".join(
        f"    ({relation.name!r}, {relation.arity}, "
        f"{relation.sorted_tuples()!r})"
        for relation in counterexample.database
    )
    config = case.config
    # The campaign's own backends, width and data plane: the defaults may
    # not run the path that diverged (tiny cases ship by pickle under "auto").
    arguments = ", ".join(
        f"{name}={value!r}"
        for name, value in counterexample.oracle_arguments.items()
        if value is not None
    )
    check_block = f"with DifferentialOracle({arguments}) as oracle:\n"
    if counterexample.inserts is not None:
        check_block = (
            f"inserts = {counterexample.inserts!r}\n\n{check_block}"
            "    divergences = oracle.check_incremental(program, database, inserts)"
        )
    else:
        check_block += "    divergences = oracle.check(program, database)"
    return f'''"""Fuzzer counterexample: {case.case_id}.

Regenerate the unshrunk case with:

    from repro.fuzz import FuzzConfig, generate_case
    case = generate_case({case.seed}, {case.index}, {config!r})
"""

from repro import Database, Relation
from repro.fuzz import DifferentialOracle
from repro.query.parser import parse_sgf

program = parse_sgf({program_text!r})

database = Database()
for name, arity, rows in [
{relation_literals}
]:
    relation = Relation(name, arity)
    for row in rows:
        relation.add(row)
    database.add_relation(relation)

{check_block}
for divergence in divergences:
    print(divergence)
if not divergences:
    print("no divergence reproduced (fixed?)")
'''
