"""The differential oracle: reference semantics vs every strategy × backend.

For a given (program, database) pair the oracle computes the expected answer
with the reference evaluator of Section 3.1 (:func:`repro.query.reference.
evaluate_sgf` — the semantics *by definition*), has sqlite3 compute it again
from a whole-query translation (:mod:`repro.fuzz.sql_oracle`), and then
executes the program under every applicable evaluation strategy on every
configured execution backend, plus the dynamic re-planning executor.  Four
kinds of divergence are reported:

* ``reference`` — the two reference answers differ: one of them is wrong,
  and no execution can be judged until that is settled;
* ``mismatch`` — an output relation differs from the reference answer
  (missing and/or extra tuples);
* ``error``    — a strategy/backend raised instead of producing an answer;
* ``metrics``  — the *simulated* Hadoop metrics differ between two backends
  for the same strategy (they are documented to be bit-identical).

The oracle owns its execution backends (one engine shared by all of them, so
simulated metrics are comparable) and reuses them across checks — the
worker processes of the multi-process backend are started once per campaign,
not once per case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.config import ExecutionConfig
from ..core.dynamic import DynamicSGFExecutor
from ..core.gumbo import Gumbo
from ..core.options import GumboOptions
from ..core.strategies import AUTO, applicable_strategies
from ..mapreduce.engine import MapReduceEngine
from ..mapreduce.kernels import KERNEL_OFF, KERNEL_ON
from ..model.database import Database
from ..query.reference import evaluate_sgf, result_sets
from ..query.sgf import SGFQuery
from ..exec.base import PARALLEL, SHARDED, normalise_backend
from .sql_oracle import SQLOracleUnsupported, sql_answers

#: Pseudo-strategy name under which the dynamic executor is reported.
DYNAMIC = "dynamic"

#: Suffix of the axes that run the batch-kernel execution path.
KERNEL_SUFFIX = "+kernel"

#: The (strategy, backend) pair under which a disagreement between the
#: reference evaluator and the SQL translation is reported.
REFERENCE = ("reference", "sqlite")

#: Tuples of one output relation.
Answer = FrozenSet[Tuple[object, ...]]

#: One per-output mismatch: (output name, missing tuples, extra tuples).
Mismatch = Tuple[str, Tuple[Tuple[object, ...], ...], Tuple[Tuple[object, ...], ...]]


@dataclass(frozen=True)
class Divergence:
    """One disagreement between an execution and the reference answer."""

    kind: str  # "reference" | "mismatch" | "error" | "metrics" | "incremental"
    strategy: str
    backend: str
    detail: str
    #: For mismatches: output name -> (missing tuples, extra tuples).
    outputs: Tuple[Mismatch, ...] = ()

    def __str__(self) -> str:
        return (
            f"[{self.kind}] strategy={self.strategy} backend={self.backend}: "
            f"{self.detail}"
        )


class DifferentialOracle:
    """Compares every strategy × backend combination against the reference.

    Parameters
    ----------
    backends:
        Backend names to execute on (default: serial and parallel, so
        every campaign cross-checks both runtimes).  ``"parallel"`` and
        ``"sharded"`` name one transport: asking for both sweeps it once,
        under the label ``parallel``.
    workers / shards:
        Two spellings of the multi-process backend's worker-process count
        (see :func:`repro.exec.base.make_backend`).
    data_plane:
        How chunk payloads reach parallel/sharded workers
        (``"shm"``/``"pickle"``/``"auto"``, see :mod:`repro.exec.shm`) —
        the shm fuzz axis pins ``"shm"`` here and must diverge nowhere.
    engine:
        The shared MapReduce engine (paper-cluster default when omitted).
    include_dynamic:
        Also run the dynamic re-planning executor on every backend.
    include_optimal:
        Include the brute-force OPTIMAL / OPTIMAL-SGF strategies (within the
        size bounds of :func:`repro.core.strategies.applicable_strategies`).
    include_auto:
        Also run the cost-based AUTO meta-strategy on every backend — its
        winner must agree with the reference like any fixed strategy.
    check_metrics:
        Also require bit-identical simulated metrics across backends.
    kernel_axis:
        Also run the in-process (serial) backend with the batch-kernel
        execution path forced on (``kernel_mode="on"``), reported as the
        ``"serial+kernel"`` axis.  Its plain axis pins
        ``kernel_mode="off"``, so kernel-vs-interpreted output *and*
        simulated-metric parity is checked alongside the cross-backend
        parity (both funnel through the same metric comparison).  The
        multi-process backend has one axis whatever this flag says: its
        workers run kernels only, so its plain axis forces them on (with
        kernels off it would be the serial axis again).
    """

    def __init__(
        self,
        backends: Sequence[str] = ("serial", "parallel"),
        workers: Optional[int] = None,
        engine: Optional[MapReduceEngine] = None,
        include_dynamic: bool = True,
        include_optimal: bool = True,
        include_auto: bool = True,
        check_metrics: bool = True,
        kernel_axis: bool = True,
        shards: Optional[int] = None,
        data_plane: Optional[str] = None,
    ) -> None:
        if not backends:
            raise ValueError("the oracle needs at least one backend")
        self.engine = engine or MapReduceEngine()
        self.include_dynamic = include_dynamic
        self.include_optimal = include_optimal
        self.include_auto = include_auto
        self.check_metrics = check_metrics
        self.kernel_axis = kernel_axis
        #: The arguments deciding what runs where: a repro script must
        #: rebuild its oracle from these to replay what the campaign ran.
        self.arguments: Dict[str, object] = {
            "backends": tuple(backends),
            "workers": workers,
            "shards": shards,
            "data_plane": data_plane,
        }
        #: Reference computations that went without the SQL second opinion
        #: (a value had no token); shrink probes count too.
        self.sql_skipped = 0
        config = ExecutionConfig(
            workers=workers,
            shards=shards,
            data_plane=data_plane or "auto",
        )
        names = dict.fromkeys(normalise_backend(name) for name in backends)
        if PARALLEL in names:
            names.pop(SHARDED, None)  # one transport, one axis
        self._physical = {
            name: config.with_backend(name).make_backend(engine=self.engine)
            for name in names
        }
        # One axis per (backend, kernel mode), sharing the physical backend:
        # an in-process backend's plain axis pins the interpreted path and
        # its +kernel axis forces the batch path; the multi-process backend's
        # one axis runs kernels, the only mode its workers have.
        off, on = (GumboOptions(kernel_mode=mode) for mode in (KERNEL_OFF, KERNEL_ON))
        in_process = [name for name in names if name not in (PARALLEL, SHARDED)]
        axes = [
            (name, backend, off if name in in_process else on)
            for name, backend in self._physical.items()
        ]
        if kernel_axis:
            axes.extend(
                (name + KERNEL_SUFFIX, self._physical[name], on)
                for name in in_process
            )
        self._backends = {name: backend for name, backend, _ in axes}
        self._gumbos = {
            name: Gumbo(backend=backend, options=options)
            for name, backend, options in axes
        }
        self._dynamics = {
            name: DynamicSGFExecutor(backend=backend, options=options)
            for name, backend, options in axes
        }

    @property
    def backend_names(self) -> Tuple[str, ...]:
        return tuple(self._backends)

    def close(self) -> None:
        """Release backend resources (the worker processes)."""
        for backend in self._physical.values():
            backend.close()

    def __enter__(self) -> "DifferentialOracle":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # -- combinations -------------------------------------------------------------

    def strategies(self, program: SGFQuery) -> List[str]:
        """The strategies swept for *program* (AUTO and dynamic appended last)."""
        names = list(
            applicable_strategies(program, include_optimal=self.include_optimal)
        )
        if self.include_auto:
            names.append(AUTO)
        if self.include_dynamic:
            names.append(DYNAMIC)
        return names

    def combinations(self, program: SGFQuery) -> List[Tuple[str, str]]:
        """Every (strategy, backend) pair checked for *program*."""
        return [
            (strategy, backend)
            for strategy in self.strategies(program)
            for backend in self._backends
        ]

    # -- checking -----------------------------------------------------------------

    def check(
        self,
        program: SGFQuery,
        database: Database,
        only: Optional[FrozenSet[Tuple[str, str]]] = None,
        stop_at_first: bool = False,
    ) -> List[Divergence]:
        """All divergences of *program* over *database* (empty = agreement).

        *only* restricts the sweep to the given (strategy, backend) pairs and
        *stop_at_first* returns as soon as one divergence is found — the
        shrinker uses both so each shrink probe re-runs just the combination
        that originally diverged instead of the full matrix.  Note that
        restricting the backends also restricts the cross-backend metric
        parity check to the backends still swept.
        """
        expected, divergences = self._expected(program, database, only)
        for strategy in self.strategies(program):
            if stop_at_first and divergences:
                break
            if only is not None and all(s != strategy for s, _ in only):
                continue
            reference_summary: Optional[Dict[str, float]] = None
            reference_backend: Optional[str] = None
            for backend_name in self._backends:
                if stop_at_first and divergences:
                    break
                if only is not None and (strategy, backend_name) not in only:
                    continue
                try:
                    answers, summary = self._run(
                        strategy, backend_name, program, database
                    )
                except Exception as exc:  # a crashing strategy is a finding
                    divergences.append(
                        Divergence(
                            kind="error",
                            strategy=strategy,
                            backend=backend_name,
                            detail=f"{type(exc).__name__}: {exc}",
                        )
                    )
                    continue
                mismatch = _diff_answers(expected, answers)
                if mismatch:
                    divergences.append(
                        Divergence(
                            kind="mismatch",
                            strategy=strategy,
                            backend=backend_name,
                            detail=_describe_mismatch(mismatch),
                            outputs=mismatch,
                        )
                    )
                if self.check_metrics:
                    if reference_summary is None:
                        reference_summary, reference_backend = summary, backend_name
                    elif summary != reference_summary:
                        divergences.append(
                            Divergence(
                                kind="metrics",
                                strategy=strategy,
                                backend=backend_name,
                                detail=(
                                    f"simulated metrics differ from backend "
                                    f"{reference_backend!r}: {summary} vs "
                                    f"{reference_summary}"
                                ),
                            )
                        )
        return divergences

    # -- incremental checking -----------------------------------------------------

    def incremental_strategies(self, program: SGFQuery) -> List[str]:
        """Strategies swept by the incremental oracle (no dynamic executor).

        The dynamic executor re-plans mid-flight and has no materialization
        notion; every plannable strategy — including AUTO — must however
        produce a materialization whose incremental refresh matches a full
        recompute.
        """
        names = list(
            applicable_strategies(program, include_optimal=self.include_optimal)
        )
        if self.include_auto:
            names.append(AUTO)
        return names

    def incremental_combinations(
        self, program: SGFQuery
    ) -> List[Tuple[str, str]]:
        """Every (strategy, backend) pair the incremental check runs.

        One per strategy, on the first backend: the refresh reads the
        maintained indexes and runs nothing on a backend, so the backend
        only decides where the materialization is built — and strategy ×
        backend parity of that build is :meth:`check`'s job.
        """
        backend = self.backend_names[0]
        return [
            (strategy, backend)
            for strategy in self.incremental_strategies(program)
        ]

    def check_incremental(
        self,
        program: SGFQuery,
        database: Database,
        inserts: Dict[str, Sequence[Tuple[object, ...]]],
        only: Optional[FrozenSet[Tuple[str, str]]] = None,
        stop_at_first: bool = False,
    ) -> List[Divergence]:
        """Divergences of incremental refresh vs full recompute (empty = agreement).

        For every combination of :meth:`incremental_combinations` the program
        is materialized over *database*, the insert batch is applied through
        :meth:`Gumbo.execute_delta <repro.core.gumbo.Gumbo.execute_delta>`,
        and the refreshed outputs are compared against the reference
        evaluator over the fully rebuilt database.  *only* / *stop_at_first*
        mirror :meth:`check` for the shrinker.
        """
        from ..incremental import apply_inserts, dedupe_inserts

        mutated = database.copy()
        apply_inserts(mutated, dedupe_inserts(mutated, inserts))
        expected, divergences = self._expected(program, mutated, only)
        for strategy, backend_name in self.incremental_combinations(program):
            if stop_at_first and divergences:
                break
            if only is not None and (strategy, backend_name) not in only:
                continue
            gumbo = self._gumbos[backend_name]
            try:
                materialization = gumbo.materialize(
                    program, database.copy(), strategy
                )
                gumbo.execute_delta(materialization, inserts)
                answers = materialization.answers()
            except Exception as exc:  # a crashing refresh is a finding
                divergences.append(
                    Divergence(
                        kind="error",
                        strategy=strategy,
                        backend=backend_name,
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            mismatch = _diff_answers(expected, answers)
            if mismatch:
                divergences.append(
                    Divergence(
                        kind="incremental",
                        strategy=strategy,
                        backend=backend_name,
                        detail=_describe_mismatch(mismatch),
                        outputs=mismatch,
                    )
                )
        return divergences

    def _expected(
        self,
        program: SGFQuery,
        database: Database,
        only: Optional[FrozenSet[Tuple[str, str]]],
    ) -> Tuple[Dict[str, Answer], List[Divergence]]:
        """The reference answers, and whether sqlite3 disputes them.

        The SQL translation is consulted on every check unless *only* leaves
        :data:`REFERENCE` out (a shrink probe anchored to another bug), or a
        value has no SQL token (counted in :attr:`sql_skipped`).
        """
        expected = result_sets(evaluate_sgf(program, database))
        if only is not None and REFERENCE not in only:
            return expected, []
        try:
            second = sql_answers(program, database)
        except SQLOracleUnsupported:
            self.sql_skipped += 1
            return expected, []
        mismatch = _diff_answers(expected, second)
        if not mismatch:
            return expected, []
        strategy, backend = REFERENCE
        return expected, [
            Divergence(
                kind="reference",
                strategy=strategy,
                backend=backend,
                detail="evaluate_sgf vs sqlite3: " + _describe_mismatch(mismatch),
                outputs=mismatch,
            )
        ]

    def _run(
        self,
        strategy: str,
        backend_name: str,
        program: SGFQuery,
        database: Database,
    ) -> Tuple[Dict[str, Answer], Dict[str, float]]:
        """Execute one combination, returning answers and the simulated summary."""
        if strategy == DYNAMIC:
            result = self._dynamics[backend_name].execute(program, database)
            answers = {
                name: frozenset(relation.tuples())
                for name, relation in result.outputs.items()
            }
            return answers, result.metrics.summary()
        result = self._gumbos[backend_name].execute(program, database, strategy)
        answers = {
            name: frozenset(relation.tuples())
            for name, relation in result.all_outputs.items()
        }
        return answers, result.summary()


def _diff_answers(
    expected: Dict[str, Answer], actual: Dict[str, Answer]
) -> Tuple[Mismatch, ...]:
    """Per-output (missing, extra) tuples, for outputs that disagree."""
    mismatches = []
    for name in sorted(expected):
        got = actual.get(name, frozenset())
        missing = expected[name] - got
        extra = got - expected[name]
        if missing or extra:
            mismatches.append(
                (
                    name,
                    tuple(sorted(missing, key=repr)),
                    tuple(sorted(extra, key=repr)),
                )
            )
    return tuple(mismatches)


def _describe_mismatch(
    mismatch: Tuple[Tuple[str, Tuple, Tuple], ...], limit: int = 4
) -> str:
    parts = []
    for name, missing, extra in mismatch:
        bits = []
        if missing:
            shown = ", ".join(repr(t) for t in missing[:limit])
            more = f" (+{len(missing) - limit} more)" if len(missing) > limit else ""
            bits.append(f"missing {shown}{more}")
        if extra:
            shown = ", ".join(repr(t) for t in extra[:limit])
            more = f" (+{len(extra) - limit} more)" if len(extra) > limit else ""
            bits.append(f"extra {shown}{more}")
        parts.append(f"{name}: {'; '.join(bits)}")
    return " | ".join(parts)
