"""Planner-side cost estimation for MSJ / EVAL / fused jobs.

The grouping decisions of ``Greedy-BSGF`` (Section 4.4) and the ordering
decisions of ``Greedy-SGF`` (Section 4.6) are driven by *estimated* job costs:
Equation (5) for a grouped ``MSJ(S)`` job, Equation (6) for evaluating each
semi-join in its own job, and Equation (7) for the EVAL job.  This module
computes those estimates from a :class:`~repro.cost.estimates.StatisticsCatalog`
and a :class:`~repro.cost.models.CostModel` (Gumbo or Wang — experiment E3
compares the plans each model produces).

The estimates mirror what the execution engine will actually measure:

* every input relation of a job is one uniform map partition, whose
  intermediate size is derived from the number of conforming facts and the
  job's :class:`~repro.core.messages.MessageLayout` — the same description
  of its messages the engine's map phase reads;
* message packing is modelled by grouping messages that provably share a key
  (same relation and same join-key column signature) so that the key is
  charged once per group;
* output sizes use the paper's upper bound (all conforming guard tuples
  survive), stored as 8-byte tuple references when optimisation (2) is on.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..cost.constants import GUMBO_MB_PER_REDUCER, PIG_INPUT_MB_PER_REDUCER
from ..cost.estimates import RelationStats, StatisticsCatalog
from ..cost.formulas import MapPartition
from ..cost.models import CostModel, GumboCostModel, JobProfile
from ..mapreduce.job import MapReduceJob
from ..mapreduce.program import MRProgram
from ..model.atoms import Atom
from ..query.bsgf import BSGFQuery, SemiJoinSpec
from .chain import SemiJoinChainJob, UnionProjectJob
from .eval_job import EvalJob, EvalTarget
from .fused import FusedOneRoundJob
from .messages import (
    FIELD_BYTES,
    MARKER_BYTES,
    AssertSide,
    MessageLayout,
    RequestSide,
    payload_bytes,
)
from .msj import MSJJob, msj_layout
from .options import GumboOptions
from .plan import eval_targets_for

_MB = 1024.0 * 1024.0

T = TypeVar("T")


def _key_bytes(key_length: int) -> int:
    return max(1, key_length) * FIELD_BYTES


def _key_signature(atom: Atom, join_key: Sequence) -> Tuple[int, ...]:
    """First column positions of the join-key variables within *atom* (``-1``
    for a variable it lacks).

    Two messages emitted by the same fact share their key value whenever the
    join keys project the same columns of that fact, which is exactly what
    this signature captures (for atoms without constants or repeated
    variables, which covers the experiment workloads).
    """
    first = atom.first_positions
    return tuple([first.get(variable, -1) for variable in join_key])


def _spec_relations(specs: Sequence[SemiJoinSpec]) -> Iterable[str]:
    """The relations whose statistics Equation (5) reads for *specs*."""
    for spec in specs:
        yield spec.guard.relation
        yield spec.conditional.relation


def query_relations(queries: Sequence[BSGFQuery]) -> Iterable[str]:
    """The relations whose statistics Equations (5) and (7) read for any
    grouping of *queries*' semi-joins: their guards and conditionals."""
    for query in queries:
        yield query.guard.relation
        for atom in query.conditional_atoms:
            yield atom.relation


@dataclass(frozen=True)
class JobEstimate:
    """Estimated profile and cost of one MR job."""

    profile: JobProfile
    cost: float

    @property
    def intermediate_mb(self) -> float:
        return self.profile.intermediate_mb

    @property
    def input_mb(self) -> float:
        return self.profile.input_mb


@dataclass(frozen=True)
class ProgramEstimate:
    """Estimated cost of a whole MR program, job by job.

    ``jobs`` preserves the program's level order, so the breakdown can be
    printed next to the plan.  ``cost`` is the sum over all jobs — the same
    additive total the strategy optimizers minimise (Equation (9) generalised
    to arbitrary job DAGs).
    """

    program_name: str
    jobs: Tuple[Tuple[str, JobEstimate], ...]

    @property
    def cost(self) -> float:
        return sum(estimate.cost for _, estimate in self.jobs)

    def breakdown(self) -> Dict[str, float]:
        return {job_id: estimate.cost for job_id, estimate in self.jobs}


class PlanCostEstimator:
    """Estimates the cost of Gumbo's job types for the plan optimizers."""

    def __init__(
        self,
        catalog: StatisticsCatalog,
        cost_model: Optional[CostModel] = None,
        options: Optional[GumboOptions] = None,
        split_mb: float = 128.0,
        mb_per_reducer: float = GUMBO_MB_PER_REDUCER,
        mb_per_reducer_input: float = PIG_INPUT_MB_PER_REDUCER,
        use_selectivity_for_outputs: bool = False,
    ) -> None:
        self.catalog = catalog
        self.cost_model = cost_model or GumboCostModel()
        self.options = options or GumboOptions()
        self.split_mb = split_mb
        self.mb_per_reducer = mb_per_reducer
        self.mb_per_reducer_input = mb_per_reducer_input
        #: When true, output-size estimates apply the sampled semi-join
        #: selectivity instead of the paper's upper bound (all guard facts
        #: survive).  The upper bound is the default, matching Section 4.1.
        self.use_selectivity_for_outputs = use_selectivity_for_outputs
        #: Equation (5) estimates by ordered spec tuple, Equation (7) ones
        #: and GOPT partitions (filled by :mod:`repro.core.strategies`) by
        #: query tuple, each entry stamped as :meth:`memoised` describes.
        self._msj_memo: Dict[Tuple[SemiJoinSpec, ...], tuple] = {}
        self._eval_memo: Dict[Tuple[BSGFQuery, ...], tuple] = {}
        self.gopt_memo: Dict[Tuple[BSGFQuery, ...], tuple] = {}

    # -- shared helpers --------------------------------------------------------

    def scratch_copy(self) -> "PlanCostEstimator":
        """A copy over a scratch catalog: planning-time estimate registrations
        (intermediate outputs, chain steps) stay local to this copy while the
        sampled base-relation statistics remain shared.  The copy starts with
        empty memos."""
        return PlanCostEstimator(
            self.catalog.scratch_copy(),
            self.cost_model,
            self.options,
            split_mb=self.split_mb,
            mb_per_reducer=self.mb_per_reducer,
            mb_per_reducer_input=self.mb_per_reducer_input,
            use_selectivity_for_outputs=self.use_selectivity_for_outputs,
        )

    def memoised(
        self,
        memo: Dict,
        key: object,
        relations: Callable[[], Iterable[str]],
        compute: Callable[[], T],
    ) -> T:
        """``compute()``, memoised under *key* in *memo*, one of this
        estimator's per-plan memos.

        ``relations()`` names every relation whose statistics ``compute``
        reads.  An entry stored at the catalog's current
        :attr:`~repro.cost.estimates.StatisticsCatalog.generation` is a hit
        with no further look; after a change it still holds (re-stamped) if
        those relations' stats objects are the very ones it was stored with,
        so :meth:`~repro.cost.estimates.StatisticsCatalog.refresh_relation`
        or a late registration of one of them forces a recompute.
        """
        generation = self.catalog.generation
        entry = memo.get(key)
        if entry is not None and entry[0] == generation:
            return entry[2]
        relation_stats = self.catalog.relation_stats
        stamp = tuple(relation_stats(name) for name in relations())
        if entry is not None and all(map(operator.is_, entry[1], stamp)):
            value = entry[2]
        else:
            value = compute()
        memo[key] = (generation, stamp, value)
        return value

    def _mappers_for(self, input_mb: float) -> int:
        return max(1, math.ceil(input_mb / self.split_mb))

    def _reducers_for(self, input_mb: float, intermediate_mb: float) -> int:
        if self.options.reducers_by_intermediate:
            basis, per = intermediate_mb, self.mb_per_reducer
        else:
            basis, per = input_mb, self.mb_per_reducer_input
        return max(1, math.ceil(basis / per)) if per > 0 else 1

    def _partition(
        self, label: str, input_mb: float, intermediate_mb: float, records: int
    ) -> MapPartition:
        return MapPartition(
            input_mb=input_mb,
            intermediate_mb=intermediate_mb,
            records=records,
            mappers=self._mappers_for(input_mb),
            label=label,
        )

    def _estimate(
        self, partitions: List[MapPartition], output_mb: float, label: str
    ) -> JobEstimate:
        """Profile and cost of a job with these map partitions and output."""
        input_mb = sum(p.input_mb for p in partitions)
        intermediate_mb = sum(p.intermediate_mb for p in partitions)
        reducers = self._reducers_for(input_mb, intermediate_mb)
        profile = JobProfile(partitions, output_mb, reducers, label=label)
        return JobEstimate(profile, self.cost_model.job_cost(profile))

    def semijoin_output_mb(self, spec: SemiJoinSpec) -> float:
        """Estimate of |X_i| (upper bound, or selectivity-scaled when enabled)."""
        count = self.catalog.atom_count(spec.guard)
        per_tuple = payload_bytes(len(spec.projection), self.options.tuple_reference)
        size = count * per_tuple / _MB
        if self.use_selectivity_for_outputs:
            size *= self.catalog.semijoin_selectivity(spec.guard, spec.conditional)
        return size

    def bsgf_output_mb(self, query: BSGFQuery) -> float:
        """Estimate of the final output size |Z| of a BSGF query."""
        count = self.catalog.atom_count(query.guard)
        per_tuple = max(1, len(query.projection)) * FIELD_BYTES
        size = count * per_tuple / _MB
        if self.use_selectivity_for_outputs and query.conditional_atoms:
            # Conservatively use the most selective conjunct-style bound: the
            # minimum single-atom selectivity.
            selectivities = [
                self.catalog.semijoin_selectivity(query.guard, atom)
                for atom in query.conditional_atoms
            ]
            size *= min(selectivities) if selectivities else 1.0
        return size

    # -- MSJ jobs (Equation (5)) ---------------------------------------------------

    def msj_partitions(self, specs: Sequence[SemiJoinSpec]) -> List[MapPartition]:
        """Estimated map partitions of the MSJ job evaluating *specs* together.

        Priced in pipeline mode (requests carry the full guard row), as the
        plans run it; one partition per distinct relation, in the order the
        specs name them.
        """
        relations: List[str] = []
        for spec in specs:
            for name in (spec.guard.relation, spec.conditional.relation):
                if name not in relations:
                    relations.append(name)
        layout = msj_layout(specs, self.options.tuple_reference)
        return self._layout_partitions(
            layout,
            relations,
            lambda side: self.catalog.atom_count(side.atom),
            self.options.message_packing,
        )

    def _layout_partitions(
        self,
        layout: MessageLayout,
        relations: Sequence[str],
        request_count: Callable[[RequestSide], float],
        packing: bool,
    ) -> List[MapPartition]:
        """One map partition per relation of *relations*, sized from *layout*.

        A request side is charged for ``request_count(side)`` facts, an
        assert side for the facts conforming to its atom.  Message packing is
        modelled by grouping messages that provably share a key, so the key
        is charged once per group and fact: the requests of one atom with the
        same join-key column signature, and the asserts of the atoms over one
        relation with the same signature (charged at the largest atom count).
        """
        # Request-side contributions, grouped per relation.  Per fact, bytes
        # and records are exact integer sums; the float sums keep their order.
        request_bytes: Dict[str, float] = defaultdict(float)
        request_records: Dict[str, float] = defaultdict(float)
        by_atom: Dict[Tuple[str, Atom], List[RequestSide]] = defaultdict(list)
        for side in layout.requests:
            by_atom[side.relation, side.atom].append(side)
        for (relation, atom), sides in by_atom.items():
            keys = [(s.prefix, _key_signature(atom, s.join_key)) for s in sides]
            if packing:
                keys = set(keys)
            key_bytes = sum([_key_bytes(len(p) + len(sig)) for p, sig in keys])
            per_tuple_bytes = key_bytes + sum([s.size for s in sides])
            count = request_count(sides[0])
            request_bytes[relation] += count * per_tuple_bytes
            request_records[relation] += count * len(keys)

        # Assert-side contributions: atoms over the same relation with the
        # same key signature share key values fact-by-fact, so packing merges
        # their asserts.
        assert_bytes: Dict[str, float] = defaultdict(float)
        assert_records: Dict[str, float] = defaultdict(float)
        by_signature: Dict[tuple, List[AssertSide]] = defaultdict(list)
        for side in layout.asserts:
            signature = _key_signature(side.atom, side.join_key)
            by_signature[side.relation, side.prefix, signature].append(side)
        for (relation, prefix, signature), sides in by_signature.items():
            representative = max(self.catalog.atom_count(s.atom) for s in sides)
            key_bytes = _key_bytes(len(prefix) + len(signature))
            if packing:
                per_tuple_bytes = key_bytes + sum(s.size for s in sides)
                per_tuple_records = 1
            else:
                per_tuple_bytes = sum(key_bytes + s.size for s in sides)
                per_tuple_records = len(sides)
            assert_bytes[relation] += representative * per_tuple_bytes
            assert_records[relation] += representative * per_tuple_records

        return [
            self._partition(
                name,
                self._relation_mb(name),
                (request_bytes[name] + assert_bytes[name]) / _MB,
                int(round(request_records[name] + assert_records[name])),
            )
            for name in relations
        ]

    def msj_estimate(self, specs: Sequence[SemiJoinSpec]) -> JobEstimate:
        """Equation (5): estimated cost of evaluating *specs* in one MSJ job.

        Memoised per ordered tuple of specs (the partition and output sums
        follow spec order), see :meth:`memoised`.
        """
        key = tuple(specs)
        return self.memoised(
            self._msj_memo,
            key,
            lambda: _spec_relations(key),
            lambda: self._msj_estimate(key),
        )

    def _msj_estimate(self, specs: Tuple[SemiJoinSpec, ...]) -> JobEstimate:
        partitions = self.msj_partitions(specs)
        output_mb = sum(self.semijoin_output_mb(spec) for spec in specs)
        return self._estimate(partitions, output_mb, "MSJ")

    def msj_cost(self, specs: Sequence[SemiJoinSpec]) -> float:
        return self.msj_estimate(specs).cost

    def separate_cost(self, specs: Sequence[SemiJoinSpec]) -> float:
        """Equation (6): each semi-join evaluated in its own MR job."""
        return sum(self.msj_cost([spec]) for spec in specs)

    def gain(
        self, group_a: Sequence[SemiJoinSpec], group_b: Sequence[SemiJoinSpec]
    ) -> float:
        """``gain(S_i, S_j) = cost(S_i) + cost(S_j) - cost(S_i ∪ S_j)``."""
        return (
            self.msj_cost(group_a)
            + self.msj_cost(group_b)
            - self.msj_cost(list(group_a) + list(group_b))
        )

    # -- EVAL jobs (Equation (7)) -------------------------------------------------------

    def _eval_pair_bytes(self, guard: Atom) -> int:
        """One EVAL message: a (target, guard row) key and a marker value."""
        return (
            MARKER_BYTES
            + payload_bytes(guard.arity, self.options.tuple_reference)
            + MARKER_BYTES
        )

    def eval_estimate(self, targets: Sequence[EvalTarget]) -> JobEstimate:
        """Estimated cost of the EVAL job combining the given targets."""
        partitions: List[MapPartition] = []
        seen_guards: Dict[str, float] = {}
        output_mb = 0.0
        for target in targets:
            query = target.query
            guard_mb = self._relation_mb(query.guard.relation)
            guard_count = self.catalog.atom_count(query.guard)
            if query.guard.relation not in seen_guards:
                key_value_bytes = self._eval_pair_bytes(query.guard)
                partitions.append(
                    self._partition(
                        query.guard.relation,
                        guard_mb,
                        guard_count * key_value_bytes / _MB,
                        int(guard_count),
                    )
                )
                seen_guards[query.guard.relation] = guard_mb
            for spec, name in zip(query.semijoin_specs(), target.intermediates):
                size_mb = self.semijoin_output_mb(spec)
                count = self.catalog.atom_count(spec.guard)
                key_value_bytes = self._eval_pair_bytes(spec.guard)
                partitions.append(
                    self._partition(
                        name, size_mb, count * key_value_bytes / _MB, int(count)
                    )
                )
            output_mb += self.bsgf_output_mb(query)
        return self._estimate(partitions, output_mb, "EVAL")

    def eval_cost(self, targets: Sequence[EvalTarget]) -> float:
        return self.eval_estimate(targets).cost

    def eval_cost_for_queries(self, queries: Sequence[BSGFQuery]) -> float:
        """EVAL cost when every query's semi-joins get default intermediate names.

        Memoised per query tuple (see :meth:`memoised`): every plan of one
        query set — PAR, GREEDY, OPTIMAL, an SGF stage — has the same EVAL job.
        """
        key = tuple(queries)
        return self.memoised(
            self._eval_memo,
            key,
            lambda: query_relations(key),
            lambda: self.eval_estimate(eval_targets_for(key)),
        ).cost

    # -- fused 1-ROUND jobs ----------------------------------------------------------------

    def one_round_estimate(self, queries: Sequence[BSGFQuery]) -> JobEstimate:
        """Estimated cost of the fused MSJ+EVAL job for shared-key queries."""
        all_specs: List[SemiJoinSpec] = []
        for query in queries:
            all_specs.extend(query.semijoin_specs())
        if all_specs:
            partitions = self.msj_estimate(all_specs).profile.partitions
        else:
            partitions = []
            for query in queries:
                input_mb = self._relation_mb(query.guard.relation)
                records = int(self.catalog.atom_count(query.guard))
                partitions.append(
                    self._partition(query.guard.relation, input_mb, input_mb, records)
                )
        output_mb = sum(self.bsgf_output_mb(query) for query in queries)
        return self._estimate(partitions, output_mb, "1-ROUND")

    # -- whole basic MR programs (Equation (9)) -----------------------------------------------

    def basic_program_cost(
        self,
        queries: Sequence[BSGFQuery],
        groups: Sequence[Sequence[SemiJoinSpec]],
    ) -> float:
        """Equation (9): EVAL cost plus the cost of every MSJ group."""
        return self.eval_cost_for_queries(queries) + sum(
            self.msj_cost(group) for group in groups
        )

    # -- arbitrary MR programs (job-type dispatch) --------------------------------------------

    def job_estimate(self, job: MapReduceJob) -> JobEstimate:
        """Estimated profile and cost of one materialised MR job.

        Dispatches on the concrete job type: MSJ and EVAL jobs reuse the
        equation-based estimates above, fused 1-ROUND jobs the fused estimate,
        and the SEQ-plan jobs (semi-join chain steps and union/projection)
        get profiles assembled from the catalog here.  This is what lets the
        AUTO strategy compare *any* candidate program on one scale.
        """
        if isinstance(job, MSJJob):
            return self.msj_estimate(job.specs)
        if isinstance(job, EvalJob):
            return self.eval_estimate(job.targets)
        if isinstance(job, FusedOneRoundJob):
            return self.one_round_estimate(job.queries)
        if isinstance(job, SemiJoinChainJob):
            return self._chain_estimate(job)
        if isinstance(job, UnionProjectJob):
            return self._union_estimate(job)
        raise TypeError(
            f"no cost estimate for job type {type(job).__name__} "
            f"(job {job.job_id!r})"
        )

    def _relation_tuples(self, name: str) -> float:
        stats = self.catalog.relation_stats(name)
        return float(stats.tuples) if stats else 0.0

    def _relation_mb(self, name: str) -> float:
        stats = self.catalog.relation_stats(name)
        return stats.size_mb if stats else 0.0

    def _chain_estimate(self, job) -> JobEstimate:
        """One SEQ chain step: filter the current guard rows by one literal.

        Every row of the step's input relation requests; messages are priced
        unpacked.
        """
        partitions = self._layout_partitions(
            job.layout,
            job.input_relations(),
            lambda side: self._relation_tuples(side.relation),
            packing=False,
        )
        arity = (
            max(1, len(job.projection))
            if job.projection is not None
            else max(1, job.guard_atom.arity)
        )
        # Upper bound: every input guard row survives the filter step.
        survivors = self._relation_tuples(job.input_name)
        output_mb = survivors * arity * FIELD_BYTES / _MB
        return self._estimate(partitions, output_mb, "CHAIN")

    def _union_estimate(self, job) -> JobEstimate:
        """The union/projection job combining the branch outputs of a SEQ plan."""
        arity = max(1, len(job.projection))
        partitions = []
        total_tuples = 0.0
        for name in job.input_names:
            count = self._relation_tuples(name)
            total_tuples += count
            per_tuple_bytes = _key_bytes(arity) + MARKER_BYTES
            partitions.append(
                self._partition(
                    name,
                    self._relation_mb(name),
                    count * per_tuple_bytes / _MB,
                    int(round(count)),
                )
            )
        output_mb = total_tuples * arity * FIELD_BYTES / _MB
        return self._estimate(partitions, output_mb, "UNION")

    def _register_output_estimates(self, job: MapReduceJob) -> None:
        """Seed catalog stats for *job*'s outputs so later jobs can be costed.

        Mirrors the paper's upper bound: intermediate relations are assumed to
        keep every tuple of the relation they filter (Section 4.1), so chained
        estimates never underestimate downstream input sizes.
        """
        estimates: List[Tuple[str, float, int]] = []
        if isinstance(job, MSJJob):
            for spec in job.specs:
                count = self.catalog.atom_count(spec.guard)
                arity = max(1, spec.guard.arity)
                estimates.append((spec.output, count, arity))
        elif isinstance(job, EvalJob):
            for target in job.targets:
                count = self.catalog.atom_count(target.query.guard)
                arity = max(1, len(target.query.projection))
                estimates.append((target.output, count, arity))
        elif isinstance(job, FusedOneRoundJob):
            for query in job.queries:
                count = self.catalog.atom_count(query.guard)
                arity = max(1, len(query.projection))
                estimates.append((query.output, count, arity))
        elif isinstance(job, SemiJoinChainJob):
            count = self._relation_tuples(job.input_name)
            arity = (
                max(1, len(job.projection))
                if job.projection is not None
                else max(1, job.guard_atom.arity)
            )
            estimates.append((job.output_name, count, arity))
        elif isinstance(job, UnionProjectJob):
            count = sum(self._relation_tuples(n) for n in job.input_names)
            arity = max(1, len(job.projection))
            estimates.append((job.output_name, count, arity))
        for name, count, arity in estimates:
            if self.catalog.has_relation(name):
                continue
            self.catalog.register_estimate(
                RelationStats(
                    name=name,
                    tuples=int(round(count)),
                    arity=arity,
                    size_mb=count * arity * FIELD_BYTES / _MB,
                    bytes_per_field=FIELD_BYTES,
                )
            )

    def program_estimate(self, program: MRProgram) -> ProgramEstimate:
        """Estimated cost of every job of *program*, walked in level order.

        Intermediate relations produced along the way are registered in the
        catalog (upper-bound sizes) before the jobs that read them are costed,
        so multi-round programs — SEQ chains, SGF stages — estimate cleanly.
        """
        jobs: List[Tuple[str, JobEstimate]] = []
        for level in program.levels():
            for job in level:
                jobs.append((job.job_id, self.job_estimate(job)))
            for job in level:
                self._register_output_estimates(job)
        return ProgramEstimate(program_name=program.name, jobs=tuple(jobs))

    def program_cost(self, program: MRProgram) -> float:
        """Total estimated cost of *program* (sum over its jobs)."""
        return self.program_estimate(program).cost
