"""Plan strategies: SEQ, PAR, GREEDY, 1-ROUND, SEQUNIT, PARUNIT, GREEDY-SGF.

These are the evaluation strategies compared throughout Section 5 of the
paper.  Each strategy is a function from a query (set) plus a cost estimator
to an executable :class:`~repro.mapreduce.program.MRProgram`:

BSGF strategies (Sections 5.2 / 5.4)
    * ``SEQ``     — classic sequential semi-join reducer chains;
    * ``PAR``     — every semi-join in its own MSJ job, all in parallel, plus
      one EVAL job (naive parallel plan, no grouping);
    * ``GREEDY``  — semi-joins grouped by ``Greedy-BSGF``;
    * ``OPTIMAL`` — semi-joins grouped by brute-force ``BSGF-Opt`` (small
      queries only);
    * ``1-ROUND`` — the fused single-job plan (requires a shared join key).

SGF strategies (Section 5.3)
    * ``SEQUNIT``    — BSGF subqueries one at a time, bottom-up, every
      semi-join in its own job;
    * ``PARUNIT``    — dependency levels bottom-up, subqueries of a level in
      parallel, every semi-join in its own job;
    * ``GREEDY-SGF`` — the greedy multiway topological sort, each group
      evaluated with ``Greedy-BSGF`` grouping;
    * ``OPTIMAL-SGF``— brute-force sort (small queries only).

:func:`plan_strategy` is the one entry that turns a requested strategy name
— an alias, ``"auto"``, or a BSGF name asked of a nested query — into a
program; :class:`~repro.core.gumbo.Gumbo` plans through it.  Every strategy
first decides a *draft* (its partition, multiway sort or fused query set)
and builds the program from it; AUTO prices the drafts and builds only the
winner's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..cost.estimates import RelationStats, StatisticsCatalog
from ..mapreduce.program import MRProgram
from ..query.bsgf import BSGFQuery, SemiJoinSpec
from ..query.dependency import DependencyGraph
from ..query.sgf import SGFQuery
from .costing import PlanCostEstimator, query_relations
from .fused import one_round_applicable
from .greedy_bsgf import (
    MAX_OPTIMAL_SPECS,
    Partition,
    greedy_partition,
    optimal_partition,
    single_group_partition,
    singleton_partition,
)
from .greedy_sgf import (
    greedy_multiway_sort,
    optimal_multiway_sort,
    parunit_sort,
    sequnit_sort,
)
from .messages import FIELD_BYTES
from .options import GumboOptions
from .plan import (
    BasicPlan,
    build_one_round_program,
    build_sequential_program_for_set,
    build_two_round_program,
)

#: Canonical names of the BSGF strategies.
SEQ = "seq"
PAR = "par"
GREEDY = "greedy"
OPTIMAL = "optimal"
ONE_ROUND = "1-round"

#: Canonical names of the SGF strategies.
SEQUNIT = "sequnit"
PARUNIT = "parunit"
GREEDY_SGF = "greedy-sgf"
OPTIMAL_SGF = "optimal-sgf"

#: The cost-based meta-strategy: cost every applicable strategy, keep the
#: cheapest.  Not itself a member of the applicable-strategy matrix.
AUTO = "auto"

BSGF_STRATEGIES = (SEQ, PAR, GREEDY, OPTIMAL, ONE_ROUND)
SGF_STRATEGIES = (SEQUNIT, PARUNIT, GREEDY_SGF, OPTIMAL_SGF)

_MB = 1024.0 * 1024.0


#: Accepted aliases for strategy names.
_ALIASES = {
    "one-round": ONE_ROUND,
    "oneround": ONE_ROUND,
    "1round": ONE_ROUND,
    "greedy-bsgf": GREEDY,
    "greedysgf": GREEDY_SGF,
    "sgf-greedy": GREEDY_SGF,
    "cost": AUTO,
    "best": AUTO,
}


def normalise_strategy(strategy: str) -> str:
    """Canonical form of a strategy name (aliases resolved, e.g. → ``auto``)."""
    name = strategy.strip().lower().replace("_", "-").replace(" ", "-")
    return _ALIASES.get(name, name)


#: The SGF strategy a BSGF strategy name stands for on a nested SGF query.
_SGF_EQUIVALENT = {SEQ: SEQUNIT, PAR: PARUNIT, GREEDY: GREEDY_SGF, OPTIMAL: OPTIMAL_SGF}

#: Size bound of the brute-force OPTIMAL-SGF strategy (subqueries) in
#: :func:`applicable_strategies`; OPTIMAL's (semi-joins) is
#: :data:`~repro.core.greedy_bsgf.MAX_OPTIMAL_SPECS`.
MAX_OPTIMAL_SUBQUERIES = 5


def applicable_strategies(
    query: SGFQuery, include_optimal: bool = True
) -> List[str]:
    """Every evaluation strategy applicable to *query*, in canonical order.

    This is the strategy matrix the differential fuzzer (:mod:`repro.fuzz`)
    sweeps: nested queries (with dependencies between subqueries) get the SGF
    strategies, flat query sets get the BSGF strategies.  The brute-force
    OPTIMAL variants enumerate set partitions / topological sorts, so they are
    only included up to :data:`MAX_OPTIMAL_SUBQUERIES` subqueries /
    :data:`MAX_OPTIMAL_SPECS` semi-joins (or never, when
    *include_optimal* is false); 1-ROUND is included only when every subquery
    satisfies the shared-join-key condition of Section 5.1.
    """
    nested = bool(query.intermediate_names)
    if nested:
        names = [SEQUNIT, PARUNIT, GREEDY_SGF]
        if include_optimal and len(query) <= MAX_OPTIMAL_SUBQUERIES:
            names.append(OPTIMAL_SGF)
        return names
    names = [SEQ, PAR, GREEDY]
    total_specs = sum(len(q.conditional_atoms) for q in query)
    if include_optimal and total_specs <= MAX_OPTIMAL_SPECS:
        names.append(OPTIMAL)
    if all(one_round_applicable(q) for q in query):
        names.append(ONE_ROUND)
    return names


# -- drafts: a strategy's decision before any job exists ----------------------------

#: One basic MR program of a plan, before its jobs exist: the queries it
#: evaluates, the partition of their semi-joins into MSJ jobs (one job per
#: group) and the prefix of its job ids.  It becomes
#: :func:`~repro.core.plan.build_two_round_program`'s program.
Unit = Tuple[Tuple[BSGFQuery, ...], Tuple[Tuple[SemiJoinSpec, ...], ...], str]

#: Stage by stage, the units a plan runs side by side; every stage waits for
#: the one before it.
Stages = Tuple[Tuple[Unit, ...], ...]


def _unit(
    queries: Sequence[BSGFQuery], groups: Sequence[Sequence[SemiJoinSpec]], prefix: str
) -> Unit:
    return (tuple(queries), tuple(tuple(group) for group in groups if group), prefix)


def _staged_program(stages: Stages, options: GumboOptions, name: str) -> MRProgram:
    """The MR program of *stages*: each unit a two-round MSJ/EVAL program."""
    program: Optional[MRProgram] = None
    for units in stages:
        stage = MRProgram(name)
        for queries, groups, prefix in units:
            piece = build_two_round_program(
                queries, groups, options, name=name, job_prefix=prefix
            )
            for job in piece.jobs:
                stage.add_job(job, piece.dependencies_of(job.job_id))
        program = stage if program is None else program.then(stage, name=name)
    assert program is not None
    program.name = name
    return program


def _staged_job_costs(stages: Stages, estimator: PlanCostEstimator) -> List[float]:
    """The estimated cost of every job of :func:`_staged_program`'s program.

    Listed in the order :meth:`PlanCostEstimator.program_estimate` walks
    that program — level by level, by job id within a level — so that their
    ``sum`` is bit-identical to the program's estimate.  The job ids are
    :func:`~repro.core.plan.build_two_round_program`'s.  No job reads an
    estimate that an earlier job of the walk registers: MSJ and EVAL price
    from the guards' and conditionals' statistics alone.
    """
    costs: List[float] = []
    for units in stages:
        msj_level: List[Tuple[str, float]] = []
        eval_level: List[Tuple[str, float]] = []
        for queries, groups, prefix in units:
            for index, group in enumerate(groups):
                msj_level.append((f"{prefix}msj-{index}", estimator.msj_cost(group)))
            (eval_level if groups else msj_level).append(
                (f"{prefix}eval", estimator.eval_cost_for_queries(queries))
            )
        for level in (msj_level, eval_level):
            costs.extend(cost for _, cost in sorted(level))
    return costs


@dataclass(frozen=True)
class _Draft:
    """What one strategy decided for a query, before its program is built.

    PAR, GREEDY, OPTIMAL and the SGF strategies decide *stages*: a
    partition, or a multiway sort with one partition per stage.  1-ROUND
    fuses all of *fused*.  SEQ has no partition view; its draft carries the
    built *program*.  Two drafts with equal stages build the same jobs, so
    they cost the same.
    """

    name: str
    stages: Stages = ()
    fused: Tuple[BSGFQuery, ...] = ()
    program: Optional[MRProgram] = None

    def job_costs(self, estimator: PlanCostEstimator) -> List[float]:
        """Every job's estimated cost, in the program walk's order."""
        if self.program is not None:
            return [e.cost for _, e in estimator.program_estimate(self.program).jobs]
        if self.fused:
            return [estimator.one_round_estimate(self.fused).cost]
        return _staged_job_costs(self.stages, estimator)

    def build(self, options: GumboOptions) -> MRProgram:
        if self.program is not None:
            return self.program
        if self.fused:
            return build_one_round_program(self.fused, options, name=self.name)
        return _staged_program(self.stages, options, self.name)


# -- BSGF query sets ---------------------------------------------------------------


def all_semijoin_specs(queries: Sequence[BSGFQuery]):
    specs = []
    for query in queries:
        specs.extend(query.semijoin_specs())
    return specs


def _bsgf_draft(
    queries: Sequence[BSGFQuery],
    strategy: str,
    estimator: Optional[PlanCostEstimator],
    options: GumboOptions,
    name: Optional[str],
) -> _Draft:
    queries = list(queries)
    if not queries:
        raise ValueError("no queries given")
    name = name or f"{strategy}:{'+'.join(q.output for q in queries)}"
    if strategy == SEQ:
        return _Draft(
            name, program=build_sequential_program_for_set(queries, options, name=name)
        )
    if strategy == ONE_ROUND:
        for query in queries:
            if not one_round_applicable(query):
                raise ValueError(
                    f"1-ROUND is not applicable to query {query.output!r} "
                    f"(conditional atoms use different join keys)"
                )
        return _Draft(name, fused=tuple(queries))
    plan = bsgf_plan(queries, strategy, estimator, options, name)
    return _Draft(name, stages=((_unit(queries, plan.groups, ""),),))


def build_bsgf_program(
    queries: Sequence[BSGFQuery],
    strategy: str,
    estimator: Optional[PlanCostEstimator] = None,
    options: Optional[GumboOptions] = None,
    name: Optional[str] = None,
) -> MRProgram:
    """Build the MR program evaluating a set of BSGF queries under *strategy*.

    *strategy* is a canonical BSGF name (see :func:`plan_strategy` for
    aliases and nested queries).
    """
    options = options or GumboOptions()
    return _bsgf_draft(queries, strategy, estimator, options, name).build(options)


def bsgf_plan(
    queries: Sequence[BSGFQuery],
    strategy: str,
    estimator: Optional[PlanCostEstimator] = None,
    options: Optional[GumboOptions] = None,
    name: Optional[str] = None,
) -> BasicPlan:
    """The :class:`BasicPlan` (partition view) of PAR, GREEDY, OPTIMAL or 1-ROUND.

    PAR, GREEDY and OPTIMAL run as this plan's two-round program; 1-ROUND's
    view is the single group of all semi-joins that its fused job evaluates.
    """
    queries = list(queries)
    specs = all_semijoin_specs(queries)
    if strategy in (GREEDY, OPTIMAL) and estimator is None:
        raise ValueError(f"the {strategy.upper()} strategy needs a cost estimator")
    if strategy == PAR:
        groups = singleton_partition(specs)
    elif strategy == GREEDY:
        groups = greedy_partition(specs, estimator)
    elif strategy == OPTIMAL:
        groups, _ = optimal_partition(specs, estimator)
    elif strategy == ONE_ROUND:
        groups = single_group_partition(specs)
    else:
        raise ValueError(
            f"unknown BSGF strategy {strategy!r}; expected one of {BSGF_STRATEGIES} "
            f"(SEQ has no partition view)"
        )
    return BasicPlan(queries, groups, options or GumboOptions(), name=name or strategy)


# -- SGF queries ---------------------------------------------------------------------------


def register_intermediate_estimates(
    query: SGFQuery, catalog: StatisticsCatalog
) -> None:
    """Register upper-bound size estimates for every subquery output.

    Later subqueries of an SGF query reference the outputs of earlier ones
    before they exist; the planner therefore seeds the statistics catalog with
    the paper's upper bound (every conforming guard fact survives), computed
    bottom-up so that estimates may themselves build on estimates.
    """
    for subquery in query:
        if catalog.has_relation(subquery.output):
            continue
        guard_count = catalog.atom_count(subquery.guard)
        arity = max(1, len(subquery.projection))
        size_mb = guard_count * arity * FIELD_BYTES / _MB
        catalog.register_estimate(
            RelationStats(
                name=subquery.output,
                tuples=int(guard_count),
                arity=arity,
                size_mb=size_mb,
                bytes_per_field=FIELD_BYTES,
            )
        )


def _sgf_draft(
    query: SGFQuery,
    strategy: str,
    estimator: Optional[PlanCostEstimator],
    name: Optional[str],
) -> _Draft:
    name = name or f"{strategy}:{query.name}"
    graph = DependencyGraph(query)

    if estimator is not None:
        register_intermediate_estimates(query, estimator.catalog)
    elif strategy in (GREEDY_SGF, OPTIMAL_SGF):
        raise ValueError(f"the {strategy.upper()} strategy needs a cost estimator")

    if strategy == SEQUNIT:
        sort = sequnit_sort(graph)
    elif strategy == PARUNIT:
        sort = parunit_sort(graph)
    elif strategy == GREEDY_SGF:
        sort = greedy_multiway_sort(graph)
    elif strategy == OPTIMAL_SGF:
        sort, _ = optimal_multiway_sort(
            graph,
            lambda queries: sgf_group_cost(queries, estimator),
        )
    else:
        raise ValueError(
            f"unknown SGF strategy {strategy!r}; expected one of {SGF_STRATEGIES}"
        )

    stages: List[Tuple[Unit, ...]] = []
    for stage_index, group in enumerate(sort):
        queries = [graph.subquery(q) for q in group]
        prefix = f"s{stage_index}-"
        if strategy in (SEQUNIT, PARUNIT):
            # Per query: every semi-join in its own MSJ job, and its own EVAL.
            stages.append(
                tuple(
                    _unit(
                        [sub],
                        singleton_partition(sub.semijoin_specs()),
                        f"{prefix}q{index}-",
                    )
                    for index, sub in enumerate(queries)
                )
            )
        else:
            stages.append((_unit(queries, _gopt(queries, estimator), prefix),))
    return _Draft(name, stages=tuple(stages))


def build_sgf_program(
    query: SGFQuery,
    strategy: str,
    estimator: Optional[PlanCostEstimator] = None,
    options: Optional[GumboOptions] = None,
    name: Optional[str] = None,
) -> MRProgram:
    """Build the MR program evaluating an SGF query under *strategy*.

    *strategy* is a canonical SGF name (see :func:`plan_strategy` for
    aliases and the BSGF names of nested queries).
    """
    options = options or GumboOptions()
    return _sgf_draft(query, strategy, estimator, name).build(options)


def _gopt(queries: Sequence[BSGFQuery], estimator: PlanCostEstimator) -> Partition:
    """GOPT(F): the Greedy-BSGF partition of one group's semi-joins.

    Memoised on the estimator: SGF-Opt prices a group in many candidate
    sorts, and the winning sort's stages ask for it again.
    """
    specs = all_semijoin_specs(queries)
    return estimator.memoised(
        estimator.gopt_memo,
        tuple(queries),
        lambda: query_relations(queries),
        lambda: greedy_partition(specs, estimator),
    )


def greedy_stage_program(
    queries: Sequence[BSGFQuery],
    estimator: PlanCostEstimator,
    options: GumboOptions,
    name: str,
    job_prefix: str,
) -> MRProgram:
    """One Greedy-SGF stage: the basic MR program of GOPT(F) for group *queries*.

    The static Greedy-SGF / SGF-Opt plans and every stage of
    :meth:`Gumbo.execute_dynamic <repro.core.gumbo.Gumbo.execute_dynamic>`
    evaluate their groups with this program.
    """
    return build_two_round_program(
        queries, _gopt(queries, estimator), options, name=name, job_prefix=job_prefix
    )


def sgf_group_cost(
    queries: Sequence[BSGFQuery], estimator: PlanCostEstimator
) -> float:
    """cost(GOPT(F_i)): the per-group cost driving SGF-Opt (Equation (10))."""
    return estimator.basic_program_cost(queries, _gopt(queries, estimator))


# -- AUTO: cost-based strategy selection ------------------------------------------------


@dataclass(frozen=True)
class StrategyChoice:
    """Outcome of cost-based strategy selection for one query.

    ``strategy``/``program``/``cost`` describe the winner; ``costs`` has the
    estimated cost of *every* candidate that planned successfully (the chosen
    strategy's cost is the minimum by construction) and ``errors`` the
    candidates that could not be planned (message keyed by strategy name).
    """

    strategy: str
    program: MRProgram
    cost: float
    costs: Dict[str, float]
    errors: Dict[str, str]

    def describe(self) -> str:
        lines = [f"AUTO chose {self.strategy!r} (estimated cost {self.cost:.1f} s)"]
        for name in sorted(self.costs, key=self.costs.get):
            marker = "*" if name == self.strategy else " "
            lines.append(f"  {marker} {name:<12} {self.costs[name]:>12.1f} s")
        for name, message in sorted(self.errors.items()):
            lines.append(f"    {name:<12} failed: {message}")
        return "\n".join(lines)


def choose_strategy(
    query: SGFQuery,
    estimator: PlanCostEstimator,
    options: Optional[GumboOptions] = None,
    include_optimal: bool = True,
) -> StrategyChoice:
    """Cost every applicable strategy for *query* and return the cheapest.

    Every candidate of :func:`applicable_strategies` is priced with the
    estimator that drives the greedy optimizers, so the comparison is apples
    to apples; each price equals
    :meth:`PlanCostEstimator.program_cost` of the program
    :func:`plan_strategy` builds for that name.  PAR, GREEDY, OPTIMAL,
    1-ROUND and the SGF strategies are priced from their partitions or
    multiway sorts (Equation (9) per stage, summed job by job in the program
    walk's order); a candidate whose stages equal an earlier one's reuses
    its price; only the winner's program is built.  SEQ, which has no
    partition view, is built to be priced.  Ties keep the earlier candidate
    in canonical order; a candidate whose planner raises is recorded in
    ``errors`` and skipped.  At least one candidate always plans (SEQ /
    SEQUNIT have no applicability precondition).
    """
    options = options or GumboOptions()
    register_intermediate_estimates(query, estimator.catalog)
    costs: Dict[str, float] = {}
    errors: Dict[str, str] = {}
    priced: Dict[object, float] = {}  # by stages, or by name (SEQ, 1-ROUND)
    best: Optional[Tuple[float, str, _Draft]] = None
    for name in applicable_strategies(query, include_optimal=include_optimal):
        try:
            if query.intermediate_names:
                draft = _sgf_draft(query, name, estimator, None)
            else:
                draft = _bsgf_draft(query.subqueries, name, estimator, options, None)
            key = draft.stages or name
            if key not in priced:
                priced[key] = sum(draft.job_costs(estimator))
            cost = priced[key]
        except Exception as exc:  # noqa: BLE001 - a failing candidate is skipped
            errors[name] = f"{type(exc).__name__}: {exc}"
            continue
        costs[name] = cost
        if best is None or cost < best[0]:
            best = (cost, name, draft)
    if best is None:
        raise ValueError(
            f"no applicable strategy could be planned for query {query.name!r}: "
            + "; ".join(f"{n}: {m}" for n, m in errors.items())
        )
    cost, name, draft = best
    return StrategyChoice(
        strategy=name,
        program=draft.build(options),
        cost=cost,
        costs=costs,
        errors=errors,
    )


# -- resolving a requested strategy ---------------------------------------------------


def plan_strategy(
    query: SGFQuery,
    strategy: str,
    estimator: Optional[PlanCostEstimator],
    options: Optional[GumboOptions] = None,
) -> Tuple[str, MRProgram, Optional[StrategyChoice]]:
    """Plan *query* under a requested *strategy*: ``(name, program, choice)``.

    The one place a requested strategy name is resolved: aliases are
    normalised; ``"auto"`` plans the winner of :func:`choose_strategy` and
    returns its cost breakdown as *choice* (``None`` for every other name);
    on a nested SGF query a BSGF name plans its SGF counterpart (SEQ →
    SEQUNIT, PAR → PARUNIT, GREEDY → GREEDY-SGF, OPTIMAL → OPTIMAL-SGF),
    while 1-ROUND, which has none, raises ``ValueError``.
    """
    name = normalise_strategy(strategy)
    if name == AUTO:
        with obs.span("gumbo.choose"):
            choice = choose_strategy(query, estimator, options)
        return choice.strategy, choice.program, choice
    if query.intermediate_names:
        if name == ONE_ROUND:
            raise ValueError(
                f"1-ROUND does not apply to the nested SGF query {query.name!r} "
                f"(its subqueries read each other's outputs)"
            )
        name = _SGF_EQUIVALENT.get(name, name)
    if name in SGF_STRATEGIES:
        return name, build_sgf_program(query, name, estimator, options), None
    subqueries = list(query.subqueries)
    return name, build_bsgf_program(subqueries, name, estimator, options), None
