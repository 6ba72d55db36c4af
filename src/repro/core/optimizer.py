"""The optimizer facade — the library's main entry point.

``optimize(query, enumerator=..., pruning=...)`` wires together a
partitioning strategy, a pruning policy, a cost model and the shared plan
infrastructure (one :class:`~repro.context.OptimizationContext` per
query), runs plan generation, and returns an :class:`OptimizationResult`
carrying the plan, its cost, the run counters and the measured wall time.

An :class:`Optimizer` may additionally be given a
:class:`~repro.context.PlanCache`; ``optimize`` then fingerprints each
query (:func:`repro.context.fingerprint`) and serves structurally
identical repeats from the cache — replaying the stored canonical tree
through the requesting query's context — instead of enumerating again.

Timing semantics follow §V-C: the measured interval covers everything the
optimizer does at query time — including the GOO heuristic and the graph
renumbering of APCBI — but *excludes* the DPccp pre-pass that supplies
APCBI_Opt's oracle upper bounds ("we do not include the pre-computation
time", §V-C).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Type

from repro.baselines.dpccp import DPccp
from repro.baselines.dpconv import DPconv, eligible as dpconv_eligible
from repro.context.context import OptimizationContext
from repro.context.fingerprint import fingerprint
from repro.context.plancache import CachedPlan, PlanCache, replay_plan
from repro.core.acb import AcbPlanGenerator
from repro.core.advancements import ADVANCEMENT_NAMES, AdvancementConfig
from repro.core.apcb import ApcbPlanGenerator
from repro.core.apcbi import ApcbiPlanGenerator
from repro.core.goo import run_goo
from repro.core.pcb import PcbPlanGenerator
from repro.core.plangen import PlanGeneratorBase, TopDownPlanGenerator
from repro.core.routing import WorkEstimate, estimate_work
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.cost.model import CostModel
from repro.errors import BudgetExceeded, UnknownAlgorithmError
from repro.graph.renumber import invert_mapping, remap_bitset, renumber_mapping
from repro.heuristics.registry import get_heuristic
from repro.partitioning.registry import get_partitioning
from repro.plans.join_tree import JoinTree
from repro.plans.validation import (
    PlanValidationError,
    check_finite,
    validate_plan,
)
from repro.query import Query
from repro.stats.counters import OptimizationStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from repro.resilience.budget import Budget
    from repro.telemetry import Telemetry

__all__ = [
    "OptimizationResult",
    "Optimizer",
    "optimize",
    "optimize_topk",
    "run_dpccp",
    "run_dpconv",
    "PRUNING_STRATEGIES",
    "PRUNING_SUFFIXES",
    "algorithm_label",
]

#: Pruning name -> plan generator class for the simple (non-APCBI) variants.
PRUNING_STRATEGIES: Dict[str, Type[PlanGeneratorBase]] = {
    "none": TopDownPlanGenerator,
    "acb": AcbPlanGenerator,
    "pcb": PcbPlanGenerator,
    "apcb": ApcbPlanGenerator,
}

#: Table I display suffixes.
PRUNING_SUFFIXES: Dict[str, str] = {
    "none": "",
    "acb": "_ACB",
    "pcb": "_PCB",
    "apcb": "_APCB",
    "apcbi": "_APCBI",
    "apcbi_opt": "_APCBI_Opt",
}


def algorithm_label(enumerator: str, pruning: str) -> str:
    """Paper-style display name, e.g. ``TDMcC_APCBI`` (Table I)."""
    if pruning == "dpconv":
        # A bottom-up baseline: no partitioning strategy, no suffix.
        return "DPconv"
    partitioning = get_partitioning(enumerator)
    try:
        suffix = PRUNING_SUFFIXES[pruning]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown pruning strategy {pruning!r}; "
            f"available: {sorted(PRUNING_SUFFIXES)}"
        ) from None
    return partitioning.label + suffix


@dataclass(frozen=True)
class OptimizationResult:
    """Everything one optimizer run produced."""

    plan: JoinTree
    cost: float
    stats: OptimizationStats
    elapsed: float
    enumerator: str
    pruning: str
    memo_entries: int
    query: Query
    #: Retained root plans in nondecreasing (cost, fingerprint) order when
    #: the run kept ranks beyond the first (``topk > 1``); empty otherwise.
    ranked_plans: Tuple[JoinTree, ...] = ()

    @property
    def ranked(self) -> Tuple[JoinTree, ...]:
        """The ranked plan stream; ``(plan,)`` for single-best runs."""
        return self.ranked_plans if self.ranked_plans else (self.plan,)

    @property
    def label(self) -> str:
        """Paper-style algorithm name (Table I)."""
        if self.pruning == "dpccp":
            return "DPccp"
        if self.pruning == "dpconv":
            return "DPconv"
        return algorithm_label(self.enumerator, self.pruning)

    def explain(self) -> str:
        """EXPLAIN-style rendering of the chosen plan."""
        return self.plan.explain()


class Optimizer:
    """A reusable (enumerator, pruning, cost model) configuration.

    Parameters
    ----------
    enumerator:
        Partitioning strategy name (``"naive"``, ``"mincut_lazy"``,
        ``"mincut_branch"``, ``"mincut_conservative"``).
    pruning:
        ``"none"``, ``"acb"``, ``"pcb"``, ``"apcb"``, ``"apcbi"``,
        ``"apcbi_opt"`` or ``"dpconv"`` (the bottom-up subset-convolution
        fast path; falls back to DPccp when the bound cost model is not
        ``C_out``-shaped or ``topk > 1`` — the fallback is honest, the
        result reports ``pruning == "dpccp"``).
    cost_model_factory:
        Zero-argument callable producing a fresh cost model per query
        (models may bind per-query state, e.g. :class:`CoutCostModel`).
    config:
        Advancement toggles for APCBI; ignored by other prunings.
    heuristic:
        Join-heuristic name for APCBI's advancement 2 (``"goo"``,
        ``"quickpick"``, ``"min_selectivity"``); ignored by other prunings.
    plan_cache:
        Optional cross-query :class:`~repro.context.PlanCache`.  When set,
        ``optimize`` consults it before enumerating and stores every fresh
        result; one cache instance may be shared by many optimizers (the
        algorithm configuration is part of the key).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` bundle.  When set it
        is threaded into every per-query context, so the plan generators
        record ``enumerate`` spans and the cache path emits
        ``plan_cache_hit`` events.  Telemetry never influences plan
        choice.
    dpconv_auto:
        When True (the default), every unbudgeted single-best run whose
        bound cost model is ``C_out``-shaped is routed by predicted work
        (:mod:`repro.core.routing`): DPconv's work is its split count
        ``sum_S (2^(|S|-1) - 1)`` over the connected sets ``S`` plus its
        ``2^n`` array fill, the requested top-down algorithm's is the
        csg-cmp pair count, and the DPconv subset-convolution fast path
        serves the query when its predicted time is the lower one.  Every
        algorithm involved is exact, so the optimal *cost* is unchanged;
        only wall-clock (and, on exact-cost ties, plan shape) can differ.
        The result reports ``pruning == "dpconv"`` whenever the fast path
        actually ran, and a traced run records the decision as a
        ``route`` event on its ``enumerate`` span.
    """

    def __init__(
        self,
        enumerator: str = "mincut_conservative",
        pruning: str = "apcbi",
        cost_model_factory: Callable[[], CostModel] = HaasCostModel,
        config: Optional[AdvancementConfig] = None,
        heuristic: str = "goo",
        plan_cache: Optional[PlanCache] = None,
        telemetry: Optional["Telemetry"] = None,
        topk: int = 1,
        dpconv_auto: bool = True,
    ):
        if topk < 1:
            raise ValueError(f"topk must be >= 1, got {topk}")
        self.enumerator = enumerator
        self.pruning = pruning
        self._cost_model_factory = cost_model_factory
        self.config = config if config is not None else AdvancementConfig.all_on()
        self.heuristic = heuristic
        self.plan_cache = plan_cache
        self.telemetry = telemetry
        self.topk = topk
        self.dpconv_auto = dpconv_auto
        self._signature: Optional[str] = None
        # Fail fast on typos.
        get_partitioning(enumerator)
        get_heuristic(heuristic)
        if pruning not in PRUNING_SUFFIXES and pruning != "dpconv":
            raise UnknownAlgorithmError(
                f"unknown pruning strategy {pruning!r}; "
                f"available: {sorted(PRUNING_SUFFIXES) + ['dpconv']}"
            )

    # ------------------------------------------------------------------

    def _context_for(
        self, query: Query, budget: Optional["Budget"]
    ) -> OptimizationContext:
        """One fresh context per query: provider, bound model, builder."""
        return OptimizationContext.for_query(
            query,
            cost_model=self._cost_model_factory,
            budget=budget,
            telemetry=self.telemetry,
            topk=self.topk,
        )

    def _config_signature(self) -> str:
        """Cache-key fragment identifying this optimizer configuration.

        Two optimizers with the same signature produce the same plan for
        the same fingerprint, so they may share cache entries; anything
        that can change the winning plan (enumerator, pruning, cost model,
        heuristic, advancement toggles) is included.
        """
        if self._signature is None:
            flags = "".join(
                "1" if getattr(self.config, name) else "0"
                for name in ADVANCEMENT_NAMES
            )
            self._signature = "|".join(
                (
                    self.enumerator,
                    self.pruning,
                    self._cost_model_factory().name,
                    self.heuristic,
                    flags,
                )
            )
        return self._signature

    def _cache_key(self, fp_key: str, topk: int) -> str:
        """Cache key for one (configuration, fingerprint, k) combination.

        ``k=1`` keys keep the pre-top-k format, so existing persisted or
        shared entries stay addressable; ranked runs get their own keys
        because their entries carry the whole top-k list.
        """
        if topk > 1:
            return f"{self._config_signature()}|k{topk}|{fp_key}"
        return f"{self._config_signature()}|{fp_key}"

    def optimize(
        self,
        query: Query,
        budget: Optional["Budget"] = None,
        context: Optional[OptimizationContext] = None,
    ) -> OptimizationResult:
        """Find an optimal join tree for ``query``.

        ``budget`` (a :class:`repro.resilience.Budget`) makes the run
        *anytime*: enumeration checks it cooperatively and raises
        :class:`~repro.errors.BudgetExceeded` when it runs out.  Before
        propagating, the exception is enriched with the best complete plan
        registered so far (``partial_plan``, relabeled into the caller's
        relation numbering when advancement 6 renumbered the graph), so
        callers such as :class:`repro.resilience.ResilientOptimizer` can
        degrade gracefully instead of losing all work.

        ``context`` lets a caller that already built an
        :class:`~repro.context.OptimizationContext` for this query (the
        resilience ladder shares one across every rung) hand it in; by
        default a fresh context is created per call.
        """
        if context is not None:
            if context.query is not query:
                raise ValueError(
                    "context was built for a different query object"
                )
            if budget is None:
                budget = context.budget
        if budget is not None:
            budget.start()
        if self.plan_cache is not None:
            return self._optimize_cached(query, budget, context)
        return self._dispatch(query, budget, context)

    def optimize_topk(
        self,
        query: Query,
        k: Optional[int] = None,
        budget: Optional["Budget"] = None,
    ) -> OptimizationResult:
        """Ranked optimization: retain the ``k`` cheapest plans per class.

        Returns an :class:`OptimizationResult` whose ``ranked`` stream
        holds up to ``k`` distinct complete plans in nondecreasing
        (cost, fingerprint) order, rank 1 first.  Rank 1 is bit-for-bit
        the plan :meth:`optimize` returns — the k-bounded memo degenerates
        to the single-best store at ``k=1`` and only *loosens* pruning
        bounds beyond it (prefix property).  Every returned plan is
        validated (finite numbers, structural soundness) before the result
        is handed back.
        """
        if k is None:
            k = self.topk
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        run_context = OptimizationContext.for_query(
            query,
            cost_model=self._cost_model_factory,
            budget=budget,
            telemetry=self.telemetry,
            topk=k,
        )
        result = self.optimize(query, budget=budget, context=run_context)
        previous = None
        for rank, plan in enumerate(result.ranked, start=1):
            check_finite(plan)
            validate_plan(plan, query)
            if previous is not None and plan.cost < previous:
                raise PlanValidationError(
                    f"ranked stream out of order at rank {rank}: "
                    f"{plan.cost!r} < {previous!r}"
                )
            previous = plan.cost
        return result

    def _dispatch(
        self,
        query: Query,
        budget: Optional["Budget"],
        context: Optional[OptimizationContext],
    ) -> OptimizationResult:
        route: Optional[WorkEstimate] = None
        if self.pruning == "dpconv" or self._auto_route_candidate(
            budget, context
        ):
            # Deciding eligibility needs the *bound* cost model, so the
            # per-query context is built here (outside the measured
            # interval, like APCBI's pre-pass machinery).
            if context is None:
                context = self._context_for(query, budget)
            if self.pruning == "dpconv":
                if dpconv_eligible(context):
                    return self._optimize_dpconv(query, budget, context)
                return self._fallback_dpccp(query, budget, context)
            if dpconv_eligible(context):
                # Counting runs only after the eligibility check, so
                # queries under other cost models never pay for it.
                route = estimate_work(query.graph)
                if route.use_dpconv:
                    return self._optimize_dpconv(query, budget, context, route)
        if self.pruning in PRUNING_STRATEGIES:
            return self._optimize_simple(query, budget, context, route)
        return self._optimize_apcbi(query, budget, context, route)

    def _auto_route_candidate(
        self,
        budget: Optional["Budget"],
        context: Optional[OptimizationContext],
    ) -> bool:
        """Cheap pre-context screen for the automatic DPconv route.

        Routing is reserved for unbudgeted single-best runs: a budgeted
        run wants the top-down generators' anytime best-so-far salvage,
        and ranked retention needs per-class candidate lists DPconv does
        not keep.  The C_out-shape half of the test needs the bound model
        and happens in :func:`dpconv_eligible`.
        """
        if not self.dpconv_auto or budget is not None:
            return False
        return (context.topk if context is not None else self.topk) == 1

    def _optimize_dpconv(
        self,
        query: Query,
        budget: Optional["Budget"],
        context: OptimizationContext,
        route: Optional[WorkEstimate] = None,
    ) -> OptimizationResult:
        """The subset-convolution fast path (see repro/baselines/dpconv.py)."""
        started = time.perf_counter()
        algorithm = DPconv(
            context=context,
            budget=budget,
            layers=route.layers if route is not None else None,
        )
        try:
            if self.telemetry is not None:
                with self.telemetry.span(
                    "enumerate",
                    enumerator="dpconv",
                    pruning="dpconv",
                    relations=query.n_relations,
                ) as span:
                    if route is not None:
                        span.event("route", **route.event())
                    plan = algorithm.run()
                    span.set(ccps_enumerated=context.stats.ccps_enumerated)
            else:
                plan = algorithm.run()
        except BudgetExceeded as error:
            error.partial_plan = algorithm.memo.best(query.graph.all_vertices)
            error.partial_ranked = tuple(
                algorithm.memo.best_k(query.graph.all_vertices)
            )
            error.memo_entries = len(algorithm.memo)
            raise
        elapsed = time.perf_counter() - started
        return OptimizationResult(
            plan=plan,
            cost=plan.cost,
            stats=context.stats,
            elapsed=elapsed,
            enumerator="dpconv",
            pruning="dpconv",
            memo_entries=len(algorithm.memo),
            query=query,
        )

    def _fallback_dpccp(
        self,
        query: Query,
        budget: Optional["Budget"],
        context: OptimizationContext,
    ) -> OptimizationResult:
        """Honest fallback when ``pruning="dpconv"`` is not eligible.

        Runs DPccp — same plan space, any cost model, ranked retention —
        and labels the result ``dpccp`` so callers can see what actually
        served them; a ``dpconv_fallback`` telemetry event records why.
        """
        started = time.perf_counter()
        algorithm = DPccp(context=context, budget=budget)
        try:
            if self.telemetry is not None:
                with self.telemetry.span(
                    "enumerate",
                    enumerator="dpccp",
                    pruning="dpccp",
                    relations=query.n_relations,
                ) as span:
                    span.event(
                        "dpconv_fallback",
                        cost_model=context.cost_model.name,
                        topk=context.topk,
                        relations=query.n_relations,
                    )
                    plan = algorithm.run()
            else:
                plan = algorithm.run()
        except BudgetExceeded as error:
            error.partial_plan = algorithm.memo.best(query.graph.all_vertices)
            error.partial_ranked = tuple(
                algorithm.memo.best_k(query.graph.all_vertices)
            )
            error.memo_entries = len(algorithm.memo)
            raise
        elapsed = time.perf_counter() - started
        ranked: Tuple[JoinTree, ...] = ()
        if context.topk > 1:
            ranked = tuple(algorithm.ranked_plans())
        return OptimizationResult(
            plan=plan,
            cost=plan.cost,
            stats=context.stats,
            elapsed=elapsed,
            enumerator="dpccp",
            pruning="dpccp",
            memo_entries=len(algorithm.memo),
            query=query,
            ranked_plans=ranked,
        )

    # -- plan cache --------------------------------------------------------

    def _optimize_cached(
        self,
        query: Query,
        budget: Optional["Budget"],
        context: Optional[OptimizationContext],
    ) -> OptimizationResult:
        """Serve from / populate the cross-query plan cache.

        The key combines the query's canonical fingerprint with the
        optimizer's configuration signature, so isomorphic queries (up to
        estimate quantization) served by equivalent configurations share
        one entry.  A hit replays the stored canonical tree through the
        requesting query's context — cardinalities and costs on the
        returned plan are always native to the requesting query.
        """
        cache = self.plan_cache
        fp = fingerprint(query)
        topk = context.topk if context is not None else self.topk
        key = self._cache_key(fp.key, topk)
        entry = cache.get(key)
        if entry is not None:
            started = time.perf_counter()
            if context is None:
                context = self._context_for(query, budget)
            plan = replay_plan(entry.canonical_plan, fp.mapping, context)
            ranked: Tuple[JoinTree, ...] = ()
            if topk > 1 and entry.canonical_ranked:
                ranked = tuple(
                    replay_plan(canonical, fp.mapping, context)
                    for canonical in entry.canonical_ranked
                )
            context.stats.plan_cache_hits += 1
            if self.telemetry is not None:
                self.telemetry.event("plan_cache_hit", key=key)
            elapsed = time.perf_counter() - started
            return OptimizationResult(
                plan=plan,
                cost=plan.cost,
                stats=context.stats,
                elapsed=elapsed,
                enumerator=self.enumerator,
                pruning=self.pruning,
                memo_entries=0,
                query=query,
                ranked_plans=ranked,
            )
        result = self._dispatch(query, budget, context)
        result.stats.plan_cache_misses += 1
        # Never cache a plan whose numbers are not finite: a faulting cost
        # model (e.g. under fault injection) could otherwise poison the
        # cache and serve its garbage tree shape to healthy queries later.
        try:
            check_finite(result.plan)
            for ranked_plan in result.ranked_plans:
                check_finite(ranked_plan)
        except PlanValidationError:
            return result
        canonical = result.plan.relabel(fp.mapping)
        canonical_ranked = tuple(
            ranked_plan.relabel(fp.mapping) for ranked_plan in result.ranked_plans
        )
        # The taint on `result` is its wall-clock `elapsed` field; the
        # relabeled plan trees (deterministic) are what gets served, and
        # the timing rides along only as admission provenance for the
        # durable tier — it never influences any plan decision.
        cache.put(  # repro: disable=determinism
            key,
            CachedPlan(
                canonical,
                fp.payload,
                canonical_ranked,
                cold_seconds=result.elapsed,
                expansions=result.stats.ccps_enumerated,
            ),
        )
        return result

    # -- simple strategies (none / acb / pcb / apcb) -----------------------

    def _optimize_simple(
        self,
        query: Query,
        budget: Optional["Budget"] = None,
        context: Optional[OptimizationContext] = None,
        route: Optional[WorkEstimate] = None,
    ) -> OptimizationResult:
        partitioning = get_partitioning(self.enumerator)
        generator_cls = PRUNING_STRATEGIES[self.pruning]
        started = time.perf_counter()
        if context is None:
            context = self._context_for(query, budget)
        generator = generator_cls(
            partitioning=partitioning,
            context=context,
            budget=budget,
            route=route,
        )
        try:
            plan = generator.run()
        except BudgetExceeded as error:
            error.partial_plan = generator.memo.best(query.graph.all_vertices)
            error.partial_ranked = tuple(
                generator.memo.best_k(query.graph.all_vertices)
            )
            error.memo_entries = len(generator.memo)
            raise
        elapsed = time.perf_counter() - started
        ranked: Tuple[JoinTree, ...] = ()
        if context.topk > 1:
            ranked = tuple(generator.memo.best_k(query.graph.all_vertices))
        return OptimizationResult(
            plan=plan,
            cost=plan.cost,
            stats=context.stats,
            elapsed=elapsed,
            enumerator=self.enumerator,
            pruning=self.pruning,
            memo_entries=len(generator.memo),
            query=query,
            ranked_plans=ranked,
        )

    # -- APCBI / APCBI_Opt -------------------------------------------------

    def _optimize_apcbi(
        self,
        query: Query,
        budget: Optional["Budget"] = None,
        context: Optional[OptimizationContext] = None,
        route: Optional[WorkEstimate] = None,
    ) -> OptimizationResult:
        partitioning = get_partitioning(self.enumerator)
        config = self.config
        if context is None:
            context = self._context_for(query, budget)
        stats = context.stats

        # APCBI_Opt: oracle upper bounds from an *untimed* DPccp pre-pass.
        # The pre-pass shares the run's budget: it is excluded from the
        # *measured* time (§V-C) but not from the caller's wall-clock
        # allowance — an anytime contract that ignored the most expensive
        # phase would be useless.  It runs on a fork of the query's context
        # — same provider (its memoized statistics carry over into
        # enumeration), fresh counters (its work stays untimed/uncounted).
        oracle_plan: Optional[JoinTree] = None
        oracle_bounds: Optional[Dict[int, float]] = None
        if self.pruning == "apcbi_opt":
            oracle = DPccp(context=context.fork(), budget=budget)
            oracle_plan = oracle.run()
            oracle_bounds = oracle.optimal_class_costs()

        started = time.perf_counter()
        run_context = context
        mapping = None
        upper_bounds = oracle_bounds
        # A complete heuristic tree in the *original* numbering; doubles as
        # the anytime fallback when the budget expires before enumeration
        # registers a root plan.
        heuristic_tree: Optional[JoinTree] = None
        if config.renumber_graph and query.n_relations > 2:
            # Advancement 6 needs a heuristic join tree before enumeration.
            # For APCBI_Opt the oracle's optimal tree doubles as the
            # heuristic; otherwise GOO runs here (its time is measured and
            # its tree also seeds the uB table, advancement 2).
            if oracle_plan is not None:
                heuristic_tree = oracle_plan
            else:
                heuristic_result = get_heuristic(self.heuristic).build(
                    query, context.builder
                )
                heuristic_tree = heuristic_result.tree
                if config.heuristic_upper_bounds:
                    upper_bounds = dict(heuristic_result.subtree_costs)
                else:
                    upper_bounds = {}
            mapping = renumber_mapping(heuristic_tree, query.n_relations)
            # The renumbered query runs on a relabeled context: own provider
            # and bound model, shared counters and budget.
            run_context = context.relabeled(mapping)
            if upper_bounds:
                upper_bounds = {
                    remap_bitset(vertex_set, mapping): cost
                    for vertex_set, cost in upper_bounds.items()
                }
        run_query = run_context.query

        generator = ApcbiPlanGenerator(
            partitioning=partitioning,
            context=run_context,
            config=config,
            upper_bounds=upper_bounds,
            heuristic=get_heuristic(self.heuristic),
            budget=budget,
            route=route,
        )
        try:
            plan = generator.run()
        except BudgetExceeded as error:
            partial = generator.memo.best(run_query.graph.all_vertices)
            partial_ranked = tuple(
                generator.memo.best_k(run_query.graph.all_vertices)
            )
            if mapping is not None:
                inverse = invert_mapping(mapping)
                if partial is not None:
                    partial = partial.relabel(inverse)
                partial_ranked = tuple(
                    tree.relabel(inverse) for tree in partial_ranked
                )
            if partial is None:
                # Advancement 2/6 built a complete heuristic tree before
                # enumeration started — the legitimate best-so-far plan.
                partial = heuristic_tree or generator.heuristic_tree
                if partial is not None:
                    partial_ranked = (partial,)
            error.partial_plan = partial
            error.partial_ranked = partial_ranked
            error.memo_entries = len(generator.memo)
            raise
        ranked: Tuple[JoinTree, ...] = ()
        if run_context.topk > 1:
            ranked = tuple(generator.memo.best_k(run_query.graph.all_vertices))
        if mapping is not None:
            inverse = invert_mapping(mapping)
            plan = plan.relabel(inverse)
            ranked = tuple(tree.relabel(inverse) for tree in ranked)
        elapsed = time.perf_counter() - started
        return OptimizationResult(
            plan=plan,
            cost=plan.cost,
            stats=stats,
            elapsed=elapsed,
            enumerator=self.enumerator,
            pruning=self.pruning,
            memo_entries=len(generator.memo),
            query=query,
            ranked_plans=ranked,
        )


def optimize(
    query: Query,
    enumerator: str = "mincut_conservative",
    pruning: str = "apcbi",
    cost_model_factory: Callable[[], CostModel] = HaasCostModel,
    config: Optional[AdvancementConfig] = None,
    heuristic: str = "goo",
    budget: Optional["Budget"] = None,
    plan_cache: Optional[PlanCache] = None,
    telemetry: Optional["Telemetry"] = None,
) -> OptimizationResult:
    """One-shot convenience wrapper around :class:`Optimizer`."""
    return Optimizer(
        enumerator=enumerator,
        pruning=pruning,
        cost_model_factory=cost_model_factory,
        config=config,
        heuristic=heuristic,
        plan_cache=plan_cache,
        telemetry=telemetry,
    ).optimize(query, budget=budget)


def optimize_topk(
    query: Query,
    k: int,
    enumerator: str = "mincut_conservative",
    pruning: str = "apcbi",
    cost_model_factory: Callable[[], CostModel] = HaasCostModel,
    config: Optional[AdvancementConfig] = None,
    heuristic: str = "goo",
    budget: Optional["Budget"] = None,
    plan_cache: Optional[PlanCache] = None,
    telemetry: Optional["Telemetry"] = None,
) -> OptimizationResult:
    """One-shot ranked optimization: the ``k`` cheapest plans, rank 1 first.

    ``result.ranked`` holds up to ``k`` distinct validated plans in
    nondecreasing (cost, fingerprint) order; ``result.plan`` is rank 1 and
    identical to what :func:`optimize` returns for the same configuration.
    """
    return Optimizer(
        enumerator=enumerator,
        pruning=pruning,
        cost_model_factory=cost_model_factory,
        config=config,
        heuristic=heuristic,
        plan_cache=plan_cache,
        telemetry=telemetry,
        topk=k,
    ).optimize_topk(query, k=k, budget=budget)


def run_dpconv(
    query: Query,
    cost_model_factory: Callable[[], CostModel] = CoutCostModel,
    budget: Optional["Budget"] = None,
    telemetry: Optional["Telemetry"] = None,
) -> OptimizationResult:
    """Run the DPconv baseline with the same result envelope as DPccp.

    Unlike ``Optimizer(pruning="dpconv")`` this does **not** fall back:
    an ineligible configuration (non-``C_out``-shaped model) raises
    :class:`~repro.errors.OptimizationError`, which is what a benchmark
    harness comparing the two baselines wants.  The default cost model is
    therefore :class:`~repro.cost.cout.CoutCostModel`, the one shipped
    model inside DPconv's envelope.
    """
    started = time.perf_counter()
    if budget is not None:
        budget.start()
    context = OptimizationContext.for_query(
        query,
        cost_model=cost_model_factory,
        budget=budget,
        telemetry=telemetry,
    )
    algorithm = DPconv(context=context, budget=budget)
    if telemetry is not None:
        with telemetry.span(
            "enumerate",
            enumerator="dpconv",
            pruning="dpconv",
            relations=query.n_relations,
        ) as span:
            plan = algorithm.run()
            span.set(ccps_enumerated=context.stats.ccps_enumerated)
    else:
        plan = algorithm.run()
    elapsed = time.perf_counter() - started
    return OptimizationResult(
        plan=plan,
        cost=plan.cost,
        stats=context.stats,
        elapsed=elapsed,
        enumerator="dpconv",
        pruning="dpconv",
        memo_entries=len(algorithm.memo),
        query=query,
    )


def run_dpccp(
    query: Query,
    cost_model_factory: Callable[[], CostModel] = HaasCostModel,
    budget: Optional["Budget"] = None,
    telemetry: Optional["Telemetry"] = None,
    topk: int = 1,
) -> OptimizationResult:
    """Run the bottom-up baseline with the same result envelope."""
    started = time.perf_counter()
    if budget is not None:
        budget.start()
    context = OptimizationContext.for_query(
        query,
        cost_model=cost_model_factory,
        budget=budget,
        telemetry=telemetry,
        topk=topk,
    )
    algorithm = DPccp(context=context, budget=budget)
    if telemetry is not None:
        with telemetry.span(
            "enumerate",
            enumerator="dpccp",
            pruning="dpccp",
            relations=query.n_relations,
        ) as span:
            plan = algorithm.run()
            span.set(ccps_enumerated=context.stats.ccps_enumerated)
    else:
        plan = algorithm.run()
    elapsed = time.perf_counter() - started
    ranked: Tuple[JoinTree, ...] = ()
    if topk > 1:
        ranked = tuple(algorithm.ranked_plans())
    return OptimizationResult(
        plan=plan,
        cost=plan.cost,
        stats=context.stats,
        elapsed=elapsed,
        enumerator="dpccp",
        pruning="dpccp",
        memo_entries=len(algorithm.memo),
        query=query,
        ranked_plans=ranked,
    )
