"""Tests for the DPconv subset-convolution fast path.

The contract under test is *bit-exactness*: inside its eligibility
envelope (``C_out``-shaped cost model, ``topk == 1``) DPconv must return
the same optimal cost as DPccp down to the last ulp, refuse everything
outside the envelope, and the :class:`Optimizer` facade must only ever
engage it when that envelope holds.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.dpccp import enumerate_csg, enumerate_csg_cmp_pairs
from repro.baselines.dpconv import DPconv, _MAX_RELATIONS, eligible
from repro.context.context import OptimizationContext
from repro.core.optimizer import (
    Optimizer,
    optimize_topk,
    run_dpccp,
    run_dpconv,
)
from repro.core.routing import (
    WALKED_CCPS_PER_TREE_PAIR,
    estimate_work,
    tree_counts,
)
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.errors import BudgetExceeded, OptimizationError
from repro.graph.query_graph import QueryGraph
from repro.plans.validation import validate_plan
from repro.resilience.budget import Budget
from repro.workload.generator import QueryGenerator
from tests.conftest import connected_graphs, small_queries


class TestBitExactness:
    @given(small_queries())
    @settings(max_examples=40, deadline=None)
    def test_cost_bit_identical_to_dpccp_under_cout(self, query):
        reference = run_dpccp(query, cost_model_factory=CoutCostModel)
        fast = run_dpconv(query)
        assert fast.cost.hex() == reference.cost.hex()

    @given(small_queries())
    @settings(max_examples=20, deadline=None)
    def test_plans_validate(self, query):
        result = run_dpconv(query)
        validate_plan(result.plan, query)

    def test_single_relation_query(self):
        query = QueryGenerator(seed=7).generate("chain", 1)
        result = run_dpconv(query)
        assert result.plan.vertex_set == query.graph.all_vertices
        assert result.cost == pytest.approx(0.0)

    def test_counts_the_full_convolution_work(self):
        # On a clique every subset is connected, so the sweep's per-class
        # split count is exact: sum over layers of C(n, s) * (2^(s-1)-1).
        query = QueryGenerator(seed=11).generate("clique", 6)
        result = run_dpconv(query)
        import math

        expected = sum(
            math.comb(6, s) * (2 ** (s - 1) - 1) for s in range(2, 7)
        )
        assert result.stats.ccps_enumerated == expected
        assert result.stats.plan_classes_built == 2**6 - 1 - 6


class TestEligibility:
    def _context(self, query, cost_model=None, topk=1):
        return OptimizationContext.for_query(
            query, cost_model=cost_model or CoutCostModel(), topk=topk
        )

    def test_cout_topk1_is_eligible(self):
        query = QueryGenerator(seed=3).generate("star", 6)
        assert eligible(self._context(query))

    def test_haas_model_is_not_eligible(self):
        query = QueryGenerator(seed=3).generate("star", 6)
        context = self._context(query, cost_model=HaasCostModel())
        assert not eligible(context)
        with pytest.raises(OptimizationError, match="cout_shaped"):
            DPconv(context=context)

    def test_ranked_retention_is_not_eligible(self):
        query = QueryGenerator(seed=3).generate("star", 6)
        context = self._context(query, topk=3)
        assert not eligible(context)
        with pytest.raises(OptimizationError, match="topk"):
            DPconv(context=context)

    def test_oversized_query_is_not_eligible(self):
        query = QueryGenerator(seed=3).generate("chain", _MAX_RELATIONS + 1)
        context = self._context(query)
        assert not eligible(context)
        with pytest.raises(OptimizationError, match="dense"):
            DPconv(context=context)

    def test_budget_exhaustion_raises(self):
        query = QueryGenerator(seed=5).generate("clique", 8)
        budget = Budget(max_expansions=10)
        budget.start()
        with pytest.raises(BudgetExceeded):
            DPconv(query, cost_model=CoutCostModel(), budget=budget).run()


class TestFacadeRouting:
    def test_explicit_dpconv_runs_the_fast_path(self):
        query = QueryGenerator(seed=9).generate("cycle", 7)
        result = Optimizer(
            pruning="dpconv", cost_model_factory=CoutCostModel
        ).optimize(query)
        assert result.pruning == "dpconv"
        assert result.enumerator == "dpconv"
        assert result.label == "DPconv"

    def test_explicit_dpconv_falls_back_honestly_under_haas(self):
        query = QueryGenerator(seed=9).generate("cycle", 7)
        result = Optimizer(pruning="dpconv").optimize(query)
        assert result.pruning == "dpccp"
        reference = run_dpccp(query)
        assert result.cost.hex() == reference.cost.hex()

    def test_fallback_emits_a_telemetry_event(self):
        from repro.telemetry import MetricRegistry, Telemetry, Tracer

        telemetry = Telemetry(registry=MetricRegistry(), tracer=Tracer())
        query = QueryGenerator(seed=9).generate("cycle", 7)
        Optimizer(pruning="dpconv", telemetry=telemetry).optimize(query)
        events = [
            event
            for span in telemetry.tracer.finished_spans()
            for event in span.events
            if event["name"] == "dpconv_fallback"
        ]
        assert events, "fallback must be observable in the trace"

    @pytest.mark.parametrize("family", ["clique", "star"])
    def test_route_sends_dense_work_to_dpconv(self, family):
        # clique-10: 28,501 splits against 28,501 ccps; star-10: 19,171
        # splits against 2,304 ccps.  Both are far below the top-down
        # per-ccp price.
        query = QueryGenerator(seed=2).generate(family, 10)
        result = Optimizer(cost_model_factory=CoutCostModel).optimize(query)
        assert result.pruning == "dpconv"

    @pytest.mark.parametrize("family", ["chain", "cycle"])
    def test_route_keeps_sparse_work_on_apcbi(self, family):
        # chain-16: 130,918 splits and 65,536 slots against 680 ccps;
        # cycle-16: 556,799 splits against 1,800 ccps.
        query = QueryGenerator(seed=2).generate(family, 16)
        result = Optimizer(cost_model_factory=CoutCostModel).optimize(query)
        assert result.pruning == "apcbi"

    def test_auto_fast_path_matches_the_requested_algorithm(self):
        query = QueryGenerator(seed=2).generate("star", 10)
        auto = Optimizer(cost_model_factory=CoutCostModel).optimize(query)
        exact = Optimizer(
            cost_model_factory=CoutCostModel, dpconv_auto=False
        ).optimize(query)
        assert auto.cost.hex() == exact.cost.hex()

    def test_auto_fast_path_respects_opt_out(self):
        query = QueryGenerator(seed=2).generate("star", 10)
        result = Optimizer(
            cost_model_factory=CoutCostModel, dpconv_auto=False
        ).optimize(query)
        assert result.pruning == "apcbi"

    def test_auto_fast_path_stays_off_under_a_budget(self):
        # DPconv has weak partial-plan salvage; anytime runs must keep
        # the algorithm the caller configured.
        query = QueryGenerator(seed=2).generate("chain", 12)
        result = Optimizer(cost_model_factory=CoutCostModel).optimize(
            query, budget=Budget(max_expansions=10**9)
        )
        assert result.pruning == "apcbi"

    @given(
        st.sampled_from(["chain", "star", "cycle"]),
        st.integers(3, 9),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_auto_never_engages_for_non_cout_models(self, family, n, seed):
        query = QueryGenerator(seed=seed).generate(family, n)
        result = Optimizer(pruning="apcb").optimize(query)
        assert result.pruning == "apcb"

    @given(st.integers(2, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_auto_never_engages_for_ranked_retention(self, k, seed):
        query = QueryGenerator(seed=seed).generate("chain", 12)
        result = optimize_topk(query, k=k, cost_model_factory=CoutCostModel)
        assert result.pruning == "apcbi"
        assert len(result.ranked) >= 1

    def test_unknown_pruning_still_rejected(self):
        from repro.errors import UnknownAlgorithmError

        with pytest.raises(UnknownAlgorithmError):
            Optimizer(pruning="dpconvv")


def _brute_force_counts(graph):
    """Splits, spanning-tree pairs and ccps by walking every csg and pair."""
    csgs = list(enumerate_csg(graph))
    sizes = [bin(subset).count("1") for subset in csgs]
    return {
        "splits": sum((1 << (size - 1)) - 1 for size in sizes),
        "tree_pairs": sum(size - 1 for size in sizes),
        "ccps": sum(1 for _ in enumerate_csg_cmp_pairs(graph)),
    }


@st.composite
def _trees(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    # Each vertex joins one placed before it in a shuffled order.
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = order[i], order[j]
        edges.append((min(u, v), max(u, v)))
    return QueryGraph(n, edges)


class TestWorkRouting:
    @given(_trees())
    @settings(max_examples=60, deadline=None)
    def test_tree_counts_equal_a_brute_force_walk(self, graph):
        estimate = estimate_work(graph)
        expected = _brute_force_counts(graph)
        assert estimate.shape == "tree"
        assert estimate.splits == expected["splits"]
        assert estimate.ccps == expected["ccps"] == expected["tree_pairs"]
        sums = tree_counts(graph)
        assert sums["csgs"] == sum(1 for _ in enumerate_csg(graph))

    @pytest.mark.parametrize("n", range(3, 11))
    @pytest.mark.parametrize("family", ["cycle", "clique"])
    def test_closed_forms_equal_a_brute_force_walk(self, family, n):
        graph = QueryGenerator(seed=n).generate(family, n).graph
        estimate = estimate_work(graph)
        expected = _brute_force_counts(graph)
        assert estimate.splits == expected["splits"]
        assert estimate.ccps == expected["ccps"]

    @given(connected_graphs(min_vertices=2, max_vertices=9))
    @settings(max_examples=40, deadline=None)
    def test_walked_splits_are_exact_and_ccps_scale_the_tree_bound(self, graph):
        estimate = estimate_work(graph)
        expected = _brute_force_counts(graph)
        assert estimate.splits == expected["splits"]
        if estimate.shape == "walked":
            assert estimate.ccps == pytest.approx(
                WALKED_CCPS_PER_TREE_PAIR * expected["tree_pairs"]
            )
            assert sum(map(len, estimate.layers)) == sum(
                1 for _ in enumerate_csg(graph)
            )

    @given(small_queries(min_n=2, max_n=9))
    @settings(max_examples=25, deadline=None)
    def test_splits_are_dpconv_inner_loop_count(self, query):
        result = run_dpconv(query)
        assert estimate_work(query.graph).splits == result.stats.ccps_enumerated

    @given(
        st.sampled_from(["chain", "star", "cycle", "clique", "acyclic", "cyclic"]),
        st.integers(3, 12),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_facade_cost_equals_the_requested_algorithm(self, family, n, seed):
        query = QueryGenerator(seed=seed).generate(family, n)
        routed = Optimizer(cost_model_factory=CoutCostModel).optimize(query)
        requested = Optimizer(
            cost_model_factory=CoutCostModel, dpconv_auto=False
        ).optimize(query)
        assert routed.cost.hex() == requested.cost.hex()

    @given(
        st.sampled_from(["chain", "star", "cycle", "clique", "acyclic", "cyclic"]),
        st.integers(3, 16),
        st.integers(0, 2**31 - 1),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_route_is_invariant_under_relabeling(self, family, n, seed, rng):
        if family == "clique":
            n = min(n, 10)
        query = QueryGenerator(seed=seed).generate(family, n)
        mapping = list(range(n))
        rng.shuffle(mapping)
        before = estimate_work(query.graph)
        after = estimate_work(query.relabel(mapping).graph)
        assert (before.shape, before.splits, before.ccps) == (
            after.shape,
            after.splits,
            after.ccps,
        )
        assert before.use_dpconv == after.use_dpconv

    @pytest.mark.parametrize(
        "family, n, choice", [("star", 10, "dpconv"), ("chain", 16, "topdown")]
    )
    def test_traced_run_records_the_route(self, family, n, choice):
        from repro.telemetry import MetricRegistry, Telemetry, Tracer

        telemetry = Telemetry(registry=MetricRegistry(), tracer=Tracer())
        query = QueryGenerator(seed=2).generate(family, n)
        Optimizer(
            cost_model_factory=CoutCostModel, telemetry=telemetry
        ).optimize(query)
        routes = [
            event
            for span in telemetry.tracer.finished_spans()
            if span.name == "enumerate"
            for event in span.events
            if event["name"] == "route"
        ]
        assert len(routes) == 1
        route = routes[0]
        estimate = estimate_work(query.graph)
        assert route["choice"] == choice
        assert route["dpconv_work"] == estimate.splits + estimate.fill
        assert route["topdown_work"] == estimate.ccps

    def test_haas_runs_record_no_route(self):
        from repro.telemetry import MetricRegistry, Telemetry, Tracer

        telemetry = Telemetry(registry=MetricRegistry(), tracer=Tracer())
        query = QueryGenerator(seed=2).generate("star", 8)
        Optimizer(telemetry=telemetry).optimize(query)
        assert not [
            event
            for span in telemetry.tracer.finished_spans()
            for event in span.events
            if event["name"] == "route"
        ]
