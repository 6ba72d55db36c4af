"""Tests for join-tree validation."""

import pytest
from hypothesis import given

from repro.cost.haas import HaasCostModel
from repro.core.optimizer import optimize
from repro.plans.join_tree import JoinNode, LeafNode
from repro.plans.validation import (
    PlanValidationError,
    check_finite,
    recompute_cost,
    validate_plan,
)
from repro.cost.statistics import StatisticsProvider
from repro.graph.bitset import format_set
from tests.conftest import small_queries


class TestAcceptsRealPlans:
    @given(query=small_queries(max_n=6))
    def test_optimizer_output_validates(self, query):
        result = optimize(query, pruning="apcbi")
        validate_plan(result.plan, query, HaasCostModel())

    def test_unpruned_output_validates(self, small_query):
        result = optimize(small_query, pruning="none")
        validate_plan(result.plan, small_query, HaasCostModel())


class TestRejectsBrokenPlans:
    def _leaves(self, query):
        return {
            i: LeafNode(i, query.catalog.cardinality(i))
            for i in range(query.n_relations)
        }

    def test_incomplete_plan_rejected(self, small_query):
        leaves = self._leaves(small_query)
        u, v = sorted(small_query.graph.edges)[0]
        partial = JoinNode(leaves[u], leaves[v], 10.0, 1.0)
        with pytest.raises(PlanValidationError, match="cover"):
            validate_plan(partial, small_query)

    def test_cross_product_rejected(self, generator):
        query = generator.generate("chain", 4)
        provider = StatisticsProvider(query)
        leaves = self._leaves(query)
        # Join R0 with R2: no edge in a chain.  Use correct cardinalities
        # so the cross-product check is the violation that fires.
        cross = JoinNode(
            leaves[0], leaves[2], provider.cardinality(0b0101), 1.0
        )
        inner = JoinNode(cross, leaves[1], provider.cardinality(0b0111), 1.0)
        plan = JoinNode(inner, leaves[3], provider.cardinality(0b1111), 1.0)
        with pytest.raises(PlanValidationError, match="cross product|disconnected"):
            validate_plan(plan, query)

    def test_wrong_leaf_cardinality_rejected(self, generator):
        query = generator.generate("chain", 2)
        wrong = LeafNode(0, query.catalog.cardinality(0) + 1)
        plan = JoinNode(
            wrong, LeafNode(1, query.catalog.cardinality(1)), 10.0, 1.0
        )
        with pytest.raises(PlanValidationError, match="cardinality"):
            validate_plan(plan, query)

    def test_wrong_cost_rejected(self, generator):
        query = generator.generate("chain", 2)
        provider = StatisticsProvider(query)
        plan = JoinNode(
            LeafNode(0, query.catalog.cardinality(0)),
            LeafNode(1, query.catalog.cardinality(1)),
            provider.cardinality(0b11),
            operator_cost=123456.0,  # made-up operator cost
        )
        with pytest.raises(PlanValidationError, match="cost"):
            validate_plan(plan, query, HaasCostModel())


class TestCheckFinite:
    def _two_way_plan(self, generator, cost=10.0, cardinality=None):
        query = generator.generate("chain", 2)
        provider = StatisticsProvider(query)
        if cardinality is None:
            cardinality = provider.cardinality(0b11)
        return JoinNode(
            LeafNode(0, query.catalog.cardinality(0)),
            LeafNode(1, query.catalog.cardinality(1)),
            cardinality,
            cost,
        )

    def test_real_plan_passes(self, small_query):
        check_finite(optimize(small_query).plan)

    @pytest.mark.parametrize("bogus", [float("nan"), float("inf")])
    def test_non_finite_cost_rejected(self, generator, bogus):
        with pytest.raises(PlanValidationError, match="non-finite cost"):
            check_finite(self._two_way_plan(generator, cost=bogus))

    def test_negative_cost_rejected(self, generator):
        with pytest.raises(PlanValidationError, match="negative cost"):
            check_finite(self._two_way_plan(generator, cost=-5.0))

    @pytest.mark.parametrize("bogus", [float("nan"), float("inf")])
    def test_non_finite_cardinality_rejected(self, generator, bogus):
        with pytest.raises(PlanValidationError, match="non-finite cardinality"):
            check_finite(self._two_way_plan(generator, cardinality=bogus))

    def test_poison_deep_in_the_tree_is_found(self, generator):
        query = generator.generate("chain", 3)
        provider = StatisticsProvider(query)
        poisoned = JoinNode(
            LeafNode(0, query.catalog.cardinality(0)),
            LeafNode(1, query.catalog.cardinality(1)),
            provider.cardinality(0b011),
            float("nan"),
        )
        plan = JoinNode(
            poisoned,
            LeafNode(2, query.catalog.cardinality(2)),
            provider.cardinality(0b111),
            1.0,
        )
        with pytest.raises(PlanValidationError, match="non-finite cost"):
            check_finite(plan)


class TestRecomputeCost:
    @given(query=small_queries(max_n=6))
    def test_matches_stored_costs_for_real_plans(self, query):
        result = optimize(query, pruning="none")
        provider = StatisticsProvider(query)
        recomputed = recompute_cost(result.plan, provider, HaasCostModel())
        assert recomputed == pytest.approx(result.cost, rel=1e-9)

    def test_leaf_costs_zero(self, small_query):
        provider = StatisticsProvider(small_query)
        leaf = LeafNode(0, small_query.catalog.cardinality(0))
        assert recompute_cost(leaf, provider, HaasCostModel()) == 0.0


class TestViolationMessages:
    """Messages are built only when a check fails, and read as they always did.

    Each case breaks one invariant of an otherwise sound chain plan and
    compares the whole message, byte for byte, to the text the eager
    formatting produced.
    """

    @staticmethod
    def _chain(generator, n):
        query = generator.generate("chain", n)
        provider = StatisticsProvider(query)
        leaves = [
            LeafNode(i, query.catalog.cardinality(i)) for i in range(n)
        ]
        return query, provider, leaves

    def _assert_message(self, expected, check, *args):
        with pytest.raises(PlanValidationError) as caught:
            check(*args)
        assert str(caught.value) == expected

    def test_coverage(self, generator):
        query, provider, leaves = self._chain(generator, 3)
        plan = JoinNode(leaves[0], leaves[1], provider.cardinality(0b011), 1.0)
        self._assert_message(
            "plan does not cover exactly the query's relations: "
            f"{format_set(0b011)} != {format_set(0b111)}",
            validate_plan, plan, query,
        )

    def test_duplicate_relation(self, generator):
        query, provider, leaves = self._chain(generator, 2)
        plan = JoinNode(leaves[0], leaves[1], provider.cardinality(0b11), 1.0)
        plan.right = LeafNode(0, query.catalog.cardinality(0))
        self._assert_message(
            "relation R0 appears more than once in the plan",
            validate_plan, plan, query,
        )

    def test_leaf_cardinality(self, generator):
        query, provider, leaves = self._chain(generator, 2)
        wrong = query.catalog.cardinality(0) + 1
        plan = JoinNode(
            LeafNode(0, wrong), leaves[1], provider.cardinality(0b11), 1.0
        )
        self._assert_message(
            f"leaf R0 carries cardinality {wrong}, "
            f"catalog says {query.catalog.cardinality(0)}",
            validate_plan, plan, query,
        )

    def test_leaf_cost(self, generator):
        query, provider, leaves = self._chain(generator, 2)
        leaves[0].cost = 5.0
        plan = JoinNode(leaves[0], leaves[1], provider.cardinality(0b11), 1.0)
        self._assert_message(
            "leaf nodes must have zero cost", validate_plan, plan, query
        )

    def test_overlapping_inputs(self, generator):
        query, provider, leaves = self._chain(generator, 2)
        plan = JoinNode(leaves[0], leaves[1], provider.cardinality(0b11), 1.0)
        leaves[1].vertex_set = 0b11
        self._assert_message(
            f"join inputs overlap at {format_set(0b11)}",
            validate_plan, plan, query,
        )

    def test_union_mismatch(self, generator):
        query, provider, leaves = self._chain(generator, 3)
        inner = JoinNode(leaves[0], leaves[1], provider.cardinality(0b011), 1.0)
        plan = JoinNode(inner, leaves[2], provider.cardinality(0b111), 1.0)
        inner.vertex_set = 0b001
        self._assert_message(
            "join vertex set is not the union of its inputs at "
            f"{format_set(0b111)}",
            validate_plan, plan, query,
        )

    def test_left_disconnected(self, generator):
        query, provider, leaves = self._chain(generator, 3)
        inner = JoinNode(leaves[0], leaves[2], provider.cardinality(0b101), 1.0)
        plan = JoinNode(inner, leaves[1], provider.cardinality(0b111), 1.0)
        self._assert_message(
            f"left input {format_set(0b101)} is disconnected",
            validate_plan, plan, query,
        )

    def test_right_disconnected(self, generator):
        query, provider, leaves = self._chain(generator, 3)
        inner = JoinNode(leaves[0], leaves[2], provider.cardinality(0b101), 1.0)
        plan = JoinNode(leaves[1], inner, provider.cardinality(0b111), 1.0)
        self._assert_message(
            f"right input {format_set(0b101)} is disconnected",
            validate_plan, plan, query,
        )

    def test_cross_product(self, generator, monkeypatch):
        # Two connected halves of a connected set always share an edge, so
        # on a valid (connected) query only a broken graph predicate can
        # reach this check; force it.
        query, provider, leaves = self._chain(generator, 2)
        plan = JoinNode(leaves[0], leaves[1], provider.cardinality(0b11), 1.0)
        monkeypatch.setattr(
            type(query.graph), "are_connected", lambda self, left, right: False
        )
        self._assert_message(
            f"cross product at {format_set(0b11)}: no join "
            "edge between the inputs",
            validate_plan, plan, query,
        )

    def test_cardinality_mismatch(self, generator):
        query, provider, leaves = self._chain(generator, 2)
        expected = provider.cardinality(0b11)
        plan = JoinNode(leaves[0], leaves[1], expected * 2, 1.0)
        self._assert_message(
            f"cardinality mismatch at {format_set(0b11)}: "
            f"plan says {expected * 2}, estimator says {expected}",
            validate_plan, plan, query,
        )

    def test_cost_recomputation(self, generator):
        query, provider, leaves = self._chain(generator, 2)
        plan = JoinNode(leaves[0], leaves[1], provider.cardinality(0b11), 123456.0)
        recomputed = recompute_cost(plan, provider, HaasCostModel())
        self._assert_message(
            f"plan cost {plan.cost!r} does not match recomputation "
            f"{recomputed!r}",
            validate_plan, plan, query, HaasCostModel(),
        )

    @pytest.mark.parametrize(
        "field, value, text",
        [
            ("cost", float("nan"), "non-finite cost"),
            ("cost", float("inf"), "non-finite cost"),
            ("cost", -5.0, "negative cost"),
            ("cardinality", float("inf"), "non-finite cardinality"),
            ("cardinality", -1.0, "negative cardinality"),
        ],
    )
    def test_check_finite(self, generator, field, value, text):
        query, provider, leaves = self._chain(generator, 2)
        plan = JoinNode(leaves[0], leaves[1], provider.cardinality(0b11), 1.0)
        setattr(plan, field, value)
        self._assert_message(
            f"{text} {value!r} at {format_set(0b11)}", check_finite, plan
        )
