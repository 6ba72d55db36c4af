"""Structural and cost validation of join trees.

Used by tests and available to applications as a safety net: given a plan
and its query, :func:`validate_plan` checks every invariant an optimal
bushy cross-product-free join tree must satisfy and recomputes the
accumulated costs from scratch with the given cost model.  Violations
raise :class:`PlanValidationError` with a precise description.

Every check tests its condition first and builds its message only when it
fails: validation runs on every served plan, warm cache hits included, so
a passing check must not pay for ``bitset.format_set`` or an f-string.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.cost.compare import COST_ABS_TOLERANCE, cost_is_zero, costs_close
from repro.cost.model import CostModel
from repro.cost.statistics import StatisticsProvider
from repro.errors import ReproError
from repro.graph import bitset
from repro.plans.join_tree import JoinNode, JoinTree, LeafNode
from repro.query import Query

__all__ = ["PlanValidationError", "validate_plan", "check_finite", "recompute_cost"]

#: Relative tolerance for cost recomputation (costs are sums of
#: integer-valued page counts, so this is generous).
_COST_TOLERANCE = 1e-9


class PlanValidationError(ReproError):
    """Raised when a join tree violates a structural or cost invariant."""


def validate_plan(
    plan: JoinTree,
    query: Query,
    cost_model: Optional[CostModel] = None,
) -> None:
    """Validate ``plan`` against ``query``; raises on the first violation.

    Checks:

    * the plan covers exactly the query's relations, each once;
    * every join node's vertex set is the disjoint union of its inputs;
    * both inputs of every join induce connected subgraphs and are linked
      by at least one join edge (no cross products, §II-A);
    * cardinalities match the statistics provider's estimates;
    * when a ``cost_model`` is given, every node's accumulated cost equals
      a from-scratch recomputation.
    """
    if plan.vertex_set != query.graph.all_vertices:
        raise PlanValidationError(
            "plan does not cover exactly the query's relations: "
            f"{bitset.format_set(plan.vertex_set)} != "
            f"{bitset.format_set(query.graph.all_vertices)}"
        )
    seen = set()
    for leaf in plan.leaves():
        if leaf.relation in seen:
            raise PlanValidationError(
                f"relation R{leaf.relation} appears more than once in the plan"
            )
        seen.add(leaf.relation)
    # Imported lazily: repro.context builds on repro.plans, so a module-level
    # import here would close a package cycle during interpreter start-up.
    from repro.context.context import statistics_for

    provider = statistics_for(query)
    _validate_node(plan, query, provider)
    if cost_model is not None:
        recomputed = recompute_cost(plan, provider, cost_model)
        if not costs_close(plan.cost, recomputed, rel=_COST_TOLERANCE):
            raise PlanValidationError(
                f"plan cost {plan.cost!r} does not match recomputation "
                f"{recomputed!r}"
            )


def check_finite(plan: JoinTree) -> None:
    """Reject plans carrying non-finite or negative numbers.

    A cost model that fails open (``NaN``/``Inf`` returns, e.g. under fault
    injection or a broken statistics pipeline) produces trees whose shape
    is fine but whose numbers are garbage; executing or benchmarking such a
    plan silently corrupts every downstream total.  This walk raises
    :class:`PlanValidationError` on the first node whose cost or
    cardinality is not a finite non-negative float (negativity judged with
    the shared epsilon of :mod:`repro.cost.compare`).
    """
    stack = [plan]
    while stack:
        node = stack.pop()
        if not math.isfinite(node.cost):
            raise PlanValidationError(
                f"non-finite cost {node.cost!r} at "
                f"{bitset.format_set(node.vertex_set)}"
            )
        if not (node.cost >= -COST_ABS_TOLERANCE):
            raise PlanValidationError(
                f"negative cost {node.cost!r} at "
                f"{bitset.format_set(node.vertex_set)}"
            )
        if not math.isfinite(node.cardinality):
            raise PlanValidationError(
                f"non-finite cardinality {node.cardinality!r} at "
                f"{bitset.format_set(node.vertex_set)}"
            )
        if not (node.cardinality >= 0):
            raise PlanValidationError(
                f"negative cardinality {node.cardinality!r} at "
                f"{bitset.format_set(node.vertex_set)}"
            )
        if isinstance(node, JoinNode):
            stack.append(node.left)
            stack.append(node.right)


def _validate_node(
    node: JoinTree, query: Query, provider: StatisticsProvider
) -> None:
    graph = query.graph
    if isinstance(node, LeafNode):
        if node.cardinality != query.catalog.cardinality(node.relation):
            raise PlanValidationError(
                f"leaf R{node.relation} carries cardinality {node.cardinality}, "
                f"catalog says {query.catalog.cardinality(node.relation)}"
            )
        if not cost_is_zero(node.cost):
            raise PlanValidationError("leaf nodes must have zero cost")
        return
    assert isinstance(node, JoinNode)
    left, right = node.left, node.right
    if left.vertex_set & right.vertex_set:
        raise PlanValidationError(
            f"join inputs overlap at {bitset.format_set(node.vertex_set)}"
        )
    if left.vertex_set | right.vertex_set != node.vertex_set:
        raise PlanValidationError(
            f"join vertex set is not the union of its inputs at "
            f"{bitset.format_set(node.vertex_set)}"
        )
    if not graph.is_connected(left.vertex_set):
        raise PlanValidationError(
            f"left input {bitset.format_set(left.vertex_set)} is disconnected"
        )
    if not graph.is_connected(right.vertex_set):
        raise PlanValidationError(
            f"right input {bitset.format_set(right.vertex_set)} is disconnected"
        )
    if not graph.are_connected(left.vertex_set, right.vertex_set):
        raise PlanValidationError(
            f"cross product at {bitset.format_set(node.vertex_set)}: no join "
            "edge between the inputs"
        )
    expected_cardinality = provider.cardinality(node.vertex_set)
    if not (
        abs(node.cardinality - expected_cardinality)
        <= 1e-9 * max(1.0, expected_cardinality)
    ):
        raise PlanValidationError(
            f"cardinality mismatch at {bitset.format_set(node.vertex_set)}: "
            f"plan says {node.cardinality}, estimator says {expected_cardinality}"
        )
    _validate_node(left, query, provider)
    _validate_node(right, query, provider)


def recompute_cost(
    node: JoinTree, provider: StatisticsProvider, cost_model: CostModel
) -> float:
    """Re-price a tree bottom-up, ignoring the costs stored on its nodes."""
    if isinstance(node, LeafNode):
        return 0.0
    assert isinstance(node, JoinNode)
    left_cost = recompute_cost(node.left, provider, cost_model)
    right_cost = recompute_cost(node.right, provider, cost_model)
    operator = cost_model.join_cost(
        provider.stats(node.left.vertex_set),
        provider.stats(node.right.vertex_set),
    )
    return left_cost + right_cost + operator
