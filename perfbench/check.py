"""The output checker shared by every workload.

Each check judges an answer against a computation made apart from the
path that served it: the plan's structure against the query graph, its
cost against the optimum DPccp finds with no cache and no fast path, and,
under C_out, against a cost recomputed here from the catalog.  A check
never raises on a wrong answer; it returns the problems it found, so a
failed operation is counted and the run goes on.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro import JoinNode, JoinTree, LeafNode, Query, run_dpccp
from repro.cost.compare import costs_close

__all__ = [
    "NOT_OPTIMAL",
    "cout_cost",
    "optimum_only",
    "plan_problems",
    "reference_optimum",
    "response_problems",
]


#: The problem a plan has when it is valid but costs more than the optimum.
NOT_OPTIMAL = "is not the DPccp optimum"


def reference_optimum(query: Query, cost_model) -> float:
    """The optimal cost DPccp computes for ``query``, without any cache."""
    return run_dpccp(query, cost_model_factory=cost_model).cost


def _relations(node: JoinTree) -> List[int]:
    """Leaf relation indices of ``node``, read from the leaves themselves."""
    if isinstance(node, LeafNode):
        return [node.relation]
    return _relations(node.left) + _relations(node.right)


def _joins(node: JoinTree) -> List[JoinNode]:
    if isinstance(node, LeafNode):
        return []
    return [node] + _joins(node.left) + _joins(node.right)


def _connected(query: Query, left: Set[int], right: Set[int]) -> bool:
    return any(
        (u in left and v in right) or (u in right and v in left)
        for u, v in query.graph.edges
    )


def cout_cost(plan: JoinTree, query: Query) -> float:
    """C_out of ``plan`` from the catalog: the sum of every join's output size."""
    catalog = query.catalog
    total = 0.0
    for join in _joins(plan):
        members = set(_relations(join))
        size = 1.0
        for index in sorted(members):
            size *= catalog.cardinality(index)
        for u, v in sorted(query.graph.edges):
            if u in members and v in members:
                size *= catalog.selectivity(u, v)
        total += size
    return total


def plan_problems(
    plan: Optional[JoinTree],
    cost: Optional[float],
    query: Query,
    optimum: float,
    cout: bool = False,
) -> List[str]:
    """What is wrong with serving ``plan`` at ``cost`` for ``query``."""
    if plan is None or cost is None:
        return ["no plan"]
    problems = []
    relations = _relations(plan)
    if sorted(relations) != list(range(query.n_relations)):
        problems.append(
            f"relations {sorted(relations)} are not each of 0..{query.n_relations - 1} once"
        )
    for join in _joins(plan):
        left, right = set(_relations(join.left)), set(_relations(join.right))
        if not _connected(query, left, right):
            problems.append(f"cross product between {sorted(left)} and {sorted(right)}")
    if not costs_close(cost, plan.cost):
        problems.append(f"reported cost {cost!r} differs from the plan's {plan.cost!r}")
    if not costs_close(cost, optimum):
        problems.append(f"cost {cost!r} {NOT_OPTIMAL} {optimum!r}")
    if cout and not problems:
        recomputed = cout_cost(plan, query)
        if not costs_close(recomputed, cost):
            problems.append(f"C_out recomputed from the catalog is {recomputed!r}, not {cost!r}")
    return problems


def response_problems(response) -> List[str]:
    """What is wrong with a service response's serving labels."""
    problems = []
    if response.status != "ok":
        problems.append(f"status {response.status!r}: {response.error}")
    if response.rung != "exact":
        problems.append(f"rung {response.rung!r}")
    if response.degraded:
        problems.append("degraded")
    return problems


def optimum_only(problems: List[str]) -> bool:
    """True when the only problem is a cost above the optimum.

    That is the known fault of near-repeats served their neighbour's
    plan: a valid, connected, exact-labelled plan that is optimal for a
    different query.
    """
    return bool(problems) and all(NOT_OPTIMAL in problem for problem in problems)

