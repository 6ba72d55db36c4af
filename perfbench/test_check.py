"""Tests of the benchmark's own checker, and a smoke run of every workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro import (  # noqa: E402
    CoutCostModel,
    HaasCostModel,
    JoinNode,
    OptimizeResponse,
    chain_query,
    run_dpccp,
)

import check  # noqa: E402


@pytest.fixture(scope="module")
def chain():
    """A 4-relation chain 0-1-2-3 and its optimal C_out plan."""
    query = chain_query(4, seed=5)
    return query, run_dpccp(query, cost_model_factory=CoutCostModel).plan


def leaves_of(plan):
    return {leaf.relation: leaf for leaf in plan.leaves()}


def test_optimal_plan_passes(chain):
    query, plan = chain
    optimum = check.reference_optimum(query, CoutCostModel)
    assert check.plan_problems(plan, plan.cost, query, optimum, cout=True) == []


def test_haas_optimum_passes():
    query = chain_query(5, seed=3)
    result = run_dpccp(query, cost_model_factory=HaasCostModel)
    optimum = check.reference_optimum(query, HaasCostModel)
    assert check.plan_problems(result.plan, result.cost, query, optimum) == []


def test_cross_product_is_flagged(chain):
    query, plan = chain
    leaves = leaves_of(plan)
    # 0 and 2 share no edge in the chain 0-1-2-3.
    cross = JoinNode(
        JoinNode(leaves[0], leaves[2], 1.0, 1.0),
        JoinNode(leaves[1], leaves[3], 1.0, 1.0),
        1.0,
        1.0,
    )
    problems = check.plan_problems(cross, cross.cost, query, cross.cost)
    assert any("cross product" in problem for problem in problems)


def test_missing_relation_is_flagged(chain):
    query, plan = chain
    leaves = leaves_of(plan)
    partial = JoinNode(JoinNode(leaves[0], leaves[1], 1.0, 1.0), leaves[2], 1.0, 1.0)
    problems = check.plan_problems(partial, partial.cost, query, partial.cost)
    assert any("not each of" in problem for problem in problems)


def test_cost_one_percent_above_optimum_is_flagged(chain):
    query, plan = chain
    problems = check.plan_problems(plan, plan.cost, query, plan.cost / 1.01, cout=True)
    assert problems and check.optimum_only(problems)


def test_wrong_cout_cost_is_flagged(chain):
    query, plan = chain
    forged = JoinNode(plan.left, plan.right, plan.cardinality, plan.operator_cost * 0.5)
    problems = check.plan_problems(forged, forged.cost, query, forged.cost, cout=True)
    assert any("C_out recomputed" in problem for problem in problems)


def test_cout_cost_matches_the_cost_model(chain):
    query, plan = chain
    assert check.cout_cost(plan, query) == pytest.approx(plan.cost, rel=1e-12)


def test_degraded_response_is_flagged(chain):
    _, plan = chain
    response = OptimizeResponse(
        request_id=0, status="ok", plan=plan, cost=plan.cost, rung="goo", degraded=True
    )
    problems = check.response_problems(response)
    assert "degraded" in problems and "rung 'goo'" in problems


def test_failed_response_is_flagged():
    response = OptimizeResponse(request_id=0, status="failed", error="boom")
    assert check.response_problems(response)


def test_exact_response_passes(chain):
    _, plan = chain
    response = OptimizeResponse(
        request_id=0, status="ok", plan=plan, cost=plan.cost, rung="exact"
    )
    assert check.response_problems(response) == []


def test_smoke_runs_every_workload():
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    assert completed.stdout.count('"correct": true') == 8
