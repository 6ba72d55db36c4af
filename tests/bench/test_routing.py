"""The route's constants come from the checked-in calibration sweep."""

import json
from pathlib import Path

from repro.bench.routing import fit, routes_to_dpconv, run_sweep, table
from repro.core import routing

SWEEP_FILE = Path(__file__).resolve().parents[2] / "BENCH_routing.json"


def _report():
    with open(SWEEP_FILE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_module_constants_are_the_checked_in_fit():
    report = _report()
    constants = fit(report["rows"], report["slot_seconds"])
    assert constants == report["constants"]
    for name, value in constants.items():
        assert getattr(routing, name) == value, name


def test_the_fit_leaves_little_regret_on_the_sweep():
    # Summed over the calibration queries, the checked-in constants lose
    # under 1% to always picking the faster algorithm, and no query above
    # 50 ms is routed to an algorithm 25% slower than the other.
    report = _report()
    regret = fastest_total = 0.0
    for row in report["rows"]:
        fastest = min(row["dpconv_seconds"], row["topdown_seconds"])
        use_dpconv = routes_to_dpconv(row, report["constants"])
        chosen = row["dpconv_seconds"] if use_dpconv else row["topdown_seconds"]
        regret += chosen - fastest
        fastest_total += fastest
        if fastest >= 0.05:
            assert chosen <= 1.25 * fastest, row
    assert regret <= 0.01 * fastest_total


def test_small_sweep_rows_and_table():
    rows = run_sweep(
        rounds=1, sweep=(("chain", (5,)), ("cyclic", (6,))), seeds=(1,)
    )
    assert [row["shape"] for row in rows] == ["tree", "walked"]
    chain, cyclic = rows
    assert chain["ccps"] == 20  # C(6, 3): sum over chain arcs of |S| - 1
    assert cyclic["ccps"] >= cyclic["tree_pairs"]
    assert all(row["dpconv_seconds"] > 0 and row["topdown_seconds"] > 0 for row in rows)
    lines = table(rows, fit(rows, slot=1e-8)).splitlines()
    assert len(lines) == 2 + 2
    assert lines[2].startswith("| chain-5 | tree |")
