"""Calibration sweep for the facade's predicted-work route (``routing``).

Times DPconv and the top-down APCBI facade (``dpconv_auto=False``) under
``C_out`` on seeded queries of all six families, counts each query's
predicted work with :func:`repro.core.routing.estimate_work`, and fits the
constants of :mod:`repro.core.routing` from the result::

    python -m repro.bench.routing --out BENCH_routing.json

The fit reads only the checked-in rows, so it is reproducible without
timing anything (``--fit BENCH_routing.json`` refits and prints the
constants and the calibration table of docs/dpconv.md):

* ``DPCONV_SECONDS_PER_SLOT``: a timed allocation of DPconv's two dense
  arrays at 18 relations, per slot (recorded in the sweep file);
* ``WALKED_CCPS_PER_TREE_PAIR``: over the rows of irregular cyclic graphs,
  the exact ccp count over ``sum_S (|S| - 1)``, summed before dividing so
  the large queries the route matters for weigh most;
* ``DPCONV_SECONDS_PER_SPLIT``: least squares of DPconv's time (fill
  subtracted) on its split count, with relative residuals;
* ``TOPDOWN_SECONDS_PER_CCP``: top-down time per ccp varies with pruning,
  so it is the price with the least summed regret (chosen time minus the
  faster time) over the sweep, the geometric middle of the best interval.

A full sweep takes about ten minutes on a 2-core box; the costliest rows
are clique-12 and cyclic-16 under top-down APCBI.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.baselines.dpccp import enumerate_csg_cmp_pairs
from repro.context.store import atomic_write_text
from repro.core.optimizer import Optimizer, run_dpconv
from repro.core.routing import estimate_work
from repro.cost.cout import CoutCostModel
from repro.workload.generator import QueryGenerator

__all__ = [
    "SWEEP",
    "slot_seconds",
    "run_sweep",
    "fit",
    "routes_to_dpconv",
    "table",
    "main",
]

#: (family, sizes) of the sweep; stars stop at 14, cliques at 12 and
#: irregular cyclic graphs at 16, where top-down APCBI takes seconds.
SWEEP = (
    ("chain", tuple(range(6, 19, 2))),
    ("cycle", tuple(range(6, 19, 2))),
    ("star", tuple(range(6, 15, 2))),
    ("acyclic", tuple(range(6, 19, 2))),
    ("cyclic", tuple(range(6, 17, 2))),
    ("clique", tuple(range(6, 13))),
)
SEEDS = (1, 2)

#: Grid of the fit: top-down ccp price over DPconv split price.
CCP_RATIOS = tuple(2 ** (k / 8) for k in range(24, 81))  # 8 .. 1024

#: Relations of the array-fill probe behind the slot price.
FILL_PROBE_RELATIONS = 18


def _best_seconds(run, rounds: int) -> float:
    best = math.inf
    for _ in range(rounds):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def slot_seconds(rounds: int = 5) -> float:
    """Seconds per slot of DPconv's two dense arrays (``dp`` and ``split``)."""
    size = 1 << FILL_PROBE_RELATIONS  # repro: disable=bitset-discipline
    return _best_seconds(lambda: ([math.inf] * size, [0] * size), rounds) / size


def run_sweep(rounds: int = 2, sweep=SWEEP, seeds: Sequence[int] = SEEDS) -> List[Dict]:
    """One row per query: its counts and both algorithms' best seconds."""
    rows = []
    topdown = Optimizer(cost_model_factory=CoutCostModel, dpconv_auto=False)
    for family, sizes in sweep:
        for n in sizes:
            for seed in seeds:
                query = QueryGenerator(seed=seed).generate(family, n)
                estimate = estimate_work(query.graph)
                row = {
                    "family": family,
                    "relations": n,
                    "seed": seed,
                    "shape": estimate.shape,
                    "splits": estimate.splits,
                    "fill": estimate.fill,
                }
                if estimate.shape == "walked":
                    row["tree_pairs"] = sum(
                        len(layer) * (size - 1)
                        for size, layer in enumerate(estimate.layers)
                        if size > 1
                    )
                    row["ccps"] = sum(
                        1 for _ in enumerate_csg_cmp_pairs(query.graph)
                    )
                else:
                    row["ccps"] = estimate.ccps
                row["dpconv_seconds"] = _best_seconds(
                    lambda: run_dpconv(query), rounds
                )
                row["topdown_seconds"] = _best_seconds(
                    lambda: topdown.optimize(query), rounds
                )
                rows.append(row)
    return rows


def _predicted_ccps(row: Dict, walked_ratio: float) -> float:
    if row["shape"] == "walked":
        return walked_ratio * row["tree_pairs"]
    return row["ccps"]


def _significant(value: float) -> float:
    return float(f"{value:.3g}")


def fit(rows: Sequence[Dict], slot: float) -> Dict[str, float]:
    """The constants of :mod:`repro.core.routing` from sweep rows alone.

    ``slot`` is the measured seconds per array slot.  The split price is
    the least-squares fit of DPconv's time with relative residuals; the
    ccp price is the one, in split-price multiples, with the least summed
    regret over the sweep (the geometric middle of the best interval).
    """
    walked = [row for row in rows if row["shape"] == "walked"]
    walked_ratio = _significant(
        sum(row["ccps"] for row in walked) / sum(row["tree_pairs"] for row in walked)
    )
    weights = [row["splits"] / row["dpconv_seconds"] for row in rows]
    split = sum(
        weight * (1 - slot * row["fill"] / row["dpconv_seconds"])
        for weight, row in zip(weights, rows)
    ) / sum(weight * weight for weight in weights)
    dpconv = [split * row["splits"] + slot * row["fill"] for row in rows]
    topdown = [split * _predicted_ccps(row, walked_ratio) for row in rows]
    regrets = []
    for ratio in CCP_RATIOS:
        regret = 0.0
        for row, conv, down in zip(rows, dpconv, topdown):
            chosen = row["dpconv_seconds"] if conv < ratio * down else row["topdown_seconds"]
            regret += chosen - min(row["dpconv_seconds"], row["topdown_seconds"])
        regrets.append(regret)
    least = min(regrets)
    tied = [ratio for ratio, regret in zip(CCP_RATIOS, regrets) if regret <= least + 1e-12]
    return {
        "DPCONV_SECONDS_PER_SPLIT": _significant(split),
        "DPCONV_SECONDS_PER_SLOT": _significant(slot),
        "TOPDOWN_SECONDS_PER_CCP": _significant(split * math.sqrt(tied[0] * tied[-1])),
        "WALKED_CCPS_PER_TREE_PAIR": walked_ratio,
    }


def routes_to_dpconv(row: Dict, constants: Dict[str, float]) -> bool:
    """What ``constants`` pick for one sweep row: True for DPconv."""
    ccps = _predicted_ccps(row, constants["WALKED_CCPS_PER_TREE_PAIR"])
    dpconv = (
        constants["DPCONV_SECONDS_PER_SPLIT"] * row["splits"]
        + constants["DPCONV_SECONDS_PER_SLOT"] * row["fill"]
    )
    return dpconv < constants["TOPDOWN_SECONDS_PER_CCP"] * ccps


def table(rows: Sequence[Dict], constants: Dict[str, float]) -> str:
    """The calibration table (markdown): one line per family and size.

    Times and ratios are means over the seeds; the route names what the
    constants pick for each seed's query.
    """
    lines = [
        "| query | shape | splits / ccps | DPconv ms | top-down ms | route | regret ms |",
        "|---|---|---|---|---|---|---|",
    ]
    groups: Dict[tuple, List[Dict]] = {}
    for row in rows:
        groups.setdefault((row["family"], row["relations"]), []).append(row)
    for (family, n), members in groups.items():
        ratios, routes, regrets = [], [], []
        for row in members:
            ccps = _predicted_ccps(row, constants["WALKED_CCPS_PER_TREE_PAIR"])
            use_dpconv = routes_to_dpconv(row, constants)
            chosen = row["dpconv_seconds"] if use_dpconv else row["topdown_seconds"]
            ratios.append(row["splits"] / ccps)
            routes.append("DPconv" if use_dpconv else "top-down")
            regrets.append(chosen - min(row["dpconv_seconds"], row["topdown_seconds"]))
        dpconv_ms = statistics.mean(row["dpconv_seconds"] for row in members) * 1e3
        topdown_ms = statistics.mean(row["topdown_seconds"] for row in members) * 1e3
        lines.append(
            f"| {family}-{n} | {members[0]['shape']} | {statistics.mean(ratios):.1f} "
            f"| {dpconv_ms:.1f} | {topdown_ms:.1f} | {' / '.join(sorted(set(routes)))} "
            f"| {statistics.mean(regrets) * 1e3:.1f} |"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench-routing", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--out", default="BENCH_routing.json")
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument(
        "--fit",
        metavar="SWEEP",
        help="refit from a checked-in sweep instead of timing a new one",
    )
    args = parser.parse_args(argv)
    if args.fit is not None:
        with open(args.fit, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        rows, slot = report["rows"], report["slot_seconds"]
    else:
        slot = slot_seconds()
        rows = run_sweep(rounds=args.rounds)
    constants = fit(rows, slot)
    if args.fit is None:
        report = {
            "benchmark": "routing",
            "rounds": args.rounds,
            "slot_seconds": slot,
            "constants": constants,
            "rows": rows,
        }
        atomic_write_text(args.out, json.dumps(report, indent=1) + "\n")
    for name, value in constants.items():
        print(f"{name} = {value!r}")
    print(table(rows, constants))
    return 0


if __name__ == "__main__":
    sys.exit(main())
