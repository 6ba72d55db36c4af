"""Enumeration speed benchmark + perf-regression gate (``enumspeed``).

Times the three exact enumerators that must agree bit-for-bit under the
``C_out`` cost model — DPccp (bottom-up baseline), DPconv (the layered
subset-convolution fast path) and top-down APCBI — plus the ``facade``:
what ``Optimizer(cost_model_factory=CoutCostModel).optimize()`` returns
after its predicted-work route picked DPconv or APCBI.  The matrix is a
seeded chain/star/cycle/clique sweep plus sparse chain, cycle and acyclic
rows at 16-18 relations, where the route must keep APCBI; the command
emits ``BENCH_enumspeed.json``.

Three kinds of failure are gated:

* **cost divergence** (always checked, in-run): every algorithm must
  produce the same optimal cost, compared by ``float.hex()`` — a single
  differing ulp fails the run.  This is the safety net behind the hot-loop
  speed passes: an "optimization" that drifts a cost shows up here before
  it shows up in a wrong plan.
* **relative slowdown** (``--check BASELINE.json``): wall-clock is not
  portable across machines, so the gate compares *normed* times — each
  algorithm's seconds divided by DPccp's seconds on the same query.  A
  normed time more than ``--threshold`` (default 15%) above the checked-in
  baseline's fails the gate; entries where DPccp itself finishes faster
  than ``--min-seconds`` are too noisy to norm and are reported but not
  gated;
* **routing regret** (always checked, in-run): the facade may take at most
  ``FACADE_SLOWDOWN`` (1.25x) the faster of ``dpconv`` and
  ``topdown_apcbi`` on the same row.  Rows whose faster entry is under
  ``FACADE_MIN_SECONDS`` (5 ms) are reported but not gated.

CI runs this as the ``enumspeed-gate`` job::

    python -m repro.bench.enumspeed --check BENCH_enumspeed.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from repro.context.store import atomic_write_text
from repro.core.optimizer import Optimizer, run_dpccp, run_dpconv
from repro.cost.cout import CoutCostModel
from repro.workload.generator import QueryGenerator

__all__ = ["run_benchmark", "check_against", "main"]

#: (family, relations) matrix.  Sizes where enumeration (not setup)
#: dominates; clique stops at 12 to keep the CI job under ~half a minute.
DEFAULT_WORKLOAD = (
    ("chain", 8),
    ("chain", 10),
    ("chain", 12),
    ("chain", 14),
    ("star", 8),
    ("star", 10),
    ("star", 12),
    ("star", 14),
    ("cycle", 8),
    ("cycle", 10),
    ("cycle", 12),
    ("cycle", 14),
    ("clique", 8),
    ("clique", 10),
    ("clique", 12),
    ("chain", 16),
    ("chain", 18),
    ("cycle", 16),
    ("cycle", 18),
    ("acyclic", 16),
)

SEED = 20120403

#: Maximum tolerated relative slowdown of a normed time vs. the baseline.
DEFAULT_THRESHOLD = 0.15

#: Entries whose DPccp time is below this are too noisy to norm against.
DEFAULT_MIN_SECONDS = 0.05

#: The facade may take at most this multiple of the row's faster algorithm.
FACADE_SLOWDOWN = 1.25

#: Rows whose faster algorithm finishes below this are not facade-gated.
FACADE_MIN_SECONDS = 0.005

#: The algorithms under test.  DPccp is the normalizer and must stay first.
ALGORITHMS = ("dpccp", "dpconv", "topdown_apcbi", "facade")


def _run_algorithm(name: str, query):
    if name == "dpccp":
        return run_dpccp(query, cost_model_factory=CoutCostModel)
    if name == "dpconv":
        return run_dpconv(query)
    if name == "topdown_apcbi":
        # dpconv_auto off: this row measures the top-down enumerator
        # itself, not the facade's fast-path routing.
        return Optimizer(
            pruning="apcbi",
            cost_model_factory=CoutCostModel,
            dpconv_auto=False,
        ).optimize(query)
    if name == "facade":
        return Optimizer(cost_model_factory=CoutCostModel).optimize(query)
    raise ValueError(f"unknown enumspeed algorithm {name!r}")


def run_benchmark(
    rounds: int = 3,
    seed: int = SEED,
    workload=DEFAULT_WORKLOAD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> Dict[str, object]:
    """Time every algorithm on every query; returns the JSON report.

    Per (query, algorithm) the reported time is the minimum across
    ``rounds`` runs — the noise-robust statistic for benchmarking — and
    the per-round order interleaves algorithms so cache warmup cannot
    systematically favor one of them.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    generator = QueryGenerator(seed=seed)
    queries = [
        (family, size, generator.generate(family, size))
        for family, size in workload
    ]

    entries: List[Dict[str, object]] = []
    divergences: List[str] = []
    facade_slowdowns: List[str] = []
    for family, size, query in queries:
        seconds: Dict[str, float] = {name: float("inf") for name in ALGORITHMS}
        costs: Dict[str, str] = {}
        for _ in range(rounds):
            for name in ALGORITHMS:
                started = time.perf_counter()
                result = _run_algorithm(name, query)
                elapsed = time.perf_counter() - started
                if elapsed < seconds[name]:
                    seconds[name] = elapsed
                costs[name] = result.cost.hex()
        reference = costs["dpccp"]
        for name in ALGORITHMS:
            # Comparing float.hex() *strings*: exact equality is the whole
            # point of the divergence gate, not a float robustness bug.
            if costs[name] != reference:  # repro: disable=no-float-cost-eq
                divergences.append(
                    f"{family}-{size}: {name} cost {costs[name]} != "
                    f"dpccp cost {reference}"
                )
        fastest = min(seconds["dpconv"], seconds["topdown_apcbi"])
        if (
            fastest >= FACADE_MIN_SECONDS
            and seconds["facade"] > FACADE_SLOWDOWN * fastest
        ):
            facade_slowdowns.append(
                f"{family}-{size}: facade {seconds['facade']:.4f}s exceeds "
                f"{FACADE_SLOWDOWN}x the faster algorithm ({fastest:.4f}s)"
            )
        dpccp_seconds = seconds["dpccp"]
        gated = dpccp_seconds >= min_seconds
        entries.append(
            {
                "family": family,
                "relations": size,
                "seconds": {name: seconds[name] for name in ALGORITHMS},
                "normed": {
                    name: (
                        seconds[name] / dpccp_seconds
                        if dpccp_seconds > 0
                        else float("inf")
                    )
                    for name in ALGORITHMS
                },
                "cost_hex": reference,
                "gated": gated,
            }
        )
    return {
        "benchmark": "enumspeed",
        "seed": seed,
        "rounds": rounds,
        "algorithms": list(ALGORITHMS),
        "min_seconds": min_seconds,
        "entries": entries,
        "cost_divergences": divergences,
        "facade_slowdowns": facade_slowdowns,
    }


def check_against(
    report: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """Compare ``report`` to a checked-in ``baseline``; return failures.

    Only normed (machine-portable) times are compared, and only for
    entries both sides flagged as ``gated``.  Cost divergences in the
    fresh report always fail, and so do facade slowdowns.  An entry present in the baseline but
    missing from the report fails too — silently dropping the expensive
    rows is not a way to pass the gate.
    """
    failures = list(report.get("cost_divergences") or [])
    failures += report.get("facade_slowdowns") or []
    current = {
        (e["family"], e["relations"]): e for e in report.get("entries", [])
    }
    for expected in baseline.get("entries", []):
        key = (expected["family"], expected["relations"])
        entry = current.get(key)
        if entry is None:
            failures.append(
                f"{key[0]}-{key[1]}: present in baseline but missing from "
                "this run"
            )
            continue
        if not (expected.get("gated") and entry.get("gated")):
            continue
        min_seconds = float(baseline.get("min_seconds", DEFAULT_MIN_SECONDS))
        for name, baseline_normed in expected["normed"].items():
            observed = entry["normed"].get(name)
            if observed is None:
                failures.append(f"{key[0]}-{key[1]}: {name} not measured")
                continue
            # A ratio of two ~10ms timings jitters well past any sensible
            # threshold; only gate an algorithm once one side of the
            # comparison spends real time on the query.
            if (
                expected["seconds"][name] < min_seconds
                and entry["seconds"][name] < min_seconds
            ):
                continue
            if observed > baseline_normed * (1.0 + threshold):
                failures.append(
                    f"{key[0]}-{key[1]}: {name} normed time "
                    f"{observed:.3f} exceeds baseline "
                    f"{baseline_normed:.3f} by more than {threshold:.0%}"
                )
    return failures


def _speedup_line(report: Dict[str, object]) -> str:
    lines = []
    for entry in report["entries"]:
        seconds = entry["seconds"]
        dpconv = seconds.get("dpconv")
        if dpconv:
            speedup = seconds["dpccp"] / dpconv
            lines.append(
                f"{entry['family']}-{entry['relations']}: "
                f"dpccp {seconds['dpccp']:.3f}s dpconv {dpconv:.3f}s "
                f"({speedup:.1f}x)"
            )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench-enumspeed",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--out",
        default="BENCH_enumspeed.json",
        help="output JSON path (default: BENCH_enumspeed.json)",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="baseline JSON to gate against; non-zero exit on regression",
    )
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="maximum tolerated normed-time slowdown vs. the baseline",
    )
    args = parser.parse_args(argv)

    report = run_benchmark(rounds=args.rounds)
    print(_speedup_line(report))

    failures: List[str] = report["cost_divergences"] + report["facade_slowdowns"]
    if args.check is not None:
        with open(args.check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = check_against(report, baseline, threshold=args.threshold)
        # Gating run: leave the checked-in baseline untouched unless the
        # caller pointed --out somewhere else explicitly.
        if args.out != args.check:
            atomic_write_text(
                args.out, json.dumps(report, indent=2) + "\n"
            )
    else:
        atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
