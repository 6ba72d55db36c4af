"""The inputs of the four workloads, derived from the run seed.

Every workload is served in whole *rounds*: a round is a fixed number of
operations of fixed kinds, so the share of each kind (and of the known
failures, see ``WARM_POOL_SEED`` below) is the same in every run whatever
its length or seed.  Round inputs are rebuilt from seeds for every round, so
no ``Query`` object (and no per-graph memo inside it) is ever served
twice.

Cold workloads repeat a seeded pool of distinct queries once per round;
the warm workloads mix exact repeats of a fixed pool, fixed near-repeats
and seeded fresh queries.  See README.md for the make-up and the reasons.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from repro import (
    Catalog,
    CoutCostModel,
    HaasCostModel,
    Query,
    QueryGraph,
    fingerprint,
    generate_query,
)

#: ``(family, relations, queries per round)`` of the paper's setting.
#: The shares put each reported percentile inside one family's band
#: rather than on the gap between two: the median among the stars
#: (18 of 51, above the 18 chain, cycle and acyclic queries) and p90
#: among the cliques (the slowest 9 of 51).
COLD_HAAS_MIX: Tuple[Tuple[str, int, int], ...] = (
    ("chain", 10, 6),
    ("cycle", 10, 6),
    ("acyclic", 10, 6),
    ("star", 9, 18),
    ("cyclic", 10, 6),
    ("clique", 9, 9),
)

#: C_out queries on both sides of the facade's ``n >= 12`` DPconv route:
#: sparse n=16 shapes (where the route loses to DPccp), dense n=12 shapes
#: (where it wins) and shapes below the threshold (top-down APCBI).  Ten
#: queries take under 40 ms, the four stars 50-70 ms and eight more
#: 80-400 ms, so the median falls among the stars and p90 among the
#: slowest band.
COUT_ROUTING_MIX: Tuple[Tuple[str, int, int], ...] = (
    ("chain", 11, 2),
    ("acyclic", 11, 2),
    ("cycle", 11, 2),
    ("cyclic", 10, 2),
    ("chain", 16, 2),
    ("star", 10, 2),
    ("star", 12, 2),
    ("cycle", 16, 2),
    ("clique", 12, 2),
    ("clique", 10, 2),
    ("acyclic", 16, 2),
)

#: Warm traffic: five families at n=9.
WARM_FAMILIES = ("chain", "star", "cycle", "acyclic", "cyclic")
WARM_RELATIONS = 9
#: Exact-repeat bases per family; each base has one near-repeat.
WARM_POOL_PER_FAMILY = 6
#: Relative perturbation of every estimate of a near-repeat.
NEAR_PERTURBATION = 0.07
#: The pool and the near-repeats do not depend on the run seed: a
#: near-repeat that shares its base's quantized fingerprint is served the
#: base's plan (labelled ``exact``), and that known fault must fail the
#: same operations in every run.  The run seed picks the repeats, their
#: relabelings, the order and the fresh queries.
WARM_POOL_SEED = 2012
#: Operations per warm round: 240 exact repeats, the 30 near-repeats once
#: each and 30 fresh queries, 300 in all.
WARM_REPEATS_PER_ROUND = 240
WARM_FRESH_PER_ROUND = 30
#: Fresh queries leave out stars.  A generated star has only two free
#: estimates (hub and dimension size), so two seeded stars of a run can
#: share a quantized fingerprint, and the later one is then served the
#: earlier one's plan: the known fault, but on some seeds only, which
#: would make the failed share differ between runs.  Cyclic queries are
#: the slowest fresh family, 7 of every 300 operations, and p99 falls
#: among them.
WARM_FRESH_FAMILIES = ("chain", "cycle", "acyclic", "cyclic")


@dataclass(frozen=True)
class Op:
    """One operation: the query to serve plus what it is.

    ``kind`` is ``cold``, ``repeat``, ``near`` or ``fresh``; ``ref`` names
    the distinct query whose DPccp optimum judges the answer (a relabeled
    repeat shares its base's optimum).
    """

    kind: str
    ref: Tuple
    query: Query


@dataclass(frozen=True)
class Workload:
    cost_model: Callable
    warm: bool
    sharded: bool
    #: Percentile reported as ``latency_tail_ms``: the highest with at
    #: least ten samples beyond it at this workload's sample count.
    tail_percentile: int

    @property
    def cout(self) -> bool:
        return self.cost_model is CoutCostModel


WORKLOADS: Dict[str, Workload] = {
    "cold_haas": Workload(HaasCostModel, warm=False, sharded=False, tail_percentile=90),
    "cold_cout_routing": Workload(
        CoutCostModel, warm=False, sharded=False, tail_percentile=90
    ),
    "warm_service": Workload(HaasCostModel, warm=True, sharded=False, tail_percentile=99),
    "warm_sharded": Workload(HaasCostModel, warm=True, sharded=True, tail_percentile=99),
}


def warm_log_path(workdir: Path, sharded: bool) -> Path:
    """The log a warm run starts from: the service's, or shard 0's segment."""
    return workdir / "store" / "shard-0.rpl" if sharded else workdir / "warm.rpl"


def fresh_copy(query: Query) -> Query:
    """An equal query with its own graph object (and so its own memo)."""
    graph = QueryGraph(query.graph.n_vertices, sorted(query.graph.edges))
    return Query(graph=graph, catalog=query.catalog, family=query.family, seed=query.seed)


def perturb(query: Query, rng: random.Random, fraction: float) -> Query:
    """Scale every cardinality and selectivity by a factor in 1 ± fraction."""
    catalog = query.catalog
    relations = [
        dataclasses.replace(
            catalog.relation(index),
            cardinality=max(
                1.0, catalog.cardinality(index) * rng.uniform(1 - fraction, 1 + fraction)
            ),
        )
        for index in range(query.n_relations)
    ]
    selectivities = {
        edge: min(1.0, catalog.selectivity(*edge) * rng.uniform(1 - fraction, 1 + fraction))
        for edge in sorted(query.graph.edges)
    }
    return Query(
        graph=QueryGraph(query.graph.n_vertices, sorted(query.graph.edges)),
        catalog=Catalog(relations, selectivities),
        family=query.family,
        seed=query.seed,
    )


# -- cold workloads ---------------------------------------------------------


def cold_pool(mix: Sequence[Tuple[str, int, int]], seed: int) -> List[Tuple[str, int, int]]:
    """``(family, n, query seed)`` of each distinct query of one round."""
    rng = random.Random(seed)
    return [
        (family, n, rng.randrange(2**31))
        for family, n, count in mix
        for _ in range(count)
    ]


def cold_round(pool: Sequence[Tuple[str, int, int]], seed: int, round_index: int) -> List[Op]:
    """Every pool query once, freshly generated, in a seeded order."""
    ops = [
        Op("cold", ("cold", index), generate_query(family, n, seed=query_seed))
        for index, (family, n, query_seed) in enumerate(pool)
    ]
    random.Random(f"{seed}/{round_index}").shuffle(ops)
    return ops


# -- warm workloads ---------------------------------------------------------


class WarmSet:
    """The fixed pool of exact-repeat bases and its fixed near-repeats."""

    def __init__(self) -> None:
        rng = random.Random(WARM_POOL_SEED)
        self.specs = [
            (family, rng.randrange(2**31))
            for _ in range(WARM_POOL_PER_FAMILY)
            for family in WARM_FAMILIES
        ]
        self.bases = [
            generate_query(family, WARM_RELATIONS, seed=query_seed)
            for family, query_seed in self.specs
        ]

    def near(self, index: int) -> Query:
        """Near-repeat ``index``: base ``index`` with its estimates perturbed."""
        return perturb(
            self.bases[index],
            random.Random(f"near/{WARM_POOL_SEED}/{index}"),
            NEAR_PERTURBATION,
        )

    def log_queries(self) -> List[Query]:
        """What the warm log is written from, in order: bases, then near-repeats.

        A near-repeat whose fingerprint matches an earlier query is a cache
        hit while the log is written, so it adds no entry of its own and is
        later served its neighbour's plan; the fixed order keeps that the
        same in every run.
        """
        return [fresh_copy(base) for base in self.bases] + [
            self.near(index) for index in range(len(self.bases))
        ]

    def neighbour_served(self) -> List[bool]:
        """Per near-repeat: does an earlier log query share its fingerprint?"""
        seen = set()
        flags = []
        for position, query in enumerate(self.log_queries()):
            key = fingerprint(query).key
            if position >= len(self.bases):
                flags.append(key in seen)
            seen.add(key)
        return flags

    def round(self, seed: int, round_index: int) -> List[Op]:
        """Seeded repeats and fresh queries plus every near-repeat, shuffled."""
        rng = random.Random(f"{seed}/{round_index}")
        ops: List[Op] = []
        for _ in range(WARM_REPEATS_PER_ROUND):
            index = rng.randrange(len(self.bases))
            mapping = list(range(WARM_RELATIONS))
            rng.shuffle(mapping)
            ops.append(Op("repeat", ("pool", index), self.bases[index].relabel(mapping)))
        for index in range(len(self.bases)):
            ops.append(Op("near", ("near", index), self.near(index)))
        for slot in range(WARM_FRESH_PER_ROUND):
            family = WARM_FRESH_FAMILIES[slot % len(WARM_FRESH_FAMILIES)]
            query_seed = rng.randrange(2**31)
            ops.append(
                Op(
                    "fresh",
                    ("fresh", round_index, slot),
                    generate_query(family, WARM_RELATIONS, seed=query_seed),
                )
            )
        rng.shuffle(ops)
        return ops

    def reference_query(self, op: Op) -> Query:
        """The query whose DPccp optimum judges ``op`` (unrelabeled, fresh)."""
        if op.ref[0] == "pool":
            return fresh_copy(self.bases[op.ref[1]])
        return fresh_copy(op.query)
