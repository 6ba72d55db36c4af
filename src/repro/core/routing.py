"""Predicted-work routing between top-down enumeration and DPconv.

Under ``C_out`` the paper's top-down enumerators and the DPconv subset
convolution (:mod:`repro.baselines.dpconv`) are both exact, but their work
grows differently with the query graph:

* DPconv tries every split of every connected set ``S``:
  ``splits = sum_S (2^(|S|-1) - 1)``, plus the fill of its two dense
  ``2^n`` arrays;
* a top-down enumerator does one unit of work per csg-cmp pair (ccp) of
  the plan space.

:func:`estimate_work` counts both for a query graph without enumerating a
single plan, and :meth:`WorkEstimate.use_dpconv` turns the counts into
predicted seconds with the module constants below and picks the cheaper
algorithm.  The counts are exact graph invariants (so the decision does
not depend on relation numbering) except the ccp count of an irregular
cyclic graph, which is estimated:

* **trees** (chain, star, acyclic): one O(n) pass over the rooted tree.
  Every connected set has a unique topmost vertex, so per vertex the
  pass keeps the number of connected sets rooted there, the sum of their
  sizes and the sum of ``2^|S|``.  On a tree each edge inside ``S`` cuts
  it into two connected halves and nothing else does, so the ccp count is
  exactly ``sum_S (|S| - 1)``;
* **cycles and cliques**: closed forms;
* **other cyclic graphs**: one walk over the connected sets, which yields
  ``splits`` exactly and the spanning-tree lower bound ``sum_S (|S| - 1)``
  of the ccp count.  The ccp estimate scales that bound by a fitted
  factor.  The walk's layers are handed to DPconv when it is chosen, so a
  DPconv-routed query walks its connected sets once.

The constants are fitted by ``python -m repro.bench.routing`` from the
checked-in sweep ``BENCH_routing.json`` (docs/dpconv.md has the table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.baselines.dpconv import csg_layers
from repro.graph import bitset
from repro.graph.query_graph import QueryGraph

__all__ = [
    "DPCONV_SECONDS_PER_SPLIT",
    "DPCONV_SECONDS_PER_SLOT",
    "TOPDOWN_SECONDS_PER_CCP",
    "WALKED_CCPS_PER_TREE_PAIR",
    "WorkEstimate",
    "estimate_work",
    "tree_counts",
]

#: DPconv's predicted seconds per split of its innermost loop.
DPCONV_SECONDS_PER_SPLIT = 2e-07
#: DPconv's predicted seconds per slot of its dense ``2^n`` arrays.
DPCONV_SECONDS_PER_SLOT = 1.17e-08
#: A top-down enumerator's predicted seconds per csg-cmp pair.
TOPDOWN_SECONDS_PER_CCP = 8.66e-06
#: Estimated ccps per spanning-tree pair ``sum_S (|S| - 1)`` on a cyclic
#: graph that is neither a cycle nor a clique (ratio of the sweep's sums).
WALKED_CCPS_PER_TREE_PAIR = 2.49


@dataclass(frozen=True)
class WorkEstimate:
    """Both algorithms' predicted work on one query graph.

    ``splits`` is DPconv's inner-loop count and ``fill`` the length of its
    dense arrays; ``ccps`` is the top-down ccp count (estimated when
    ``shape == "walked"``).  ``layers`` holds the connected sets by size
    when a walk produced them, ready for :class:`~repro.baselines.dpconv.DPconv`.
    """

    shape: str
    splits: int
    fill: int
    ccps: float
    layers: Optional[List[List[int]]] = None

    @property
    def dpconv_seconds(self) -> float:
        return (
            DPCONV_SECONDS_PER_SPLIT * self.splits
            + DPCONV_SECONDS_PER_SLOT * self.fill
        )

    @property
    def topdown_seconds(self) -> float:
        return TOPDOWN_SECONDS_PER_CCP * self.ccps

    @property
    def use_dpconv(self) -> bool:
        """DPconv serves the query when its predicted time is lower."""
        return self.dpconv_seconds < self.topdown_seconds

    def event(self) -> Dict[str, object]:
        """Attributes of the ``route`` trace event."""
        return {
            "choice": "dpconv" if self.use_dpconv else "topdown",
            "shape": self.shape,
            "dpconv_work": self.splits + self.fill,
            "topdown_work": self.ccps,
            "dpconv_ms": self.dpconv_seconds * 1e3,
            "topdown_ms": self.topdown_seconds * 1e3,
        }


def tree_counts(graph: QueryGraph) -> Dict[str, int]:
    """Connected-set sums of a tree-shaped graph in one O(n) pass.

    Returns ``csgs`` (number of connected sets), ``sizes``
    (``sum_S |S|``) and ``powers`` (``sum_S 2^|S|``).  Rooting the tree at
    relation 0, the connected sets whose topmost vertex is ``v`` are
    ``{v}`` joined with, per child, either nothing or one connected set
    topped by that child; the three sums follow child by child.
    """
    n = graph.n_vertices
    parent = [-1] * n
    order = [0]
    seen = 1
    for vertex in order:
        for child in bitset.iter_bits(graph.adjacency(vertex) & ~seen):
            parent[child] = vertex
            seen |= bitset.singleton(child)
            order.append(child)
    count = [1] * n
    sizes = [1] * n
    powers = [2] * n
    for vertex in reversed(order[1:]):
        up = parent[vertex]
        # Sets topped by `up` so far, each optionally extended by one set
        # topped by `vertex`.
        sizes[up] = sizes[up] * (1 + count[vertex]) + count[up] * sizes[vertex]
        count[up] *= 1 + count[vertex]
        powers[up] *= 1 + powers[vertex]
    return {"csgs": sum(count), "sizes": sum(sizes), "powers": sum(powers)}


def estimate_work(graph: QueryGraph) -> WorkEstimate:
    """Predicted DPconv and top-down work on a connected query graph."""
    n = graph.n_vertices
    edges = len(graph.edges)
    fill = 1 << n  # repro: disable=bitset-discipline
    if edges == n - 1:
        sums = tree_counts(graph)
        return WorkEstimate(
            shape="tree",
            splits=sums["powers"] // 2 - sums["csgs"],
            fill=fill,
            ccps=sums["sizes"] - sums["csgs"],
        )
    if edges == n * (n - 1) // 2:
        # Every subset is connected and every split is a ccp.
        splits = (3**n - 1) // 2 - (fill - 1)
        return WorkEstimate(shape="clique", splits=splits, fill=fill, ccps=splits)
    if edges == n and all(
        bitset.bit_count(graph.adjacency(vertex)) == 2 for vertex in range(n)
    ):
        # n arcs of every size below n, plus the whole cycle, which splits
        # into two arcs at any two of its n edges.
        half = fill // 2
        return WorkEstimate(
            shape="cycle",
            splits=n * (half - n) + half - 1,
            fill=fill,
            ccps=n * (n - 1) * (n - 2) // 2 + n * (n - 1) // 2,
        )
    layers = csg_layers(graph)
    splits = 0
    tree_pairs = 0
    for size in range(2, n + 1):
        splits += len(layers[size]) * ((1 << (size - 1)) - 1)  # repro: disable=bitset-discipline
        tree_pairs += len(layers[size]) * (size - 1)
    return WorkEstimate(
        shape="walked",
        splits=splits,
        fill=fill,
        ccps=WALKED_CCPS_PER_TREE_PAIR * tree_pairs,
        layers=layers,
    )
