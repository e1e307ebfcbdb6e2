"""Page-co-access graph over placeable units.

The search-based layout optimizer (:mod:`repro.ordering.optimize`) does not
consume first-use *orderings* directly; it consumes a weighted graph that
says which units are touched close together in time.  Nodes are placeable
units (compilation units for ``.text``, heap-path placement groups for
``.svm_heap``); an edge's weight accumulates, over every input trace, how
near the two units' first touches were:

    w(u, v) += trace_weight * (window - |rank_u - rank_v|) / window

for every trace where both units appear within ``window`` positions of each
other in first-touch rank order.  Touches closer than a fault window apart
want to share pages; touches further apart than ``window`` contribute
nothing (the pair will not co-reside in a faulting window anyway).

Weights are exact :class:`~fractions.Fraction` sums, so the graph is
**permutation-invariant over its inputs**: feeding the same weighted traces
in any order produces the identical graph (property-tested in
tests/test_optimize.py).  This mirrors the exact-rational discipline of the
PR-7 profile merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

#: Default temporal-proximity window, in first-touch rank positions.  A
#: 4 KiB page holds a handful of CUs (median CU is a few hundred bytes), so
#: first touches within ~8 ranks of each other are candidates to share a
#: fault; beyond that the pair gains nothing from adjacency.
DEFAULT_WINDOW = 8


@dataclass
class CoAccessGraph:
    """Undirected weighted graph of temporal first-touch proximity."""

    window: int = DEFAULT_WINDOW
    #: canonical edge key is the sorted name pair
    weights: Dict[Tuple[str, str], Fraction] = field(default_factory=dict)
    nodes: "set[str]" = field(default_factory=set)

    def weight(self, u: str, v: str) -> Fraction:
        """Edge weight between two units (0 when unconnected or ``u == v``)."""
        if u == v:
            return Fraction(0)
        key = (u, v) if u <= v else (v, u)
        return self.weights.get(key, Fraction(0))

    def add(self, u: str, v: str, weight: Fraction) -> None:
        if u == v or weight == 0:
            return
        key = (u, v) if u <= v else (v, u)
        self.weights[key] = self.weights.get(key, Fraction(0)) + weight


def first_touch_ranks(sequence: Sequence[str]) -> Dict[str, int]:
    """First-occurrence rank of every unit in a touch sequence."""
    ranks: Dict[str, int] = {}
    for entry in sequence:
        if entry not in ranks:
            ranks[entry] = len(ranks)
    return ranks


def build_coaccess_graph(
    traces: Iterable[Tuple[Sequence[str], float]],
    window: int = DEFAULT_WINDOW,
) -> CoAccessGraph:
    """Build the co-access graph from weighted first-touch traces.

    ``traces`` is an iterable of ``(touch sequence, weight)`` pairs; each
    sequence lists unit names in touch order (repeats are collapsed to the
    first touch).  Raises :class:`ValueError` on a non-positive window or a
    negative trace weight.  The result depends only on the *multiset* of
    input pairs, not their order.
    """
    if window <= 0:
        raise ValueError(f"co-access window must be positive, got {window}")
    graph = CoAccessGraph(window=window)
    for sequence, weight in traces:
        if weight < 0:
            raise ValueError(f"negative trace weight {weight!r}")
        fraction = Fraction(weight)
        ranks = first_touch_ranks(sequence)
        graph.nodes.update(ranks)
        if fraction == 0:
            continue
        ordered: List[str] = sorted(ranks, key=ranks.__getitem__)
        for i, u in enumerate(ordered):
            # only pairs within the window contribute; scan forward
            for j in range(i + 1, min(i + window, len(ordered))):
                v = ordered[j]
                distance = j - i
                graph.add(u, v, fraction * Fraction(window - distance, window))
    return graph


def layout_objective(
    graph: CoAccessGraph, order: Sequence[str], window: int = 0
) -> Fraction:
    """The ext-TSP-style locality objective of a concrete layout order.

    Sums ``w(u, v) * (window - gap) / window`` over every unit pair placed
    within ``window`` positions of each other (``gap`` = placement-index
    distance).  Higher is better: heavy edges want small gaps.  ``window``
    defaults to the graph's own window.  Units in ``order`` that the graph
    never saw contribute nothing; the objective is what the greedy
    chain-merging pass maximizes.
    """
    window = window or graph.window
    total = Fraction(0)
    for i, u in enumerate(order):
        for j in range(i + 1, min(i + window, len(order))):
            gap = j - i
            weight = graph.weight(u, order[j])
            if weight:
                total += weight * Fraction(window - gap, window)
    return total
