"""Exact maximum independent set via branch-and-bound (small graphs).

The paper's related work (§VIII-A) surveys exact MIS solvers built on
branch-and-bound with reductions; this module provides one so the test
suite and quality studies can measure *true* approximation ratios of
greedy / ARW / reducing–peeling / OIMIS on graphs small enough to solve
exactly (≲ 60 vertices comfortably).

The solver uses the standard ingredients:

- **reductions** before branching: degree-0 (take), degree-1 (take the
  pendant — always safe for *some* optimum), domination is implied by the
  degree-1 rule at this scale;
- **branching** on a maximum-degree vertex ``v``: either ``v`` is excluded,
  or ``v`` is included and ``N[v]`` removed;
- **bounds**: a greedy clique-cover upper bound prunes branches that cannot
  beat the incumbent.

Exponential in the worst case by nature (the problem is NP-hard) — the
``node_budget`` turns pathological inputs into a loud
:class:`~repro.errors.ReproError` instead of a hang.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import ReproError
from repro.graph.dynamic_graph import DynamicGraph
from repro.serial.greedy import greedy_mis


class _Search:
    def __init__(self, graph: DynamicGraph, node_budget: int):
        self.graph = graph
        self.node_budget = node_budget
        self.nodes_visited = 0
        seed = greedy_mis(graph)
        self.best: Set[int] = set(seed)

    # -- bound: greedy clique cover ------------------------------------
    def upper_bound(self, live: Set[int]) -> int:
        """Number of cliques in a greedy clique cover of ``live``.

        Any independent set takes at most one vertex per clique, so the
        cover size bounds the MIS size from above.
        """
        remaining = sorted(live, key=lambda u: -len(self.graph.neighbors(u) & live))
        assigned: Dict[int, int] = {}
        cliques: List[Set[int]] = []
        for u in remaining:
            nbrs = self.graph.neighbors(u)
            for idx, clique in enumerate(cliques):
                if clique <= nbrs:
                    clique.add(u)
                    assigned[u] = idx
                    break
            else:
                cliques.append({u})
                assigned[u] = len(cliques) - 1
        return len(cliques)

    # -- reductions ------------------------------------------------------
    def reduce(self, live: Set[int], chosen: Set[int]) -> bool:
        """Apply degree-0/1 rules exhaustively; returns False on no-op."""
        progress = False
        changed = True
        while changed:
            changed = False
            for u in sorted(live):
                if u not in live:
                    continue  # removed earlier in this pass
                degree = sum(1 for v in self.graph.neighbors(u) if v in live)
                if degree == 0:
                    chosen.add(u)
                    live.discard(u)
                    changed = progress = True
                elif degree == 1:
                    # exactly one live neighbour exists, so order is moot
                    (nbr,) = (v for v in self.graph.neighbors(u) if v in live)  # repro-lint: disable=D1
                    chosen.add(u)
                    live.discard(u)
                    live.discard(nbr)
                    changed = progress = True
        return progress

    # -- branch-and-bound ---------------------------------------------------
    def solve(self, live: Set[int], chosen: Set[int]) -> None:
        self.nodes_visited += 1
        if self.nodes_visited > self.node_budget:
            raise ReproError(
                f"exact MIS search exceeded its node budget ({self.node_budget}); "
                "the input is too large/dense for exact solving"
            )
        live = set(live)
        chosen = set(chosen)
        self.reduce(live, chosen)
        if not live:
            if len(chosen) > len(self.best):
                self.best = chosen
            return
        if len(chosen) + self.upper_bound(live) <= len(self.best):
            return  # pruned
        # branch on a maximum-degree live vertex
        pivot = max(live, key=lambda u: (
            sum(1 for v in self.graph.neighbors(u) if v in live), -u
        ))
        # include pivot
        with_pivot = live - {pivot} - self.graph.neighbors(pivot)
        self.solve(with_pivot, chosen | {pivot})
        # exclude pivot
        self.solve(live - {pivot}, chosen)


def exact_mis(graph: DynamicGraph, node_budget: int = 2_000_000) -> Set[int]:
    """An exact maximum independent set of ``graph``.

    Raises :class:`~repro.errors.ReproError` if the branch-and-bound tree
    exceeds ``node_budget`` nodes.
    """
    if graph.num_vertices == 0:
        return set()
    search = _Search(graph, node_budget)
    search.solve(set(graph.vertices()), set())
    return set(search.best)


def independence_number(graph: DynamicGraph, node_budget: int = 2_000_000) -> int:
    """α(G): the size of a maximum independent set."""
    return len(exact_mis(graph, node_budget=node_budget))


def approximation_ratio(
    graph: DynamicGraph, candidate: Set[int], node_budget: int = 2_000_000
) -> float:
    """``|candidate| / α(G)`` — the true quality of an approximate set."""
    alpha = independence_number(graph, node_budget=node_budget)
    if alpha == 0:
        return 1.0
    return len(candidate) / alpha
