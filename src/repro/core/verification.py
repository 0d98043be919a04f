"""Result verification: independence, maximality, and fixpoint checks.

These are the invariants the paper's theorems promise; the test suite and
the benchmark harness call them after every run so a regression in any
algorithm or engine fails loudly instead of silently shrinking set quality.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Set, Tuple

from repro.errors import VerificationError
from repro.graph.dynamic_graph import DynamicGraph
from repro.serial.greedy import greedy_mis


def _failures(
    graph: DynamicGraph, members: Set[int], maximal: bool
) -> Iterator[Tuple[str, int]]:
    """Each ``(check, vertex)`` failure, unordered: callers sort the
    failures or only test for one, so a valid set is scanned unsorted."""
    for u in members:  # repro-lint: disable=D1
        if not graph.has_vertex(u) or any(
            v in members for v in graph.neighbors(u)
        ):
            yield "independence", u
    if maximal:
        for u in graph.vertices():
            if u not in members and not any(
                v in members for v in graph.neighbors(u)
            ):
                yield "maximality", u


def mis_violations(
    graph: DynamicGraph, candidate: Iterable[int], maximal: bool = True
) -> List[Tuple[str, int, str]]:
    """Every way ``candidate`` fails to be a maximal independent set.

    Returns ``(check, vertex, detail)`` triples in ascending vertex order:
    first each ``"independence"`` failure (a member that is not a vertex
    of ``graph``, or a member with a member neighbour), then, when
    ``maximal``, each ``"maximality"`` failure (a non-member with no member
    neighbour).  Only the failures are sorted, so a valid set costs one
    unordered scan.
    """
    members = set(candidate)
    found = []
    # "independence" sorts before "maximality"
    for check, u in sorted(_failures(graph, members, maximal)):
        if check == "maximality":
            detail = (
                f"vertex {u} has no neighbour in the set and could be added"
            )
        elif not graph.has_vertex(u):
            detail = f"member {u} is not a vertex of the graph"
        else:
            w = min(v for v in graph.neighbors(u) if v in members)
            detail = f"edge {(u, w)} inside the set"
        found.append((check, u, detail))
    return found


def is_independent_set(graph: DynamicGraph, candidate: Iterable[int]) -> bool:
    """True iff every member is a vertex and no two members are adjacent."""
    return next(_failures(graph, set(candidate), False), None) is None


def is_maximal_independent_set(graph: DynamicGraph, candidate: Iterable[int]) -> bool:
    """True iff ``candidate`` is independent and no vertex can be added."""
    return next(_failures(graph, set(candidate), True), None) is None


def is_greedy_fixpoint(graph: DynamicGraph, candidate: Iterable[int]) -> bool:
    """True iff ``candidate`` satisfies the paper's local property everywhere:

    ``u ∈ M ⇔ no neighbour v ≺ u with v ∈ M`` (Observation 4.1 + order).

    The fixpoint is unique, so this is equivalent to equality with
    :func:`repro.serial.greedy.greedy_mis` but checks the *local* property
    directly, which gives better failure localization.
    """
    members = set(candidate)
    for u in graph.vertices():
        my_rank = (graph.degree(u), u)
        dominated_by_member = any(
            (graph.degree(v), v) < my_rank and v in members
            for v in graph.neighbors(u)
        )
        if (u in members) == dominated_by_member:
            return False
    return True


def assert_valid_mis(graph: DynamicGraph, candidate: Iterable[int]) -> None:
    """Raise :class:`VerificationError` unless ``candidate`` is the greedy
    fixpoint MIS of ``graph`` (which implies maximal independence)."""
    members = set(candidate)
    violations = mis_violations(graph, members, maximal=False)
    if violations:
        raise VerificationError(f"not an independent set: {violations[0][2]}")
    if not is_greedy_fixpoint(graph, members):
        expected = greedy_mis(graph)
        missing = sorted(expected - members)[:5]
        extra = sorted(members - expected)[:5]
        raise VerificationError(
            "not the degree-order greedy fixpoint: "
            f"missing={missing} extra={extra} "
            f"(|expected|={len(expected)}, |got|={len(members)})"
        )


def set_quality(candidate_size: int, reference_size: int) -> float:
    """The paper's ``prec``: candidate size over reference size (Table IV)."""
    if reference_size == 0:
        return 1.0
    return candidate_size / reference_size
