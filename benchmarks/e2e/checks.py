"""Correctness checks that do not trust the program under test.

The reference is the benchmark's own greedy pass over the edge set the
benchmark tracks: visit vertices in ascending (degree, id) order and take
each one none of whose neighbours was taken.  The paper's Theorems 4.1,
4.2 and 6.1 say the maintained set equals that greedy fixpoint after any
sequence of updates, on any runtime and representation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

Edge = Tuple[int, int]


def greedy_members(n: int, edges: Iterable[Edge]) -> Set[int]:
    """The (degree, id)-order greedy independent set on vertices ``0..n-1``."""
    adjacency: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    order = sorted(range(n), key=lambda u: (len(adjacency[u]), u))
    taken = bytearray(n)
    blocked = bytearray(n)
    for u in order:
        if not blocked[u]:
            taken[u] = 1
            for v in adjacency[u]:
                blocked[v] = 1
    return {u for u in range(n) if taken[u]}


def replay(edges: Iterable[Edge], ops: Iterable[Tuple[bool, int, int]]) -> Set[Edge]:
    """The edge set after applying ``(insert, u, v)`` operations in order;
    raises ValueError on an operation that does not apply."""
    live = set(edges)
    for insert, u, v in ops:
        edge = (u, v) if u < v else (v, u)
        if insert == (edge in live):
            raise ValueError(f"operation {(insert, u, v)} does not apply")
        if insert:
            live.add(edge)
        else:
            live.remove(edge)
    return live


def compare_members(label: str, expected: Set[int], actual: Set[int]) -> List[str]:
    """A problem line when ``actual`` differs from ``expected``."""
    if actual == expected:
        return []
    extra = sorted(actual - expected)[:5]
    missing = sorted(expected - actual)[:5]
    return [f"{label}: {len(actual)} members vs {len(expected)} expected "
            f"(unexpected {extra}, missing {missing})"]


def check_audit(problems: Sequence[str], summary: Dict[str, int],
                accepted: int) -> List[str]:
    """The WAL audit is clean, nothing is pending, and every accepted event
    was applied exactly once."""
    found = [f"WAL audit: {p}" for p in problems[:5]]
    if summary["applied"] != accepted or summary["pending"]:
        found.append(
            f"WAL audit: applied {summary['applied']} of {accepted} accepted "
            f"events, {summary['pending']} pending"
        )
    return found


def check_monotonic(label: str, values: Sequence[int]) -> List[str]:
    """A problem line when ``values`` ever decreases."""
    for i in range(1, len(values)):
        if values[i] < values[i - 1]:
            return [f"{label} went backwards at read {i}: "
                    f"{values[i - 1]} -> {values[i]}"]
    return []


def check_repeats(label: str, repeats: Sequence[Dict[str, int]]) -> List[str]:
    """Logical counts must repeat exactly across set-ups in one run."""
    if all(r == repeats[0] for r in repeats):
        return []
    return [f"{label}: logical counts differ between repeats: {list(repeats)}"]
