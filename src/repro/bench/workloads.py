"""Update-workload generators (the paper's experimental protocol).

Section VII: *"we randomly delete k edges and insert them back in total of
2k update operations"*.  :func:`delete_reinsert_workload` implements exactly
that; :func:`mixed_workload` generates an arbitrary valid
insertion/deletion stream (used by the property tests and the update-count
scalability sweep); :func:`batched` splits a stream into the paper's
``b``-sized batches.

All generators are deterministic under their ``seed`` and never produce an
invalid operation (deleting a missing edge / inserting a present one) when
replayed in order from the given graph.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.updates import EdgeDeletion, EdgeInsertion, EdgeUpdate


def sample_edges(
    graph: DynamicGraph, k: int, seed: int = 0
) -> List[Tuple[int, int]]:
    """``k`` distinct random edges of ``graph`` (deterministic)."""
    edges = graph.sorted_edges()
    if k > len(edges):
        raise WorkloadError(
            f"cannot sample {k} edges from a graph with {len(edges)}"
        )
    rng = random.Random(seed)
    return rng.sample(edges, k)


def delete_reinsert_workload(
    graph: DynamicGraph, k: int, seed: int = 0
) -> List[EdgeUpdate]:
    """The paper's workload: delete ``k`` random edges, re-insert the same
    ``k`` — 2k operations total.

    Applying the whole stream returns the graph to its original state, which
    is what makes the result-consistency experiments (Table IV, "the
    independent set sizes are the same for different values of b") possible.
    """
    sampled = sample_edges(graph, k, seed=seed)
    ops: List[EdgeUpdate] = [EdgeDeletion(u, v) for u, v in sampled]
    ops.extend(EdgeInsertion(u, v) for u, v in sampled)
    return ops


def mixed_workload(
    graph: DynamicGraph,
    num_ops: int,
    insert_ratio: float = 0.5,
    seed: int = 0,
) -> List[EdgeUpdate]:
    """A valid random stream of ``num_ops`` insertions/deletions.

    The stream is generated against a scratch copy so replaying it in order
    from ``graph`` is always valid.  Insertions pick uniform random
    non-edges between existing vertices; deletions pick uniform random
    current edges.
    """
    if not 0.0 <= insert_ratio <= 1.0:
        raise WorkloadError(f"insert_ratio must be in [0, 1], got {insert_ratio}")
    rng = random.Random(seed)
    scratch = graph.copy()
    vertices = scratch.sorted_vertices()
    if len(vertices) < 2:
        raise WorkloadError("need at least two vertices to generate updates")
    ops: List[EdgeUpdate] = []
    edges = scratch.sorted_edges()
    guard = 0
    while len(ops) < num_ops:
        guard += 1
        if guard > 100 * num_ops + 1000:
            raise WorkloadError("workload generation is not making progress")
        want_insert = rng.random() < insert_ratio or not edges
        if want_insert:
            u = vertices[rng.randrange(len(vertices))]
            v = vertices[rng.randrange(len(vertices))]
            if u == v or scratch.has_edge(u, v):
                continue
            scratch.add_edge(u, v)
            edges.append((min(u, v), max(u, v)))
            ops.append(EdgeInsertion(u, v))
        else:
            idx = rng.randrange(len(edges))
            u, v = edges[idx]
            edges[idx] = edges[-1]
            edges.pop()
            scratch.remove_edge(u, v)
            ops.append(EdgeDeletion(u, v))
    return ops


def batched(
    operations: Sequence[EdgeUpdate], batch_size: int
) -> Iterator[List[EdgeUpdate]]:
    """Split an update stream into batches of ``batch_size`` (the last batch
    may be smaller)."""
    if batch_size < 1:
        raise WorkloadError(f"batch_size must be >= 1, got {batch_size}")
    for start in range(0, len(operations), batch_size):
        yield list(operations[start:start + batch_size])


def deletion_insertion_halves(
    operations: Sequence[EdgeUpdate],
) -> Tuple[List[EdgeUpdate], List[EdgeUpdate]]:
    """Split a delete-reinsert stream into its two phase batches.

    Figure 10(b) processes the 2k operations as exactly two batches: the
    deletion half and the insertion half.
    """
    deletions = [op for op in operations if isinstance(op, EdgeDeletion)]
    insertions = [op for op in operations if isinstance(op, EdgeInsertion)]
    return deletions, insertions
