"""Partitioned view of a dynamic graph, with the ScaleG guest directory.

A :class:`DistributedGraph` wraps a :class:`~repro.graph.dynamic_graph.DynamicGraph`
with a vertex partitioning and maintains, for every vertex ``u``, the set of
*other* workers that host at least one neighbour of ``u``.  Those are exactly
the machines where ScaleG keeps a *guest copy* of ``u``'s state (Section IV
of the paper): whenever ``u``'s state changes it must be synced once to each
such machine, and activation of remote neighbours is routed through the
guest's inverted index.

The directory is built once from the graph's CSR arrays (a few numpy
passes, no per-edge Python loop) and then maintained incrementally under
edge/vertex updates with per-worker reference counts, so a dynamic
workload never rebuilds it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple

import numpy as np

from repro.graph.dynamic_graph import DynamicGraph, csr_arrays
from repro.pregel.metrics import (
    ADJACENCY_ENTRY_BYTES,
    GUEST_OVERHEAD_BYTES,
    VERTEX_OVERHEAD_BYTES,
)
from repro.pregel.partition import HashPartitioner, Partitioner, home_array


class DistributedGraph:
    """A dynamic graph sharded over ``num_workers`` logical workers."""

    def __init__(self, graph: DynamicGraph, partitioner: Partitioner):
        self._graph = graph
        self._partitioner = partitioner
        # one bulk build from the graph's CSR arrays: the counts
        # add_vertex/add_edge would reach, taken per (row, worker) pair with
        # numpy; Python only assembles the per-vertex dicts
        ids, indptr, nbr = csr_arrays(graph)
        n = ids.size
        w = partitioner.num_workers
        home = home_array(partitioner, ids)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        pairs, counts = np.unique(rows * w + home[nbr], return_counts=True)
        pair_rows, pair_workers = np.divmod(pairs, w)
        guest = pair_workers != home[pair_rows]
        # _nbr_worker_counts[u][w] = number of u's neighbours hosted on w
        # (including u's own worker, so deletions stay O(1)).
        bounds = np.searchsorted(
            pair_rows, np.arange(n + 1, dtype=np.int64)
        ).tolist()
        workers = pair_workers.tolist()
        counts = counts.tolist()
        # the graph's own key objects, in row order (no new int per key)
        keys = graph.sorted_vertices()
        self._nbr_worker_counts: Dict[int, Dict[int, int]] = {
            u: dict(zip(workers[bounds[i]:bounds[i + 1]],
                        counts[bounds[i]:bounds[i + 1]]))
            for i, u in enumerate(keys)
        }
        # per-vertex guest-copy count and per-worker aggregates (home
        # vertices, home degree sum, hosted guest copies), all kept in
        # lock-step with the directory so `num_guest_copies` and the
        # uniform memory snapshot are O(1)/O(num_workers)
        guests = np.bincount(pair_rows[guest], minlength=n)
        hosted = np.flatnonzero(guests)
        self._guest_count: Dict[int, int] = dict(
            zip(map(keys.__getitem__, hosted.tolist()),
                guests[hosted].tolist())
        )
        self._home_vertices: List[int] = np.bincount(
            home, minlength=w
        ).tolist()
        self._home_degree_sum: List[int] = np.bincount(
            home[rows], minlength=w
        ).tolist()
        self._guest_copies: List[int] = np.bincount(
            pair_workers[guest], minlength=w
        ).tolist()

    @classmethod
    def create(
        cls, graph: DynamicGraph, num_workers: int, partitioner: Partitioner = None
    ) -> "DistributedGraph":
        """Build with the default hash partitioner unless one is given."""
        if partitioner is None:
            partitioner = HashPartitioner(num_workers)
        return cls(graph, partitioner)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynamicGraph:
        """The underlying single-image graph."""
        return self._graph

    @property
    def partitioner(self) -> Partitioner:
        return self._partitioner

    @property
    def num_workers(self) -> int:
        return self._partitioner.num_workers

    def worker_of(self, u: int) -> int:
        """The worker that hosts vertex ``u``."""
        return self._partitioner.worker_of(u)

    def guest_machines(self, u: int) -> List[int]:
        """Workers (other than ``u``'s own) holding a guest copy of ``u``.

        A guest copy exists on worker ``w`` iff ``w`` hosts at least one
        neighbour of ``u``.
        """
        home = self._partitioner.worker_of(u)
        counts = self._nbr_worker_counts.get(u, {})
        return [w for w, c in counts.items() if c > 0 and w != home]

    def num_guest_copies(self, u: int) -> int:
        return self._guest_count.get(u, 0)

    def is_remote_pair(self, u: int, v: int) -> bool:
        """True when ``u`` and ``v`` live on different workers."""
        return self._partitioner.worker_of(u) != self._partitioner.worker_of(v)

    # ------------------------------------------------------------------
    # mutation (kept in lock-step with the guest directory)
    # ------------------------------------------------------------------
    def add_vertex(self, u: int) -> None:
        self._graph.add_vertex(u)
        if u not in self._nbr_worker_counts:
            self._nbr_worker_counts[u] = {}
            self._home_vertices[self._partitioner.worker_of(u)] += 1

    def add_edge(self, u: int, v: int) -> Tuple[int, int]:
        """Insert edge ``(u, v)``.

        Returns ``(new_guests_u, new_guests_v)``: how many *new* guest copies
        each endpoint gained (a new copy means its full state must be shipped
        to a machine that had no replica before — the engines charge this).
        """
        self._graph.add_edge(u, v)
        for end in (u, v):
            if end not in self._nbr_worker_counts:
                self._nbr_worker_counts[end] = {}
                self._home_vertices[self._partitioner.worker_of(end)] += 1
        return self._count_edge(u, v, +1)

    def remove_edge(self, u: int, v: int) -> Tuple[int, int]:
        """Delete edge ``(u, v)``; returns how many guest copies each
        endpoint *lost* (replicas garbage-collected on remote machines)."""
        self._graph.remove_edge(u, v)
        return self._count_edge(u, v, -1)

    def remove_vertex(self, u: int) -> List[Tuple[int, int]]:
        """Delete ``u`` and incident edges; returns the removed edges."""
        removed = []
        for v in sorted(self._graph.neighbors(u)):
            self.remove_edge(u, v)
            removed.append((u, v))
        self._graph.remove_vertex(u)
        if u in self._nbr_worker_counts:
            del self._nbr_worker_counts[u]
            self._home_vertices[self._partitioner.worker_of(u)] -= 1
        self._guest_count.pop(u, None)
        return removed

    def _count_edge(self, u: int, v: int, delta: int) -> Tuple[int, int]:
        """Adjust neighbour-worker reference counts for one edge.

        Returns the number of guest copies created (``delta=+1``) or removed
        (``delta=-1``) at ``u`` and at ``v`` respectively (0 or 1 each).
        """
        changed_u = self._bump(u, self._partitioner.worker_of(v), delta)
        changed_v = self._bump(v, self._partitioner.worker_of(u), delta)
        self._home_degree_sum[self._partitioner.worker_of(u)] += delta
        self._home_degree_sum[self._partitioner.worker_of(v)] += delta
        return (changed_u, changed_v)

    def _bump(self, u: int, worker: int, delta: int) -> int:
        counts = self._nbr_worker_counts[u]
        old = counts.get(worker, 0)
        new = old + delta
        if new:
            counts[worker] = new
        else:
            counts.pop(worker, None)
        if worker == self._partitioner.worker_of(u):
            return 0  # the home worker never holds a guest copy
        if old == 0 and new > 0:
            self._guest_count[u] = self._guest_count.get(u, 0) + 1
            self._guest_copies[worker] += 1
            return 1  # guest copy created
        if old > 0 and new == 0:
            self._guest_count[u] = self._guest_count.get(u, 0) - 1
            self._guest_copies[worker] -= 1
            return 1  # guest copy destroyed
        return 0

    # ------------------------------------------------------------------
    # read-through helpers
    # ------------------------------------------------------------------
    def neighbors(self, u: int) -> Set[int]:
        return self._graph.neighbors(u)

    def degree(self, u: int) -> int:
        return self._graph.degree(u)

    def has_vertex(self, u: int) -> bool:
        return self._graph.has_vertex(u)

    def vertices(self) -> Iterator[int]:
        return self._graph.vertices()

    # ------------------------------------------------------------------
    # memory model
    # ------------------------------------------------------------------
    def structural_memory_bytes(self, state_bytes_of: Dict[int, int]) -> Dict[int, int]:
        """Modelled resident bytes per worker.

        ``state_bytes_of`` maps each vertex to the size of its algorithm
        state; a worker pays for its local vertices (overhead + state +
        adjacency) and for every guest copy it hosts (overhead + state).
        """
        per_worker: Dict[int, int] = {w: 0 for w in range(self.num_workers)}
        for u in self._graph.vertices():
            home = self._partitioner.worker_of(u)
            state = state_bytes_of.get(u, 0)
            per_worker[home] += (
                VERTEX_OVERHEAD_BYTES
                + state
                + self._graph.degree(u) * ADJACENCY_ENTRY_BYTES
            )
            for w in self.guest_machines(u):
                per_worker[w] += GUEST_OVERHEAD_BYTES + state
        return per_worker

    def structural_memory_bytes_uniform(self, state_bytes: int) -> Dict[int, int]:
        """Closed-form :meth:`structural_memory_bytes` for programs whose
        every state serializes to the same ``state_bytes`` — identical
        integers, computed from the per-worker aggregates in
        O(num_workers) instead of walking every vertex and guest copy."""
        return {
            w: (
                self._home_vertices[w] * (VERTEX_OVERHEAD_BYTES + state_bytes)
                + self._home_degree_sum[w] * ADJACENCY_ENTRY_BYTES
                + self._guest_copies[w] * (GUEST_OVERHEAD_BYTES + state_bytes)
            )
            for w in range(self.num_workers)
        }

    def worker_vertex_counts(self) -> Dict[int, int]:
        """Number of local vertices per worker (load-balance diagnostics)."""
        counts = {w: 0 for w in range(self.num_workers)}
        for u in self._graph.vertices():
            counts[self._partitioner.worker_of(u)] += 1
        return counts

    def replication_factor(self) -> float:
        """Average number of copies (home + guests) per vertex."""
        n = self._graph.num_vertices
        if n == 0:
            return 0.0
        total = sum(1 + self.num_guest_copies(u) for u in self._graph.vertices())
        return total / n
