"""Partitioned view of a dynamic graph, with the ScaleG guest directory.

A :class:`DistributedGraph` wraps a :class:`~repro.graph.dynamic_graph.DynamicGraph`
with a vertex partitioning and maintains, for every vertex ``u``, the set of
*other* workers that host at least one neighbour of ``u``.  Those are exactly
the machines where ScaleG keeps a *guest copy* of ``u``'s state (Section IV
of the paper): whenever ``u``'s state changes it must be synced once to each
such machine, and activation of remote neighbours is routed through the
guest's inverted index.

The directory is flat typed storage indexed by *slot*: one ``{vertex:
slot}`` map, then per slot its vertex id, home worker and guest-copy
count, and ``num_workers`` neighbour-worker reference counts at
``slot * num_workers + worker``.  It is built once from the graph's CSR
arrays (one ``bincount``, no per-edge or per-vertex Python pass) and then
maintained incrementally under edge/vertex updates, so a dynamic workload
never rebuilds it.  A removed vertex frees its slot (all its counts are
back to zero) for the next new vertex.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.graph.dynamic_graph import DynamicGraph, csr_arrays
from repro.pregel.metrics import (
    ADJACENCY_ENTRY_BYTES,
    GUEST_OVERHEAD_BYTES,
    VERTEX_OVERHEAD_BYTES,
)
from repro.pregel.partition import HashPartitioner, Partitioner, home_array


def _int64_array(values) -> array:
    """A typed ``array('q')`` holding the ``int64`` numpy array ``values``
    (one memcpy): O(1) Python-int item access on the mutation path, and
    :func:`numpy.frombuffer` reads it back without a copy."""
    out = array("q")
    out.frombytes(np.ascontiguousarray(values, np.int64).ravel()
                  .view(np.uint8))
    return out


def guest_flags(rows, workers, row_home, num_workers: int):
    """Which workers hold a guest copy of each row, as a ``(k, W)`` bool
    matrix, plus the raw per-(row, worker) neighbour counts.

    ``rows``/``workers`` are aligned adjacency entries (a row in
    ``[0, k)`` and the home worker of one of its neighbours); a row has a
    guest copy on every worker other than ``row_home[row]`` that hosts at
    least one of its neighbours.
    """
    k = row_home.size
    counts = np.bincount(rows * num_workers + workers,
                         minlength=k * num_workers).reshape(k, num_workers)
    flags = counts > 0
    flags[np.arange(k), row_home] = False
    return flags, counts


class DistributedGraph:
    """A dynamic graph sharded over ``num_workers`` logical workers."""

    def __init__(self, graph: DynamicGraph, partitioner: Partitioner):
        self._graph = graph
        self._partitioner = partitioner
        self._w = w = partitioner.num_workers
        # one bulk build from the graph's CSR arrays: slot i is row i, and
        # its counts are exactly what add_vertex/add_edge would reach
        ids, indptr, nbr = arrays = csr_arrays(graph)
        n = ids.size
        home = home_array(partitioner, ids)
        degrees = np.diff(indptr)
        rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        flags, counts = guest_flags(rows, home[nbr], home, w)
        self._slot: Dict[int, int] = dict(zip(ids.tolist(), range(n)))
        #: per slot: vertex id, home worker, guest copies
        self._ids = _int64_array(ids)
        self._home = _int64_array(home)
        self._guests = _int64_array(flags.sum(axis=1))
        #: neighbour-worker reference counts at ``slot * w + worker``
        #: (the home worker's column included, so deletions stay O(1))
        self._counts = _int64_array(counts)
        self._free: List[int] = []
        #: the graph's arrays this directory was built from, until its
        #: first mutation (see :meth:`rows_of`)
        self._built_from: Optional[Tuple[Any, Any, Any]] = arrays
        # per-worker aggregates (home vertices, home degree sum, hosted
        # guest copies), kept in lock-step with the directory so the
        # uniform memory snapshot is O(num_workers)
        self._home_vertices: List[int] = np.bincount(
            home, minlength=w
        ).tolist()
        self._home_degree_sum: List[int] = np.bincount(
            home, weights=degrees, minlength=w
        ).astype(np.int64).tolist()
        self._guest_copies: List[int] = flags.sum(axis=0).tolist()

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
        """Workers (other than ``u``'s own) holding a guest copy of ``u``,
        ascending.

        A guest copy exists on worker ``w`` iff ``w`` hosts at least one
        neighbour of ``u``.
        """
        slot = self._slot.get(u)
        if slot is None or not self._guests[slot]:
            return []
        home = self._home[slot]
        base = slot * self._w
        counts = self._counts[base:base + self._w]
        return [w for w, c in enumerate(counts) if c and w != home]

    def rows_of(self, arrays) -> Optional[Tuple[Any, Any, Dict[int, int]]]:
        """Copies of ``(home, guests, {id: row})`` for the CSR rows of
        ``arrays`` (:func:`~repro.graph.dynamic_graph.csr_arrays`' tuple)
        when this directory was built from that very tuple and has not
        been mutated since -- slot ``i`` is then row ``i`` -- else
        ``None``.  The CSR mirror's first build takes them from here
        instead of recomputing them."""
        if arrays is not self._built_from:
            return None
        return (np.frombuffer(self._home, np.int64).copy(),
                np.frombuffer(self._guests, np.int64).copy(),
                self._slot.copy())

    def num_guest_copies(self, u: int) -> int:
        slot = self._slot.get(u)
        return 0 if slot is None else self._guests[slot]

    def guest_vertices_on(self, worker: int) -> List[int]:
        """Vertices (hosted elsewhere) with a guest copy on ``worker``,
        ascending: one pass over that worker's count column."""
        column = np.frombuffer(self._counts[worker::self._w], np.int64)
        hosted = (column > 0) & (self._view(self._home) != worker)
        return np.sort(self._view(self._ids)[hosted]).tolist()

    def total_guest_copies(self) -> int:
        """Guest copies over all vertices (and all workers)."""
        return sum(self._guest_copies)

    def max_guest_copies(self) -> int:
        """The most guest copies any one vertex has (0 with no vertices)."""
        return int(self._view(self._guests).max(initial=0))

    @staticmethod
    def _view(values: array):
        """Zero-copy ``int64`` view of one slot array.  Callers use it
        within one expression: a live view pins the array's buffer, and
        :meth:`_new_slot` could not grow it."""
        return np.frombuffer(values, np.int64)

    def is_remote_pair(self, u: int, v: int) -> bool:
        """True when ``u`` and ``v`` live on different workers."""
        return self._partitioner.worker_of(u) != self._partitioner.worker_of(v)

    # ------------------------------------------------------------------
    # mutation (kept in lock-step with the guest directory)
    # ------------------------------------------------------------------
    def add_vertex(self, u: int) -> None:
        self._graph.add_vertex(u)
        if u not in self._slot:
            self._new_slot(u)

    def add_edge(self, u: int, v: int) -> Tuple[int, int]:
        """Insert edge ``(u, v)``.

        Returns ``(new_guests_u, new_guests_v)``: how many *new* guest copies
        each endpoint gained (a new copy means its full state must be shipped
        to a machine that had no replica before — the engines charge this).
        """
        self._graph.add_edge(u, v)
        slot = self._slot
        su = slot.get(u)
        if su is None:
            su = self._new_slot(u)
        sv = slot.get(v)
        if sv is None:
            sv = self._new_slot(v)
        return self._count_edge(su, sv, +1)

    def remove_edge(self, u: int, v: int) -> Tuple[int, int]:
        """Delete edge ``(u, v)``; returns how many guest copies each
        endpoint *lost* (replicas garbage-collected on remote machines)."""
        self._graph.remove_edge(u, v)
        return self._count_edge(self._slot[u], self._slot[v], -1)

    def remove_vertex(self, u: int) -> List[Tuple[int, int]]:
        """Delete ``u`` and incident edges; returns the removed edges."""
        removed = []
        for v in sorted(self._graph.neighbors(u)):
            self.remove_edge(u, v)
            removed.append((u, v))
        self._graph.remove_vertex(u)
        slot = self._slot.pop(u, None)
        if slot is not None:
            self._built_from = None
            # every count of the slot is back to zero: free it for reuse
            self._home_vertices[self._home[slot]] -= 1
            self._free.append(slot)
        return removed

    def _new_slot(self, u: int) -> int:
        """Give new vertex ``u`` a slot (a freed one first) and count it
        on its home worker."""
        self._built_from = None
        home = self._partitioner.worker_of(u)
        if self._free:
            slot = self._free.pop()
            self._ids[slot] = u
            self._home[slot] = home
        else:
            slot = len(self._ids)
            self._ids.append(u)
            self._home.append(home)
            self._guests.append(0)
            self._counts.frombytes(bytes(8 * self._w))
        self._slot[u] = slot
        self._home_vertices[home] += 1
        return slot

    def _count_edge(self, su: int, sv: int, delta: int) -> Tuple[int, int]:
        """Adjust neighbour-worker reference counts for one edge between
        slots ``su`` and ``sv``.

        Returns the number of guest copies created (``delta=+1``) or removed
        (``delta=-1``) at ``u`` and at ``v`` respectively (0 or 1 each).
        """
        self._built_from = None
        hu = self._home[su]
        hv = self._home[sv]
        self._home_degree_sum[hu] += delta
        self._home_degree_sum[hv] += delta
        if hu == hv:
            # the home worker never holds a guest copy
            w = self._w
            self._counts[su * w + hv] += delta
            self._counts[sv * w + hu] += delta
            return (0, 0)
        return (self._bump(su, hv, delta), self._bump(sv, hu, delta))

    def _bump(self, slot: int, worker: int, delta: int) -> int:
        """Count one more/less neighbour of a slot on a worker that is not
        its home; returns 1 when that creates or removes a guest copy."""
        i = slot * self._w + worker
        old = self._counts[i]
        self._counts[i] = old + delta
        if old and old + delta:
            return 0
        self._guests[slot] += delta
        self._guest_copies[worker] += delta
        return 1  # guest copy created (0 -> 1) or destroyed (1 -> 0)

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
        return dict(enumerate(self._home_vertices))

    def replication_factor(self) -> float:
        """Average number of copies (home + guests) per vertex."""
        n = self._graph.num_vertices
        if n == 0:
            return 0.0
        return (n + self.total_guest_copies()) / n
