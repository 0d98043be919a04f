"""Guest-copy inspection utilities.

The guest *directory* (which machines replicate which vertex) lives with
:class:`~repro.graph.distributed_graph.DistributedGraph` because it must be
maintained in lock-step with graph mutation.  This module adds the other
half of ScaleG's machinery: the **inverted activation index** — per machine,
``guest vertex → local vertices adjacent to it`` — which is how a state
change of ``u`` activates ``u``'s neighbours on a remote machine with a
single shipped record.

The engine charges costs directly from the directory; the index here is for
analysis, tests, and users who want to inspect replication behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.graph.distributed_graph import DistributedGraph


class InvertedActivationIndex:
    """Materialized guest→local-neighbours index for one worker.

    ``index.local_targets(u)`` answers: if vertex ``u`` (hosted elsewhere)
    changes state and its guest on this worker is told to activate, which
    local vertices get activated?
    """

    def __init__(self, dgraph: DistributedGraph, worker: int):
        self.worker = worker
        self._targets: Dict[int, List[int]] = {}
        graph = dgraph.graph
        for v in graph.vertices():
            if dgraph.worker_of(v) != worker:
                continue
            for u in sorted(graph.neighbors(v)):
                if dgraph.worker_of(u) != worker:
                    self._targets.setdefault(u, []).append(v)
        for u in self._targets:
            self._targets[u].sort()

    def guests(self) -> List[int]:
        """All remote vertices with a guest copy on this worker."""
        return sorted(self._targets)

    def local_targets(self, u: int) -> List[int]:
        """Local vertices adjacent to remote vertex ``u`` (empty if none)."""
        return list(self._targets.get(u, ()))

    def __len__(self) -> int:
        return len(self._targets)


def surviving_guest_machines(
    dgraph: DistributedGraph, u: int, worker_of, dead: Set[int]
) -> List[int]:
    """Machines still holding a (barrier-fresh) guest copy of ``u``.

    ``worker_of`` is the *effective* placement to evaluate under — under
    failover that is the coordinator's overlay, not the base partitioner —
    and ``dead`` the workers declared permanently lost.  This is the set
    a :class:`~repro.faults.membership.FailoverCoordinator` reconstructs a
    lost host vertex from: empty means the vertex is solitary or every
    replica died with the host (barrier checkpoint).
    """
    if not dgraph.has_vertex(u):
        return []
    home = worker_of(u)
    machines = {worker_of(v) for v in dgraph.neighbors(u)}
    machines.discard(home)
    return sorted(m for m in machines if m not in dead)


def build_all_indexes(dgraph: DistributedGraph) -> Dict[int, InvertedActivationIndex]:
    """One inverted index per worker."""
    return {
        w: InvertedActivationIndex(dgraph, w) for w in range(dgraph.num_workers)
    }


def replication_report(dgraph: DistributedGraph) -> Dict[str, float]:
    """Summary statistics of guest replication (diagnostics for examples)."""
    graph = dgraph.graph
    n = graph.num_vertices
    if not n:
        return {"vertices": 0, "replication_factor": 0.0, "max_copies": 0}
    remote_edges = sum(
        1 for u, v in graph.edges() if dgraph.is_remote_pair(u, v)
    )
    total_edges = graph.num_edges
    return {
        "vertices": float(n),
        "replication_factor": 1.0 + dgraph.total_guest_copies() / n,
        "max_copies": float(dgraph.max_guest_copies()),
        "edge_cut_fraction": (remote_edges / total_edges) if total_edges else 0.0,
    }
