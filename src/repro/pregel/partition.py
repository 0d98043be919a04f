"""Vertex-to-worker partitioners.

Pregel-like systems shard vertices across workers; all communication costs
in the simulation depend on which endpoint of an edge lives where.  The
default is multiplicative hashing (the standard Pregel choice and what the
paper's testbed uses); range and explicit partitioners exist for tests and
for studying partition sensitivity.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Iterable, List, Sequence

import numpy as np

from repro.errors import PartitionError

# Knuth's multiplicative hashing constant (2^32 / golden ratio).
_HASH_MULTIPLIER = 2654435761
_HASH_MASK = (1 << 32) - 1


class Partitioner(ABC):
    """Maps vertex ids to worker ids in ``[0, num_workers)``."""

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise PartitionError(f"num_workers must be >= 1, got {num_workers}")
        self._num_workers = num_workers

    @property
    def num_workers(self) -> int:
        return self._num_workers

    @abstractmethod
    def worker_of(self, vertex: int) -> int:
        """The worker hosting ``vertex``."""

    def partition(self, vertices: Iterable[int]) -> Dict[int, List[int]]:
        """Group ``vertices`` by worker (workers with no vertices included)."""
        groups: Dict[int, List[int]] = {w: [] for w in range(self._num_workers)}
        for u in vertices:
            groups[self.worker_of(u)].append(u)
        return groups


class HashPartitioner(Partitioner):
    """Deterministic multiplicative-hash partitioner (the default).

    Unlike Python's built-in ``hash`` (identity on small ints), the
    multiplicative hash spreads consecutive ids across workers, matching how
    real systems behave on SNAP-style id spaces.
    """

    def __init__(self, num_workers: int, salt: int = 0):
        super().__init__(num_workers)
        self._salt = salt

    def worker_of(self, vertex: int) -> int:
        h = ((vertex + self._salt) * _HASH_MULTIPLIER) & _HASH_MASK
        return h % self._num_workers


class RangePartitioner(Partitioner):
    """Contiguous id ranges per worker, built from an upper id bound."""

    def __init__(self, num_workers: int, max_vertex_id: int):
        super().__init__(num_workers)
        if max_vertex_id < 0:
            raise PartitionError("max_vertex_id must be >= 0")
        self._width = max(1, (max_vertex_id + num_workers) // num_workers)

    def worker_of(self, vertex: int) -> int:
        return min(max(vertex, 0) // self._width, self._num_workers - 1)


class ExplicitPartitioner(Partitioner):
    """A fixed vertex→worker mapping, with a fallback hash for new vertices.

    Dynamic workloads can insert vertices that did not exist when the map
    was built; those fall through to a :class:`HashPartitioner` so that the
    engine never fails mid-stream.
    """

    def __init__(self, assignment: Dict[int, int], num_workers: int):
        super().__init__(num_workers)
        for u, w in assignment.items():
            if not 0 <= w < num_workers:
                raise PartitionError(
                    f"vertex {u} assigned to worker {w}, outside [0, {num_workers})"
                )
        self._assignment = dict(assignment)
        self._fallback = HashPartitioner(num_workers)

    def worker_of(self, vertex: int) -> int:
        worker = self._assignment.get(vertex)
        if worker is None:
            return self._fallback.worker_of(vertex)
        return worker


def home_array(partitioner: Partitioner, ids) -> Any:
    """The home worker of every id in the ``int64`` array ``ids``.

    Vectorized multiplicative hash for the stock :class:`HashPartitioner`
    (spot-checked against its scalar :meth:`~Partitioner.worker_of`); any
    other partitioner is asked per vertex.
    """
    worker_of = partitioner.worker_of
    if (
        type(partitioner) is HashPartitioner
        and ids.size
        and isinstance(getattr(partitioner, "_salt", None), int)
        and 0 <= partitioner._salt < 1 << 31
    ):
        salted = ids.astype(np.uint64) + np.uint64(partitioner._salt)
        hashed = (salted * np.uint64(_HASH_MULTIPLIER)) & np.uint64(_HASH_MASK)
        home = (hashed % np.uint64(partitioner.num_workers)).astype(np.int64)
        for i in (0, int(ids.size) // 2, int(ids.size) - 1):
            if int(home[i]) != worker_of(int(ids[i])):
                break
        else:
            return home
    return np.fromiter(
        (worker_of(int(u)) for u in ids), np.int64, count=ids.size
    )


def balanced_partition(vertices: Sequence[int], num_workers: int) -> ExplicitPartitioner:
    """Round-robin assignment over sorted ids — perfectly balanced counts."""
    assignment = {u: i % num_workers for i, u in enumerate(sorted(vertices))}
    return ExplicitPartitioner(assignment, num_workers)
