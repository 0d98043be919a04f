"""Public facade: :class:`MISMaintainer`.

This is the class a downstream user instantiates: point it at a graph, get
the near-maximum independent set, feed it updates, read the set back at any
time.  It is :class:`~repro.core.doimis.DOIMISMaintainer` (the paper's
DOIMIS* by default) plus ergonomics: construction from edge lists or files,
self-verification, and a statistics snapshot.

Example
-------
>>> from repro import MISMaintainer
>>> m = MISMaintainer.from_edges([(1, 2), (2, 3), (3, 4)])
>>> sorted(m.independent_set())
[1, 4]
>>> m.delete_edge(2, 3)
>>> sorted(m.independent_set())
[1, 3]
>>> m.verify()  # raises VerificationError if the invariants ever break
"""

from __future__ import annotations

import io
import json
import zlib
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.activation import ActivationStrategy
from repro.core.doimis import DOIMISMaintainer
from repro.graph.csr import csr_arrays
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.io import read_edge_list
from repro.pregel.metrics import family_sum
from repro.pregel.partition import Partitioner

CHECKPOINT_FORMAT = "repro-mis-checkpoint"
#: first line of every checkpoint file (see :meth:`MISMaintainer.save`)
CHECKPOINT_MAGIC = b"REPRO-MIS-CHECKPOINT\n"
#: bump when the file layout changes; :meth:`MISMaintainer.load` reads
#: exactly this version (2: binary CSR arrays; 1 was a JSON edge list)
CHECKPOINT_VERSION = 2


class MISMaintainer(DOIMISMaintainer):
    """Distributed near-maximum independent set maintenance (DOIMIS*)."""

    def __init__(
        self,
        graph: DynamicGraph,
        num_workers: int = 10,
        strategy: ActivationStrategy = ActivationStrategy.SAME_STATUS,
        partitioner: Optional[Partitioner] = None,
        keep_records: bool = False,
        resume_states=None,
        faults=None,
        membership=None,
        runtime=None,
        sanitize=None,
        representation=None,
    ):
        super().__init__(
            graph,
            num_workers=num_workers,
            strategy=strategy,
            partitioner=partitioner,
            keep_records=keep_records,
            resume_states=resume_states,
            faults=faults,
            membership=membership,
            runtime=runtime,
            sanitize=sanitize,
            representation=representation,
        )

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        vertices: Iterable[int] = (),
        **kwargs,
    ) -> "MISMaintainer":
        """Build a maintainer from an edge iterable."""
        return cls(DynamicGraph.from_edges(edges, vertices=vertices), **kwargs)

    @classmethod
    def from_edge_list_file(cls, path, **kwargs) -> "MISMaintainer":
        """Build a maintainer from a SNAP-style edge-list file."""
        return cls(read_edge_list(path), **kwargs)

    def save(self, path) -> None:
        """Checkpoint graph + maintained set to one binary file.

        Layout: the magic line, a one-line JSON header (``format``,
        ``version``, ``num_workers``, ``strategy``, ``updates_applied``,
        ``n``, ``nnz`` and ``crc32``, the CRC-32 of everything after the
        header), then four ``np.save`` blocks: ``ids``, ``indptr``, ``nbr``
        (neighbour row indices) and the membership bitmap.  The arrays are
        the attached CSR mirror's; a ``representation="dict"`` maintainer
        builds them with :func:`~repro.graph.csr.csr_arrays` and attaches
        no mirror.  The stored set is the fixpoint already, so a restore
        recomputes nothing (:meth:`load` only verifies it).
        """
        part = getattr(self._dgraph, "_csr_partition", None)
        if part is not None:
            part.ensure()
            ids, indptr, nbr = part.ids, part.indptr, part.nbr
        else:
            ids, indptr, nbr = csr_arrays(self.graph)
        members = np.fromiter(
            map(self._states.__getitem__, ids.tolist()), np.bool_,
            count=ids.size,
        )
        body = io.BytesIO()
        for array in (ids, indptr, nbr, members):
            np.save(body, array, allow_pickle=False)
        header = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "num_workers": self.num_workers,
            "strategy": self.strategy.value,
            "updates_applied": self.updates_applied,
            "n": ids.size,
            "nnz": nbr.size,
            "crc32": zlib.crc32(body.getbuffer()),
        }
        with open(path, "wb") as handle:
            handle.write(CHECKPOINT_MAGIC)
            handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            handle.write(body.getbuffer())

    @classmethod
    def load(cls, path, verify: bool = True,
             num_workers: Optional[int] = None, **kwargs) -> "MISMaintainer":
        """Restore a maintainer from a :meth:`save` checkpoint.

        Every way a checkpoint can be bad — missing file, foreign or
        truncated file, malformed header, wrong or future version, CRC
        mismatch, malformed arrays, negative vertex ids, an adjacency that
        is not a simple undirected graph — raises
        :class:`~repro.errors.CheckpointError` naming the path and the
        reason.  The graph is built straight from the arrays; ``verify``
        then re-checks the stored set against the greedy fixpoint
        (``verify=False`` trusts the file).

        ``num_workers`` pins the cluster size the caller's engine is
        configured for: a checkpoint saved under a different worker count
        raises ``CheckpointError("partition mismatch: ...")`` with both
        counts instead of silently resuming onto the wrong partitioning
        (host/guest directories would disagree with every meter and with a
        failover coordinator's membership view).  ``None`` (the default)
        adopts the checkpoint's own count.  Extra keyword arguments
        (``faults``, ``membership``, ``partitioner``, ``runtime``, ...)
        pass through to the constructor.
        """
        from repro.errors import CheckpointError

        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise CheckpointError(path, exc.strerror or str(exc)) from exc
        if not blob.startswith(CHECKPOINT_MAGIC):
            raise CheckpointError(path, f"not a {CHECKPOINT_FORMAT} file")
        split = blob.find(b"\n", len(CHECKPOINT_MAGIC))
        if split < 0:
            raise CheckpointError(path, "truncated header")
        try:
            header = json.loads(blob[len(CHECKPOINT_MAGIC):split])
        except ValueError as exc:
            raise CheckpointError(path, f"malformed header ({exc})") from exc
        if not isinstance(header, dict) \
                or header.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(path, f"not a {CHECKPOINT_FORMAT} file")
        version = header.get("version")
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise CheckpointError(
                path,
                f"unsupported checkpoint version {version!r} "
                f"(this build reads version {CHECKPOINT_VERSION})",
            )
        try:
            for key in ("num_workers", "updates_applied", "n", "nnz",
                        "crc32"):
                if type(header[key]) is not int:
                    raise TypeError(f"{key} is not an integer")
            strategy = ActivationStrategy(header["strategy"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(path, f"malformed header: {exc}") from exc
        body = memoryview(blob)[split + 1:]
        if zlib.crc32(body) != header["crc32"]:
            raise CheckpointError(path, "CRC mismatch: truncated or corrupt")
        n, nnz = header["n"], header["nnz"]
        stream = io.BytesIO(body)
        try:
            ids, indptr, nbr, members = (
                np.load(stream, allow_pickle=False) for _ in range(4)
            )
        except (ValueError, EOFError, OSError) as exc:
            raise CheckpointError(path, f"malformed arrays: {exc}") from exc
        for name, array, dtype, size in (
            ("ids", ids, np.int64, n), ("indptr", indptr, np.int64, n + 1),
            ("nbr", nbr, np.int64, nnz), ("members", members, np.bool_, n),
        ):
            if array.dtype != dtype or array.shape != (size,):
                raise CheckpointError(
                    path, f"malformed arrays: {name} is {array.dtype}"
                    f"{list(array.shape)}, header says {np.dtype(dtype)}"
                    f"[{size}]",
                )
        if stream.tell() != len(body):
            raise CheckpointError(path, "trailing bytes after the arrays")
        if n and ids.min() < 0:
            raise CheckpointError(
                path, f"negative vertex id(s): {ids[ids < 0][:5].tolist()}"
            )
        saved_workers = header["num_workers"]
        if saved_workers < 1:
            raise CheckpointError(
                path, f"num_workers must be >= 1, got {saved_workers}"
            )
        if num_workers is not None and num_workers != saved_workers:
            raise CheckpointError(
                path,
                f"partition mismatch: checkpoint has {saved_workers} "
                f"worker(s), engine configured for {num_workers}",
            )
        try:
            graph = DynamicGraph.from_csr(ids, indptr, nbr)
        except ValueError as exc:
            raise CheckpointError(path, f"invalid graph: {exc}") from exc
        maintainer = cls(
            graph,
            num_workers=saved_workers,
            strategy=strategy,
            resume_states=dict(zip(ids.tolist(), members.tolist())),
            **kwargs,
        )
        maintainer.updates_applied = header["updates_applied"]
        if verify:
            maintainer.verify()
        return maintainer

    def stats(self) -> Dict[str, float]:
        """A snapshot of set size and accumulated maintenance costs."""
        snapshot = {
            "vertices": self.graph.num_vertices,
            "edges": self.graph.num_edges,
            "set_size": float(len(self)),
            "updates_applied": float(self.updates_applied),
            "batches_applied": float(self.batches_applied),
            "supersteps": float(self.update_metrics.supersteps),
            "active_vertices": float(self.update_metrics.active_vertices),
            "communication_mb": self.update_metrics.communication_mb,
            "memory_mb": self.update_metrics.memory_mb,
            "wall_time_s": self.update_metrics.wall_time_s,
        }
        # fault-recovery and anti-entropy overhead accrues on whichever run
        # was faulted (the initial static run or the update runs) — report
        # the sum
        for prefix in ("recovery_", "divergence_"):
            summed = family_sum(prefix, self.init_metrics, self.update_metrics)
            for name, value in summed.items():
                snapshot[name] = float(value)
        return snapshot
