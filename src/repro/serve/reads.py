"""Epoch-consistent read path: snapshot registry + query engine.

The maintenance side of this repo keeps a near-maximum independent set
converged under a stream of edge updates; this module makes the *read*
side first-class.  Two pieces:

:class:`SnapshotRegistry` publishes an immutable, epoch-tagged view of
the maintained set at each committed window (the
:class:`~repro.serve.service.IngestionService` calls :meth:`publish`
right after every WAL commit).  Every epoch is a set of private array
copies, whatever runtime the maintainer sweeps on: the structure arrays
are re-copied only when the CSR mirror's ``structure_version`` moved, and
the membership bitmap is rebuilt from ``independent_set()`` per epoch.
The writer never touches a published epoch, so a reader keeps a
consistent view simply by holding the snapshot object, and publication
never waits for readers.

:class:`QueryEngine` answers queries against the newest snapshot:
point membership, numpy-vectorized batch lookups (thousands of point
queries per bitmap pass), k-hop neighbourhood set queries, and "why-not"
certificates — for a non-member ``v``, the blocking neighbour is the
minimum-``≺``-key in-set neighbour ranked below ``v`` (the exact vertex
Algorithm 2's early-break scan stops at; at a fixpoint one always
exists).  Every answer is tagged with the epoch it was served from, and
the engine accounts read latency (nearest-rank percentiles via
:func:`repro.util.percentile`) and ingress staleness (events admitted
but not yet visible at the answering epoch).

Consistency model: an epoch is a committed-window barrier snapshot, so
every query result is bit-identical to querying a maintainer restored to
that window's checkpoint — the property the read-path tests pin.
"""

from __future__ import annotations

import operator
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import QueryError
from repro.graph.csr import CSRPartition
from repro.util import percentile

_INT64 = np.iinfo(np.int64)


class EpochSnapshot:
    """One immutable, epoch-tagged view of graph structure + membership.

    ``ids``/``keys``/``indptr``/``nbr`` follow the CSR mirror's layout
    (see :mod:`repro.graph.csr`); ``in_`` is the membership bitmap.  All
    are private copies (consecutive epochs share the structure arrays
    while the structure is unchanged), so holding the object keeps the
    epoch readable after newer ones are published.
    """

    __slots__ = ("epoch", "watermark", "ids", "keys", "indptr", "nbr", "in_")

    def __init__(self, epoch: int, watermark: int, ids, keys, indptr, nbr,
                 in_):
        self.epoch = epoch
        self.watermark = watermark
        self.ids = ids
        self.keys = keys
        self.indptr = indptr
        self.nbr = nbr
        self.in_ = in_

    @property
    def num_vertices(self) -> int:
        return int(self.ids.size)

    @property
    def set_size(self) -> int:
        return int(np.count_nonzero(self.in_))

    def row_of(self, vertex: int) -> Optional[int]:
        """Row index of ``vertex`` in this epoch, or None if absent.

        This is the id rule every query shares: an integer (Python, numpy
        or bool) is an id, one outside int64 is never present, and
        anything else raises :class:`QueryError`.
        """
        try:
            vertex = operator.index(vertex)
        except TypeError:
            raise QueryError(
                f"vertex ids are integers, got {vertex!r}"
            ) from None
        ids = self.ids
        if not ids.size or not _INT64.min <= vertex <= _INT64.max:
            return None
        row = int(np.searchsorted(ids, vertex))
        if row >= ids.size or int(ids[row]) != vertex:
            return None
        return row

    def members(self) -> List[int]:
        """The maintained set at this epoch, ascending."""
        return self.ids[self.in_].tolist()


class SnapshotRegistry:
    """Publishes epoch-tagged snapshots of a maintainer.

    Parameters
    ----------
    maintainer:
        Anything with the :class:`~repro.core.doimis.DOIMISMaintainer`
        read surface (``dgraph``, ``independent_set()``): a maintainer,
        or the :class:`~repro.stream.StreamingSession` feeding one, whose
        set is the last committed window's.
    frontier_fn:
        Zero-argument callable returning the ingress frontier (the last
        *accepted* sequence id) — staleness of a snapshot is
        ``frontier - snapshot.watermark``, the number of admitted events
        not yet visible to readers.  ``None`` reports staleness 0.
    """

    def __init__(self, maintainer,
                 frontier_fn: Optional[Callable[[], int]] = None):
        self._maintainer = maintainer
        self._frontier_fn = frontier_fn
        self._part: Optional[CSRPartition] = None
        self._latest: Optional[EpochSnapshot] = None
        self._closed = False
        # structure cache: private copies remade only when the mirror's
        # structure_version moves
        self._struct_version = -1
        self._struct: Optional[Tuple[Any, Any, Any, Any]] = None
        self.epochs_published = 0
        #: every published (epoch, watermark) pair, in publish order —
        #: the monotonicity witness the chaos tests assert over
        self.history: List[Tuple[int, int]] = []

    # -- publication -----------------------------------------------------
    def _partition(self) -> CSRPartition:
        part = self._part
        if part is None:
            part = self._part = CSRPartition.attach(self._maintainer.dgraph)
        return part

    def publish(self, epoch: Optional[int] = None,
                watermark: int = 0) -> EpochSnapshot:
        """Publish the maintainer's current committed state as an epoch.

        ``epoch`` must be strictly greater than the last published one
        (defaults to a simple counter); ``watermark`` is the commit
        watermark the epoch corresponds to.  The previous epoch stays
        valid for anyone still holding it.
        """
        if self._closed:
            raise QueryError("snapshot registry is closed")
        latest = self._latest
        if epoch is None:
            epoch = latest.epoch + 1 if latest is not None else 0
        if latest is not None and epoch <= latest.epoch:
            raise QueryError(
                f"epochs must be strictly monotonic: {epoch} <= "
                f"already-published {latest.epoch}"
            )
        part = self._partition()
        part.ensure()
        if part.structure_version != self._struct_version:
            self._struct = (
                np.array(part.ids), np.array(part.keys),
                np.array(part.indptr), np.array(part.nbr),
            )
            self._struct_version = part.structure_version
        ids, keys, indptr, nbr = self._struct
        members = self._maintainer.independent_set()
        in_ = np.zeros(ids.size, np.bool_)
        if members:
            rows = np.searchsorted(
                ids, np.fromiter(members, np.int64, count=len(members))
            )
            in_[rows] = True
        snapshot = EpochSnapshot(epoch, watermark, ids, keys, indptr, nbr, in_)
        self._latest = snapshot
        self.epochs_published += 1
        self.history.append((epoch, watermark))
        return snapshot

    # -- readers ---------------------------------------------------------
    def latest(self) -> Optional[EpochSnapshot]:
        """The newest published snapshot; a reader that keeps the object
        keeps that epoch's view after newer ones are published."""
        return self._latest

    def staleness(self, snapshot: Optional[EpochSnapshot] = None) -> int:
        """Admitted-but-invisible event count at ``snapshot`` (latest by
        default): the ingress frontier minus the snapshot watermark."""
        if snapshot is None:
            snapshot = self._latest
        if snapshot is None or self._frontier_fn is None:
            return 0
        return max(0, int(self._frontier_fn()) - snapshot.watermark)

    def close(self) -> None:
        """Stop publishing and drop the newest epoch.  Readers holding a
        snapshot keep it."""
        self._closed = True
        self._latest = None


class LatencySamples:
    """Ring of the most recent :attr:`CAPACITY` latency samples, 8 B each
    in one ``float64`` array (it starts at 1,024 slots and doubles up to
    the cap), with the exact nearest-rank percentiles of
    :func:`repro.util.percentile` over the ring and an all-time running
    :meth:`total`."""

    #: samples the percentiles cover: the most recent this many
    CAPACITY = 1 << 16

    def __init__(self):
        self._buf = np.empty(1024, np.float64)
        self._count = 0  # samples ever appended
        self._total = 0.0

    def append(self, value: float) -> None:
        count = self._count
        size = self._buf.size
        if count == size and size < self.CAPACITY:
            grown = np.empty(min(2 * size, self.CAPACITY), np.float64)
            grown[:size] = self._buf
            self._buf = grown
        self._buf[count % self.CAPACITY] = value
        self._count = count + 1
        self._total += value

    def percentiles(self, qs) -> List[float]:
        """Nearest-rank percentile of the ring's samples for each ``q``."""
        ordered = np.sort(self._buf[:min(self._count, self.CAPACITY)])
        return [float(percentile(ordered, q)) for q in qs]

    def total(self) -> float:
        """Sum of every sample ever appended, the ring's evicted ones
        included."""
        return self._total


class QueryEngine:
    """Answers membership queries against the registry's newest epoch.

    Single-threaded like everything in this repo: each call fetches the
    newest snapshot, so answers always come from the last committed
    window.  The engine keeps deterministic read counters (what the bench
    pins) and wall-clock latencies (what the bench trends).
    """

    def __init__(self, registry: SnapshotRegistry):
        self._registry = registry
        self.point_queries = 0
        self.batch_queries = 0
        self.batch_vertices = 0
        self.max_batch_size = 0
        self.neighborhood_queries = 0
        self.why_not_queries = 0
        self.staleness_max = 0
        self.staleness_sum = 0
        self.staleness_samples = 0
        self._latencies = LatencySamples()

    # -- bookkeeping -----------------------------------------------------
    def _snapshot(self) -> EpochSnapshot:
        snapshot = self._registry.latest()
        if snapshot is None:
            raise QueryError("no epoch published yet")
        return snapshot

    def _served(self, snapshot: EpochSnapshot, started: float) -> None:
        """Book one answered query — its staleness sample and latency —
        once its input was accepted (a rejected query books nothing)."""
        staleness = self._registry.staleness(snapshot)
        if staleness > self.staleness_max:
            self.staleness_max = staleness
        self.staleness_sum += staleness
        self.staleness_samples += 1
        self._latencies.append(time.perf_counter() - started)

    @property
    def reads_served(self) -> int:
        """Individual vertex answers served, across every query kind."""
        return (self.point_queries + self.batch_vertices
                + self.neighborhood_queries + self.why_not_queries)

    # -- queries ---------------------------------------------------------
    def point(self, vertex: int) -> Dict[str, Any]:
        """Is ``vertex`` in the maintained set at the newest epoch?

        Unknown vertices answer ``False`` (they are not in the set),
        matching ``maintainer.contains`` on a restored checkpoint.
        """
        started = time.perf_counter()
        snapshot = self._snapshot()
        row = snapshot.row_of(vertex)
        member = bool(snapshot.in_[row]) if row is not None else False
        self.point_queries += 1
        self._served(snapshot, started)
        return {
            "vertex": vertex, "member": member,
            "epoch": snapshot.epoch, "watermark": snapshot.watermark,
        }

    def batch(self, vertices) -> Dict[str, Any]:
        """Vectorized point membership for many vertices in one pass.

        One ``searchsorted`` + one gather answers the whole batch against
        the epoch bitmap — no per-vertex Python work, no pickling.  Ids
        follow :meth:`point`'s rule: a non-integer raises
        :class:`QueryError`, an integer outside int64 is not a member.
        """
        started = time.perf_counter()
        snapshot = self._snapshot()
        count = len(vertices)
        ids = snapshot.ids
        wanted = np.asarray(vertices)
        if wanted.ndim == 1 and wanted.dtype.kind in "bi":
            members = [False] * count
            if count and ids.size:
                wanted = wanted.astype(np.int64, copy=False)
                rows = np.minimum(np.searchsorted(ids, wanted), ids.size - 1)
                valid = ids[rows] == wanted
                members = np.where(valid, snapshot.in_[rows], False).tolist()
        else:
            # not all int64 (a float, a string, an id past int64): the
            # point rule, id by id
            rows = [snapshot.row_of(v) for v in vertices]
            members = [row is not None and bool(snapshot.in_[row])
                       for row in rows]
        self.batch_queries += 1
        self.batch_vertices += count
        if count > self.max_batch_size:
            self.max_batch_size = count
        self._served(snapshot, started)
        return {
            "vertices": list(vertices), "members": members,
            "epoch": snapshot.epoch, "watermark": snapshot.watermark,
        }

    def neighborhood(self, vertex: int, hops: int = 1) -> Dict[str, Any]:
        """The maintained set restricted to ``<= hops`` of ``vertex``
        (including ``vertex`` itself when it is a member), ascending."""
        if hops < 0:
            raise QueryError(f"hops must be >= 0, got {hops}")
        started = time.perf_counter()
        snapshot = self._snapshot()
        row = snapshot.row_of(vertex)
        if row is None:
            raise QueryError(
                f"vertex {vertex} is not in the graph at epoch "
                f"{snapshot.epoch}"
            )
        indptr = snapshot.indptr
        visited = np.zeros(snapshot.ids.size, np.bool_)
        visited[row] = True
        frontier = np.array([row], np.int64)
        for _ in range(hops):
            if not frontier.size:
                break
            starts = indptr[frontier]
            lens = indptr[frontier + 1] - starts
            total = int(lens.sum())
            if not total:
                break
            owners = np.repeat(
                np.arange(frontier.size, dtype=np.int64), lens
            )
            offs = np.zeros(frontier.size, np.int64)
            np.cumsum(lens[:-1], out=offs[1:])
            flat = (np.arange(total, dtype=np.int64)
                    - offs[owners] + starts[owners])
            nxt = np.unique(snapshot.nbr[flat])
            nxt = nxt[~visited[nxt]]
            visited[nxt] = True
            frontier = nxt
        members = snapshot.ids[visited & snapshot.in_]
        self.neighborhood_queries += 1
        self._served(snapshot, started)
        return {
            "vertex": vertex, "hops": hops, "members": members.tolist(),
            "epoch": snapshot.epoch, "watermark": snapshot.watermark,
        }

    def why_not(self, vertex: int) -> Dict[str, Any]:
        """Membership certificate for ``vertex`` at the newest epoch.

        For a member the blocker is ``None`` (it is in the set because no
        ``≺``-smaller neighbour is).  For a non-member the blocker is the
        minimum-key in-set neighbour ranked below it — exactly where the
        OIMIS early-break scan stopped, so the certificate is checkable:
        the blocker is adjacent, in the set, and ``≺``-smaller.
        """
        started = time.perf_counter()
        snapshot = self._snapshot()
        row = snapshot.row_of(vertex)
        if row is None:
            raise QueryError(
                f"vertex {vertex} is not in the graph at epoch "
                f"{snapshot.epoch}"
            )
        member = bool(snapshot.in_[row])
        blocker: Optional[int] = None
        if not member:
            nb = snapshot.nbr[
                int(snapshot.indptr[row]):int(snapshot.indptr[row + 1])
            ]
            keys = snapshot.keys
            cand = nb[(keys[nb] < keys[row]) & snapshot.in_[nb]]
            if cand.size:
                blocker = int(snapshot.ids[cand[np.argmin(keys[cand])]])
        self.why_not_queries += 1
        self._served(snapshot, started)
        return {
            "vertex": vertex, "member": member, "blocker": blocker,
            "epoch": snapshot.epoch, "watermark": snapshot.watermark,
        }

    # -- reporting -------------------------------------------------------
    def logical_stats(self) -> Dict[str, int]:
        """Deterministic read counters (no wall-clock numbers): what a
        bench baseline can pin bit-identically."""
        return {
            "reads_served": self.reads_served,
            "point_queries": self.point_queries,
            "batch_queries": self.batch_queries,
            "batch_vertices": self.batch_vertices,
            "max_batch_size": self.max_batch_size,
            "neighborhood_queries": self.neighborhood_queries,
            "why_not_queries": self.why_not_queries,
            "epochs_published": self._registry.epochs_published,
            "staleness_max": self.staleness_max,
            "staleness_sum": self.staleness_sum,
            "staleness_samples": self.staleness_samples,
        }

    def read_stats(self) -> Dict[str, Any]:
        """Everything :meth:`logical_stats` has, plus the epoch frontier
        and nearest-rank read-latency percentiles (milliseconds).

        The percentiles cover the most recent
        :attr:`LatencySamples.CAPACITY` reads (65,536); ``reads_per_s``
        covers every read served, over their summed latency."""
        stats: Dict[str, Any] = dict(self.logical_stats())
        latest = self._registry.latest()
        if latest is not None:
            stats["epoch"], stats["watermark"] = (
                latest.epoch, latest.watermark,
            )
        elif self._registry.history:
            # the registry may already be closed (stats read after
            # teardown) — the publish history still names the final epoch
            stats["epoch"], stats["watermark"] = self._registry.history[-1]
        else:
            stats["epoch"] = stats["watermark"] = None
        values = self._latencies.percentiles((0.50, 0.95, 0.99))
        for tag, value in zip(("p50", "p95", "p99"), values):
            stats[f"latency_{tag}_ms"] = round(value * 1e3, 6)
        total = self._latencies.total()
        stats["reads_per_s"] = (
            round(self.reads_served / total, 3) if total > 0 else 0.0
        )
        return stats
