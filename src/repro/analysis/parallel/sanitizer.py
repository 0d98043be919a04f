"""Opt-in runtime checker for the ScaleG engine: the superstep race sanitizer.

The static rules prove what the AST can see; this module catches the rest
at runtime.  A :class:`RaceSanitizer` wraps any
:class:`~repro.runtime.base.ExecutionBackend` in a
:class:`SanitizedBackend` that records per-worker read/write vertex sets
each superstep and flags, as :class:`~repro.errors.RaceViolation`:

- **mid-superstep-commit** — the sweep's read set (active vertices plus
  their neighbours) changed between dispatch and return: a
  program or worker wrote state before the barrier instead of returning it
  in the sweep delta (the double-buffer rule B1 and P1 ban statically).
  The violation names the first moved vertex in ascending order.
- **write-write-overlap** — two workers returned a write for the same
  vertex in one sweep.  The barrier reduce would silently keep one.
- **non-owned-write** — a sweep returned a write (or force-sync) for a
  vertex that was never dispatched, i.e. a worker wrote into a partition
  slice it does not own this superstep.
- **meter-double-merge** — one logical meter was folded through
  :meth:`~repro.pregel.metrics.RunMetrics.merge_delta` more times between
  two barriers than there are logical workers; some worker's delta merged
  twice, which breaks bit-identity with the inline accumulation order.
- **independence** / **maximality** — at convergence, the set the program
  reports through ``contract_members`` is not a maximal independent set of
  the current graph (Theorems 4.1/6.1 made executable; the finder is
  :func:`~repro.core.verification.mis_violations`).

Every checked superstep appends a :class:`SuperstepTrace` whose digests
are keyed ``blake2b`` hashes over *sorted* vertex/state material, so a
trace — and :meth:`RaceSanitizer.trace_digest` over a whole run — replays
byte-identically under any ``PYTHONHASHSEED``.  Comparing two trace logs
localizes a divergence to the first superstep whose read or write digest
differs.  The convergence check adds no trace entry.

Enabling: pass ``sanitize=True`` (or a :class:`RaceSanitizer`) to a
ScaleG engine or maintainer constructor; ``None`` and ``False`` leave it off.
``strict=True`` (default) raises on the first violation; ``strict=False``
collects into :attr:`RaceSanitizer.violations` so a sweep can survey a
whole run.
"""

from __future__ import annotations

from hashlib import blake2b
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.core.verification import mis_violations
from repro.errors import RaceViolation
from repro.runtime.base import ExecutionBackend, ScaleGSweep

#: keyed-hash domain for every trace digest — a fixed key (not the process
#: hash seed) is what makes traces replayable under any ``PYTHONHASHSEED``
_TRACE_KEY = b"repro-race"
_DIGEST_SIZE = 8


def resolve_sanitizer(
    sanitize: Union[None, bool, "RaceSanitizer"],
) -> Optional["RaceSanitizer"]:
    """Normalize an engine's ``sanitize`` argument to a sanitizer or None.

    ``None`` and ``False`` mean off; ``True`` creates a default (strict)
    sanitizer; a :class:`RaceSanitizer` instance is used as-is (and may be
    shared across engines to accumulate one trace).
    """
    if sanitize is True:
        return RaceSanitizer()
    if sanitize is None or sanitize is False:
        return None
    return sanitize


def _digest(material: Iterable[str]) -> str:
    """Keyed hash of an *already canonically ordered* string stream."""
    h = blake2b(key=_TRACE_KEY, digest_size=_DIGEST_SIZE)
    for part in material:
        h.update(part.encode("utf-8", "backslashreplace"))
        h.update(b"\x00")
    return h.hexdigest()


def _state_material(states: Dict[int, Any], read_order: List[int]) -> List[str]:
    """Canonical (seed-independent) material for a read-set hash, one
    entry per vertex of the ascending ``read_order``.

    ``repr`` of the stock states (ints, tuples, enums) is stable across
    hash seeds; sets are sorted before rendering so set-typed states
    cannot leak iteration order into the digest.
    """
    parts: List[str] = []
    for u in read_order:
        state = states.get(u, "<absent>")
        if isinstance(state, (set, frozenset)):
            state = sorted(state)
        parts.append(f"{u}={state!r}")
    return parts


@dataclass
class SuperstepTrace:
    """One checked superstep's keyed-hash record (replayable evidence)."""

    superstep: int
    #: always ``"scaleg"``; kept because :meth:`digest` hashes it, so
    #: traces stay comparable with earlier runs
    mode: str
    #: keyed hash of the dispatched read set's (vertex, state) pairs
    read_digest: str
    #: logical worker -> keyed hash of its sorted written-vertex ids
    write_digests: Dict[int, str] = field(default_factory=dict)
    active_count: int = 0
    write_count: int = 0
    #: meter -> merge_delta folds observed between this barrier and the last
    merge_counts: Dict[str, int] = field(default_factory=dict)
    #: whether this sweep's barrier committed (False = rolled back/replayed)
    committed: bool = False

    def digest(self) -> str:
        """One keyed hash summarizing the whole entry."""
        return _digest(
            [
                str(self.superstep),
                self.mode,
                self.read_digest,
                *(
                    f"{w}:{d}"
                    for w, d in sorted(self.write_digests.items())
                ),
                str(self.active_count),
                str(self.write_count),
                *(
                    f"{name}={n}"
                    for name, n in sorted(self.merge_counts.items())
                ),
                "C" if self.committed else "A",
            ]
        )


class RaceSanitizer:
    """Records per-superstep read/write evidence and flags races.

    One sanitizer may be shared across engines and runs; counters
    (:attr:`supersteps_checked`, :attr:`runs_checked`,
    :attr:`convergences_checked`) let tests assert it actually ran,
    :attr:`trace` holds the keyed-hash log, and
    :attr:`violations` collects findings when ``strict=False``.
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.supersteps_checked = 0
        self.runs_checked = 0
        self.convergences_checked = 0
        self.trace: List[SuperstepTrace] = []
        self.violations: List[RaceViolation] = []
        self._num_workers = 0
        self._merge_counts: Dict[str, int] = {}
        self._watched: List[Tuple[Any, Any]] = []

    # -- wiring ----------------------------------------------------------
    def wrap(self, backend: ExecutionBackend) -> "SanitizedBackend":
        """The backend the engine should drive instead of ``backend``."""
        if isinstance(backend, SanitizedBackend):
            return backend
        return SanitizedBackend(backend, self)

    def begin_engine_run(self, metrics, num_workers: int) -> None:
        """Called by an engine at run entry: arm the meter watch."""
        self._num_workers = num_workers
        self._merge_counts = {}
        self.watch_metrics(metrics)
        self.runs_checked += 1

    def end_engine_run(self, metrics) -> None:
        """Disarm the meter watch installed by :meth:`begin_engine_run`."""
        self.release_metrics(metrics)

    def watch_metrics(self, metrics) -> None:
        """Count ``merge_delta`` folds on ``metrics`` between barriers.

        Instruments by shadowing the bound method with an instance
        attribute — the class stays untouched, and :meth:`release_metrics`
        restores the instance exactly.
        """
        for watched, _ in self._watched:
            if watched is metrics:
                return
        original = metrics.merge_delta
        counts = self._merge_counts

        def counted_merge_delta(delta):
            for name in delta:
                counts[name] = counts.get(name, 0) + 1
            return original(delta)

        metrics.merge_delta = counted_merge_delta
        self._watched.append((metrics, original))

    def release_metrics(self, metrics) -> None:
        for i, (watched, _original) in enumerate(self._watched):
            if watched is metrics:
                del self._watched[i]
                # the shadow lives on the instance; removing it re-exposes
                # the class method
                try:
                    del metrics.merge_delta
                except AttributeError:  # pragma: no cover - already clean
                    pass
                return

    # -- evidence --------------------------------------------------------
    def trace_digest(self) -> str:
        """Keyed hash over the whole trace log (replay fingerprint)."""
        return _digest(entry.digest() for entry in self.trace)

    def _report(self, violation: RaceViolation) -> None:
        if self.strict:
            raise violation
        self.violations.append(violation)

    # -- per-superstep checks (driven by SanitizedBackend) ---------------
    def _finalize_pending(self) -> None:
        """A sweep arrived with no barrier since the last one: the previous
        superstep was rolled back (crash replay) — keep its entry, marked
        uncommitted, and drop its merge counts."""
        self._merge_counts = {}

    def check_sweep(
        self,
        superstep: int,
        active: Iterable[int],
        read_order: List[int],
        before: List[str],
        after: List[str],
        writes: List[int],
        forced: Iterable[int],
        worker_of,
    ) -> SuperstepTrace:
        """Audit one sweep: ``before``/``after`` are the
        :func:`_state_material` of the ascending ``read_order`` at dispatch
        and at return."""
        active_set = set(active)
        if after != before:
            moved = next(
                u for u, b, a in zip(read_order, before, after) if b != a
            )
            self._report(
                RaceViolation(
                    "mid-superstep-commit",
                    f"state of vertex {moved} changed between dispatch and "
                    "return — a write landed before the barrier instead of "
                    "being returned in the sweep delta",
                    superstep=superstep,
                    vertex=moved,
                )
            )
        seen: Set[int] = set()
        per_worker: Dict[int, List[int]] = {}
        for u in writes:
            if u in seen:
                self._report(
                    RaceViolation(
                        "write-write-overlap",
                        f"vertex {u} was written by more than one worker "
                        "in a single sweep",
                        superstep=superstep,
                        vertex=u,
                        worker=worker_of(u),
                    )
                )
            seen.add(u)
            per_worker.setdefault(worker_of(u), []).append(u)
        for u in list(writes) + list(forced):
            if u not in active_set:
                self._report(
                    RaceViolation(
                        "non-owned-write",
                        f"vertex {u} was written without being dispatched "
                        "— a worker wrote into a partition slice it does "
                        "not own this superstep",
                        superstep=superstep,
                        vertex=u,
                        worker=worker_of(u),
                    )
                )
        entry = SuperstepTrace(
            superstep=superstep,
            mode="scaleg",
            read_digest=_digest(after),
            write_digests={
                w: _digest(str(u) for u in sorted(ids))
                for w, ids in per_worker.items()
            },
            active_count=len(active_set),
            write_count=len(seen),
        )
        self.trace.append(entry)
        self.supersteps_checked += 1
        return entry

    def check_barrier(self, entry: Optional[SuperstepTrace]) -> None:
        """Called when the engine commits a barrier: close out the entry
        and audit the meter folds recorded since the previous barrier."""
        counts, self._merge_counts = self._merge_counts, {}
        if entry is not None:
            entry.merge_counts = counts
            entry.committed = True
        limit = self._num_workers
        if limit <= 0:
            return
        for name in sorted(counts):
            if counts[name] > limit:
                self._report(
                    RaceViolation(
                        "meter-double-merge",
                        f"meter {name!r} was folded {counts[name]} times "
                        f"between barriers with only {limit} logical "
                        "workers — some worker's delta merged twice",
                        superstep=entry.superstep if entry else None,
                    )
                )

    def check_convergence(self, graph, members: Iterable[int]) -> None:
        """Report every independence/maximality failure of the converged
        set ``members`` on ``graph``; counted once the check completes."""
        for check, vertex, detail in mis_violations(graph, members):
            self._report(RaceViolation(check, detail, vertex=vertex))
        self.convergences_checked += 1


class SanitizedBackend(ExecutionBackend):
    """An :class:`ExecutionBackend` decorator that feeds a sanitizer.

    Transparent to the engine: every lifecycle call forwards to the inner
    backend, ``kind`` reports the inner backend's kind, and unknown
    attributes (``prestart``, ``start_method``) delegate, so wrapping does
    not change which backend the engine believes it runs on.
    """

    def __init__(self, inner: ExecutionBackend, sanitizer: RaceSanitizer):
        self.inner = inner
        self.sanitizer = sanitizer
        self._engine = None
        self._pending: Optional[SuperstepTrace] = None

    @property
    def kind(self) -> str:  # type: ignore[override]
        return self.inner.kind

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    # -- lifecycle (forwarded) ------------------------------------------
    def bind(self, engine) -> None:
        self._engine = engine
        self.inner.bind(engine)

    def begin_run(self, program) -> None:
        self._pending = None
        self.inner.begin_run(program)

    def close(self) -> None:
        self.inner.close()

    # -- sweeps (checked) ------------------------------------------------
    def sweep_scaleg(self, active, superstep: int, draws=None) -> ScaleGSweep:
        if self._pending is not None:
            self.sanitizer._finalize_pending()
            self._pending = None
        engine = self._engine
        states = engine._states
        neighbors = engine.dgraph.graph.neighbors
        read_set: Set[int] = set(active)
        for u in active:
            read_set.update(neighbors(u))
        read_order = sorted(read_set)
        before = _state_material(states, read_order)
        sweep = self.inner.sweep_scaleg(active, superstep, draws)
        after = _state_material(states, read_order)
        self._pending = self.sanitizer.check_sweep(
            superstep,
            active,
            read_order,
            before,
            after,
            sweep.changed,
            sweep.forced,
            engine.dgraph.worker_of,
        )
        return sweep

    # -- barrier ---------------------------------------------------------
    def commit(self, new_states: Dict[int, Any]) -> None:
        self.inner.commit(new_states)
        entry, self._pending = self._pending, None
        self.sanitizer.check_barrier(entry)
