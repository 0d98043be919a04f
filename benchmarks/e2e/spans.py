"""In-memory spans recorded around the program's public calls.

The traced run patches a fixed list of public functions with wrappers
that record one span per call: name, start, end, the enclosing span and a
request id.  Nothing inside the program changes; the wrappers are removed
when the traced phase ends.  Spans stay in memory and are written out
once, as JSONL, as Chrome trace-event JSON (Perfetto and
chrome://tracing open it) and as a per-layer table.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# span record fields (a list per span keeps the hot path cheap)
NAME, START, END, PARENT, RID, SIZE = range(6)


class Tracer:
    """Records nested spans; single-threaded, like the service it wraps."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable,
             rid: Optional[Callable] = None,
             size: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call.  ``rid(args, result)`` gives
        the request id and ``size(args, result)`` a count kept with it."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if rid is not None:
                record[RID] = rid(args, result)
            if size is not None:
                record[SIZE] = size(args, result)
            return result

        return traced

    def span(self, name: str) -> "_Span":
        """A span around a block of the benchmark's own code."""
        return _Span(self, name)

    def install(self, points: Sequence[Tuple[str, str, str, Any, Any]]) -> None:
        """Patch each ``(module, attribute path, span name, rid, size)``.

        The path is ``"Class.method"`` or a module-level ``"function"``.
        The attribute is looked up where it is defined, so an inherited
        method is patched on the base class that owns it.
        """
        for module_name, path, name, rid, size in points:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, rid, size))

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._record = [name, 0.0, 0.0, -1, None, None]

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        record = self._record
        record[PARENT] = tracer._stack[-1] if tracer._stack else -1
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(record)
        record[START] = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._record[END] = perf_counter()
        self._tracer._stack.pop()


def layer_table(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, busy seconds and self seconds.

    Self time is a span's duration minus the time its direct children
    cover; spans of one thread nest strictly, so the children's durations
    add up to exactly that covered time.
    """
    child_time = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            child_time[record[PARENT]] += record[END] - record[START]
    table: Dict[str, Dict[str, float]] = {}
    for i, record in enumerate(spans):
        entry = table.setdefault(
            record[NAME], {"count": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        duration = record[END] - record[START]
        entry["count"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - child_time[i]
    return table


def coverage(spans: Sequence[list], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by top-level spans."""
    covered = sum(
        min(r[END], end) - max(r[START], start)
        for r in spans
        if r[PARENT] < 0 and r[END] > start and r[START] < end
    )
    return covered / (end - start) if end > start else 0.0


def write_jsonl(spans: Sequence[list], path: str, origin: float) -> None:
    """One JSON object per span; times in seconds from ``origin``."""
    with open(path, "w", encoding="utf-8") as handle:
        for i, r in enumerate(spans):
            handle.write(json.dumps({
                "id": i, "name": r[NAME], "parent": r[PARENT], "rid": r[RID],
                "start": round(r[START] - origin, 9),
                "end": round(r[END] - origin, 9), "size": r[SIZE],
            }) + "\n")


def write_chrome(spans: Sequence[list], path: str, origin: float) -> None:
    """Chrome trace-event JSON: one complete ("X") event per span."""
    events = [{
        "name": r[NAME], "cat": r[NAME].split(".")[0], "ph": "X",
        "ts": (r[START] - origin) * 1e6, "dur": (r[END] - r[START]) * 1e6,
        "pid": 1, "tid": 1, "args": {"rid": r[RID], "size": r[SIZE]},
    } for r in spans]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
