"""Pluggable execution backends for the ScaleG engine.

``InlineExecutor`` (default) runs every logical worker serially in the
calling process; ``ParallelRuntime`` fans the compute sweep out over
persistent OS worker processes with a deterministic barrier merge, so both
backends produce bit-identical members and logical meters.  See
:mod:`repro.runtime.base` for the backend contract and
:mod:`repro.runtime.parallel` for the process model and wire format.
"""

from repro.runtime.base import (
    BarrierDraws,
    BSPEngine,
    ExecutionBackend,
    InlineExecutor,
    ScaleGSweep,
    resolve_runtime,
)
from repro.runtime.parallel import ParallelRuntime

__all__ = [
    "BarrierDraws",
    "BSPEngine",
    "ExecutionBackend",
    "InlineExecutor",
    "ParallelRuntime",
    "ScaleGSweep",
    "resolve_runtime",
]
