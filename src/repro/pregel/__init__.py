"""Classic message-passing Pregel engine: the paper's baseline."""

from repro.pregel.engine import PregelContext, PregelEngine, PregelProgram, PregelResult
from repro.pregel.message import Message
from repro.pregel.metrics import RunMetrics, SuperstepRecord
from repro.pregel.partition import (
    ExplicitPartitioner,
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    balanced_partition,
)

__all__ = [
    "ExplicitPartitioner",
    "HashPartitioner",
    "Message",
    "Partitioner",
    "PregelContext",
    "PregelEngine",
    "PregelProgram",
    "PregelResult",
    "RangePartitioner",
    "RunMetrics",
    "SuperstepRecord",
    "balanced_partition",
]
