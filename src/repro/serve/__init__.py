"""Durable, overload-resilient ingestion service.

The :class:`IngestionService` wraps a checkpointable maintainer with a
write-ahead log + crash recovery, admission control/backpressure,
retry-with-quarantine for poison windows, and fixed-count windowing.  See
DESIGN.md §13 for the architecture and the WAL format.

:func:`drive` is the one loop that pushes a trace through a service
(interleaving seeded reads) for the CLI, the perf bench and the chaos
oracles.

The read path (:mod:`repro.serve.reads`, DESIGN.md §15) publishes an
immutable epoch-tagged snapshot at every committed window and answers
point/batch/neighbourhood/why-not queries against it.
"""

from repro.serve.admission import (
    POLICIES,
    AdmissionConfig,
    AdmissionController,
    AdmissionStats,
)
from repro.serve.reads import (
    EpochSnapshot,
    QueryEngine,
    SnapshotRegistry,
)
from repro.serve.service import (
    DEAD_LETTER_NAME,
    LOGICAL_METERS,
    IngestionService,
    RetryPolicy,
    ServeStats,
    SubmitResult,
    audit_log,
    drive,
)
from repro.serve.trace import (
    POISON_ID_GAP,
    TraceConfig,
    bursty_trace,
    is_poison,
)
from repro.serve.wal import (
    FSYNC_POLICIES,
    ScanResult,
    WALRecord,
    WriteAheadLog,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionStats",
    "DEAD_LETTER_NAME",
    "EpochSnapshot",
    "FSYNC_POLICIES",
    "IngestionService",
    "LOGICAL_METERS",
    "POISON_ID_GAP",
    "POLICIES",
    "QueryEngine",
    "RetryPolicy",
    "ScanResult",
    "ServeStats",
    "SnapshotRegistry",
    "SubmitResult",
    "TraceConfig",
    "WALRecord",
    "WriteAheadLog",
    "audit_log",
    "bursty_trace",
    "drive",
    "is_poison",
]
