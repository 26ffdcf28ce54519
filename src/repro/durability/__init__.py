"""Durability: write-ahead journal, checkpoint/resume, heartbeat leases.

The reproducibility claim, applied to the harness itself: a run that
dies halfway must *resume* — replaying journaled work instead of redoing
it — and produce byte-identical outputs to a run that never crashed.

* :mod:`~repro.durability.journal` — hash-chained append-only records
  over in-memory or JSONL stores, verified once on load, plus
  :func:`task_key`, the idempotency key over a function name and its
  call's canonical payload text.
* :mod:`~repro.durability.checkpoint` — the EventLog subscriber that
  journals every lifecycle transition with the fields recovery reads
  (and hosts the crash point).
* :mod:`~repro.durability.recovery` — the journal's read side and the
  only reader of task completions: replay index, orphan detection,
  dead-lease detection, restorer registry.
* :mod:`~repro.durability.lease` — TTL liveness leases renewed by task
  activity.
"""

from repro.durability.checkpoint import RunCheckpointer
from repro.durability.journal import (
    GENESIS_HASH,
    Journal,
    JournalRecord,
    JsonlJournalStore,
    MemoryJournalStore,
    record_hash,
    task_key,
)
from repro.durability.lease import Lease, LeaseRegistry
from repro.durability.recovery import ReplayIndex, register_restorer, restorer_for
from repro.errors import CoordinatorCrashed, JournalCorrupt

__all__ = [
    "GENESIS_HASH",
    "Journal",
    "JournalRecord",
    "JournalCorrupt",
    "JsonlJournalStore",
    "MemoryJournalStore",
    "record_hash",
    "task_key",
    "Lease",
    "LeaseRegistry",
    "RunCheckpointer",
    "ReplayIndex",
    "register_restorer",
    "restorer_for",
    "CoordinatorCrashed",
]
