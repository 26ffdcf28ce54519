"""Recovery: index a crash journal for replay, restore remote side effects.

:class:`ReplayIndex` is the read side of the write-ahead journal — it
organises a journal's verified records into the questions recovery
asks: which idempotency keys completed successfully (never re-execute
those; replay their recorded results), which were submitted but never
finished (orphans, safe to re-submit), which journaled steps may be
skipped, and which endpoints' leases were already dead at the crash.
It is the only reader of ``task.completed`` records: the dispatch path
asks it for a key's :class:`JournaledResult` and never sees a field.

Replay substitutes a recorded result for a task body, but the body's
*side effects* on the endpoint filesystem are gone in the fresh world —
a replayed clone leaves no working tree for a later live pytest. The
restorer registry fixes that: functions with remote side effects
register a cheap re-materialisation hook (keyed by function name) that
replay runs before returning the recorded result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.util.serialization import deserialize

# function name -> restorer(fctx, recorded_result, *args, **kwargs)
_RESTORERS: Dict[str, Callable[..., None]] = {}


def register_restorer(function_name: str, restorer: Callable[..., None]) -> None:
    """Register the replay-time side-effect restorer for a remote function."""
    _RESTORERS[function_name] = restorer


def restorer_for(function_name: str) -> Optional[Callable[..., None]]:
    return _RESTORERS.get(function_name)


@dataclass(frozen=True, slots=True)
class JournaledResult:
    """What a journaled SUCCESS completion replays: the result's canonical
    text, decoded afresh by each :meth:`value` call, and the measured
    body cost the replay advances the clock by."""

    text: str
    body_elapsed: float

    def value(self) -> Any:
        return deserialize(self.text)


class ReplayIndex:
    """A journal's records, indexed by what recovery needs to know.

    Building the index walks no hash chain: a journal loaded from a
    store (``Journal.open``, ``truncated``) verified its chain when it
    was built, and one this process appended to hashed each record as
    it went. The rest of the resume (the engine's step ledger) reads the
    ``records`` kept here.
    """

    def __init__(self, journal: Any) -> None:
        self.records = journal.records
        self.head_hash = journal.head_hash
        self.crash_record = len(self.records)
        self.crash_time = self.records[-1].time if self.records else 0.0
        # submitted idempotency keys in journal order (each key names one
        # logical submission, so it is submitted once), and key -> what
        # its journaled terminal completion replays (None: not a success)
        self.submitted: List[str] = []
        self.completed: Dict[str, Optional[JournaledResult]] = {}
        self._lease_expiry: Dict[str, float] = {}
        self._lease_dead: set = set()
        for record in self.records:
            kind, data = record.kind, record.data
            key = data.get("key", "")
            if kind == "task.submitted" and key:
                self.submitted.append(key)
            elif kind == "task.completed" and key:
                # only a SUCCESS replays: a journaled FAILED task re-executes
                # live (its failure may have been transient); a record with
                # no result or body cost replays None in no time
                self.completed[key] = (
                    JournaledResult(
                        data.get("result", "null"),
                        float(data.get("body_elapsed") or 0.0),
                    )
                    if data.get("state") == "SUCCESS"
                    else None
                )
            elif kind in ("lease.granted", "lease.renewed"):
                endpoint = data.get("endpoint", "")
                self._lease_expiry[endpoint] = float(data.get("expires_at", 0.0))
                self._lease_dead.discard(endpoint)
            elif kind == "lease.expired":
                self._lease_dead.add(data.get("endpoint", ""))

    def completed_success(self) -> Dict[str, JournaledResult]:
        """Keys whose tasks finished SUCCESS — replayable, never re-run."""
        return {
            key: journaled
            for key, journaled in self.completed.items()
            if journaled is not None
        }

    def journaled_result(self, key: str) -> Optional[JournaledResult]:
        """What ``key``'s journaled completion replays, if it succeeded."""
        return self.completed.get(key)

    def orphans(self) -> List[str]:
        """Submitted-but-never-terminal keys, in journal order — the
        in-flight work a crashed coordinator owes its users."""
        return [key for key in self.submitted if key not in self.completed]

    def dead_endpoints(self) -> List[str]:
        """Endpoints whose leases had expired (or fired expiry) by the
        crash — recovery marks these offline before re-dispatching."""
        dead = set(self._lease_dead)
        for endpoint, expires_at in self._lease_expiry.items():
            if endpoint not in dead and self.crash_time >= expires_at - 1e-9:
                dead.add(endpoint)
        return sorted(dead)
