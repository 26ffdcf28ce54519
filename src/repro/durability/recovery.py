"""Recovery: index a crash journal for replay, restore remote side effects.

:class:`ReplayIndex` is the read side of the write-ahead journal — it
verifies the chain once and organises records into the questions recovery
asks: which idempotency keys completed successfully (never re-execute
those; replay their recorded results), which were submitted but never
finished (orphans, safe to re-submit), which journaled steps may be
skipped, and which endpoints' leases were already dead at the crash.

Replay substitutes a recorded result for a task body, but the body's
*side effects* on the endpoint filesystem are gone in the fresh world —
a replayed clone leaves no working tree for a later live pytest. The
restorer registry fixes that: functions with remote side effects
register a cheap re-materialisation hook (keyed by function name) that
replay runs before returning the recorded result.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

# function name -> restorer(fctx, recorded_result, *args, **kwargs)
_RESTORERS: Dict[str, Callable[..., None]] = {}


def register_restorer(function_name: str, restorer: Callable[..., None]) -> None:
    """Register the replay-time side-effect restorer for a remote function."""
    _RESTORERS[function_name] = restorer


def restorer_for(function_name: str) -> Optional[Callable[..., None]]:
    return _RESTORERS.get(function_name)


class ReplayIndex:
    """A verified journal, indexed by what recovery needs to know.

    Building the index is a resume's one walk of the hash chain: the rest
    of the resume (the engine's step ledger) reads the verified
    ``records`` kept here instead of replaying the journal again.
    """

    def __init__(self, journal: Any) -> None:
        self.records = journal.replay()  # verifies the hash chain
        self.head_hash = journal.head_hash
        self.crash_record = len(self.records)
        self.crash_time = self.records[-1].time if self.records else 0.0
        # idempotency key -> journaled data (first submit / terminal completion)
        self.submitted: Dict[str, Dict[str, Any]] = {}
        self.completed: Dict[str, Dict[str, Any]] = {}
        self._lease_expiry: Dict[str, float] = {}
        self._lease_dead: set = set()
        for record in self.records:
            kind, data = record.kind, record.data
            key = data.get("key", "")
            if kind == "task.submitted" and key:
                self.submitted.setdefault(key, dict(data))
            elif kind == "task.completed" and key:
                self.completed[key] = dict(data)
            elif kind in ("lease.granted", "lease.renewed"):
                endpoint = data.get("endpoint", "")
                self._lease_expiry[endpoint] = float(data.get("expires_at", 0.0))
                self._lease_dead.discard(endpoint)
            elif kind == "lease.expired":
                self._lease_dead.add(data.get("endpoint", ""))

    def completed_success(self) -> Dict[str, Dict[str, Any]]:
        """Keys whose tasks finished SUCCESS — replayable, never re-run."""
        return {
            key: data
            for key, data in self.completed.items()
            if data.get("state") == "SUCCESS"
        }

    def replay_record(self, key: str) -> Optional[Dict[str, Any]]:
        """The journaled completion to replay for ``key``, if any.

        Only SUCCESS completions replay; a journaled FAILED task simply
        re-executes live (its failure may have been transient).
        """
        data = self.completed.get(key)
        if data is not None and data.get("state") == "SUCCESS":
            return data
        return None

    def orphans(self) -> Dict[str, Dict[str, Any]]:
        """Submitted-but-never-terminal keys, in journal order — the
        in-flight work a crashed coordinator owes its users."""
        return {
            key: data
            for key, data in self.submitted.items()
            if key not in self.completed
        }

    def dead_endpoints(self) -> List[str]:
        """Endpoints whose leases had expired (or fired expiry) by the
        crash — recovery marks these offline before re-dispatching."""
        dead = set(self._lease_dead)
        for endpoint, expires_at in self._lease_expiry.items():
            if endpoint not in dead and self.crash_time >= expires_at - 1e-9:
                dead.add(endpoint)
        return sorted(dead)

    def summary(self) -> Dict[str, int]:
        return {
            "records": self.crash_record,
            "completed": len(self.completed),
            "completed_success": len(self.completed_success()),
            "orphans": len(self.orphans()),
            "dead_endpoints": len(self.dead_endpoints()),
        }
