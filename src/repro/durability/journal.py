"""The write-ahead journal: hash-chained records over a pluggable store.

A :class:`Journal` is an append-only sequence of :class:`JournalRecord`
entries. Each record carries a SHA-256 over its own canonicalized content
*and* the previous record's hash, so any tampering, truncation inside a
record, or bit-rot breaks the chain and :meth:`Journal.verify` raises
:class:`~repro.errors.JournalCorrupt` (truncating whole records from the
tail — what a crash actually does — leaves a shorter but still valid
chain). The chain is walked once per journal, where records enter from
outside the program: a journal built from a store verifies what it
loaded before it exists, and :meth:`Journal.append` hashes each record
it adds. So ``records`` is always a verified chain, and recovery reads
it without walking it again.

:meth:`Journal.append` renders a record's ``data`` to canonical text
exactly once; the SHA-256 chain payload, the store's JSONL line and the
in-memory ``record.data`` all derive from that one string.

Stores take those canonical lines (``write_lines``) and hand back parsed
entries (``load``). Two ship: :class:`MemoryJournalStore` for tests and
crash-point experiments, :class:`JsonlJournalStore` persisting one JSON
object per line so a journal survives the (simulated) coordinator
process.

Also home to :func:`task_key`, the idempotency key the FaaS layer stamps
on every task: SHA-256 over the function *name*, the canonical payload,
and a per-payload occurrence counter. Deliberately endpoint-independent —
a task failed over to another endpoint keeps its key, so recovery still
recognises its journaled completion.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import JournalCorrupt
from repro.util.serialization import _PLAIN_TYPES, _canonical_dumps, serialize

GENESIS_HASH = "0" * 64


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One journaled state transition.

    ``data`` is canonical plain JSON with sorted keys: exactly what
    ``json.loads`` returns for the record's canonical text (tuples, bytes
    and sets in their :func:`serialize` encodings), so a record hashes
    and round-trips identically in memory and on disk.
    """

    seq: int
    time: float
    kind: str
    data: Dict[str, Any]
    prev_hash: str
    hash: str


def record_hash(
    seq: int, time: float, kind: str, data: Dict[str, Any], prev_hash: str
) -> str:
    """Chained content hash: covers the record *and* its predecessor."""
    payload = serialize(
        {"seq": seq, "time": time, "kind": kind, "data": data, "prev": prev_hash}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _canonical(data: Dict[str, Any]) -> Tuple[str, bool]:
    """A record's canonical data text, and whether ``data`` was flat.

    Flat data (``str`` keys, plain scalar values: the rule
    :func:`~repro.util.serialization.serialize_call` uses) renders
    straight through the canonical encoder. Anything else goes through
    :func:`serialize` and is re-rendered from its parsed form: non-``str``
    keys sort by value before JSON turns them into text, and by text after.
    """
    for key, value in data.items():
        if type(key) is not str or (
            value is not None and type(value) not in _PLAIN_TYPES
        ):
            return _canonical_dumps(json.loads(serialize(data))), False
    return _canonical_dumps(data), True


def _chain_hash(
    seq: int, time_text: str, kind_text: str, data_text: str, prev_hash: str
) -> str:
    """:func:`record_hash` over pre-rendered parts: the same payload bytes."""
    payload = (
        f'{{"data": {data_text}, "kind": {kind_text}, "prev": "{prev_hash}", '
        f'"seq": {seq}, "time": {time_text}}}'
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def task_key(function_name: str, payload: str, occurrence: int = 0) -> str:
    """Idempotency key for one logical task submission.

    ``payload`` is the call's canonical text
    (:func:`~repro.util.serialization.serialize_call`), which the submit
    path renders once anyway for the size limit. ``occurrence``
    disambiguates deliberate re-submissions of an identical payload
    within a run (the Nth identical submit is a distinct logical task; a
    *retry* of the same task is not).
    """
    material = "\x1f".join([function_name, payload, str(occurrence)])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


_RECORD_FIELDS = frozenset(JournalRecord.__dataclass_fields__)


def _loaded_record(index: int, entry: Any) -> JournalRecord:
    """The record a parsed store entry holds, or :class:`JournalCorrupt`:
    an entry must be an object with exactly the record's fields, and its
    ``data`` an object, before the chain can be checked at all."""
    if type(entry) is not dict or entry.keys() != _RECORD_FIELDS:
        raise JournalCorrupt(
            f"journal record {index}: not an object with exactly the fields "
            + ", ".join(sorted(_RECORD_FIELDS))
        )
    if type(entry["data"]) is not dict:
        raise JournalCorrupt(f"journal record {index}: data is not an object")
    return JournalRecord(**entry)


class MemoryJournalStore:
    """In-memory backing store (crash experiments hand the live journal
    of the dead world straight to the resumed one).

    It keeps the canonical lines and parses fresh entries on every
    :meth:`load`, so nothing a caller does to them reaches the store.
    The constructor takes entry dicts, as :meth:`load` returns them.
    """

    def __init__(self, entries: Optional[List[Dict[str, Any]]] = None) -> None:
        self._lines: List[str] = [
            json.dumps(entry, sort_keys=True) for entry in entries or []
        ]

    def write_lines(self, lines: List[str]) -> None:
        self._lines.extend(lines)

    def load(self) -> List[Dict[str, Any]]:
        return [json.loads(line) for line in self._lines]


class JsonlJournalStore:
    """On-disk backing store: one JSON object per line, fsync-free.

    Each :meth:`write_lines` call opens, appends and closes the file, so
    every record is durable at crash time when the journal writes
    through (``batch_size`` <= 1), and every flushed batch otherwise.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def write_lines(self, lines: List[str]) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def load(self) -> List[Dict[str, Any]]:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            return []
        entries = []
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as exc:
                # a torn write: the tail of a record never reached the file
                raise JournalCorrupt(
                    f"journal line {number}: not a complete record ({exc.msg})"
                ) from None
        return entries


class Journal:
    """An append-only chain over a pluggable store, verified on load.

    ``batch_size`` buffers store writes: appended records reach the
    backing store in batches of ``batch_size`` — one ``write_lines`` call
    each — or at an explicit :meth:`flush`; 0 and 1 flush after every
    record. The in-memory hash chain is *always* per-record (``len()``,
    ``truncated()``, and crash offsets are batching-independent), and the
    store bytes after a flush are identical at every batch size; only the
    store-write granularity changes. The flush boundary is the durability
    boundary: a crash between flushes loses at most the unflushed tail,
    which is exactly the "truncate whole records from the tail" failure
    the chain already tolerates.
    """

    def __init__(self, store: Optional[Any] = None, batch_size: int = 0) -> None:
        if batch_size < 0:
            raise ValueError("batch_size must be >= 0")
        self.store = store if store is not None else MemoryJournalStore()
        self.batch_size = batch_size
        self._pending: List[str] = []
        self._records: List[JournalRecord] = [
            _loaded_record(index, entry)
            for index, entry in enumerate(self.store.load())
        ]
        if self._records:
            self.verify()

    @classmethod
    def open(cls, path: str) -> "Journal":
        return cls(JsonlJournalStore(path))

    @property
    def head_hash(self) -> str:
        return self._records[-1].hash if self._records else GENESIS_HASH

    @property
    def records(self) -> List[JournalRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def append(self, kind: str, time: float, data: Dict[str, Any]) -> JournalRecord:
        text, flat = _canonical(data)
        # what json.loads(text) returns: a flat dict needs only its keys sorted
        clean = dict(sorted(data.items())) if flat else json.loads(text)
        seq = len(self._records)
        prev = self.head_hash
        kind_text = _canonical_dumps(kind)
        time_text = _canonical_dumps(time)
        digest = _chain_hash(seq, time_text, kind_text, text, prev)
        record = JournalRecord(seq, time, kind, clean, prev, digest)
        self._records.append(record)
        # the JSONL line: the record's fields in sorted key order
        self._pending.append(
            f'{{"data": {text}, "hash": "{digest}", "kind": {kind_text}, '
            f'"prev_hash": "{prev}", "seq": {seq}, "time": {time_text}}}'
        )
        if len(self._pending) >= self.batch_size:
            self.flush()
        return record

    def flush(self) -> int:
        """Push buffered records to the store; returns how many moved.

        Idempotent and cheap when nothing is pending, so the owner of a
        batched journal flushes unconditionally once its run drains.
        """
        pending = self._pending
        if not pending:
            return 0
        self._pending = []
        self.store.write_lines(pending)
        return len(pending)

    @property
    def pending_store_writes(self) -> int:
        """Records appended but not yet flushed to the backing store."""
        return len(self._pending)

    def verify(self) -> None:
        """Walk the chain; raise :class:`JournalCorrupt` on any break.

        Each hash is recomputed from ``record.data`` through the same
        canonicalizer :meth:`append` uses.
        """
        prev = GENESIS_HASH
        for index, record in enumerate(self._records):
            if record.seq != index:
                raise JournalCorrupt(
                    f"journal record {index}: sequence says {record.seq}"
                )
            if record.prev_hash != prev:
                raise JournalCorrupt(
                    f"journal record {index}: chain broken "
                    f"(prev {str(record.prev_hash)[:12]} != {prev[:12]})"
                )
            expected = _chain_hash(
                record.seq,
                _canonical_dumps(record.time),
                _canonical_dumps(record.kind),
                _canonical(record.data)[0],
                prev,
            )
            if record.hash != expected:
                raise JournalCorrupt(
                    f"journal record {index} ({record.kind}): content hash "
                    "mismatch — record was modified after being written"
                )
            prev = record.hash

    def truncated(self, count: int) -> "Journal":
        """An in-memory journal holding only the first ``count`` records —
        what survives a crash that struck after record ``count``."""
        entries = [
            {
                "seq": r.seq, "time": r.time, "kind": r.kind, "data": r.data,
                "prev_hash": r.prev_hash, "hash": r.hash,
            }
            for r in self._records[:count]
        ]
        return Journal(MemoryJournalStore(entries))
