"""Golden journal bytes: the JSONL lines and hash chain pinned across commits.

``tests/data/golden_journal.jsonl`` and ``golden_journal.sha256`` were
written by the journal implementation that predates the encode-once
append path. The current code must reproduce both byte for byte, at
every batch size, and must still reopen and verify the committed file.
The record list covers every value shape the canonical serializer
treats specially.

Regenerate (only when the on-disk format changes on purpose) with::

    PYTHONPATH=src python tests/test_journal_golden.py tests/data
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

from repro.durability import Journal, JsonlJournalStore, record_hash

DATA = Path(__file__).parent / "data"
JSONL = "golden_journal.jsonl"
HASHES = "golden_journal.sha256"


def golden_records():
    """(kind, time, data) triples, fresh objects on every call."""
    return [
        ("run.created", 0.0, {"run_id": "run-1", "workflow": "ci.yml"}),
        # flat, unsorted keys, every plain scalar type
        ("task.submitted", 1.5, {
            "zeta": "z", "key": "a", "n": 3, "ok": True, "none": None,
            "ratio": 0.1, "tiny": 1e-07, "neg": -0.0,
        }),
        # nested dicts and lists, unsorted at every depth
        ("step.finished", 2.25, {
            "status": "success",
            "outputs": {"zeta": 1, "alpha": {"nested": [1, 2, {"b": 2, "a": 1}]}},
        }),
        # an integer time, tuples, bytes and sets
        ("task.completed", 3, {
            "tuple": (1, "two", 3.0, (4,)),
            "bytes": b"\x00\xffbin",
            "set": {3, 1, 2},
        }),
        # non-ASCII text, in values and in keys
        ("note", 4.0, {"text": "naïve — 日本語 ☃", "emoji": "\U0001F600", "ключ": "é"}),
        ("floats", 5.0, {
            "nan": float("nan"), "inf": float("inf"), "ninf": float("-inf"),
        }),
        ("bigint", 6.0, {"big": 2**70, "neg": -(2**70), "list": [2**70]}),
        ("empty", 7.0, {}),
        ('a "quoted"\nkind', 8.0, {"kind": "quote \" and newline \n"}),
        # non-str keys sort numerically before json turns them into text
        ("intkeys", 9.0, {10: "ten", 9: "nine", 100: "hundred"}),
        ("nested-intkeys", 10.0, {"map": {10: "ten", 9: "nine"}, "flag": False}),
        ("task.submitted", 11.0, {"key": "b", "payload": '{"args": [1], "kwargs": {}}'}),
        ("task.completed", 12.5, {"key": "b", "state": "SUCCESS", "result": "42"}),
    ]


def write_journal(path: Path, batch_size: int) -> Journal:
    journal = Journal(JsonlJournalStore(str(path)), batch_size=batch_size)
    for kind, time, data in golden_records():
        journal.append(kind, time, data)
    journal.flush()
    return journal


def write_golden(directory: Path) -> None:
    """Write the fixture; batch sizes 0 and 7 must agree byte for byte."""
    directory.mkdir(parents=True, exist_ok=True)
    unbatched = write_journal(directory / "b0.jsonl", 0)
    write_journal(directory / "b7.jsonl", 7)
    text = (directory / "b0.jsonl").read_bytes()
    assert (directory / "b7.jsonl").read_bytes() == text
    (directory / JSONL).write_bytes(text)
    (directory / HASHES).write_text(
        "".join(record.hash + "\n" for record in unbatched.records)
    )
    (directory / "b0.jsonl").unlink()
    (directory / "b7.jsonl").unlink()


def _assert_sorted_keys(value, where: str) -> None:
    if isinstance(value, dict):
        assert list(value) == sorted(value), f"{where}: keys not sorted"
        for key, item in value.items():
            _assert_sorted_keys(item, f"{where}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _assert_sorted_keys(item, f"{where}[{index}]")


class TestGoldenJournal:
    def test_bytes_and_hashes_reproduce_at_every_batch_size(self, tmp_path):
        golden = (DATA / JSONL).read_bytes()
        hashes = (DATA / HASHES).read_text().split()
        assert len(hashes) == len(golden_records())
        for batch_size in (0, 1, 7, 64):
            path = tmp_path / f"journal-{batch_size}.jsonl"
            journal = write_journal(path, batch_size)
            assert path.read_bytes() == golden, f"batch_size={batch_size}"
            assert [r.hash for r in journal.records] == hashes
            assert journal.head_hash == hashes[-1]

    def test_memory_store_hashes_match(self):
        journal = Journal()
        for kind, time, data in golden_records():
            journal.append(kind, time, data)
        assert [r.hash for r in journal.records] == (
            (DATA / HASHES).read_text().split()
        )
        journal.verify()
        assert [r.hash for r in journal.truncated(5).replay()] == [
            r.hash for r in journal.records[:5]
        ]

    def test_record_data_has_sorted_keys(self, tmp_path):
        written = write_journal(tmp_path / "journal.jsonl", 7)
        reopened = Journal.open(str(tmp_path / "journal.jsonl"))
        for journal in (written, reopened):
            for record in journal.records:
                _assert_sorted_keys(record.data, f"record {record.seq}")
        # what append keeps in memory is what a reopened journal shows
        # (repr, so NaN compares equal to NaN)
        assert [repr(r) for r in written.records] == [
            repr(r) for r in reopened.records
        ]

    def test_committed_file_reopens_and_verifies(self, tmp_path):
        path = tmp_path / JSONL
        shutil.copy(DATA / JSONL, path)
        journal = Journal.open(str(path))
        journal.verify()
        assert [r.hash for r in journal.replay()] == (
            (DATA / HASHES).read_text().split()
        )
        assert [r.kind for r in journal.records] == [
            kind for kind, _, _ in golden_records()
        ]
        # the public reference definition of the chain hash still agrees
        for r in journal.records:
            assert record_hash(r.seq, r.time, r.kind, r.data, r.prev_hash) == r.hash
        assert journal.records[3].time == 3 and type(journal.records[3].time) is int


if __name__ == "__main__":
    write_golden(Path(sys.argv[1]) if len(sys.argv) > 1 else DATA)
