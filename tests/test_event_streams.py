"""Complete event streams of three seed-7 worlds, pinned across commits.

The pinned reports (``tests/test_pinned_reports.py``) see only what a
report prints. This test sees every event a run logs: for each world it
hashes one line per event, ``repr((time, seq, source, kind, sorted data
items))``, in log order, and compares the event count and the SHA-256
of those lines with ``tests/data/event_streams.json``. A change that
adds, drops, reorders or alters a single event, ``seq`` number or
payload value in any of these worlds fails here.

The three worlds cover the chaos, overload and hedging planes:
``run_fig4_chaos(seed=7)``, the protected ``run_overload`` and the
hedged ``run_failslow``, both at seed 7.

Regenerate (only when an event stream changes on purpose) with::

    PYTHONPATH=src python tests/test_event_streams.py tests/data
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.chaos import run_fig4_chaos
from repro.experiments.hedging import HedgingParams, run_failslow
from repro.experiments.overload import OverloadParams, run_overload

PINNED = Path(__file__).parent / "data" / "event_streams.json"

WORLDS = {
    "fig4-chaos-seed7": lambda: run_fig4_chaos(seed=7).world,
    "overload-protected-seed7": lambda: run_overload(OverloadParams(seed=7)).world,
    "failslow-hedged-seed7": lambda: run_failslow(HedgingParams(seed=7)).world,
}


def stream_digest(events) -> dict:
    """Event count and SHA-256 over one ``repr`` line per event."""
    digest = hashlib.sha256()
    count = 0
    for e in events:
        line = repr((e.time, e.seq, e.source, e.kind, sorted(e.data.items())))
        digest.update(line.encode("utf-8") + b"\n")
        count += 1
    return {"events": count, "sha256": digest.hexdigest()}


def compute_digests() -> dict:
    return {name: stream_digest(build().events) for name, build in WORLDS.items()}


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_event_stream_matches_pinned(name):
    pinned = json.loads(PINNED.read_text())
    assert stream_digest(WORLDS[name]().events) == pinned[name]


def test_pinned_file_covers_every_world():
    assert sorted(json.loads(PINNED.read_text())) == sorted(WORLDS)


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else PINNED.parent
    target.mkdir(parents=True, exist_ok=True)
    text = json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n"
    (target / PINNED.name).write_text(text)
