"""Byte-identity guarantees of the performance refactor.

The perf work (journal write batching, span sampling) must be invisible
to every default-policy output: batched journals produce byte-identical
stores, and sampled-out telemetry never changes figure text.
"""

from repro.durability.journal import Journal, JsonlJournalStore
from repro.experiments.fig4_parsldock import run_fig4
from repro.telemetry import NEVER_SAMPLER, RatioSampler

RECORDS = [
    ("run.created", 0.0, {"run_id": "run-1"}),
    ("task.submitted", 1.5, {"key": "a", "n": 1}),
    ("task.submitted", 1.5, {"key": "b", "n": 2}),
    ("task.completed", 3.25, {"key": "a", "state": "SUCCESS"}),
    ("task.submitted", 4.0, {"key": "c", "args": [1, 2, 3]}),
    ("task.completed", 6.5, {"key": "b", "state": "FAILED"}),
    ("run.finished", 9.0, {"run_id": "run-1", "status": "success"}),
] * 5


class TestJournalBatchingIdentity:
    def _journal_file(self, tmp_path, batch_size):
        path = tmp_path / f"journal-{batch_size}.jsonl"
        journal = Journal(JsonlJournalStore(str(path)), batch_size=batch_size)
        for kind, time, data in RECORDS:
            journal.append(kind, time, dict(data))
        journal.flush()
        return journal, path

    def test_store_bytes_identical_across_batch_sizes(self, tmp_path):
        _, unbatched = self._journal_file(tmp_path, 0)
        reference = unbatched.read_bytes()
        for batch_size in (1, 2, 7, 1000):
            _, path = self._journal_file(tmp_path, batch_size)
            assert path.read_bytes() == reference, (
                f"batch_size={batch_size} changed the on-disk journal"
            )

    def test_hash_chain_identical_across_batch_sizes(self, tmp_path):
        unbatched, _ = self._journal_file(tmp_path, 0)
        batched, _ = self._journal_file(tmp_path, 7)
        assert [r.hash for r in batched.records] == [
            r.hash for r in unbatched.records
        ]

    def test_flush_boundary_is_the_durability_boundary(self, tmp_path):
        path = tmp_path / "pending.jsonl"
        journal = Journal(JsonlJournalStore(str(path)), batch_size=100)
        for kind, time, data in RECORDS[:5]:
            journal.append(kind, time, dict(data))
        # in-memory chain is complete; the store write is still pending
        assert len(journal) == 5
        assert journal.pending_store_writes == 5
        assert not path.exists() or path.read_bytes() == b""
        assert journal.flush() == 5
        assert journal.pending_store_writes == 0
        assert len(path.read_text().splitlines()) == 5


def _fig4_rendered(result) -> str:
    """The figure exactly as the CLI renders it."""
    from repro.analysis.tables import format_grouped_bars

    groups = {
        test: {site: result.durations[site][test] for site in result.durations}
        for test in result.tests()
    }
    waits = {s: round(w, 6) for s, w in sorted(result.queue_waits.items())}
    return format_grouped_bars(groups) + "\n" + repr(waits)


def _sampled(sampler):
    """A ``world_setup`` hook that swaps the tracer's sampler."""

    def setup(world) -> None:
        world.tracer.sampler = sampler

    return setup


class TestSamplingIdentity:
    def test_fig4_output_identical_under_span_sampling(self):
        base = run_fig4(telemetry=True)
        never = run_fig4(telemetry=True, world_setup=_sampled(NEVER_SAMPLER))
        ratio = run_fig4(
            telemetry=True, world_setup=_sampled(RatioSampler(0.25, seed=11))
        )
        reference = _fig4_rendered(base)
        assert _fig4_rendered(never) == reference
        assert _fig4_rendered(ratio) == reference
        # sampling actually dropped spans — the comparison is not vacuous
        assert len(never.world.tracer.spans) == 0
        assert 0 < len(ratio.world.tracer.spans) < len(base.world.tracer.spans)
