"""The provenance store: queryable history of executions."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.provenance.record import ExecutionRecord
from repro.util.ids import IdFactory


class ProvenanceStore:
    """Append-only record store with the queries reviewers need."""

    def __init__(self) -> None:
        self._records: List[ExecutionRecord] = []
        self._ids = IdFactory("prov")
        # suite identity by stdout-artifact name: the suite runner
        # declares, before the run, which (suite, series, permutation)
        # each step's artifact prefix belongs to; records are stamped at
        # creation so crates pick the fields up with no extra plumbing
        self._suite_context: Dict[str, Tuple[str, str, str]] = {}

    def set_suite_context(
        self, context: Dict[str, Tuple[str, str, str]]
    ) -> None:
        """Map stdout-artifact name -> (suite, series, permutation)."""
        self._suite_context = dict(context)

    def next_record_id(self) -> str:
        return self._ids.next_id()

    def add(self, record: ExecutionRecord) -> None:
        identity = self._suite_context.get(record.stdout_artifact)
        if identity is not None and not record.suite:
            record.suite, record.series, record.permutation = identity
        self._records.append(record)

    def all(self) -> List[ExecutionRecord]:
        return list(self._records)

    def for_repo(self, slug: str) -> List[ExecutionRecord]:
        return [r for r in self._records if r.repo_slug == slug]

    def for_site(self, site: str) -> List[ExecutionRecord]:
        return [r for r in self._records if r.site == site]

    def for_trace(self, trace_id: str) -> List[ExecutionRecord]:
        """Records produced under one telemetry trace (workflow run)."""
        return [r for r in self._records if r.trace_id == trace_id]

    def for_suite(self, suite: str) -> List[ExecutionRecord]:
        """Records produced by one declarative suite's instances."""
        return [r for r in self._records if r.suite == suite]

    def sites_covered(self, slug: str) -> List[str]:
        """Distinct sites a repo's tests have run on — the multi-site
        coverage a reviewer would check first."""
        return sorted({r.site for r in self.for_repo(slug)})

    def latest(self, slug: str, site: Optional[str] = None) -> Optional[ExecutionRecord]:
        candidates = [
            r for r in self.for_repo(slug) if site is None or r.site == site
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda r: r.completed_at)

    def success_rate(self, slug: str) -> float:
        records = self.for_repo(slug)
        if not records:
            return 0.0
        return sum(1 for r in records if r.succeeded) / len(records)

    def __len__(self) -> int:
        return len(self._records)
