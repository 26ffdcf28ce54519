"""Unit tests for provenance records, the store, and research crates."""

import pytest

from repro.provenance.crate import ResearchCrate
from repro.provenance.record import EnvironmentSnapshot, ExecutionRecord
from repro.provenance.store import ProvenanceStore


def _record(record_id="prov-1", site="faster", exit_code=0, completed_at=100.0,
            with_env=True):
    env = None
    if with_env:
        env = EnvironmentSnapshot(
            site=site, node_name=f"{site}-login01", node_class="login",
            cores=32, memory_gb=128.0, cpu_speed=1.0,
            conda_env="docking", packages=["pytest==8.3.4"],
        )
    return ExecutionRecord(
        record_id=record_id,
        run_id="run-000001",
        repo_slug="org/app",
        commit_sha="abc123",
        site=site,
        endpoint_id="ep-1",
        identity_urn="alice@uni.edu",
        function_name="correct.run_shell_command",
        command="pytest",
        started_at=50.0,
        completed_at=completed_at,
        exit_code=exit_code,
        environment=env,
    )


class TestExecutionRecord:
    def test_duration_and_success(self):
        record = _record()
        assert record.duration == 50.0
        assert record.succeeded

    def test_json_roundtrip(self):
        record = _record()
        restored = ExecutionRecord.from_json(record.to_json())
        assert restored.record_id == record.record_id
        assert restored.environment.packages == ["pytest==8.3.4"]

    def test_json_roundtrip_without_environment(self):
        record = _record(with_env=False)
        restored = ExecutionRecord.from_json(record.to_json())
        assert restored.environment is None


class TestSnapshotCapture:
    def test_capture_from_handle(self):
        from repro.envs.stdlib import standard_index
        from repro.sites.catalog import make_site
        from repro.util.clock import SimClock

        site = make_site("chameleon", SimClock(), package_index=standard_index())
        site.add_account("cc")
        handle = site.login_handle("cc")
        handle.conda().install("base", {"pytest": "*"})
        snapshot = EnvironmentSnapshot.capture(
            handle, env_vars={"PATH": "/bin", "MY_SECRET": "hunter2"}
        )
        assert snapshot.site == "chameleon"
        assert any(p.startswith("pytest==") for p in snapshot.packages)
        assert snapshot.env_vars["MY_SECRET"] == "***"
        assert snapshot.env_vars["PATH"] == "/bin"


class TestProvenanceStore:
    def test_queries(self):
        store = ProvenanceStore()
        store.add(_record("p1", site="faster", completed_at=10.0))
        store.add(_record("p2", site="expanse", completed_at=20.0))
        store.add(_record("p3", site="faster", exit_code=1, completed_at=30.0))
        assert len(store) == 3
        assert len(store.for_site("faster")) == 2
        assert store.sites_covered("org/app") == ["expanse", "faster"]
        assert store.latest("org/app").record_id == "p3"
        assert store.latest("org/app", site="expanse").record_id == "p2"
        assert store.success_rate("org/app") == pytest.approx(2 / 3)

    def test_empty_store(self):
        store = ProvenanceStore()
        assert store.latest("org/app") is None
        assert store.success_rate("org/app") == 0.0

    def test_record_ids_sequential(self):
        store = ProvenanceStore()
        assert store.next_record_id() == "prov-000001"
        assert store.next_record_id() == "prov-000002"


class TestResearchCrate:
    def test_completeness_report(self):
        crate = ResearchCrate("org/app", "abc123", title="Demo")
        report = crate.completeness_report()
        assert report["has_code_reference"]
        assert not report["has_executions"]
        crate.add_record(_record(site="faster"))
        crate.add_record(_record("p2", site="expanse"))
        crate.add_artifact("stdout", "output")
        report = crate.completeness_report()
        assert all(report.values())
        assert crate.is_reviewable()

    def test_missing_environment_blocks_review(self):
        crate = ResearchCrate("org/app", "abc123")
        crate.add_record(_record(with_env=False))
        assert not crate.is_reviewable()

    def test_json_roundtrip(self):
        crate = ResearchCrate("org/app", "abc123", description="d")
        crate.add_record(_record())
        crate.add_artifact("stdout", "text")
        restored = ResearchCrate.from_json(crate.to_json())
        assert restored.repo_slug == "org/app"
        assert restored.records[0].environment.site == "faster"
        assert restored.artifacts == {"stdout": "text"}

    def test_wrong_spec_rejected(self):
        with pytest.raises(ValueError):
            ResearchCrate.from_json('{"@spec": "other/1.0"}')
