"""Unit tests for the PSI/J application: executors, suite, cron CI, dashboard."""

import pytest

from repro.apps.psij.cron import BranchPolicy, CronCI
from repro.apps.psij.dashboard import Dashboard
from repro.apps.psij.executors import (
    LocalJobExecutor,
    SlurmJobExecutor,
    get_executor,
    render_batch_attributes,
)
from repro.apps.psij.jobspec import JobSpec, JobStatus, PsiJJob, ResourceSpec
from repro.apps.psij.suite import PSIJ_SUITE
from repro.envs.stdlib import standard_index
from repro.sites.catalog import make_site
from repro.util.clock import SimClock


@pytest.fixture
def anvil():
    site = make_site(
        "anvil", SimClock(), package_index=standard_index(), background_load=False
    )
    site.add_account("x-u")
    return site


class TestJobSpec:
    def test_command_line(self):
        spec = JobSpec(executable="echo", arguments=["a", "b"])
        assert spec.command_line == "echo a b"

    def test_resource_validation(self):
        with pytest.raises(ValueError):
            ResourceSpec(node_count=0)

    def test_status_finality(self):
        assert JobStatus.COMPLETED.final
        assert not JobStatus.ACTIVE.final


class TestLocalExecutor:
    def test_submit_completes(self, anvil):
        executor = LocalJobExecutor(anvil.login_handle("x-u"))
        job = PsiJJob(JobSpec(executable="echo", arguments=["hi"], work=0.5))
        executor.submit(job)
        assert job.status is JobStatus.COMPLETED
        assert job.exit_code == 0
        assert job.native_id.startswith("local-")

    def test_failure_propagates(self, anvil):
        executor = LocalJobExecutor(anvil.login_handle("x-u"))
        job = PsiJJob(JobSpec(executable="false", work=0.1))
        executor.submit(job)
        assert job.status is JobStatus.FAILED

    def test_stdout_file(self, anvil):
        handle = anvil.login_handle("x-u")
        executor = LocalJobExecutor(handle)
        job = PsiJJob(
            JobSpec(
                executable="echo", arguments=["out"],
                stdout_path="/home/x-u/o.txt", work=0.1,
            )
        )
        executor.submit(job)
        assert handle.fs_read("/home/x-u/o.txt") == "out"

    def test_work_charges_clock(self, anvil):
        executor = LocalJobExecutor(anvil.login_handle("x-u"))
        before = anvil.clock.now
        executor.submit(PsiJJob(JobSpec(executable="true", work=10.0)))
        assert anvil.clock.now > before


class TestSlurmExecutor:
    def test_roundtrip(self, anvil):
        executor = SlurmJobExecutor(anvil.login_handle("x-u"), "shared")
        job = PsiJJob(JobSpec(executable="true", work=5.0, duration=100.0))
        executor.submit(job)
        assert job.status is JobStatus.QUEUED
        assert executor.wait(job) is JobStatus.COMPLETED
        assert job.exit_code == 0

    def test_cancel(self, anvil):
        executor = SlurmJobExecutor(anvil.login_handle("x-u"), "shared")
        job = PsiJJob(JobSpec(executable="true", work=500.0, duration=600.0))
        executor.submit(job)
        executor.cancel(job)
        assert job.status is JobStatus.CANCELED

    def test_status_mapping(self, anvil):
        executor = SlurmJobExecutor(anvil.login_handle("x-u"), "shared")
        job = PsiJJob(JobSpec(executable="true", work=5.0, duration=100.0))
        executor.submit(job)
        assert executor.status(job) in (JobStatus.QUEUED, JobStatus.ACTIVE)

    def test_requires_scheduler(self):
        from repro.errors import SchedulerError
        from repro.sites.catalog import make_site

        site = make_site("chameleon", SimClock())
        site.add_account("cc")
        with pytest.raises(SchedulerError):
            SlurmJobExecutor(site.login_handle("cc"), "none")


class TestFactoryAndBug:
    def test_factory(self, anvil):
        handle = anvil.login_handle("x-u")
        assert isinstance(get_executor("local", handle), LocalJobExecutor)
        assert isinstance(
            get_executor("slurm", handle, partition="shared"), SlurmJobExecutor
        )
        with pytest.raises(ValueError):
            get_executor("slurm", handle)  # missing partition
        with pytest.raises(ValueError):
            get_executor("pbs", handle)

    def test_v099_renderer_bug_present(self):
        """The upstream defect must exist: that is what Fig. 5 catches."""
        spec = JobSpec(executable="x", custom_attributes={"partition": "p"})
        with pytest.raises(AttributeError):
            render_batch_attributes(spec)


class TestSuiteOnSite:
    def _run_suite(self, site, env_name="psij"):
        from repro.shellsim.suites import SuiteContext

        handle = site.login_handle("x-u")
        manager = handle.conda()
        if env_name not in manager.environments():
            manager.create(env_name)
        manager.install(env_name, {"psij-python": "==0.9.9", "pytest": "*"})
        ctx = SuiteContext(
            handle=handle, cwd="/home/x-u",
            env={"CONDA_DEFAULT_ENV": env_name},
        )
        return PSIJ_SUITE.run(ctx)

    def test_exactly_one_failure_the_known_bug(self, anvil):
        report = self._run_suite(anvil)
        failing = [
            r.name for r in report.results
            if r.outcome.value in ("FAILED", "ERROR")
        ]
        assert failing == ["test_batch_attributes"]
        assert report.passed == len(report.results) - 1

    def test_failure_message_names_the_attribute_error(self, anvil):
        report = self._run_suite(anvil)
        failure = next(
            r for r in report.results if r.name == "test_batch_attributes"
        )
        assert "AttributeError" in failure.message


class TestCronCI:
    def _rig(self):
        from repro.world import World

        world = World()
        world.register_user("dev", {"anvil": "x-dev"})
        site = world.site("anvil")
        handle = site.login_handle("x-dev")
        handle.conda().create("psij")
        handle.conda().install("psij", {"psij-python": "==0.9.9", "pytest": "*"})
        from repro.apps.psij import suite as psij_suite

        world.hub.create_repo("exaworks/psij-python", owner="dev")
        world.hub.push_commit(
            "exaworks/psij-python", author="dev", message="init",
            files=psij_suite.repo_files(),
        )
        dashboard = Dashboard()
        return world, handle, dashboard

    def test_tick_runs_and_publishes(self):
        world, handle, dashboard = self._rig()
        cron = CronCI(
            handle, world.hub, "exaworks/psij-python", dashboard,
            conda_env="psij",
        )
        runs = cron.tick()
        assert len(runs) == 1
        assert runs[0].report is not None
        assert runs[0].report.failed == 1  # the v0.9.9 bug
        assert dashboard.latest("anvil") is not None

    def test_staleness_tracking(self):
        world, handle, dashboard = self._rig()
        cron = CronCI(
            handle, world.hub, "exaworks/psij-python", dashboard,
            conda_env="psij", interval=3600.0,
        )
        assert cron.staleness(world.clock.now) == float("inf")
        cron.tick()
        after_tick = cron.staleness(world.clock.now)
        world.clock.advance(100.0)
        assert cron.staleness(world.clock.now) == pytest.approx(after_tick + 100.0)
        assert cron.worst_case_staleness() == 3600.0

    def test_branch_policies(self):
        world, handle, dashboard = self._rig()
        hub = world.hub
        hub.push_commit(
            "exaworks/psij-python", author="dev", message="stable",
            patch={"s": "1"}, branch="stable",
        )
        hub.push_commit(
            "exaworks/psij-python", author="dev", message="random",
            patch={"r": "1"}, branch="random-feature",
        )
        main_only = CronCI(
            handle, hub, "exaworks/psij-python", dashboard,
            policy=BranchPolicy.MAIN_ONLY,
        )
        assert main_only.branches_to_test() == ["main"]
        stable = CronCI(
            handle, hub, "exaworks/psij-python", dashboard,
            policy=BranchPolicy.STABLE_AND_CORE,
        )
        assert set(stable.branches_to_test()) == {"main", "stable"}

    def test_tagged_pr_policy(self):
        world, handle, dashboard = self._rig()
        hub = world.hub
        hosted = hub.repo("exaworks/psij-python")
        hub.push_commit(
            "exaworks/psij-python", author="dev", message="pr work",
            patch={"p": "1"}, branch="pr-branch",
        )
        pr = hosted.open_pull_request("fix", "dev", "exaworks/psij-python", "pr-branch")
        cron = CronCI(
            handle, hub, "exaworks/psij-python", dashboard,
            policy=BranchPolicy.TAGGED_PRS,
        )
        assert cron.branches_to_test() == ["main"]  # untagged PR excluded
        pr.add_label(CronCI.APPROVED_LABEL)
        assert set(cron.branches_to_test()) == {"main", "pr-branch"}
        assert cron.requires_review_before_execution

    def test_security_properties(self):
        world, handle, dashboard = self._rig()
        cron = CronCI(handle, world.hub, "exaworks/psij-python", dashboard)
        assert not cron.maps_author_to_account
        assert not cron.requires_review_before_execution  # MAIN_ONLY default


class TestDashboard:
    def test_publish_query_render(self):
        from repro.shellsim.suites import TestReport

        dashboard = Dashboard()
        report = TestReport(suite="s")
        dashboard.publish("anvil", "main", 100.0, report)
        dashboard.publish("faster", "main", 200.0, report, source="correct")
        assert dashboard.sites() == ["anvil", "faster"]
        assert dashboard.latest("anvil").time == 100.0
        rendered = dashboard.render()
        assert "anvil" in rendered and "correct" in rendered
