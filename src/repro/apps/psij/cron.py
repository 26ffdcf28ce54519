"""PSI/J's cron-based CI — the baseline CORRECT is compared against (§6.2).

An authenticated user deploys a cron job in their site account. On each
tick it pulls the latest code per the configured branch policy, runs the
test suite, and publishes to the dashboard. The security properties the
paper criticizes are modeled explicitly:

* the cron job pulls code *automatically* — unreviewed pushes to the
  watched branch execute under the deployer's account unless the policy
  requires tagging by a core developer;
* results can be stale by up to one cron interval;
* there is no mapping from the code's author to the account that runs it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.apps.psij.dashboard import Dashboard
from repro.hub.service import HubService
from repro.shellsim.session import ShellServices, ShellSession
from repro.shellsim.suites import TestReport
from repro.sites.site import NodeHandle


class BranchPolicy(enum.Enum):
    """Which code the cron job may pull (§6.2's three options)."""

    MAIN_ONLY = "main"
    STABLE_AND_CORE = "stable+core"
    TAGGED_PRS = "tagged-prs"


@dataclass
class CronRun:
    time: float
    branch: str
    sha: str
    report: Optional[TestReport]
    error: str = ""


class CronCI:
    """One site's cron-driven CI deployment for a repository."""

    #: label core developers apply to PR branches approved for HPC testing
    APPROVED_LABEL = "ok-to-test-hpc"

    def __init__(
        self,
        handle: NodeHandle,
        hub: HubService,
        slug: str,
        dashboard: Dashboard,
        policy: BranchPolicy = BranchPolicy.MAIN_ONLY,
        interval: float = 24 * 3600.0,
        conda_env: str = "base",
    ) -> None:
        self.handle = handle
        self.hub = hub
        self.slug = slug
        self.dashboard = dashboard
        self.policy = policy
        self.interval = interval
        self.conda_env = conda_env
        self.runs: List[CronRun] = []
        self.last_tick: Optional[float] = None

        # security properties, probed by the baseline comparison (Table 4
        # and the cron-vs-CORRECT ablation)
        self.maps_author_to_account = False
        self.requires_review_before_execution = (
            policy is BranchPolicy.TAGGED_PRS
        )

    # -- policy ------------------------------------------------------------------
    def branches_to_test(self) -> List[str]:
        hosted = self.hub.repo(self.slug)
        repo = hosted.repository
        if self.policy is BranchPolicy.MAIN_ONLY:
            return [repo.default_branch]
        if self.policy is BranchPolicy.STABLE_AND_CORE:
            return [
                b for b in repo.branches()
                if b in (repo.default_branch, "stable", "core")
            ]
        branches = [repo.default_branch]
        for pr in hosted.pull_requests.values():
            if pr.state == "open" and self.APPROVED_LABEL in pr.labels:
                if pr.source_branch in repo.branches():
                    branches.append(pr.source_branch)
        return branches

    # -- execution ---------------------------------------------------------------
    def tick(self) -> List[CronRun]:
        """One cron firing: pull + test each policy-allowed branch."""
        self.last_tick = self.handle.site.clock.now
        results: List[CronRun] = [
            self._run_branch(branch) for branch in self.branches_to_test()
        ]
        self.runs.extend(results)
        return results

    def _run_branch(self, branch: str) -> CronRun:
        clock = self.handle.site.clock
        shell = ShellSession(
            self.handle, services=ShellServices(hub=self.hub)
        )
        workdir = f"{self.handle.scratch()}/cron-ci"
        shell.run(f"mkdir -p {workdir}")
        repo_dir = f"{workdir}/{self.slug.rsplit('/', 1)[-1]}"
        if self.handle.fs_exists(repo_dir):
            shell.run(f"rm -rf {repo_dir}")
        clone = shell.run(
            f"cd {workdir} && git clone -b {branch} https://github.com/{self.slug}"
        )
        if not clone.ok:
            return CronRun(
                time=clock.now, branch=branch, sha="", report=None,
                error=clone.stderr,
            )
        sha = shell.env.get("GIT_HEAD", "")
        shell.run(f"cd {repo_dir}")
        shell.run(f"conda activate {self.conda_env}")
        result = shell.run("pytest")
        report: Optional[TestReport] = None
        if shell.last_report_path and self.handle.fs_exists(shell.last_report_path):
            report = TestReport.from_json(
                self.handle.fs_read(shell.last_report_path)
            )
            self.dashboard.publish(
                site=self.handle.site.name,
                branch=branch,
                time=clock.now,
                report=report,
                source="cron",
            )
        return CronRun(
            time=clock.now,
            branch=branch,
            sha=sha,
            report=report,
            error="" if result.ok else "test failures",
        )

    # -- staleness ---------------------------------------------------------------
    def staleness(self, now: float) -> float:
        """Seconds since results last reflected the repository."""
        if self.last_tick is None:
            return float("inf")
        return now - self.last_tick

    def worst_case_staleness(self) -> float:
        """A push lands just after a tick: results lag a full interval."""
        return self.interval
