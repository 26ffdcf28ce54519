"""PSI/J executors: the scheduler abstraction layer itself.

``LocalJobExecutor`` runs specs directly on the current node through the
simulated shell; ``SlurmJobExecutor`` translates specs to batch jobs on
the site's scheduler. :func:`render_batch_attributes` contains the
v0.9.9 defect (reads ``spec.attributes`` instead of
``spec.custom_attributes``) that makes one CI test fail in §6.2 — kept
faithfully, bug and all.
"""

from __future__ import annotations

import abc
from typing import Dict, List

from repro.apps.psij.jobspec import JobSpec, JobStatus, PsiJJob
from repro.errors import SchedulerError
from repro.scheduler.jobs import Job, JobState
from repro.shellsim.session import ShellSession
from repro.sites.site import NodeHandle


class JobExecutor(abc.ABC):
    """Common executor interface (the portability layer)."""

    name = "abstract"

    @abc.abstractmethod
    def submit(self, job: PsiJJob) -> None:
        """Start tracking and launching the job."""

    @abc.abstractmethod
    def wait(self, job: PsiJJob) -> JobStatus:
        """Block (in virtual time) until the job is final."""

    @abc.abstractmethod
    def cancel(self, job: PsiJJob) -> None:
        """Cancel a queued or running job."""


class LocalJobExecutor(JobExecutor):
    """Runs jobs directly on the node (the Anvil login-node mode, §6.2)."""

    name = "local"

    def __init__(self, handle: NodeHandle) -> None:
        self.handle = handle
        self._counter = 0

    def submit(self, job: PsiJJob) -> None:
        self._counter += 1
        job.native_id = f"local-{self._counter}"
        job.mark(JobStatus.ACTIVE)
        shell = ShellSession(self.handle)
        if job.spec.directory:
            shell.run(f"cd {job.spec.directory}")
        self.handle.compute(job.spec.work)
        result = shell.run(job.spec.command_line)
        if job.spec.stdout_path:
            self.handle.fs_write(job.spec.stdout_path, result.stdout)
        if job.spec.stderr_path:
            self.handle.fs_write(job.spec.stderr_path, result.stderr)
        job.exit_code = result.exit_code
        job.mark(JobStatus.COMPLETED if result.ok else JobStatus.FAILED)

    def wait(self, job: PsiJJob) -> JobStatus:
        return job.status  # local jobs complete at submit

    def cancel(self, job: PsiJJob) -> None:
        if not job.status.final:
            job.mark(JobStatus.CANCELED)


class SlurmJobExecutor(JobExecutor):
    """Maps specs to the site batch scheduler."""

    name = "slurm"

    def __init__(self, handle: NodeHandle, partition: str) -> None:
        if not handle.site.has_scheduler:
            raise SchedulerError(
                f"site {handle.site.name} has no batch scheduler"
            )
        self.handle = handle
        self.partition = partition
        self._native: Dict[str, Job] = {}

    def submit(self, job: PsiJJob) -> None:
        batch_job = Job(
            user=self.handle.user,
            partition=self.partition,
            num_nodes=job.spec.resources.node_count,
            walltime=max(job.spec.duration, job.spec.work + 10.0),
            duration=job.spec.work,
            name=f"psij-{job.spec.executable}",
        )
        job.native_id = self.handle.site.scheduler.submit(batch_job)
        self._native[job.native_id] = batch_job
        job.mark(JobStatus.QUEUED)

    def wait(self, job: PsiJJob) -> JobStatus:
        batch_job = self.handle.site.scheduler.wait_for(job.native_id)
        mapping = {
            JobState.COMPLETED: JobStatus.COMPLETED,
            JobState.FAILED: JobStatus.FAILED,
            JobState.CANCELLED: JobStatus.CANCELED,
            JobState.TIMEOUT: JobStatus.FAILED,
        }
        job.exit_code = 0 if batch_job.state is JobState.COMPLETED else 1
        job.mark(mapping.get(batch_job.state, JobStatus.FAILED))
        return job.status

    def cancel(self, job: PsiJJob) -> None:
        self.handle.site.scheduler.cancel(job.native_id)
        job.mark(JobStatus.CANCELED)

    def status(self, job: PsiJJob) -> JobStatus:
        state = self.handle.site.scheduler.job(job.native_id).state
        if state is JobState.PENDING:
            return JobStatus.QUEUED
        if state is JobState.RUNNING:
            return JobStatus.ACTIVE
        return self.wait(job)


def render_batch_attributes(spec: JobSpec) -> List[str]:
    """Render ``#SBATCH`` directives for a spec's custom attributes.

    **Known v0.9.9 defect:** this reads ``spec.attributes``, but the field
    is ``custom_attributes`` — an ``AttributeError`` at runtime. The CI
    test that exercises batch attributes fails with exactly this error,
    which is the failure CORRECT surfaces in Fig. 5.
    """
    return [
        # BUG: should be custom_attributes
        f"#SBATCH --{key}={value}"
        for key, value in spec.attributes.items()
    ]


def render_batch_attributes_fixed(spec: JobSpec) -> List[str]:
    """The corrected renderer — what upstream's fix looks like.

    Used by the patched test suite variant so chaos experiments can
    reproduce Fig. 5's failing artifact *without* the library bug: the
    identical ``AttributeError`` is injected by the fault layer instead.
    """
    return [
        f"#SBATCH --{key}={value}"
        for key, value in spec.custom_attributes.items()
    ]


def get_executor(name: str, handle: NodeHandle, partition: str = "") -> JobExecutor:
    """Factory: the portability entry point user code calls."""
    if name == "local":
        return LocalJobExecutor(handle)
    if name == "slurm":
        if not partition:
            raise ValueError("slurm executor needs a partition")
        return SlurmJobExecutor(handle, partition)
    raise ValueError(f"unknown executor {name!r} (have: local, slurm)")
