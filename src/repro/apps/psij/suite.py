"""The PSI/J CI test suite.

Eight tests exercising both executors against whatever site the suite
lands on. ``test_batch_attributes`` hits the v0.9.9 renderer defect and
fails — the real-codebase error §6.2 reports CORRECT catching. The §6.2
run uses a login-node MEP (LocalProvider), so scheduler-dependent tests
skip gracefully when the login node's site has no scheduler visible to
the test account.
"""

from __future__ import annotations

from typing import Dict

from repro.apps.psij.executors import (
    LocalJobExecutor,
    SlurmJobExecutor,
    get_executor,
    render_batch_attributes,
    render_batch_attributes_fixed,
)
from repro.apps.psij.jobspec import JobSpec, JobStatus, PsiJJob, ResourceSpec
from repro.shellsim.suites import SuiteContext, TestSuite, check


def _test_version_installed(ctx: SuiteContext) -> None:
    env_name = ctx.env.get("CONDA_DEFAULT_ENV", "base")
    env = ctx.handle.conda().env(env_name)
    check(
        env.has("psij-python", "0.9.9"),
        f"psij-python 0.9.9 not installed in {env_name} (have {env.freeze()})",
    )


def _test_local_submit(ctx: SuiteContext) -> None:
    executor = LocalJobExecutor(ctx.handle)
    job = PsiJJob(JobSpec(executable="echo", arguments=["psij"], work=0.5))
    executor.submit(job)
    status = executor.wait(job)
    check(status is JobStatus.COMPLETED)
    check(job.exit_code == 0)


def _test_local_stdout_capture(ctx: SuiteContext) -> None:
    out_path = f"{ctx.handle.home()}/psij-out.txt" if ctx.handle.fs_isdir(
        ctx.handle.home()
    ) else f"{ctx.handle.scratch()}/psij-out.txt"
    executor = LocalJobExecutor(ctx.handle)
    job = PsiJJob(
        JobSpec(
            executable="echo",
            arguments=["captured", "output"],
            stdout_path=out_path,
            work=0.3,
        )
    )
    executor.submit(job)
    check(ctx.handle.fs_read(out_path) == "captured output")


def _test_failed_job_status(ctx: SuiteContext) -> None:
    executor = LocalJobExecutor(ctx.handle)
    job = PsiJJob(JobSpec(executable="false", work=0.2))
    executor.submit(job)
    status = executor.wait(job)
    check(status is JobStatus.FAILED)
    check(job.exit_code != 0)


def _test_executor_factory(ctx: SuiteContext) -> None:
    local = get_executor("local", ctx.handle)
    check(isinstance(local, LocalJobExecutor))
    try:
        get_executor("pbs", ctx.handle)
        raise AssertionError("unknown executor name must raise")
    except ValueError:
        pass


def _test_slurm_roundtrip(ctx: SuiteContext) -> None:
    site = ctx.handle.site
    if not site.has_scheduler:
        return  # cloud VM: nothing to test, matches upstream skip behaviour
    partition = site.scheduler.default_partition.name
    executor = SlurmJobExecutor(ctx.handle, partition)
    job = PsiJJob(
        JobSpec(executable="true", work=2.0, duration=60.0,
                resources=ResourceSpec(node_count=1))
    )
    executor.submit(job)
    check(job.status is JobStatus.QUEUED)
    status = executor.wait(job)
    check(status is JobStatus.COMPLETED)


def _test_slurm_cancel(ctx: SuiteContext) -> None:
    site = ctx.handle.site
    if not site.has_scheduler:
        return
    partition = site.scheduler.default_partition.name
    executor = SlurmJobExecutor(ctx.handle, partition)
    job = PsiJJob(JobSpec(executable="true", work=500.0, duration=600.0))
    executor.submit(job)
    executor.cancel(job)
    check(job.status is JobStatus.CANCELED)


def _test_batch_attributes(ctx: SuiteContext) -> None:
    # Exercises the v0.9.9 renderer — fails with AttributeError upstream.
    spec = JobSpec(
        executable="true",
        custom_attributes={"partition": "shared", "account": "abc123"},
    )
    directives = render_batch_attributes(spec)
    check("#SBATCH --partition=shared" in directives)


def _test_batch_attributes_fixed(ctx: SuiteContext) -> None:
    # The corrected renderer: what the suite looks like once upstream
    # fixes the attribute name. Used by chaos runs that reproduce the
    # Fig. 5 failure through injection rather than the library defect.
    spec = JobSpec(
        executable="true",
        custom_attributes={"partition": "shared", "account": "abc123"},
    )
    directives = render_batch_attributes_fixed(spec)
    check("#SBATCH --partition=shared" in directives)


def _build_suite(fixed: bool = False) -> TestSuite:
    suite = TestSuite("tests/test_executors.py")
    suite.add("test_version_installed", work=0.3, fn=_test_version_installed)
    suite.add("test_local_submit", work=1.0, fn=_test_local_submit)
    suite.add("test_local_stdout_capture", work=1.2, fn=_test_local_stdout_capture)
    suite.add("test_failed_job_status", work=0.8, fn=_test_failed_job_status)
    suite.add("test_executor_factory", work=0.5, fn=_test_executor_factory)
    suite.add("test_slurm_roundtrip", work=3.0, fn=_test_slurm_roundtrip)
    suite.add("test_slurm_cancel", work=2.0, fn=_test_slurm_cancel)
    suite.add(
        "test_batch_attributes", work=0.6,
        fn=_test_batch_attributes_fixed if fixed else _test_batch_attributes,
    )
    return suite


PSIJ_SUITE = _build_suite()
PSIJ_SUITE_FIXED = _build_suite(fixed=True)


def repo_files(fixed: bool = False) -> Dict[str, str]:
    """Contents of the hosted psij-python repository.

    ``fixed=True`` ships the patched suite (corrected renderer test) —
    the repository as it looks after upstream's fix.
    """
    suite_ref = (
        "repro.apps.psij.suite:PSIJ_SUITE_FIXED"
        if fixed
        else "repro.apps.psij.suite:PSIJ_SUITE"
    )
    return {
        "README.md": (
            "# PSI/J\n\nA portable interface for submitting, monitoring, "
            "and managing jobs across HPC schedulers.\n"
        ),
        "requirements.txt": (
            "psutil>=5.9\npystache>=0.6.0\ntypeguard>=3.0.1\npytest>=7\n"
        ),
        ".repro-suite": suite_ref,
        "tox.ini": (
            "[tox]\nenvlist = py311\n\n[testenv]\ndeps =\n"
            "    psutil>=5.9\n    pystache>=0.6.0\n    typeguard>=3.0.1\n"
            "    pytest>=7\n    psij-python==0.9.9\ncommands = pytest\n"
        ),
        "src/psij/__init__.py": "# psij package\n",
    }
