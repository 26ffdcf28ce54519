"""Tests for the sbatch/squeue/scancel shell commands and the histogram."""

import pytest

from repro.analysis.tables import format_histogram
from repro.envs.stdlib import standard_index
from repro.shellsim.session import ShellSession
from repro.sites.catalog import make_site
from repro.util.clock import SimClock


@pytest.fixture
def anvil_session():
    site = make_site(
        "anvil", SimClock(), package_index=standard_index(), background_load=False
    )
    site.add_account("x-u")
    site.add_account("x-other")
    return ShellSession(site.login_handle("x-u"))


class TestSbatch:
    def test_submit_and_track(self, anvil_session):
        result = anvil_session.run("sbatch -N 1 -p shared -t 30 my-job")
        assert result.ok
        assert result.stdout.startswith("Submitted batch job ")
        job_id = result.stdout.rsplit(" ", 1)[-1]
        queue = anvil_session.run("squeue --me")
        assert job_id in queue.stdout
        # completes after its walltime-duration
        anvil_session.handle.site.clock.advance(31.0)
        queue = anvil_session.run("squeue --me")
        assert job_id not in queue.stdout

    def test_default_partition_and_time(self, anvil_session):
        assert anvil_session.run("sbatch run-tests").ok

    def test_bad_partition(self, anvil_session):
        result = anvil_session.run("sbatch -p ghost job")
        assert not result.ok

    def test_bad_walltime(self, anvil_session):
        assert not anvil_session.run("sbatch -t abc job").ok

    def test_missing_script(self, anvil_session):
        assert not anvil_session.run("sbatch -N 2").ok

    def test_no_scheduler_site(self):
        site = make_site("chameleon", SimClock())
        site.add_account("cc")
        session = ShellSession(site.login_handle("cc"))
        assert not session.run("sbatch job").ok


class TestScancel:
    def test_cancel_own_job(self, anvil_session):
        out = anvil_session.run("sbatch -t 500 long-job").stdout
        job_id = out.rsplit(" ", 1)[-1]
        assert anvil_session.run(f"scancel {job_id}").ok
        assert job_id not in anvil_session.run("squeue").stdout

    def test_cannot_cancel_others_jobs(self, anvil_session):
        site = anvil_session.handle.site
        other = ShellSession(site.login_handle("x-other"))
        out = other.run("sbatch -t 500 their-job").stdout
        job_id = out.rsplit(" ", 1)[-1]
        result = anvil_session.run(f"scancel {job_id}")
        assert not result.ok
        assert "belongs to" in result.stderr

    def test_unknown_job(self, anvil_session):
        assert not anvil_session.run("scancel nope-123").ok


class TestHistogram:
    def test_basic_shape(self):
        values = [1.0] * 10 + [5.0] * 2
        text = format_histogram(values, bins=4)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].count("#") > lines[-1].count("#")

    def test_single_value(self):
        text = format_histogram([3.0, 3.0], bins=5)
        assert "3.00" in text and "2" in text

    def test_empty(self):
        assert format_histogram([]) == "(no data)"

    def test_bins_validation(self):
        with pytest.raises(ValueError):
            format_histogram([1.0, 2.0], bins=0)

    def test_counts_sum_preserved(self):
        import re

        values = [float(i % 7) for i in range(100)]
        text = format_histogram(values, bins=7)
        counts = [int(re.search(r"(\d+)$", line).group(1))
                  for line in text.splitlines()]
        assert sum(counts) == 100
