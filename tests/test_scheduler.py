"""Unit tests for the batch scheduler: FCFS, backfill, walltime, pilots."""

import pytest

from repro.errors import InvalidJobSpec, JobNotFound
from repro.scheduler.jobs import Job, JobState
from repro.scheduler.nodes import Node, Partition, make_nodes
from repro.scheduler.slurm import SlurmScheduler
from repro.util.clock import SimClock


def make_scheduler(nodes=4, clock=None):
    clock = clock or SimClock()
    partition = Partition(
        name="batch",
        nodes=make_nodes("n", nodes, cores=8, memory_gb=64),
        max_walltime=10_000.0,
        default_walltime=100.0,
    )
    return clock, SlurmScheduler(clock, [partition])


class TestNodes:
    def test_make_nodes_names_unique(self):
        nodes = make_nodes("c", 3, 8, 64)
        assert len({n.name for n in nodes}) == 3

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            Partition(name="p", nodes=[])

    def test_duplicate_node_names_rejected(self):
        node = Node("same", 4, 16)
        with pytest.raises(ValueError):
            Partition(name="p", nodes=[node, Node("same", 4, 16)])

    def test_make_nodes_count_positive(self):
        with pytest.raises(ValueError):
            make_nodes("c", 0, 8, 64)


class TestSubmission:
    def test_immediate_start_when_free(self):
        clock, scheduler = make_scheduler()
        job = Job(user="u", partition="batch", duration=10.0, walltime=50.0)
        scheduler.submit(job)
        assert job.state is JobState.RUNNING
        assert job.queue_wait == 0.0

    def test_unknown_partition_rejected(self):
        _, scheduler = make_scheduler()
        with pytest.raises(InvalidJobSpec):
            scheduler.submit(Job(user="u", partition="nope"))

    def test_too_many_nodes_rejected(self):
        _, scheduler = make_scheduler(nodes=2)
        with pytest.raises(InvalidJobSpec):
            scheduler.submit(Job(user="u", partition="batch", num_nodes=3))

    def test_excessive_walltime_rejected(self):
        _, scheduler = make_scheduler()
        with pytest.raises(InvalidJobSpec):
            scheduler.submit(
                Job(user="u", partition="batch", walltime=99_999.0)
            )

    def test_default_walltime_applied(self):
        _, scheduler = make_scheduler()
        job = Job(user="u", partition="batch", duration=1.0)
        scheduler.submit(job)
        assert job.walltime == 100.0

    def test_unknown_job_lookup_raises(self):
        _, scheduler = make_scheduler()
        with pytest.raises(JobNotFound):
            scheduler.job("ghost")


class TestCompletionAndWait:
    def test_job_completes_after_duration(self):
        clock, scheduler = make_scheduler()
        job = Job(user="u", partition="batch", duration=10.0, walltime=50.0)
        scheduler.submit(job)
        scheduler.wait_for(job.job_id)
        assert job.state is JobState.COMPLETED
        assert clock.now == pytest.approx(10.0)

    def test_walltime_kill(self):
        clock, scheduler = make_scheduler()
        job = Job(user="u", partition="batch", duration=200.0, walltime=50.0)
        scheduler.submit(job)
        scheduler.wait_for(job.job_id)
        assert job.state is JobState.TIMEOUT
        assert clock.now == pytest.approx(50.0)

    def test_fcfs_queueing(self, run_until_started):
        clock, scheduler = make_scheduler(nodes=1)
        first = Job(user="u", partition="batch", duration=10.0, walltime=20.0)
        second = Job(user="u", partition="batch", duration=10.0, walltime=20.0)
        scheduler.submit(first)
        scheduler.submit(second)
        assert second.state is JobState.PENDING
        run_until_started(scheduler, second)
        assert second.start_time == pytest.approx(10.0)
        assert second.queue_wait == pytest.approx(10.0)

    def test_pilot_runs_until_completed(self):
        clock, scheduler = make_scheduler()
        pilot = Job(user="u", partition="batch", duration=None, walltime=1000.0)
        scheduler.submit(pilot)
        clock.advance(500.0)
        assert pilot.state is JobState.RUNNING
        scheduler.complete(pilot.job_id)
        assert pilot.state is JobState.COMPLETED

    def test_pilot_walltime_timeout(self):
        clock, scheduler = make_scheduler()
        pilot = Job(user="u", partition="batch", duration=None, walltime=100.0)
        scheduler.submit(pilot)
        clock.advance(101.0)
        assert pilot.state is JobState.TIMEOUT

    def test_cancel_pending(self):
        _, scheduler = make_scheduler(nodes=1)
        blocker = Job(user="u", partition="batch", duration=50.0, walltime=60.0)
        queued = Job(user="u", partition="batch", duration=5.0, walltime=10.0)
        scheduler.submit(blocker)
        scheduler.submit(queued)
        scheduler.cancel(queued.job_id)
        assert queued.state is JobState.CANCELLED

    def test_cancel_running_frees_nodes(self):
        clock, scheduler = make_scheduler(nodes=1)
        running = Job(user="u", partition="batch", duration=50.0, walltime=60.0)
        queued = Job(user="u", partition="batch", duration=5.0, walltime=10.0)
        scheduler.submit(running)
        scheduler.submit(queued)
        scheduler.cancel(running.job_id)
        assert queued.state is JobState.RUNNING

    def test_fail_running_job(self):
        _, scheduler = make_scheduler()
        job = Job(user="u", partition="batch", duration=None, walltime=100.0)
        scheduler.submit(job)
        scheduler.fail(job.job_id)
        assert job.state is JobState.FAILED


class TestBackfill:
    def test_small_job_backfills_without_delaying_head(self, run_until_started):
        clock, scheduler = make_scheduler(nodes=2)
        # two 1-node jobs occupy the machine until t=100
        a = Job(user="u", partition="batch", duration=100.0, walltime=100.0)
        b = Job(user="u", partition="batch", duration=100.0, walltime=100.0)
        scheduler.submit(a)
        scheduler.submit(b)
        # head job needs both nodes: cannot start before t=100
        head = Job(
            user="u", partition="batch", num_nodes=2,
            duration=10.0, walltime=20.0,
        )
        scheduler.submit(head)
        # a 1-node job with walltime 50 fits before the head's shadow time
        filler = Job(user="u", partition="batch", duration=40.0, walltime=50.0)
        scheduler.submit(filler)
        assert filler.state is JobState.PENDING  # machine is full right now
        scheduler.cancel(a.job_id)  # frees one node at t=0
        assert filler.state is JobState.RUNNING  # backfilled
        assert head.state is JobState.PENDING
        run_until_started(scheduler, head)
        assert head.start_time == pytest.approx(100.0)

    def test_backfill_refused_if_it_would_delay_head(self, run_until_started):
        clock, scheduler = make_scheduler(nodes=2)
        a = Job(user="u", partition="batch", duration=100.0, walltime=100.0)
        scheduler.submit(a)
        head = Job(
            user="u", partition="batch", num_nodes=2,
            duration=10.0, walltime=20.0,
        )
        scheduler.submit(head)
        # one node is free, but this job's walltime crosses the head's
        # earliest start (t=100), so conservative backfill must refuse
        long_filler = Job(
            user="u", partition="batch", duration=150.0, walltime=150.0
        )
        scheduler.submit(long_filler)
        assert long_filler.state is JobState.PENDING
        run_until_started(scheduler, head)
        assert head.start_time == pytest.approx(100.0)


class TestUtilization:
    def test_utilization_and_free_nodes(self):
        _, scheduler = make_scheduler(nodes=4)
        scheduler.submit(
            Job(user="u", partition="batch", num_nodes=3, duration=10.0,
                walltime=20.0)
        )
        assert scheduler.utilization("batch") == pytest.approx(0.75)
        assert len(scheduler.free_nodes("batch")) == 1

    def test_queue_lists_pending_and_running(self):
        _, scheduler = make_scheduler(nodes=1)
        a = Job(user="u", partition="batch", duration=10.0, walltime=20.0)
        b = Job(user="u", partition="batch", duration=10.0, walltime=20.0)
        scheduler.submit(a)
        scheduler.submit(b)
        states = {j.job_id: j.state for j in scheduler.queue()}
        assert states[a.job_id] is JobState.RUNNING
        assert states[b.job_id] is JobState.PENDING

    def test_events_emitted(self):
        clock, scheduler = make_scheduler()
        job = Job(user="u", partition="batch", duration=5.0, walltime=10.0)
        scheduler.submit(job)
        scheduler.wait_for(job.job_id)
        kinds = [e.kind for e in scheduler.events]
        assert kinds == ["job.submitted", "job.started", "job.ended"]
