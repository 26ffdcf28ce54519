"""Resource providers: how an executor obtains nodes."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import ExecutorError
from repro.faults.injector import injector_of
from repro.scheduler.jobs import Job, JobState
from repro.scheduler.nodes import Node
from repro.sites.site import Site

# seconds of process spin-up before a login-node block is usable
STARTUP_OVERHEAD = 2.0


@dataclass
class Block:
    """One provisioned allocation: nodes plus lifecycle bookkeeping."""

    nodes: List[Node]
    node_class: str
    job_id: Optional[str] = None  # batch job backing this block, if any
    active: bool = True
    started_at: float = 0.0
    queue_wait: float = 0.0


class Provider(abc.ABC):
    """Provisions blocks of nodes on a site for one user.

    Provisioning never blocks virtual time: :meth:`start_block_async`
    hands the block over from a clock event or a scheduler start
    callback, so a queue wait on one site overlaps with work everywhere
    else.
    """

    def __init__(self, site: Site, user: str) -> None:
        self.site = site
        self.user = user

    @abc.abstractmethod
    def start_block_async(
        self,
        on_ready: Callable[[Block], None],
        on_error: Callable[[BaseException], None],
    ) -> None:
        """Provision one block; ``on_ready(block)`` fires once it is usable.

        A provisioning failure (an armed provision flake) goes to
        ``on_error(exc)``.
        """

    def _provision_fault(self) -> Optional[BaseException]:
        """Armed provision flake for this site, if any (else ``None``)."""
        return injector_of(self.site.clock).provision_error_for(self.site.name)

    @abc.abstractmethod
    def release_block(self, block: Block) -> None:
        """Return the block's resources."""


class LocalProvider(Provider):
    """Runs on the login node itself — no scheduler involved.

    Used for operations that need outbound network on restricted sites
    (cloning the repository, §6.1) and for login-node test suites like
    PSI/J's (§6.2). A block is usable :data:`STARTUP_OVERHEAD` seconds
    after it is asked for.
    """

    def _make_block(self) -> Block:
        return Block(
            nodes=[self.site.login_nodes[0]],
            node_class="login",
            started_at=self.site.clock.now,
            queue_wait=0.0,
        )

    def start_block_async(
        self,
        on_ready: Callable[[Block], None],
        on_error: Callable[[BaseException], None],
    ) -> None:
        fault = self._provision_fault()
        if fault is not None:
            on_error(fault)
            return
        self.site.clock.call_after(
            STARTUP_OVERHEAD, lambda: on_ready(self._make_block())
        )

    def release_block(self, block: Block) -> None:
        block.active = False


class SlurmProvider(Provider):
    """Provisions blocks through the site's batch scheduler.

    Submits an open-ended pilot job and hands the block over when the
    scheduler starts it; the queue wait is recorded on the block so
    experiments can report it separately from execution time.
    """

    def __init__(
        self,
        site: Site,
        user: str,
        partition: str,
        nodes_per_block: int = 1,
        walltime: float = 3600.0,
    ) -> None:
        super().__init__(site, user)
        if not site.has_scheduler:
            raise ExecutorError(
                f"site {site.name} has no batch scheduler; use LocalProvider"
            )
        self.partition = partition
        self.nodes_per_block = nodes_per_block
        self.walltime = walltime

    def _pilot_job(self) -> Job:
        return Job(
            user=self.user,
            partition=self.partition,
            num_nodes=self.nodes_per_block,
            walltime=self.walltime,
            duration=None,  # pilot: open-ended
            name=f"pilot-{self.user}",
        )

    def _block_from_job(self, job: Job) -> Block:
        return Block(
            nodes=list(job.allocated_nodes),
            node_class="compute",
            job_id=job.job_id,
            started_at=self.site.clock.now,
            queue_wait=job.queue_wait or 0.0,
        )

    def start_block_async(
        self,
        on_ready: Callable[[Block], None],
        on_error: Callable[[BaseException], None],
    ) -> None:
        """Submit the pilot and hand the block over when the job starts.

        Uses the scheduler's :meth:`notify_start` completion callback, so
        the queue wait is spent as pending events on the shared clock —
        other endpoints keep dispatching while this pilot queues.
        """
        fault = self._provision_fault()
        if fault is not None:
            on_error(fault)
            return
        scheduler = self.site.scheduler
        job = self._pilot_job()
        job_id = scheduler.submit(job)
        scheduler.notify_start(
            job_id, lambda started: on_ready(self._block_from_job(started))
        )

    def release_block(self, block: Block) -> None:
        if block.job_id is not None:
            scheduler = self.site.scheduler
            job = scheduler.job(block.job_id)
            if job.state is JobState.RUNNING:
                scheduler.complete(block.job_id)
        block.active = False
