"""Catalog of the paper's evaluation systems.

``CATALOG`` describes the four systems of §6, one entry each, and
:func:`make_site` builds a :class:`~repro.sites.site.Site` from an entry:

* **Chameleon CHI@TACC IceLake** — a dedicated bare-metal cloud instance
  (Xeon Platinum 8380). No batch scheduler, full outbound internet, Docker
  allowed. Fastest single-core in the fleet and zero queue wait, which is
  why it wins most Fig. 4 test cases.
* **TAMU FASTER** — Xeon 8352Y cluster. Batch-scheduled; compute nodes
  have **no outbound internet**; ``/home`` is login-only, so clones must
  land in ``/scratch``.
* **SDSC Expanse** — EPYC 7742 cluster. Same network restrictions as
  FASTER, lower single-core speed, busier queue.
* **Purdue Anvil** — EPYC Milan cluster used for the PSI/J experiment
  (§6.2), where tests run on the *login* node via a LocalProvider.

Relative ``cpu_speed`` values encode the public single-core ordering of
these processors; queue pressure is modeled with seeded background jobs.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.containers.registry import ContainerRegistry
from repro.envs.index import PackageIndex
from repro.scheduler.jobs import Job
from repro.scheduler.nodes import Partition, make_nodes
from repro.sites.filesystem import Mount, SimFileSystem
from repro.sites.hardware import HardwareProfile
from repro.sites.network import NetworkPolicy
from repro.sites.site import Site
from repro.telemetry import tracer_of
from repro.util.clock import SimClock
from repro.util.events import EventLog

# every batch partition is modeled with this many nodes
PARTITION_NODES = 16


class Batch(NamedTuple):
    """A site's Slurm partition. Its nodes take the compute profile's
    cores, memory and speed; background jobs free one node every
    ``stagger`` seconds."""

    partition: str
    node_prefix: str
    max_walltime: float
    stagger: float


class SiteSpec(NamedTuple):
    """One system of §6, as the simulation models it."""

    login: HardwareProfile
    login_count: int
    network: NetworkPolicy
    docker: bool = False
    compute: Optional[HardwareProfile] = None
    batch: Optional[Batch] = None
    home_login_only: bool = False


LOGIN = frozenset({"login"})
LOGIN_AND_COMPUTE = frozenset({"login", "compute"})

CATALOG: Dict[str, SiteSpec] = {
    # Xeon Platinum 8380 bare metal; Docker, because it is the user's own
    "chameleon": SiteSpec(
        login=HardwareProfile(cpu_speed=1.35, cores_per_node=64,
                              memory_gb=256, io_bandwidth=2.0,
                              launch_overhead=0.3),
        login_count=1,
        network=NetworkPolicy(LOGIN, latency_to_cloud=0.02,
                              clone_bandwidth_mbps=100.0),
        docker=True,
    ),
    # Xeon 8352Y; compute nodes lack outbound internet, /home is login-only
    "faster": SiteSpec(
        login=HardwareProfile(cpu_speed=1.0, cores_per_node=32,
                              memory_gb=128, launch_overhead=0.6),
        login_count=2,
        network=NetworkPolicy(LOGIN, latency_to_cloud=0.06,
                              clone_bandwidth_mbps=40.0),
        compute=HardwareProfile(cpu_speed=1.0, cores_per_node=64,
                                memory_gb=256, io_bandwidth=1.5,
                                launch_overhead=0.6),
        batch=Batch("normal", "faster-c", 48 * 3600, stagger=150.0),
        home_login_only=True,
    ),
    # EPYC 7742; FASTER's restrictions, slower single-core, busier queue
    "expanse": SiteSpec(
        login=HardwareProfile(cpu_speed=0.85, cores_per_node=32,
                              memory_gb=128, launch_overhead=0.8),
        login_count=2,
        network=NetworkPolicy(LOGIN, latency_to_cloud=0.05,
                              clone_bandwidth_mbps=40.0),
        compute=HardwareProfile(cpu_speed=0.85, cores_per_node=128,
                                memory_gb=256, io_bandwidth=1.2,
                                launch_overhead=0.8),
        batch=Batch("compute", "exp-c", 48 * 3600, stagger=240.0),
        home_login_only=True,
    ),
    # EPYC Milan; PSI/J CI runs on its login nodes (§6.2)
    "anvil": SiteSpec(
        login=HardwareProfile(cpu_speed=0.95, cores_per_node=64,
                              memory_gb=256, launch_overhead=0.7),
        login_count=2,
        network=NetworkPolicy(LOGIN_AND_COMPUTE, latency_to_cloud=0.05,
                              clone_bandwidth_mbps=60.0),
        compute=HardwareProfile(cpu_speed=0.95, cores_per_node=128,
                                memory_gb=256, io_bandwidth=1.2,
                                launch_overhead=0.7),
        batch=Batch("shared", "anvil-c", 96 * 3600, stagger=180.0),
    ),
}


def make_site(
    name: str,
    clock: SimClock,
    package_index: Optional[PackageIndex] = None,
    container_registries: Optional[List[ContainerRegistry]] = None,
    events: Optional[EventLog] = None,
    background_load: bool = True,
) -> Site:
    """Build a catalog site by name.

    ``background_load`` keeps a batch site's partition saturated with
    production jobs; it means nothing on a site without a scheduler.
    """
    try:
        spec = CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown site {name!r}; choices: {sorted(CATALOG)}"
        ) from None
    batch, compute = spec.batch, spec.compute
    profiles = {"login": spec.login}
    partitions = None
    if batch is not None:
        profiles["compute"] = compute
        partitions = [Partition(
            name=batch.partition,
            nodes=make_nodes(batch.node_prefix, PARTITION_NODES,
                             compute.cores_per_node, compute.memory_gb,
                             speed=compute.cpu_speed),
            max_walltime=batch.max_walltime,
            default_walltime=3600,
        )]
    site = Site(
        name=name,
        clock=clock,
        profiles=profiles,
        login_count=spec.login_count,
        partitions=partitions,
        network=spec.network,
        mounts=_login_only_home(name) if spec.home_login_only else None,
        package_index=package_index,
        container_registries=container_registries,
        allow_privileged_daemon=spec.docker,
        events=events,
    )
    if batch is not None and background_load:
        _add_background_load(site, batch.stagger)
    return site


def _login_only_home(name: str) -> List[Mount]:
    """FASTER/Expanse-style mounts: /home is login-only."""
    return [
        Mount("/home", SimFileSystem(f"{name}-home"), LOGIN),
        Mount("/scratch", SimFileSystem(f"{name}-scratch"), LOGIN_AND_COMPUTE),
        Mount("/tmp", SimFileSystem(f"{name}-tmp"), LOGIN_AND_COMPUTE),
    ]


def _add_background_load(site: Site, stagger: float, waves: int = 30) -> None:
    """Keep the default partition saturated with synthetic production jobs.

    All nodes start busy with staggered end times, and every completed
    background job immediately resubmits a long follow-up, so in steady
    state one node frees every ``stagger`` seconds indefinitely. A
    one-node pilot submitted at time *t* therefore waits up to ``stagger``
    seconds (FCFS puts it ahead of the replacement job) — a deterministic
    stand-in for production queue pressure. ``waves`` bounds the total
    number of background jobs so simulations terminate.
    """
    scheduler = site.scheduler
    partition = scheduler.default_partition
    nodes = partition.node_count
    cycle = stagger * nodes
    budget = {"remaining": nodes * waves}

    def resubmit(_job: Job) -> None:
        if budget["remaining"] <= 0:
            return
        budget["remaining"] -= 1
        # on_end fires under whatever trace context is active at the
        # predecessor's completion; detach so synthetic load never
        # parents into a CI trace
        with tracer_of(site.clock).activate(None):
            scheduler.submit(
                Job(
                    user="background",
                    partition=partition.name,
                    num_nodes=1,
                    walltime=cycle,
                    duration=cycle,
                    name="bg-follow",
                    on_end=resubmit,
                )
            )

    for i in range(nodes):
        duration = stagger * (i + 1)
        scheduler.submit(
            Job(
                user="background",
                partition=partition.name,
                num_nodes=1,
                walltime=duration,
                duration=duration,
                name=f"bg-{i:03d}",
                on_end=resubmit,
            )
        )
