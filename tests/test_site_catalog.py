"""The four catalog sites as built, pinned across commits.

The pinned reports see only what a report prints and the event-stream
pins see only what a run logs, so neither notices a site that gains a
node, loses a mount or changes a walltime limit nobody exercises. This
test builds the paper's four systems in one ``World(telemetry=False)``,
in catalog order, and hashes one ``repr`` line per site covering:

* its hardware profiles and login nodes;
* each partition its scheduler was built with: every node's name,
  cores, memory and speed, and the walltime limits;
* its network policy;
* its mounts (path, filesystem name, node classes);
* its container runtime names and whether Docker is allowed.

It also hashes the world's event stream after the four builds, which
records every background job the sites submit, the same way
``tests/test_event_streams.py`` does. Line counts and SHA-256 digests
are compared with ``tests/data/site_catalog.json``. Sets are sorted
before ``repr``, so the digests do not depend on ``PYTHONHASHSEED``.

Regenerate (only when a site changes on purpose) with::

    PYTHONPATH=src python -m tests.test_site_catalog tests/data
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from repro.scheduler.nodes import Partition
from repro.scheduler.slurm import SlurmScheduler
from repro.world import World
from tests.test_event_streams import stream_digest

PINNED = Path(__file__).parent / "data" / "site_catalog.json"

CATALOG_ORDER = ("chameleon", "faster", "expanse", "anvil")


def build_catalog() -> Tuple[World, Dict[SlurmScheduler, List[Partition]]]:
    """Build the four sites in one world, recording the partitions each
    site's scheduler was built with."""
    built: Dict[SlurmScheduler, List[Partition]] = {}
    original = SlurmScheduler.__init__

    def recording_init(scheduler, clock, partitions, *args, **kwargs):
        built[scheduler] = list(partitions)
        original(scheduler, clock, partitions, *args, **kwargs)

    SlurmScheduler.__init__ = recording_init
    try:
        world = World(telemetry=False)
        for name in CATALOG_ORDER:
            world.site(name)
    finally:
        SlurmScheduler.__init__ = original
    return world, built


def site_line(site, partitions: List[Partition]) -> str:
    """One ``repr`` line describing a built site."""
    network = site.network
    return repr((
        site.name,
        sorted(site.profiles.items()),
        site.login_nodes,
        site.scheduler.name if site.scheduler else None,
        [(p.name, p.nodes, p.max_walltime, p.default_walltime)
         for p in partitions],
        (sorted(network.outbound_internet), network.latency_to_cloud,
         network.clone_bandwidth_mbps),
        [(m.prefix, m.fs.name, sorted(m.node_classes))
         for m in site.mounts.mounts()],
        sorted(site.container_runtimes),
        site.allow_privileged_daemon,
    ))


def compute_digests() -> dict:
    world, built = build_catalog()
    digest = hashlib.sha256()
    for name in CATALOG_ORDER:
        site = world.sites[name]
        line = site_line(site, built.get(site.scheduler, []))
        digest.update(line.encode("utf-8") + b"\n")
    return {
        "sites": {"lines": len(CATALOG_ORDER), "sha256": digest.hexdigest()},
        "events": stream_digest(world.events),
    }


def test_catalog_sites_match_pinned():
    assert compute_digests() == json.loads(PINNED.read_text())


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else PINNED.parent
    target.mkdir(parents=True, exist_ok=True)
    text = json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n"
    (target / PINNED.name).write_text(text)
