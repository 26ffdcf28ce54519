"""Simulated computing sites.

A :class:`Site` bundles everything CORRECT touches at a remote system:
login and compute nodes, a batch scheduler, filesystems (home + scratch),
network policy (which node classes may reach the internet), a hardware
performance model, container runtimes, and per-user conda installations.

:mod:`repro.sites.catalog` describes the four systems from the paper's
evaluation in one table, ``CATALOG``: Chameleon CHI@TACC (IceLake), TAMU
FASTER, SDSC Expanse, and Purdue Anvil. :func:`make_site` builds a site
from its entry.
"""

from repro.sites.hardware import HardwareProfile
from repro.sites.filesystem import SimFileSystem, Mount
from repro.sites.network import NetworkPolicy
from repro.sites.site import Site, NodeHandle
from repro.sites.catalog import CATALOG, make_site

__all__ = [
    "HardwareProfile",
    "SimFileSystem",
    "Mount",
    "NetworkPolicy",
    "Site",
    "NodeHandle",
    "CATALOG",
    "make_site",
]
