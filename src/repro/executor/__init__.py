"""Pilot-job execution (Parsl-style).

Globus Compute endpoints use Parsl to provision resources through
*providers* and run tasks on long-lived *pilot* allocations instead of
requesting an allocation per task (paper §5.1, §7.3). A
:class:`LocalProvider` runs directly on the login node; a
:class:`SlurmProvider` submits an open-ended batch job whose block is
usable once it starts — paying the queue wait once, after which tasks on
the pilot are cheap. The ablation benchmark quantifies exactly this amortization.
"""

from repro.executor.providers import Provider, LocalProvider, SlurmProvider, Block
from repro.executor.pilot import PilotExecutor

__all__ = ["Provider", "LocalProvider", "SlurmProvider", "Block", "PilotExecutor"]
