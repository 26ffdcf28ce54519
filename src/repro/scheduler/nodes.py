"""Compute nodes and partitions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass
class Node:
    """One compute node.

    ``speed`` is a relative performance factor used by the site cost model
    (1.0 = reference core). Nodes also carry a class tag used by network
    policy ("login" nodes may reach the internet where "compute" nodes on
    FASTER/Expanse may not — paper §6.1).
    """

    name: str
    cores: int
    memory_gb: float
    speed: float = 1.0
    node_class: str = "compute"


@dataclass
class Partition:
    """A named group of nodes with a walltime ceiling."""

    name: str
    nodes: List[Node]
    max_walltime: float = 48 * 3600.0
    default_walltime: float = 3600.0

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError(f"partition {self.name!r} has no nodes")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in partition {self.name!r}")

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def make_nodes(
    prefix: str,
    count: int,
    cores: int,
    memory_gb: float,
    speed: float = 1.0,
    node_class: str = "compute",
) -> List[Node]:
    """Convenience constructor for a homogeneous rack of nodes."""
    if count <= 0:
        raise ValueError("count must be positive")
    return [
        Node(
            name=f"{prefix}{i:04d}",
            cores=cores,
            memory_gb=memory_gb,
            speed=speed,
            node_class=node_class,
        )
        for i in range(1, count + 1)
    ]
