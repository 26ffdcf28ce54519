"""Distributed algorithms used by the KaMPIng artifact benchmarks.

Real algorithms over the simulated MPI layer: a sample sort (the AE's
sorting benchmark) and a distributed breadth-first search (the AE's BFS
benchmark). Both verify against sequential references in the artifacts.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import chain
from typing import Dict, List, Mapping, Sequence, Set, Union

from repro.apps.kamping.mpi import SimMPI

# neighbours by node id: make_random_graph's dict, or a sequence whose
# item ``u`` holds node ``u``'s neighbours
Adjacency = Union[Mapping[int, Sequence[int]], Sequence[Sequence[int]]]


def sample_sort(
    comm: SimMPI, bindings, per_rank: Sequence[Sequence[int]]
) -> List[List[int]]:
    """Distributed sample sort; returns per-rank globally-sorted chunks.

    ``bindings`` must expose ``allgatherv`` and ``alltoall`` (any of the
    three binding layers).

    A value goes to the first bucket whose splitter is >= the value (the
    last bucket when none is). Each rank cuts its sorted chunk at
    ``bisect_right(chunk, s)`` for each splitter ``s`` and sends the
    slices between consecutive cuts. That is the same partition, because
    the splitters never decrease: they are taken in order from sorted
    samples, and padding repeats the last splitter (or 0).
    """
    p = comm.comm_size
    local_sorted = [sorted(chunk) for chunk in per_rank]
    if p == 1:
        return [list(local_sorted[0])]

    # 1. each rank contributes p-1 regular samples
    samples_per_rank: List[List[int]] = []
    for chunk in local_sorted:
        if not chunk:
            samples_per_rank.append([])
            continue
        step = max(1, len(chunk) // p)
        samples_per_rank.append(chunk[step::step][: p - 1])
    all_samples = bindings.allgatherv(samples_per_rank)[0]
    all_samples.sort()

    # 2. choose p-1 splitters from the gathered samples
    if all_samples:
        stride = max(1, len(all_samples) // p)
        splitters = all_samples[stride::stride][: p - 1]
    else:
        splitters = []
    while len(splitters) < p - 1:
        splitters.append(splitters[-1] if splitters else 0)

    # 3. cut each sorted chunk into splitter buckets, exchange alltoall
    sends: List[List[List[int]]] = []
    for chunk in local_sorted:
        cuts = [0, *(bisect_right(chunk, s) for s in splitters), len(chunk)]
        sends.append([chunk[lo:hi] for lo, hi in zip(cuts, cuts[1:])])
    received = bindings.alltoall(sends)

    # 4. local merge
    return [sorted(chain.from_iterable(received[rank])) for rank in range(p)]


def make_random_graph(nodes: int, degree: int, seed: int = 0) -> Dict[int, List[int]]:
    """A connected undirected graph: a ring plus random chords."""
    if nodes < 2:
        raise ValueError("need at least 2 nodes")
    rng = random.Random(seed)
    adjacency: Dict[int, Set[int]] = {u: set() for u in range(nodes)}
    for u in range(nodes):  # ring guarantees connectivity
        v = (u + 1) % nodes
        adjacency[u].add(v)
        adjacency[v].add(u)
    for _ in range(nodes * max(0, degree - 2) // 2):
        u = rng.randrange(nodes)
        v = rng.randrange(nodes)
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return {u: sorted(vs) for u, vs in adjacency.items()}


def distributed_bfs(
    comm: SimMPI,
    bindings,
    graph: Adjacency,
    source: int = 0,
) -> Dict[int, int]:
    """Level-synchronous BFS with the graph partitioned by ``node % p``.

    Each round, ranks expand their local frontier and exchange discovered
    vertices with the owning ranks via alltoall. Returns distances.
    """
    p = comm.comm_size
    owner = lambda node: node % p  # noqa: E731 - tiny partition function
    distances: Dict[int, int] = {source: 0}
    frontiers: List[List[int]] = [
        [source] if owner(source) == rank else [] for rank in range(p)
    ]
    level = 0
    while any(frontiers):
        level += 1
        sends: List[List[List[int]]] = [
            [[] for _ in range(p)] for _ in range(p)
        ]
        for rank in range(p):
            for node in frontiers[rank]:
                for neighbor in graph[node]:
                    sends[rank][owner(neighbor)].append(neighbor)
        received = bindings.alltoall(sends)
        frontiers = []
        for rank in range(p):
            new_frontier: List[int] = []
            for chunk in received[rank]:
                for node in chunk:
                    if node not in distances:
                        distances[node] = level
                        new_frontier.append(node)
            frontiers.append(sorted(set(new_frontier)))
    return distances


def sequential_bfs(graph: Adjacency, source: int = 0) -> Dict[int, int]:
    """Reference BFS for verification."""
    distances = {source: 0}
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        next_frontier: List[int] = []
        for node in frontier:
            for neighbor in graph[node]:
                if neighbor not in distances:
                    distances[neighbor] = level
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return distances
