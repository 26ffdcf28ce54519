"""The KaMPIng artifact-evaluation scripts and container image.

The real AE ships bash scripts inside
``ghcr.io/kamping-site/kamping-reproducibility``; each script runs one
experiment and prints its result. Here each artifact is a container-baked
command (implemented in Python, registered via
:func:`register_artifact_commands`) that CORRECT invokes as one workflow
step (§6.3). Every artifact verifies correctness against a sequential
reference and checks the paper's headline ordering:
``plain ≈ kamping ≪ naive serializing``.

An artifact's input data set is a constant of the artifact, so each is
built once per process, on first use, as tuples at every level: a run
cannot change it. Every run still gathers, sorts or traverses, and
computes its own reference to compare against.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import chain
from typing import Callable, Dict, List, Tuple

from repro.apps.kamping.algorithms import (
    distributed_bfs,
    make_random_graph,
    sample_sort,
    sequential_bfs,
)
from repro.apps.kamping.bindings import (
    KampingBindings,
    NaiveSerializingBindings,
    PlainMPI,
)
from repro.apps.kamping.mpi import SimMPI
from repro.containers.image import ContainerImage
from repro.shellsim.result import CommandResult

KAMPING_IMAGE_REFERENCE = "ghcr.io/kamping-site/kamping-reproducibility:v1"

# the downscaled AE parameters (Chameleon-suitable, per the AE's README)
_AE_RANKS = 8
_AE_ELEMENTS_PER_RANK = 2000
_AE_GRAPH_NODES = 1200
_AE_GRAPH_DEGREE = 6


@cache
def _gather_inputs() -> Tuple[Tuple[int, ...], ...]:
    """ae-allgatherv-bench's ranges: rank ``r`` holds ``r .. r + 1999``.

    Slices of one tuple, so equal values share their int objects.
    """
    span = tuple(range(_AE_RANKS - 1 + _AE_ELEMENTS_PER_RANK))
    return tuple(
        span[rank:rank + _AE_ELEMENTS_PER_RANK] for rank in range(_AE_RANKS)
    )


@cache
def _sort_inputs() -> Tuple[Tuple[int, ...], ...]:
    """ae-sort-bench's keys: 2,000 per rank from ``Random(42)``."""
    rng = random.Random(42)
    return tuple(
        tuple(rng.randrange(10**6) for _ in range(_AE_ELEMENTS_PER_RANK))
        for _ in range(_AE_RANKS)
    )


@cache
def _bfs_graph() -> Tuple[Tuple[int, ...], ...]:
    """ae-bfs-bench's graph: item ``u`` holds node ``u``'s sorted
    neighbours, taken from one tuple of node ids."""
    nodes = tuple(range(_AE_GRAPH_NODES))
    graph = make_random_graph(_AE_GRAPH_NODES, _AE_GRAPH_DEGREE, seed=7)
    return tuple(tuple(nodes[v] for v in graph[u]) for u in nodes)


def _overhead_table(rows: List[Tuple[str, float, float]]) -> List[str]:
    lines = [f"{'layer':<20} {'wrapper(s)':>12} {'wire(s)':>12}"]
    lines.extend(
        f"{name:<20} {wrapper:>12.6f} {wire:>12.6f}"
        for name, wrapper, wire in rows
    )
    return lines


def ae_unit_tests(session, args: List[str]) -> CommandResult:
    """Artifact 1: KaMPIng unit tests (collective correctness)."""
    session.handle.compute(30.0)
    comm = SimMPI(_AE_RANKS)
    bindings = KampingBindings(comm)
    per_rank = [[rank * 10 + i for i in range(rank + 1)] for rank in range(_AE_RANKS)]
    expected = [v for chunk in per_rank for v in chunk]
    sends = [[[src, dst] for dst in range(_AE_RANKS)] for src in range(_AE_RANKS)]
    checks = {
        "allgatherv": all(
            result == expected for result in bindings.allgatherv(per_rank)
        ),
        "allreduce": bindings.allreduce(
            list(range(_AE_RANKS)), op=lambda a, b: a + b
        ) == [sum(range(_AE_RANKS))] * _AE_RANKS,
        "alltoall": comm.alltoall(sends)[3][5] == [5, 3],
    }
    failed = [name for name, ok in checks.items() if not ok]
    if not failed:
        return CommandResult.success(
            f"[AE] unit tests: {len(checks)} collective checks passed on "
            f"{_AE_RANKS} ranks"
        )
    lines = [
        f"[AE] unit tests: {len(checks) - len(failed)} of {len(checks)} "
        f"collective checks passed on {_AE_RANKS} ranks"
    ]
    lines.extend(f"[AE] {name}: INCORRECT RESULT" for name in failed)
    lines.append("[AE] verdict: FAIL")
    return CommandResult.failure("\n".join(lines), exit_code=1)


def ae_allgatherv_bench(session, args: List[str]) -> CommandResult:
    """Artifact 2: allgatherv micro-benchmark across binding layers,
    every rank's buffer verified against the concatenated inputs."""
    session.handle.compute(60.0, threads=4)
    per_rank = _gather_inputs()
    expected = list(chain.from_iterable(per_rank))
    rows: List[Tuple[str, float, float]] = []
    incorrect: List[str] = []
    for make in (PlainMPI, KampingBindings, NaiveSerializingBindings):
        comm = SimMPI(_AE_RANKS)
        layer = make(comm)
        for _ in range(10):
            if isinstance(layer, PlainMPI):
                counts = [len(c) for c in per_rank]
                displacements = []
                total = 0
                for count in counts:
                    displacements.append(total)
                    total += count
                result = layer.allgatherv(per_rank, counts, displacements)
            else:
                result = layer.allgatherv(per_rank)
        wrong = [rank for rank, buffer in enumerate(result) if buffer != expected]
        if wrong:
            incorrect.append(
                f"[AE] {layer.name}: INCORRECT GATHER on ranks {wrong}"
            )
        rows.append((layer.name, layer.stats.overhead_seconds, comm.cost.seconds))
    plain, kamping, naive = rows
    lines = ["[AE] allgatherv benchmark (10 iterations)"]
    lines.extend(_overhead_table(rows))
    lines.extend(incorrect)
    ok = (
        not incorrect
        and kamping[1] <= 3 * plain[1]  # near-zero overhead vs plain
        and naive[1] >= 10 * kamping[1]  # serializing wrapper loses big
    )
    lines.append(f"[AE] verdict: {'PASS' if ok else 'FAIL'} "
                 "(expected plain ~ kamping << naive)")
    return (
        CommandResult.success("\n".join(lines))
        if ok
        else CommandResult.failure("\n".join(lines), exit_code=1)
    )


def ae_sort_bench(session, args: List[str]) -> CommandResult:
    """Artifact 3: distributed sample sort, verified against sorted()."""
    session.handle.compute(120.0, threads=8)
    per_rank = _sort_inputs()
    flat_sorted = sorted(chain.from_iterable(per_rank))
    lines = ["[AE] sample sort benchmark"]
    ok = True
    timings: Dict[str, float] = {}
    for make in (KampingBindings, NaiveSerializingBindings):
        comm = SimMPI(_AE_RANKS)
        layer = make(comm)
        chunks = sample_sort(comm, layer, per_rank)
        merged = list(chain.from_iterable(chunks))
        if merged != flat_sorted:
            ok = False
            lines.append(f"[AE] {layer.name}: INCORRECT SORT")
        total = layer.stats.overhead_seconds + comm.cost.seconds
        timings[layer.name] = total
        lines.append(
            f"[AE] {layer.name}: total {total:.6f}s "
            f"(wrapper {layer.stats.overhead_seconds:.6f}s)"
        )
    if timings.get("kamping", 0) >= timings.get("naive-serializing", 0):
        ok = False
        lines.append("[AE] expected kamping to beat naive serializing")
    lines.append(f"[AE] verdict: {'PASS' if ok else 'FAIL'}")
    return (
        CommandResult.success("\n".join(lines))
        if ok
        else CommandResult.failure("\n".join(lines), exit_code=1)
    )


def ae_bfs_bench(session, args: List[str]) -> CommandResult:
    """Artifact 4: distributed BFS, verified against sequential BFS."""
    session.handle.compute(90.0, threads=8)
    graph = _bfs_graph()
    expected = sequential_bfs(graph, source=0)
    comm = SimMPI(_AE_RANKS)
    layer = KampingBindings(comm)
    distances = distributed_bfs(comm, layer, graph, source=0)
    ok = distances == expected
    lines = [
        "[AE] BFS benchmark",
        f"[AE] graph: {_AE_GRAPH_NODES} nodes, reached {len(distances)}",
        f"[AE] max level: {max(distances.values())}",
        f"[AE] comm time: {comm.cost.seconds:.6f}s over {comm.cost.calls} calls",
        f"[AE] verdict: {'PASS' if ok else 'FAIL'}",
    ]
    return (
        CommandResult.success("\n".join(lines))
        if ok
        else CommandResult.failure("\n".join(lines), exit_code=1)
    )


ARTIFACT_COMMANDS: Dict[str, Callable] = {
    "ae-unit-tests": ae_unit_tests,
    "ae-allgatherv-bench": ae_allgatherv_bench,
    "ae-sort-bench": ae_sort_bench,
    "ae-bfs-bench": ae_bfs_bench,
}


def kamping_image() -> ContainerImage:
    """The published reproducibility container."""
    return ContainerImage(
        reference=KAMPING_IMAGE_REFERENCE,
        files=(
            ("/opt/kamping/README.md", "KaMPIng artifact evaluation scripts\n"),
        ),
        commands=tuple(sorted(ARTIFACT_COMMANDS)),
        env=(("KAMPING_AE", "1"),),
        size_mb=850.0,
    )


def register_artifact_commands(target: Dict[str, Callable]) -> None:
    """Install the artifact implementations into an image-command registry
    (a :class:`~repro.world.World`'s ``services.image_commands``)."""
    target.update(ARTIFACT_COMMANDS)
