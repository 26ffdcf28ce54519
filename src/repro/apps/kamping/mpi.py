"""A simulated MPI layer with a hockney (alpha-beta) cost model.

Collectives operate lockstep on per-rank data: the caller passes a list
of length ``comm_size`` (one entry per rank) and receives per-rank
results, with correctness identical to real MPI semantics. Every call
accumulates modeled communication time:

``t = alpha * ceil(log2(p)) + beta * bytes_moved``

so benchmark artifacts report realistic relative costs while remaining
deterministic. This is the substrate for the KaMPIng binding layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence, Tuple

# defaults roughly model an HDR InfiniBand fabric
DEFAULT_ALPHA = 2.0e-6  # per-message latency, seconds
DEFAULT_BETA = 1.0e-8  # per-byte transfer time, seconds (~100 GB/s aggregate)
_ELEMENT_BYTES = 8  # we model 64-bit elements


@dataclass
class CommCost:
    """Accumulated communication accounting."""

    seconds: float = 0.0
    bytes_moved: int = 0
    calls: int = 0

    def charge(self, seconds: float, nbytes: int) -> None:
        self.seconds += seconds
        self.bytes_moved += nbytes
        self.calls += 1


class SimMPI:
    """A communicator over ``comm_size`` simulated ranks."""

    def __init__(
        self,
        comm_size: int,
        alpha: float = DEFAULT_ALPHA,
        beta: float = DEFAULT_BETA,
    ) -> None:
        if comm_size < 1:
            raise ValueError("comm_size must be >= 1")
        self.comm_size = comm_size
        self.alpha = alpha
        self.beta = beta
        self.cost = CommCost()

    # -- cost model -----------------------------------------------------------
    def _charge(self, total_elements: int, rounds: int = 0) -> None:
        rounds = rounds or max(1, math.ceil(math.log2(max(2, self.comm_size))))
        nbytes = total_elements * _ELEMENT_BYTES
        self.cost.charge(self.alpha * rounds + self.beta * nbytes, nbytes)

    def _check(self, per_rank: Sequence[Any]) -> None:
        if len(per_rank) != self.comm_size:
            raise ValueError(
                f"expected {self.comm_size} per-rank entries, got {len(per_rank)}"
            )

    # -- collectives ---------------------------------------------------------
    def barrier(self) -> None:
        self._charge(0)

    def bcast(self, value: Any, root: int = 0) -> List[Any]:
        if not 0 <= root < self.comm_size:
            raise ValueError(f"bad root {root}")
        self._charge(_flat_len(value) * (self.comm_size - 1))
        return [value for _ in range(self.comm_size)]

    def gather(self, per_rank: Sequence[Any], root: int = 0) -> List[Any]:
        """Rank ``root`` receives the list; others receive ``None``."""
        self._check(per_rank)
        self._charge(sum(_flat_len(v) for v in per_rank))
        return [
            list(per_rank) if rank == root else None
            for rank in range(self.comm_size)
        ]

    def scatter(self, values: Sequence[Any], root: int = 0) -> List[Any]:
        self._check(values)
        self._charge(sum(_flat_len(v) for v in values))
        return list(values)

    def allgather(self, per_rank: Sequence[Any]) -> List[List[Any]]:
        self._check(per_rank)
        self._charge(sum(_flat_len(v) for v in per_rank) * 2)
        gathered = list(per_rank)
        return [list(gathered) for _ in range(self.comm_size)]

    def allgatherv(self, per_rank: Sequence[Sequence[Any]]) -> List[List[Any]]:
        """Variable-count allgather: every rank gets the concatenation.

        Rank 0 receives the freshly gathered list and every other rank a
        copy of it, so each rank owns a distinct list that aliases neither
        the input nor another rank's.
        """
        self._check(per_rank)
        flat: List[Any] = []
        for chunk in per_rank:
            flat.extend(chunk)
        self._charge(len(flat) * 2)
        return [flat] + [list(flat) for _ in range(self.comm_size - 1)]

    def alltoall(self, per_rank: Sequence[Sequence[Sequence[Any]]]) -> List[List[List[Any]]]:
        """``per_rank[i][j]`` = data rank i sends to rank j."""
        self._check(per_rank)
        total = 0
        for sends in per_rank:
            if len(sends) != self.comm_size:
                raise ValueError("each rank must provide comm_size send lists")
            total += sum(len(chunk) for chunk in sends)
        self._charge(total, rounds=self.comm_size - 1 if self.comm_size > 1 else 1)
        return [
            [list(per_rank[src][dst]) for src in range(self.comm_size)]
            for dst in range(self.comm_size)
        ]

    def sendrecv(
        self, sends: Sequence[Tuple[int, Any]]
    ) -> List[List[Any]]:
        """Lockstep point-to-point exchange.

        ``sends[i] = (dest, payload)`` is rank *i*'s send; the result is a
        per-rank list of payloads received this step, ordered by source
        rank — matched send/recv semantics without deadlock modeling.
        """
        self._check(sends)
        received: List[List[Any]] = [[] for _ in range(self.comm_size)]
        total = 0
        for source, (dest, payload) in enumerate(sends):
            if not 0 <= dest < self.comm_size:
                raise ValueError(f"rank {source} sends to bad rank {dest}")
            received[dest].append(payload)
            total += _flat_len(payload)
        self._charge(total, rounds=1)
        return received

    def reduce(
        self,
        per_rank: Sequence[Any],
        op: Callable[[Any, Any], Any],
        root: int = 0,
    ) -> List[Any]:
        self._check(per_rank)
        self._charge(sum(_flat_len(v) for v in per_rank))
        accumulator = per_rank[0]
        for value in per_rank[1:]:
            accumulator = op(accumulator, value)
        return [
            accumulator if rank == root else None
            for rank in range(self.comm_size)
        ]

    def allreduce(
        self, per_rank: Sequence[Any], op: Callable[[Any, Any], Any]
    ) -> List[Any]:
        reduced = self.reduce(per_rank, op, root=0)[0]
        self._charge(_flat_len(reduced) * (self.comm_size - 1))
        return [reduced for _ in range(self.comm_size)]


def _flat_len(value: Any) -> int:
    if isinstance(value, (list, tuple)):
        return sum(_flat_len(v) for v in value)
    return 1
