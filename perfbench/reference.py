"""A fixed reference workload that gauges how fast this host runs Python now.

The benchmark runs on shared hosts whose CPU speed drifts by tens of
percent, within seconds and over minutes, as other tenants come and go;
a run's medians remove outlier rounds but not a slowdown that lasts the
whole run. So the runner times a short slice of this workload on each
side of every round, and reports throughput in ops per *reference
second*: the round's wall time scaled by how fast the reference ran
beside it, relative to :data:`NOMINAL_UNITS_PER_S`.

The reference is shaped like the program's own hot path, so that a
slowdown of the host moves both alike: a discrete-event loop over a heap
of slotted events, per-task records in dicts, callbacks, string ids,
small JSON payloads and event records, over a working set of a few
thousand tasks (a smaller one fits the caches and then slows more than
the program when a neighbour contends for them). It uses only the
standard library and never imports ``repro``, so no change to the
program can move it; it runs with the cyclic collector off, so neither
can a change to the program's collector settings.
"""

from __future__ import annotations

import gc
import heapq
import json
from time import perf_counter
from typing import Callable, Dict, List

# reference units per second on an unloaded 2-vCPU Xeon guest with
# CPython 3.11; it sets only the scale of the normalized figures
NOMINAL_UNITS_PER_S = 25.0
TASKS_PER_UNIT = 4_000
QUEUES = 8


class _Event:
    __slots__ = ("time", "seq", "callback")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback


class _Task:
    __slots__ = (
        "task_id", "queue", "payload", "state", "submitted", "finished", "result",
    )

    def __init__(
        self, task_id: str, queue: int, payload: List[float], now: float
    ) -> None:
        self.task_id = task_id
        self.queue = queue
        self.payload = payload
        self.state = "PENDING"
        self.submitted = now
        self.finished = 0.0
        self.result = None


class _Loop:
    """Submit, enqueue, pump, complete: the same steps as a FaaS task."""

    def __init__(self) -> None:
        self.now = 0.0
        self.seq = 0
        self.heap: List[tuple] = []
        self.queues: Dict[int, List[_Task]] = {q: [] for q in range(QUEUES)}
        self.busy: Dict[int, bool] = {q: False for q in range(QUEUES)}
        self.records: List[Dict[str, object]] = []
        self.tasks: Dict[str, _Task] = {}

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        self.seq += 1
        event = _Event(when, self.seq, callback)
        heapq.heappush(self.heap, (event.time, event.seq, event))

    def emit(self, kind: str, **data: object) -> None:
        self.records.append({"time": self.now, "kind": kind, "data": data})

    def submit(self, index: int, seconds: float) -> _Task:
        task = _Task(f"task-{index:06d}", index % QUEUES, [index, seconds], self.now)
        self.tasks[task.task_id] = task
        self.emit("task.submitted", task_id=task.task_id, queue=task.queue)
        self.queues[task.queue].append(task)
        self.call_at(self.now, lambda q=task.queue: self.pump(q))
        return task

    def pump(self, queue: int) -> None:
        if self.busy[queue] or not self.queues[queue]:
            return
        task = self.queues[queue].pop()
        self.busy[queue] = True
        task.state = "RUNNING"
        self.call_at(self.now + task.payload[1], lambda: self.complete(task))

    def complete(self, task: _Task) -> None:
        task.result = json.loads(
            json.dumps({"index": task.payload[0], "value": task.payload[1]})
        )
        task.state = "SUCCESS" if task.result["index"] == task.payload[0] else "FAILED"
        task.finished = self.now
        self.busy[task.queue] = False
        self.emit("task.completed", task_id=task.task_id, state=task.state,
                  latency=task.finished - task.submitted)
        self.pump(task.queue)

    def drain(self) -> None:
        heap = self.heap
        while heap:
            event = heapq.heappop(heap)[2]
            if event.time > self.now:
                self.now = event.time
            event.callback()


def unit(salt: int) -> None:
    """One unit of reference work: ``TASKS_PER_UNIT`` tasks submitted and
    drained."""
    loop = _Loop()
    for index in range(TASKS_PER_UNIT):
        loop.submit(index, 1.0 + ((index * 7919 + salt) % 200) / 100.0)
    loop.drain()


def speed(units: int) -> float:
    """Reference units per second over ``units`` units.

    A fixed count, not a fixed time, so that the reference allocates the
    same on a fast host as on a slow one and cannot move the run's own
    memory and collector figures.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        for salt in range(units):
            unit(salt)
        return units / (perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
