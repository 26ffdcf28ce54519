"""Correctness checks the benchmark applies to every round it runs.

Invariants on every FaaS workload, taken from outside the program:

* each future resolves exactly once (a counting guard on the future's
  resolve step records any second resolution; the program's own
  ``RuntimeError`` is raised as before);
* each task's terminal state agrees with its future's outcome;
* at idle, submitted = succeeded + failed + refused + shed + cancelled,
  counted from the event log, and every task has exactly one terminal
  event;
* every successful result equals its input.

:func:`import_violations` is the guard that the benchmark's own files
import nothing from ``repro.experiments`` or ``repro.cli``.
"""

from __future__ import annotations

import ast
import math
import os
from collections import Counter
from typing import Any, Iterable, List, Sequence, Tuple

FORBIDDEN_IMPORTS = ("repro.experiments", "repro.cli")


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class ResolutionGuard:
    """Counts resolutions of already-resolved futures, process-wide.

    Installed once at class level on ``repro.faas.future.Future``; the
    original resolve still runs (and still raises), so the program
    behaves exactly as without the guard.
    """

    def __init__(self) -> None:
        self.double = 0

    def install(self) -> "ResolutionGuard":
        from repro.faas.future import Future

        original = Future._resolve
        guard = self

        def _resolve(future, result=None, exception=None):
            if future.done():
                guard.double += 1
            return original(future, result, exception)

        Future._resolve = _resolve
        return self


def check_futures(
    futures: Sequence[Any], events: Any, inputs: Sequence[Any]
) -> Tuple[List[str], int]:
    """Check one drained world; returns (violations, ops with a bad outcome)."""
    from repro.errors import AdmissionRejected, TaskCancelled

    violations: List[str] = []
    bad = 0
    outcomes: Counter = Counter()
    disagree = wrong_results = 0
    for index, future in enumerate(futures):
        if not future.done():
            bad += 1
            continue
        error = future.exception()
        state = future.task.state.value
        if error is None:
            outcome, expected_state = "succeeded", "SUCCESS"
            if future.result() != inputs[index]:
                wrong_results += 1
                bad += 1
        elif isinstance(error, TaskCancelled):
            outcome, expected_state = "cancelled", "CANCELLED"
        elif isinstance(error, AdmissionRejected):
            outcome = "shed" if error.reason == "shed" else "refused"
            expected_state = "FAILED"
        else:
            outcome, expected_state = "failed", "FAILED"
        outcomes[outcome] += 1
        if state != expected_state:
            disagree += 1
            bad += 1
    unresolved = len(futures) - sum(outcomes.values())
    if unresolved:
        violations.append(f"{unresolved} of {len(futures)} futures unresolved at idle")
    if disagree:
        violations.append(f"{disagree} tasks whose terminal state disagrees with their future")
    if wrong_results:
        violations.append(f"{wrong_results} results differ from their inputs")

    submitted = events.query("faas", "task.submitted")
    completed = events.query("faas", "task.completed")
    cancelled = events.query("faas", "task.cancelled")
    terminal = Counter(e.data["task_id"] for e in completed)
    terminal.update(e.data["task_id"] for e in cancelled)
    repeated = sum(1 for count in terminal.values() if count > 1)
    if repeated:
        violations.append(f"{repeated} tasks reached a terminal state more than once")
    states = Counter(e.data["state"] for e in completed)
    reasons = Counter(
        "shed" if e.data.get("reason") == "shed" else "refused"
        for e in events.query("faas", "task.rejected")
    )
    logged = {
        "succeeded": states["SUCCESS"],
        "failed": states["FAILED"] - reasons["refused"] - reasons["shed"],
        "refused": reasons["refused"],
        "shed": reasons["shed"],
        "cancelled": len(cancelled),
    }
    if len(submitted) != sum(logged.values()):
        violations.append(
            f"tasks not conserved: {len(submitted)} submitted, terminal {logged}"
        )
    if len(submitted) != len(futures):
        violations.append(
            f"{len(submitted)} submissions logged for {len(futures)} futures"
        )
    if any(outcomes[key] != logged[key] for key in logged) and not unresolved:
        violations.append(
            f"future outcomes {dict(outcomes)} disagree with the event log {logged}"
        )
    return violations, bad


def _imported_modules(tree: ast.AST) -> Iterable[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def forbidden_imports(source: str, filename: str) -> List[str]:
    """Imports of ``repro.experiments`` or ``repro.cli`` in one source."""
    return [
        f"{filename} imports {module}"
        for module in _imported_modules(ast.parse(source, filename=filename))
        if any(
            module == banned or module.startswith(banned + ".")
            for banned in FORBIDDEN_IMPORTS
        )
    ]


def import_violations(directory: str) -> List[str]:
    """Forbidden imports in the benchmark's own Python files."""
    found: List[str] = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                found += forbidden_imports(fh.read(), name)
    return found
