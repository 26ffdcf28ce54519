"""Executable test suites.

A :class:`TestSuite` is the simulation's equivalent of a pytest test
directory: an ordered list of :class:`TestCase` items, each of which runs
real Python against a :class:`SuiteContext` and either returns (pass) or
raises (fail). Virtual duration per test is ``launch share + work /
site speed``, so the same suite yields different timings on different
sites — the mechanism behind Fig. 4.
"""

from __future__ import annotations

import enum
import importlib
import json
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ShellError
from repro.faults.injector import injector_of


@dataclass
class SuiteContext:
    """What a test case may touch: the node handle, cwd files, shell env."""

    handle: object  # NodeHandle; typed loosely to avoid an import cycle
    cwd: str
    env: Dict[str, str]

    def read_file(self, relpath: str) -> str:
        return self.handle.fs_read(f"{self.cwd}/{relpath}")

    def file_exists(self, relpath: str) -> bool:
        return self.handle.fs_exists(f"{self.cwd}/{relpath}")


def check(condition: object, message: str = "") -> None:
    """A suite case's check: raise :class:`AssertionError` unless
    ``condition`` holds. Unlike ``assert`` it is never stripped by
    ``python -O``; :meth:`TestSuite.run` reports it as FAILED with
    ``message`` (or ``assertion failed``)."""
    if not condition:
        raise AssertionError(message)


@dataclass
class TestCase:
    """One test: a name, an abstract cost, and a real check function.

    ``work`` is in reference-core seconds; ``fn`` receives a
    :class:`SuiteContext` and raises on failure (``AssertionError``, as
    :func:`check` does, or any exception). ``threads`` lets heavyweight
    cases exploit node cores.
    """

    name: str
    work: float
    fn: Callable[[SuiteContext], None]
    threads: int = 1
    markers: tuple = ()


class TestOutcome(enum.Enum):
    PASSED = "PASSED"
    FAILED = "FAILED"
    ERROR = "ERROR"
    SKIPPED = "SKIPPED"


@dataclass
class TestResult:
    name: str
    outcome: TestOutcome
    duration: float
    message: str = ""


@dataclass
class TestReport:
    """Aggregated suite outcome, serializable for artifact storage."""

    suite: str
    results: List[TestResult] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.outcome is TestOutcome.PASSED)

    @property
    def failed(self) -> int:
        return sum(
            1
            for r in self.results
            if r.outcome in (TestOutcome.FAILED, TestOutcome.ERROR)
        )

    @property
    def total_duration(self) -> float:
        return sum(r.duration for r in self.results)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and bool(self.results)

    def durations(self) -> Dict[str, float]:
        return {r.name: r.duration for r in self.results}

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "results": [
                    {
                        "name": r.name,
                        "outcome": r.outcome.value,
                        "duration": r.duration,
                        "message": r.message,
                    }
                    for r in self.results
                ],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "TestReport":
        data = json.loads(text)
        report = cls(suite=data["suite"])
        report.results.extend(
            TestResult(
                name=r["name"],
                outcome=TestOutcome(r["outcome"]),
                duration=r["duration"],
                message=r.get("message", ""),
            )
            for r in data["results"]
        )
        return report


@dataclass
class TestSuite:
    """An ordered collection of test cases."""

    name: str
    cases: List[TestCase] = field(default_factory=list)

    def add(
        self,
        name: str,
        work: float,
        fn: Callable[[SuiteContext], None],
        threads: int = 1,
        markers: tuple = (),
    ) -> None:
        if any(c.name == name for c in self.cases):
            raise ValueError(f"duplicate test case {name!r} in {self.name}")
        self.cases.append(TestCase(name, work, fn, threads=threads, markers=markers))

    def select(self, keyword: Optional[str] = None) -> List[TestCase]:
        """Cases matching a pytest-style ``-k`` expression.

        A bare keyword is a substring match; ``"a or b"`` selects cases
        matching any alternative. Case order is preserved either way.
        """
        if keyword is None:
            return list(self.cases)
        alternatives = [k.strip() for k in keyword.split(" or ") if k.strip()]
        return [
            c for c in self.cases
            if any(alt in c.name for alt in alternatives)
        ]

    def run(self, ctx: SuiteContext, keyword: Optional[str] = None) -> TestReport:
        """Execute test cases against ``ctx``, charging virtual time."""
        report = TestReport(suite=self.name)
        injector = injector_of(ctx.handle.site.clock)
        for case in self.select(keyword):
            start = ctx.handle.site.clock.now
            ctx.handle.process_launch()
            # an armed TestFailure fault replaces the case body with the
            # planned exception — same position, so charged time and the
            # rendered message match a genuinely-broken test byte for byte
            injected = injector.test_error_for(self.name, case.name)
            try:
                if injected is not None:
                    raise injected
                case.fn(ctx)
                ctx.handle.compute(case.work, threads=case.threads)
                outcome, message = TestOutcome.PASSED, ""
            except AssertionError as exc:
                ctx.handle.compute(case.work, threads=case.threads)
                outcome, message = TestOutcome.FAILED, str(exc) or "assertion failed"
            except Exception as exc:  # noqa: BLE001 - suite isolation
                outcome = TestOutcome.ERROR
                message = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
            duration = ctx.handle.site.clock.now - start
            report.results.append(
                TestResult(case.name, outcome, duration, message)
            )
        return report


def load_suite(spec: str) -> TestSuite:
    """Resolve a ``module:attribute`` suite reference from a manifest."""
    if ":" not in spec:
        raise ShellError(f"bad suite spec {spec!r}; expected 'module:attr'")
    module_name, attr = spec.split(":", 1)
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ShellError(f"cannot import suite module {module_name!r}: {exc}")
    try:
        suite = getattr(module, attr)
    except AttributeError:
        raise ShellError(f"{module_name} has no attribute {attr!r}") from None
    if callable(suite) and not isinstance(suite, TestSuite):
        suite = suite()
    if not isinstance(suite, TestSuite):
        raise ShellError(f"{spec} did not resolve to a TestSuite")
    return suite


def format_pytest_output(report: TestReport) -> str:
    """Render a report in pytest's familiar console style."""
    lines = [
        "============================= test session starts =============================",
        f"collected {len(report.results)} items",
        "",
    ]
    lines.extend(
        f"{report.suite}::{r.name} {r.outcome.value} [{r.duration:.2f}s]"
        for r in report.results
    )
    failures = [
        r for r in report.results
        if r.outcome in (TestOutcome.FAILED, TestOutcome.ERROR)
    ]
    if failures:
        lines.append("")
        lines.append("=================================== FAILURES ===================================")
        lines.extend(
            f"FAILED {report.suite}::{r.name} - {r.message}" for r in failures
        )
    summary = []
    if report.passed:
        summary.append(f"{report.passed} passed")
    if report.failed:
        summary.append(f"{report.failed} failed")
    lines.append("")
    lines.append(
        f"========================= {', '.join(summary) or 'no tests ran'} "
        f"in {report.total_duration:.2f}s ========================="
    )
    return "\n".join(lines)
