"""Parsing and summarizing CORRECT execution results."""

from __future__ import annotations

import re
from typing import Any, Dict, Tuple

from repro.core.remote import FN_READ_FILE
from repro.shellsim.suites import TestReport

# "suite::test_name PASSED [12.34s]" lines from the simulated pytest
_PYTEST_LINE = re.compile(
    r"^(?P<suite>[\w./-]+)::(?P<name>[\w\[\]-]+) "
    r"(?P<outcome>PASSED|FAILED|ERROR|SKIPPED) \[(?P<duration>[\d.]+)s\]$"
)


def parse_pytest_stdout(stdout: str) -> Dict[str, Tuple[str, float]]:
    """Extract {test_name: (outcome, duration_seconds)} from pytest output.

    This is exactly what the paper did for Fig. 4: "record the duration of
    each test case using pytest".
    """
    out: Dict[str, Tuple[str, float]] = {}
    for line in stdout.splitlines():
        match = _PYTEST_LINE.match(line.strip())
        if match:
            out[match.group("name")] = (
                match.group("outcome"),
                float(match.group("duration")),
            )
    return out


def fetch_remote_report(client, endpoint_uuid: str, report_path: str,
                        template: str = "default") -> TestReport:
    """Fetch a ``.report.json`` file from the endpoint and parse it.

    Uses CORRECT's pre-registered ``read_file`` helper; raises
    :class:`TaskFailed` if the file does not exist remotely.
    """
    from repro.util.ids import deterministic_uuid

    function_id = deterministic_uuid("function", client.identity_urn, FN_READ_FILE)
    task_id = client.run(endpoint_uuid, function_id, report_path, template=template)
    return TestReport.from_json(client.get_result(task_id))


def summarize_result(result: Dict[str, Any]) -> str:
    """One-line human summary of a run_shell_command result."""
    exit_code = int(result.get("exit_code", -1))
    tests = parse_pytest_stdout(str(result.get("stdout", "")))
    if tests:
        passed = sum(1 for o, _ in tests.values() if o == "PASSED")
        failed = len(tests) - passed
        status = "OK" if exit_code == 0 else "FAIL"
        return (
            f"{status}: {passed} passed, {failed} failed "
            f"({result.get('duration', 0.0):.1f}s remote)"
        )
    return (
        f"{'OK' if exit_code == 0 else 'FAIL'}: exit {exit_code} "
        f"({result.get('duration', 0.0):.1f}s remote)"
    )
