"""Rules the program's source keeps, checked by walking its syntax trees."""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def test_no_assert_statement_under_src_repro():
    # python -O strips assert statements, so a check the program relies
    # on must raise itself (suite cases call shellsim.suites.check)
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
