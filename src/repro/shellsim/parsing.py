"""Command-line tokenization and splitting.

Supports the grammar CI shell commands actually use: whitespace-separated
tokens with single/double quotes, ``&&`` / ``;`` chaining, and leading
``VAR=value`` environment assignments. Pipes, globs, and redirection are
out of scope and rejected loudly rather than misinterpreted.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ShellError


def tokenize(command: str) -> List[str]:
    """Split one simple command into tokens, honoring quotes.

    A command holding no quote and none of ``|<>*`` is returned as
    ``command.split()`` without a character scan: ``str.split()`` and
    ``str.isspace()`` share one definition of whitespace.
    """
    if not (
        "'" in command or '"' in command or "|" in command
        or "<" in command or ">" in command or "*" in command
    ):
        return command.split()
    tokens: List[str] = []
    current: List[str] = []
    quote = None
    has_content = False
    for ch in command:
        if quote:
            if ch == quote:
                quote = None
            else:
                current.append(ch)
        elif ch in "'\"":
            quote = ch
            has_content = True
        elif ch.isspace():
            if current or has_content:
                tokens.append("".join(current))
                current = []
                has_content = False
        elif ch in "|<>*":
            raise ShellError(
                f"unsupported shell syntax {ch!r} in {command!r} "
                "(pipes/redirection/globs are not modeled)"
            )
        else:
            current.append(ch)
    if quote:
        raise ShellError(f"unterminated quote in {command!r}")
    if current or has_content:
        tokens.append("".join(current))
    return tokens


def split_chain(command_line: str) -> List[Tuple[str, str]]:
    """Split on ``&&`` and ``;`` (outside quotes).

    Returns [(operator, simple_command)] where operator is ``"&&"``,
    ``";"``, or ``""`` for the first element. A line holding no quote, no
    ``&`` and no ``;`` is one command and skips the character scan.
    """
    if not (
        "'" in command_line or '"' in command_line
        or "&" in command_line or ";" in command_line
    ):
        command = command_line.strip()
        return [("", command)] if command else []
    parts: List[Tuple[str, str]] = []
    current: List[str] = []
    quote = None
    op = ""
    i = 0
    while i < len(command_line):
        ch = command_line[i]
        if quote:
            current.append(ch)
            if ch == quote:
                quote = None
            i += 1
            continue
        if ch in "'\"":
            quote = ch
            current.append(ch)
            i += 1
            continue
        if command_line.startswith("&&", i):
            parts.append((op, "".join(current).strip()))
            current = []
            op = "&&"
            i += 2
            continue
        if ch == ";":
            parts.append((op, "".join(current).strip()))
            current = []
            op = ";"
            i += 1
            continue
        current.append(ch)
        i += 1
    parts.append((op, "".join(current).strip()))
    return [(o, c) for o, c in parts if c]


def extract_assignments(tokens: List[str]) -> Tuple[Dict[str, str], List[str]]:
    """Pull leading ``VAR=value`` assignments off the token list."""
    assignments: Dict[str, str] = {}
    rest = list(tokens)
    while rest:
        token = rest[0]
        eq = token.find("=")
        if eq <= 0 or not token[:eq].isidentifier():
            break
        assignments[token[:eq]] = token[eq + 1 :]
        rest.pop(0)
    return assignments, rest


def expand_variables(token: str, env: Dict[str, str]) -> str:
    """Expand ``$VAR`` and ``${VAR}`` references.

    A token holding no ``$`` is returned as it is, without a scan.
    """
    if "$" not in token:
        return token
    out: List[str] = []
    i = 0
    while i < len(token):
        ch = token[i]
        if ch == "$" and i + 1 < len(token):
            if token[i + 1] == "{":
                end = token.find("}", i + 2)
                if end == -1:
                    raise ShellError(f"unterminated ${{ in {token!r}")
                name = token[i + 2 : end]
                out.append(env.get(name, ""))
                i = end + 1
                continue
            j = i + 1
            while j < len(token) and (token[j].isalnum() or token[j] == "_"):
                j += 1
            if j > i + 1:
                out.append(env.get(token[i + 1 : j], ""))
                i = j
                continue
        out.append(ch)
        i += 1
    return "".join(out)
