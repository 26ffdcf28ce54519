"""A small YAML-subset parser for workflow and suite files.

GitHub Actions workflows are YAML. PyYAML is not available offline, so this
module implements the subset that workflow documents actually use:

* nested block mappings (two-space indentation)
* block sequences (``- item`` and ``- key: value`` compound entries)
* flow sequences (``[a, b, c]``, nesting allowed) and flow mappings
  (``{a: 1}``)
* scalars: int, float, bool (``true``/``false``), null (``null``/``~``),
  single/double-quoted strings, plain strings
* quoted keys (``"a: b": 1``), in both block and flow mappings
* comments (``#`` to end of line, outside quotes)
* literal block scalars (``key: |`` followed by an indented block)
* the GitHub-ism where ``on:`` parses as a key (we do not convert to bool
  in key position)

Not supported (raises :class:`repro.errors.YamliteError`, which names the
offending 1-based source line): anchors, aliases, tags, multi-document
streams, folded scalars, tab indentation.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.errors import YamliteError

# (indent, content, lineno); indent == -1 marks a blank/comment-only line
_Line = Tuple[int, str, int]


def loads(text: str) -> Any:
    """Parse a YAML-subset document into Python data."""
    lines = _strip_comments(text)
    parser = _Parser(lines)
    value = parser.parse_block(0)
    parser.expect_end()
    return value


def _strip_comments(text: str) -> List[_Line]:
    """Return (indent, content, lineno) for each significant line.

    Comments are removed unless the ``#`` sits inside quotes. Blank lines
    are kept (marked ``indent=-1``) because literal-block bodies re-read
    them; line numbers are 1-based for error messages.
    """
    out: List[_Line] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise YamliteError("tab indentation is not supported", line=lineno)
        stripped = _cut_comment(raw)
        if not stripped.strip():
            out.append((-1, raw, lineno))  # keep raw for literal blocks
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        out.append((indent, stripped.rstrip(), lineno))
    return out


def _cut_comment(line: str) -> str:
    """``line`` up to its first ``#`` comment outside quotes.

    A line holding no ``#`` is returned as it is, without a scan.
    """
    if "#" not in line:
        return line
    quote: Optional[str] = None
    for i, ch in enumerate(line):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == "#" and (i == 0 or line[i - 1] in " \t"):
            return line[:i]
    return line


class _Parser:
    def __init__(self, lines: List[_Line]) -> None:
        self._lines = lines
        self._pos = 0

    # -- cursor helpers ----------------------------------------------------
    def _peek(self) -> Optional[_Line]:
        while self._pos < len(self._lines) and self._lines[self._pos][0] == -1:
            self._pos += 1
        if self._pos >= len(self._lines):
            return None
        return self._lines[self._pos]

    def _next(self) -> _Line:
        item = self._peek()
        if item is None:
            last = self._lines[-1][2] if self._lines else 0
            raise YamliteError("unexpected end of document", line=last)
        self._pos += 1
        return item

    def expect_end(self) -> None:
        item = self._peek()
        if item is not None:
            _, line, lineno = item
            raise YamliteError(
                f"trailing content: {line.strip()!r}", line=lineno
            )

    # -- block parsing -----------------------------------------------------
    def parse_block(self, indent: int) -> Any:
        """Parse a block (mapping or sequence) at exactly ``indent``."""
        item = self._peek()
        if item is None:
            return None
        line_indent, line, _ = item
        if line_indent < indent:
            return None
        content = line.strip()
        if content.startswith("- ") or content == "-":
            return self._parse_sequence(line_indent)
        return self._parse_mapping(line_indent)

    def _parse_sequence(self, indent: int) -> List[Any]:
        result: List[Any] = []
        while True:
            item = self._peek()
            if item is None or item[0] != indent:
                break
            line_indent, line, lineno = item
            content = line.strip()
            if not (content.startswith("- ") or content == "-"):
                break
            self._next()
            rest = content[1:].strip()
            if not rest:
                child = self.parse_block(indent + 2)
                result.append(child)
            elif _looks_like_mapping_entry(rest):
                # Compound entry: "- key: value" plus continuation lines
                # indented deeper than the dash.
                entry = self._parse_inline_mapping_entry(
                    rest, indent + 2, lineno
                )
                result.append(entry)
            else:
                result.append(_parse_scalar(rest, lineno))
        return result

    def _parse_inline_mapping_entry(
        self, first: str, indent: int, lineno: int
    ) -> Any:
        key, _, value_text = _split_mapping(first, lineno)
        mapping = {}
        mapping[key] = self._value_for(value_text, indent, lineno)
        # continuation keys at `indent`
        while True:
            item = self._peek()
            if item is None or item[0] != indent:
                break
            content = item[1].strip()
            entry_lineno = item[2]
            if content.startswith("- ") or content == "-":
                break
            if not _looks_like_mapping_entry(content):
                break
            self._next()
            k, _, v = _split_mapping(content, entry_lineno)
            if k in mapping:
                raise YamliteError(f"duplicate key {k!r}", line=entry_lineno)
            mapping[k] = self._value_for(v, indent + 2, entry_lineno)
        return mapping

    def _parse_mapping(self, indent: int) -> dict:
        result: dict = {}
        while True:
            item = self._peek()
            if item is None or item[0] != indent:
                break
            line_indent, line, lineno = item
            content = line.strip()
            if content.startswith("- ") or content == "-":
                raise YamliteError(
                    f"sequence item in mapping context: {content!r}",
                    line=lineno,
                )
            if not _looks_like_mapping_entry(content):
                raise YamliteError(
                    f"expected 'key: value', got {content!r}", line=lineno
                )
            self._next()
            key, _, value_text = _split_mapping(content, lineno)
            if key in result:
                raise YamliteError(f"duplicate key {key!r}", line=lineno)
            result[key] = self._value_for(value_text, indent + 2, lineno)
        return result

    def _value_for(self, value_text: str, child_indent: int, lineno: int) -> Any:
        value_text = value_text.strip()
        if value_text == "|" or value_text == "|-":
            return self._parse_literal_block(child_indent, chomp=value_text == "|-")
        if value_text:
            return _parse_scalar(value_text, lineno)
        # empty value: nested block or null
        item = self._peek()
        if item is not None and item[0] >= child_indent:
            return self.parse_block(item[0])
        return None

    def _parse_literal_block(self, min_indent: int, chomp: bool) -> str:
        """Collect raw lines more-indented than the parent key."""
        collected: List[str] = []
        block_indent: Optional[int] = None
        while self._pos < len(self._lines):
            line_indent, line, _ = self._lines[self._pos]
            if line_indent == -1:
                collected.append("")
                self._pos += 1
                continue
            if line_indent < min_indent:
                break
            if block_indent is None:
                block_indent = line_indent
            collected.append(line[block_indent:])
            self._pos += 1
        while collected and not collected[-1]:
            collected.pop()
        body = "\n".join(collected)
        return body if chomp else body + "\n"


def _looks_like_mapping_entry(content: str) -> bool:
    key, sep, _ = _try_split_mapping(content)
    return sep


def _try_split_mapping(content: str) -> Tuple[str, bool, str]:
    quote: Optional[str] = None
    depth = 0
    for i, ch in enumerate(content):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == ":" and depth == 0:
            if i + 1 == len(content) or content[i + 1] in " \t":
                return content[:i].strip(), True, content[i + 1 :].strip()
    return content, False, ""


def _split_mapping(content: str, lineno: Optional[int] = None) -> Tuple[str, bool, str]:
    key, ok, value = _try_split_mapping(content)
    if not ok:
        raise YamliteError(f"not a mapping entry: {content!r}", line=lineno)
    if key.startswith(("'", '"')) and key.endswith(key[0]) and len(key) >= 2:
        key = key[1:-1]
    return key, ok, value


def _parse_scalar(text: str, lineno: Optional[int] = None) -> Any:
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        return [_parse_scalar(p, lineno) for p in _split_flow(text[1:-1])]
    if text.startswith("{") and text.endswith("}"):
        result = {}
        for part in _split_flow(text[1:-1]):
            if not part:
                continue
            k, ok, v = _try_split_mapping(part)
            if not ok:
                raise YamliteError(
                    f"bad flow mapping entry: {part!r}", line=lineno
                )
            if k.startswith(("'", '"')) and len(k) >= 2 and k.endswith(k[0]):
                k = k[1:-1]
            result[k] = _parse_scalar(v, lineno)
        return result
    if text.startswith("'") and text.endswith("'") and len(text) >= 2:
        return text[1:-1].replace("''", "'")
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return _unescape(text[1:-1])
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("null", "~", ""):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _split_flow(body: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    quote: Optional[str] = None
    current = []
    for ch in body:
        if quote:
            current.append(ch)
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            current.append(ch)
        elif ch in "[{":
            depth += 1
            current.append(ch)
        elif ch in "]}":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _unescape(text: str) -> str:
    return (
        text.replace("\\n", "\n")
        .replace("\\t", "\t")
        .replace('\\"', '"')
        .replace("\\\\", "\\")
    )
