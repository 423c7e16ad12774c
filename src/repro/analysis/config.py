"""The one loader for the ``[tool.repro.*]`` contract tables.

Project mode reads three tables from ``pyproject.toml``: the
architecture layer map (``[tool.repro.layers]``, RA601), the
determinism contracts (``[tool.repro.determinism]``, RA7xx) and the
durable artifacts (``[tool.repro.durability]``, RA804).  Each table's
module owns its validation and error messages; this module only finds
the table and hands its raw mapping to that validation:

* :func:`read_table` reads one table from one pyproject file;
* :func:`find_table` walks up from a path to the nearest pyproject
  that has the table.  A present-but-empty table stops the walk, so a
  fixture tree can shadow the repo's own contracts.

``tomllib`` is 3.11+; the CI matrix still runs 3.9, so a small
line-based reader covers the forms the tables use (``key = "str"``,
``key = ["a", "b"]``, and ``[table.sub]`` sub-tables).  On 3.11+ the
real ``tomllib`` is always used.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import (Callable, Dict, List, Mapping, Optional, Type,
                    TypeVar)

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised on py3.9 CI
    tomllib = None  # type: ignore[assignment]

T = TypeVar("T")

#: a table's validation: (raw mapping, source path) -> config
Parse = Callable[[Mapping[str, object], str], T]


def read_table(pyproject: Path, name: str, parse: Parse[T],
               error: Type[ValueError]) -> Optional[T]:
    """Load ``[tool.repro.<name>]`` from a pyproject file.

    Returns None when the file has no such table; otherwise the result
    of ``parse``, which raises its own error for an invalid table.
    ``error`` is raised for values the py3.9 fallback cannot read.
    """
    source = str(pyproject)
    text = pyproject.read_text(encoding="utf-8")
    raw: Optional[Mapping[str, object]]
    if tomllib is not None:
        tool = tomllib.loads(text).get("tool", {})
        repro = tool.get("repro", {}) if isinstance(tool, dict) else {}
        table = repro.get(name) if isinstance(repro, dict) else None
        raw = table if isinstance(table, dict) else None
    else:  # pragma: no cover - py<3.11 only
        raw = _fallback_read_table(text, source, f"tool.repro.{name}",
                                   error)
    return None if raw is None else parse(raw, source)


def find_table(start: Path, name: str, parse: Parse[T],
               error: Type[ValueError]) -> Optional[T]:
    """Walk up from ``start`` to the nearest ``[tool.repro.<name>]``."""
    cursor = start.resolve()
    if cursor.is_file():
        cursor = cursor.parent
    while True:
        candidate = cursor / "pyproject.toml"
        if candidate.is_file():
            config = read_table(candidate, name, parse, error)
            if config is not None:
                return config
        parent = cursor.parent
        if parent == cursor:
            return None
        cursor = parent


# -- minimal TOML fallback ----------------------------------------------------

_SECTION_RE = re.compile(r"^\[(?P<name>[^\]]+)\]\s*$")
_KV_RE = re.compile(r"^(?P<key>[A-Za-z0-9_.\-\"']+)\s*=\s*(?P<value>.+)$")


def _parse_toml_value(text: str, source: str, section: str,
                      error: Type[ValueError]) -> object:
    # the table values (strings and string lists) are also Python
    # literals, so the fallback reads them with literal_eval
    try:
        return ast.literal_eval(text.strip())
    except (ValueError, SyntaxError):
        raise error(
            f"{source}: unsupported TOML value {text.strip()!r} in "
            f"[{section}] (fallback parser handles strings and "
            "string lists only)") from None


def _strip_toml_comment(line: str) -> str:
    out: List[str] = []
    quote = ""
    for char in line:
        if quote:
            out.append(char)
            if char == quote:
                quote = ""
        elif char in "\"'":
            quote = char
            out.append(char)
        elif char == "#":
            break
        else:
            out.append(char)
    return "".join(out).rstrip()


def _fallback_read_table(text: str, source: str, section_name: str,
                         error: Type[ValueError] = ValueError
                         ) -> Optional[Dict[str, object]]:
    """Read ``[section_name]`` and its ``[section_name.sub]`` sub-tables
    with the line-based fallback; None when neither is present."""
    table: Dict[str, object] = {}
    current: Optional[Dict[str, object]] = None
    found = False
    buffer = ""
    for raw_line in text.splitlines():
        line = _strip_toml_comment(raw_line)
        if not line.strip():
            continue
        section = _SECTION_RE.match(line.strip())
        if section and not buffer:
            name = section.group("name").strip()
            if name == section_name:
                current = table
            elif name.startswith(section_name + "."):
                sub: Dict[str, object] = {}
                table[name[len(section_name) + 1:]] = sub
                current = sub
            else:
                current = None
            found = found or current is not None
            continue
        if current is None:
            continue
        buffer = f"{buffer} {line.strip()}" if buffer else line.strip()
        # multi-line arrays: keep buffering until brackets balance
        if buffer.count("[") > buffer.count("]") or buffer.endswith(","):
            continue
        match = _KV_RE.match(buffer)
        buffer = ""
        if not match:
            continue
        key = match.group("key").strip("\"'")
        current[key] = _parse_toml_value(match.group("value"), source,
                                         section_name, error)
    return table if found else None
