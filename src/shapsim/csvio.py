"""Deterministic CSV emission shared by the command-line drivers."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

SCHEMA_COMMENT = "# schema-version: 1"


def format_number(x) -> str:
    """12 significant digits, stable across platforms."""
    if type(x) is float:  # the common case, and the text of the last line
        return f"{x:.12g}"
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    return f"{float(x):.12g}"


def render_csv(header: Sequence[str], rows: Iterable[Sequence], *,
               comments: Sequence[str] = ()) -> str:
    lines = [SCHEMA_COMMENT]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_number(cell) if not isinstance(cell, str) else cell
                              for cell in row))
    return "\n".join(lines) + "\n"


def write_text(path: str | Path | None, text: str) -> None:
    """Write to a file, or stdout when path is ``None`` or ``-``."""
    if path is None or str(path) == "-":
        import sys

        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")
