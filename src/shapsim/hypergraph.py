"""Weighted hypergraphs and their text file format.

File format, one edge per line::

    # comment
    n 14
    1.0 0 1
    2   7 8 9

The first non-comment line must be ``n <vertex count>``.  Every other line is
``weight v1 v2 ... vk`` with 0-based vertex ids.  Duplicate edges (same
vertex set) are merged by summing weights, both in files and in constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable


class HypergraphFormatError(ValueError):
    """Malformed hypergraph text, with a line diagnostic."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _merge(edges: Iterable[tuple[frozenset[int], float]]) -> tuple[tuple[frozenset[int], float], ...]:
    merged: dict[frozenset[int], float] = {}
    for verts, w in edges:
        merged[verts] = merged.get(verts, 0.0) + float(w)
    return tuple(sorted(merged.items(), key=lambda item: sorted(item[0])))


@dataclass(frozen=True)
class Hypergraph:
    """Vertices ``0 .. n-1`` plus weighted hyperedges (non-empty vertex sets)."""

    n: int
    edges: tuple[tuple[frozenset[int], float], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", _merge(self.edges))
        for verts, w in self.edges:
            if not verts:
                raise ValueError("hyperedges must be non-empty")
            if min(verts) < 0 or max(verts) >= self.n:
                raise ValueError(f"edge {sorted(verts)} out of range for n={self.n}")
            if w < 0:
                raise ValueError("edge weights must be non-negative")

    def degree(self, v: int) -> float:
        """Weighted degree: total weight of edges containing ``v``."""
        return sum(w for verts, w in self.edges if v in verts)

    def padded(self, n_total: int) -> "Hypergraph":
        """Same edges on a larger vertex set (extra vertices are isolated)."""
        if n_total < self.n:
            raise ValueError(f"cannot pad from n={self.n} down to {n_total}")
        return Hypergraph(n=n_total, edges=self.edges)


def parse_hypergraph(text: str) -> Hypergraph:
    n: int | None = None
    edges: list[tuple[frozenset[int], float]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if tokens[0] != "n" or len(tokens) != 2:
                raise HypergraphFormatError(line_no, "expected header 'n <count>'")
            try:
                n = int(tokens[1])
            except ValueError:
                raise HypergraphFormatError(line_no, f"bad vertex count {tokens[1]!r}") from None
            if n <= 0:
                raise HypergraphFormatError(line_no, "vertex count must be positive")
            continue
        if len(tokens) < 2:
            raise HypergraphFormatError(line_no, "edge lines need a weight and at least one vertex")
        try:
            w = float(tokens[0])
        except ValueError:
            raise HypergraphFormatError(line_no, f"bad weight {tokens[0]!r}") from None
        if w < 0:
            raise HypergraphFormatError(line_no, "edge weight must be non-negative")
        try:
            verts = frozenset(int(t) for t in tokens[1:])
        except ValueError:
            raise HypergraphFormatError(line_no, "vertex ids must be integers") from None
        if min(verts) < 0 or max(verts) >= n:
            raise HypergraphFormatError(line_no, f"vertex id out of range 0..{n - 1}")
        edges.append((verts, w))
    if n is None:
        raise HypergraphFormatError(0, "missing 'n <count>' header")
    return Hypergraph(n=n, edges=tuple(edges))


def load_hypergraph(path: str | Path) -> Hypergraph:
    return parse_hypergraph(Path(path).read_text(encoding="utf-8"))
