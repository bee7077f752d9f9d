"""Weighted undirected graphs, k-cut evaluation, and an exact brute-force solver.

Edge-list file format: the first non-comment line is "n m" (vertex count,
edge count), followed by m lines "i j w" with 0-based vertex indices and a
decimal weight.  The weight token may be omitted and defaults to 1.0.  Lines
starting with '#' and blank lines are ignored.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Guard for exhaustive enumeration: k**n assignments must stay desk-scale.
BRUTE_FORCE_LIMIT = 10**8


class GraphFormatError(ValueError):
    """Raised when an edge list cannot be parsed into a valid graph."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph with non-negative edge weights.

    Each edge is stored once, canonicalized to i < j.  Self-loops and
    duplicate unordered pairs are rejected at construction time.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {self.n!r}")
        canonical: list[tuple[int, int, float]] = []
        seen: set[tuple[int, int]] = set()
        for edge in self.edges:
            i, j, w = int(edge[0]), int(edge[1]), float(edge[2])
            if not (0 <= i < self.n) or not (0 <= j < self.n):
                raise ValueError(f"vertex index out of range in edge ({i}, {j})")
            if i == j:
                raise ValueError(f"self-loop on vertex {i} is not allowed")
            if not np.isfinite(w) or w < 0:
                raise ValueError(f"edge ({i}, {j}) has invalid weight {w}")
            a, b = (i, j) if i < j else (j, i)
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
            canonical.append((a, b, w))
        object.__setattr__(self, "edges", tuple(canonical))


@dataclass(frozen=True)
class ApproximationReport:
    """Optimal cut, expected cut of a candidate distribution, and their ratio."""

    optimal_cut: float
    expected_cut: float
    ratio: float


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format described in the module docstring."""
    lines = [ln for raw in text.splitlines() if (ln := raw.strip()) and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty input: missing 'n m' header line")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError(f"malformed header line {lines[0]!r}: expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError(f"malformed header line {lines[0]!r}: expected two integers") from None
    if m < 0:
        raise GraphFormatError(f"edge count must be non-negative, got {m}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"declared {m} edges but found {len(lines) - 1} edge lines")

    edges: list[tuple[int, int, float]] = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise GraphFormatError(f"malformed edge line {ln!r}: expected 'i j [w]'")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise GraphFormatError(f"malformed edge line {ln!r}: non-numeric token") from None
        edges.append((i, j, w))
    # Graph owns every structural check: vertex count, ranges, loops, weights, duplicates.
    try:
        return Graph(n, tuple(edges))
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def total_weight(g: Graph) -> float:
    return float(sum(w for _, _, w in g.edges))


def cut_value(g: Graph, colors: Sequence[int]) -> float:
    """Sum of weights of edges whose endpoints carry different colors."""
    if len(colors) != g.n:
        raise ValueError(f"coloring has length {len(colors)}, expected {g.n}")
    return float(sum(w for i, j, w in g.edges if colors[i] != colors[j]))


def brute_force_max_cut(g: Graph, k: int) -> tuple[tuple[int, ...], float]:
    """Exact maximum k-cut by exhaustive enumeration.

    Enumerates all k**n colorings in lexicographic order (vertex 0 most
    significant) and returns the first coloring attaining the maximum, so
    ties break to the lexicographically smallest optimal coloring.
    """
    if k < 1:
        raise ValueError(f"color count must be positive, got {k}")
    total = k**g.n
    if total > BRUTE_FORCE_LIMIT:
        raise ValueError(f"instance too large: {k}**{g.n} colorings exceed the {BRUTE_FORCE_LIMIT} guard")

    place = [k ** (g.n - 1 - v) for v in range(g.n)]
    best_value = -1.0
    best_index = 0
    chunk = 1 << 16
    for start in range(0, total, chunk):
        z = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cuts = np.zeros(z.size)
        for i, j, w in g.edges:
            cuts += w * ((z // place[i]) % k != (z // place[j]) % k)
        pos = int(np.argmax(cuts))
        if cuts[pos] > best_value:
            best_value = float(cuts[pos])
            best_index = start + pos
    coloring = tuple((best_index // place[v]) % k for v in range(g.n))
    return coloring, best_value


def approximation_ratio(expected_cut: float, optimal_cut: float) -> ApproximationReport:
    if optimal_cut <= 0:
        raise ValueError(f"optimal cut must be positive, got {optimal_cut}")
    return ApproximationReport(float(optimal_cut), float(expected_cut), float(expected_cut) / float(optimal_cut))


def random_complete_graph(n: int, seed: int, max_weight: int = 4) -> Graph:
    """Complete graph on n vertices with integer weights drawn uniformly from [1, max_weight].

    Edges are generated in (i, j) lexicographic order, so the instance is
    fully determined by (n, seed, max_weight).
    """
    rng = np.random.default_rng(seed)
    edges = tuple(
        (i, j, float(rng.integers(1, max_weight + 1))) for i in range(n) for j in range(i + 1, n)
    )
    return Graph(n, edges)
