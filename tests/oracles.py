"""Independent reference implementations used to cross-check the library.

Everything here sticks to plain Python containers -- Counters, dicts,
nested lists -- and shares no code with the package, so agreement between
the two is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np


def random_grid(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    return rng.integers(1, r + 1, size=(n, n), dtype=np.int64)


def brute_rainbow(grid: list[list[int]]) -> list[list[int]]:
    """Split by (own color, reverse color) keys; expects canonical 1..r colors."""
    n = len(grid)
    sentinel = max(max(row) for row in grid) + 1
    keys = {}
    for u in range(n):
        for v in range(n):
            keys[(u, v)] = (grid[u][v], sentinel if u == v else grid[v][u])
    ranked = {key: i + 1 for i, key in enumerate(sorted(set(keys.values())))}
    return [[ranked[keys[(u, v)]] for v in range(n)] for u in range(n)]


@dataclass(frozen=True)
class FingerprintMatrix:
    """Per-cell fingerprints: ``cells[u][v]`` is a sorted tuple of ``((left, right), count)``."""

    n: int
    cells: tuple


def noncommutative_product(grid: list[list[int]]) -> FingerprintMatrix:
    """Fingerprint every cell by its multiset of (row color, column color) pairs."""
    n = len(grid)
    columns = [list(col) for col in zip(*grid)]
    rows = []
    for u in range(n):
        row = []
        for v in range(n):
            counts = Counter(zip(grid[u], columns[v]))
            row.append(tuple(sorted(counts.items())))
        rows.append(tuple(row))
    return FingerprintMatrix(n, tuple(rows))


def brute_step(grid: list[list[int]]) -> tuple[bool, list[list[int]]]:
    """One exact refinement pass over Counter fingerprints."""
    n = len(grid)
    signatures = {}
    for u in range(n):
        for v in range(n):
            profile = Counter((grid[u][w], grid[w][v]) for w in range(n))
            signatures[(u, v)] = (grid[u][v], tuple(sorted(profile.items())))
    ranked = {sig: i + 1 for i, sig in enumerate(sorted(set(signatures.values())))}
    new = [[ranked[signatures[(u, v)]] for v in range(n)] for u in range(n)]
    old_count = len({c for row in grid for c in row})
    return len(ranked) > old_count, new


def brute_closure(grid: list[list[int]]) -> list[list[int]]:
    current = brute_rainbow(grid)
    while True:
        refined, following = brute_step(current)
        if not refined:
            return current
        current = following


def sorted_tuple_ranks(pairs: list[tuple]) -> list[int]:
    """1-based rank of each pair among the distinct pairs in sorted order."""
    rank_of = {pair: i + 1 for i, pair in enumerate(sorted(set(pairs)))}
    return [rank_of[pair] for pair in pairs]


def python_refine_by(colors, values) -> tuple[bool, list[list[int]]]:
    """Split a color grid by per-cell values, ranking (old color, value) tuples.

    ``values`` may be any square nest of mutually comparable values, e.g.
    fingerprint tuples.  Returns whether the class count grew and the new
    grid (colors ``1..count`` in pair order).
    """
    n = len(colors)
    pairs = [(int(colors[u][v]), values[u][v]) for u in range(n) for v in range(n)]
    ranks = sorted_tuple_ranks(pairs)
    grid = [ranks[u * n : (u + 1) * n] for u in range(n)]
    return len(set(ranks)) > len({old for old, _ in pairs}), grid


def partition_of(grid) -> tuple[tuple[int, ...], ...]:
    """Partition as sorted tuples of flat cell indexes; ignores color names."""
    classes: dict[int, list[int]] = {}
    n = len(grid)
    for u in range(n):
        for v in range(n):
            classes.setdefault(int(grid[u][v]), []).append(u * n + v)
    return tuple(sorted(tuple(cells) for cells in classes.values()))


def python_matmul(a, b) -> list[list[int]]:
    inner = len(b)
    cols = len(b[0])
    return [
        [sum(row[t] * b[t][j] for t in range(inner)) for j in range(cols)]
        for row in a
    ]
