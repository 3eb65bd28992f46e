"""Independent reference implementations used to cross-check the library.

Everything here sticks to plain Python containers -- Counters, dicts,
nested lists -- and shares no logic with the package (only its result
dataclasses), so agreement between the two is meaningful evidence rather
than a tautology.  The one exception is :func:`divmod_encode_rows`, an
earlier vectorised encoder of the package, kept as a byte-for-byte
reference for the current one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from wlclosure.coherence import CoherenceReport, CoherenceWitness


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


def brute_is_rainbow(grid) -> bool:
    """No loop color off the diagonal, and each color fixes its reverse's."""
    n = len(grid)
    loops = {grid[u][u] for u in range(n)}
    if any(grid[u][v] in loops for u in range(n) for v in range(n) if u != v):
        return False
    pairs = {(grid[u][v], grid[v][u]) for u in range(n) for v in range(n)}
    return len(pairs) == len({c for row in grid for c in row})


def brute_is_refinement(fine, coarse) -> bool:
    """Every class of ``fine`` lies inside one class of ``coarse``; each is
    a grid or a coloring."""
    fine, coarse = (g.cells.tolist() if hasattr(g, "cells") else g for g in (fine, coarse))
    flat_fine = [c for row in fine for c in row]
    pairs = set(zip(flat_fine, [c for row in coarse for c in row]))
    return len(pairs) == len(set(flat_fine))


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


def fingerprint_keys(cells: np.ndarray, r: int) -> list[bytes]:
    """Per-cell fingerprints as packed byte strings, row-major.

    Each pair ``(left, right)`` becomes the code ``left * (r + 1) + right``;
    per cell the sorted codes are run-length encoded and serialized as
    big-endian u64 ``code, count`` words, so byte order is the order of the
    sorted pair/count tuples.  One ``bytes`` object per cell: a reference,
    not a fast path.
    """
    n = len(cells)
    base = r + 1
    mirror = cells.T
    keys: list[bytes] = []
    for u in range(n):
        codes = cells[u, None, :] * base + mirror
        codes.sort(axis=1)
        for row in codes:
            starts = np.empty(n, dtype=bool)
            starts[0] = True
            np.not_equal(row[1:], row[:-1], out=starts[1:])
            idx = np.flatnonzero(starts)
            words = np.empty(2 * len(idx), dtype=np.uint64)
            words[0::2] = row[idx]
            words[1::2] = np.diff(idx, append=n)
            keys.append(words.astype(">u8").tobytes())
    return keys


def fingerprint_step(cells: np.ndarray, r: int) -> tuple[bool, np.ndarray]:
    """One exact step: rank ``(old color, fingerprint bytes)`` through a
    sorted dict.  Returns whether the class count grew and the new grid."""
    n = len(cells)
    cells = np.asarray(cells, dtype=np.int64)
    pairs = list(zip(cells.ravel().tolist(), fingerprint_keys(cells, r)))
    ranks = sorted_tuple_ranks(pairs)
    return max(ranks) > r, np.array(ranks, dtype=np.int64).reshape(n, n)


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


def python_first_occurrence_relabel(flat) -> tuple[list[int], int]:
    """Labels 1..r by first position, from a sorted dict of first positions."""
    first: dict[int, int] = {}
    for i, value in enumerate(flat):
        first.setdefault(int(value), i)
    label = {value: k + 1 for k, value in enumerate(sorted(first, key=first.__getitem__))}
    return [label[int(value)] for value in flat], len(label)


def python_normalize_by_value(flat) -> tuple[list[int], list[int]]:
    """Labels 1..r by sorted distinct id, and those ids (the vocabulary)."""
    ids = sorted({int(value) for value in flat})
    label = {value: k + 1 for k, value in enumerate(ids)}
    return [label[int(value)] for value in flat], ids


def python_first_positions(flat, top: int) -> list[int]:
    """Each id ``0..top``'s first position in ``flat`` from a scan of every
    entry, ``len(flat)`` for an absent id."""
    first = [len(flat)] * (top + 1)
    for i, value in enumerate(flat):
        if first[value] == len(flat):
            first[value] = i
    return first


def python_splitmix64(state: int) -> int:
    """SplitMix64's output for one state, in Python integers mod 2**64."""
    z = (state + 0x9E3779B97F4A7C15) % 2**64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def python_stream_integers(seed: int, low: int, high: int, size: int, start: int = 0):
    """Reference Monte Carlo stream: raw value ``i`` is
    ``splitmix64(seed + i * gamma)``, one at a time from ``start``; a raw
    value in the top ``2**64 mod (high - low)`` is rejected, any other gives
    ``low + raw % (high - low)``.  Returns the ``size`` values and the next
    ``i``."""
    span = high - low
    limit = 2**64 - 2**64 % span
    values, i = [], start
    while len(values) < size:
        z = python_splitmix64((seed + i * 0x9E3779B97F4A7C15) % 2**64)
        i += 1
        if z < limit:
            values.append(low + z % span)
    return values, i


def python_format_graph_text(grid, canonical: bool = True) -> str:
    """Writer reference: header, then each row's ids joined by single spaces.

    ``canonical`` renumbers ids 1..r by first occurrence (row-major);
    otherwise ids are written as given, which may be any positive ints.
    """
    rows = [[int(c) for c in row] for row in grid]
    if canonical:
        label: dict[int, int] = {}
        for row in rows:
            for c in row:
                label.setdefault(c, len(label) + 1)
        rows = [[label[c] for c in row] for row in rows]
    r = len({c for row in rows for c in row})
    lines = [f"wlgraph {len(rows)} {r}"]
    lines.extend(" ".join(str(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def divmod_encode_rows(rows: np.ndarray) -> np.ndarray:
    """An earlier ``wlclosure.io._encode_rows``: ASCII text of a block of
    rows of positive ids as uint8, digits by signed ``divmod`` on every
    column and the pad columns always compressed away by a keep mask."""
    hi = int(rows.max())
    width = len(str(hi))
    quotient = rows.astype(np.int32 if hi <= 2**31 - 1 else np.int64)
    digit = np.empty_like(quotient)
    text = np.empty(rows.shape + (width + 1,), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    for column in range(width - 1, -1, -1):
        if column < width - 1:
            np.not_equal(quotient, 0, out=keep[..., column])
        np.divmod(quotient, 10, out=(quotient, digit))
        text[..., column] = digit
    text[..., :width] += ord("0")
    text[..., width] = ord(" ")
    text[:, -1, width] = ord("\n")
    return text[keep]


def python_color_counts(grid) -> tuple[int, ...]:
    """Cell count per color id ``1..max``, indexed by ``color - 1``."""
    counts = Counter(int(c) for row in grid for c in row)
    return tuple(counts[c] for c in range(1, max(counts) + 1))


def assert_color_matrix_invariant(x) -> None:
    """The full :class:`~wlclosure.graph.ColorMatrix` invariant: square
    read-only cells in the smallest unsigned dtype that holds ``r``, whose
    set of entries is exactly ``{1..r}``."""
    cells = x.cells
    assert cells.ndim == 2 and cells.shape[0] == cells.shape[1] >= 1
    assert cells.dtype == np.min_scalar_type(x.r) and not cells.flags.writeable
    assert set(cells.ravel().tolist()) == set(range(1, x.r + 1))


def python_parse_graph_raw(text: str) -> list[list[int]]:
    """Reader reference, token by token with ``int()``; raises ValueError.

    Agrees with the file grammar on valid files only: ``int()`` also takes
    signs, underscores and non-ASCII digits, which the grammar rejects.
    """
    lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            lines.append(stripped)
    if not lines:
        raise ValueError("empty input")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "wlgraph":
        raise ValueError(f"bad header {lines[0]!r}")
    n, r = int(head[1]), int(head[2])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    grid = []
    for i, line in enumerate(lines[1:]):
        tokens = line.split()
        if len(tokens) != n:
            raise ValueError(f"row {i} has {len(tokens)} entries, expected {n}")
        grid.append([int(t) for t in tokens])
    if min(min(row) for row in grid) <= 0 or len({c for row in grid for c in row}) != r:
        raise ValueError("bad color ids")
    return grid


def python_verify_coherent(x) -> CoherenceReport:
    """Check the three coherence axioms by direct counting, O(n^3) time."""
    n = x.n
    grid = x.cells.tolist()
    columns = [list(col) for col in zip(*grid)]

    loop_cell_of: dict[int, tuple[int, int]] = {}
    for u in range(n):
        loop_cell_of.setdefault(grid[u][u], (u, u))
    for u in range(n):
        for v in range(n):
            if u != v and grid[u][v] in loop_cell_of:
                witness = CoherenceWitness(
                    "diagonal_overlap", loop_cell_of[grid[u][v]], (u, v)
                )
                return CoherenceReport(False, witness)

    reverse_of: dict[int, int] = {}
    seen_at: dict[int, tuple[int, int]] = {}
    for u in range(n):
        for v in range(n):
            color, reverse = grid[u][v], grid[v][u]
            if color not in reverse_of:
                reverse_of[color] = reverse
                seen_at[color] = (u, v)
            elif reverse_of[color] != reverse:
                witness = CoherenceWitness("transpose_split", seen_at[color], (u, v))
                return CoherenceReport(False, witness)

    class_sizes = Counter(c for row in grid for c in row)
    reference: dict[int, Counter] = {}
    ref_cell: dict[int, tuple[int, int]] = {}
    for u in range(n):
        for v in range(n):
            color = grid[u][v]
            if class_sizes[color] == 1:
                continue
            profile = Counter(zip(grid[u], columns[v]))
            if color not in reference:
                reference[color] = profile
                ref_cell[color] = (u, v)
            elif reference[color] != profile:
                ref = reference[color]
                pair = min(p for p in set(ref) | set(profile) if ref[p] != profile[p])
                witness = CoherenceWitness(
                    "profile_mismatch", ref_cell[color], (u, v), pair
                )
                return CoherenceReport(False, witness)

    return CoherenceReport(True, None)
