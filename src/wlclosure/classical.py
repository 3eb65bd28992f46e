"""Exact refinement of colored complete digraphs to their coherent closure.

One refinement step gives every cell ``(u, v)`` the multiset of color pairs
``{(c(u, w), c(w, v)) : w}`` -- the cell's row column against the other
cell's column, read through every intermediate vertex -- and splits classes
whose cells disagree.  Iterating until no class splits yields the coarsest
coloring that is stable under this product, the coherent closure.

The step has two equivalent implementations: :func:`noncommutative_product`
materializes the fingerprints as sorted pair/count tuples (clear, small-n),
while :func:`classical_step` packs each fingerprint into a run-length byte
string built from sorted numeric pair codes.  Byte order equals tuple order,
so both rank classes identically; tests hold the two paths against each
other.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph import ColorMatrix, InputError, RefinementOutcome, rainbow_refine, refine_by

_CHUNK_TARGET_BYTES = 32 * 2**20


class RefinementInvariantError(RuntimeError):
    """Internal error: a refinement run violated its structural bounds."""


@dataclass(frozen=True)
class FingerprintMatrix:
    """Per-cell fingerprints: ``cells[u][v]`` is a sorted tuple of ``((left, right), count)``."""

    n: int
    cells: tuple


@dataclass(frozen=True)
class WlResult:
    """Outcome of a full refinement run.

    ``trace[i]`` is the class count after step ``i + 1``; ``stopping_reason``
    is ``"stable"`` (a step split nothing, or ``patience`` Monte Carlo steps
    in a row did not), ``"budget_exhausted"`` (the theoretical policy ran its
    whole budget) or ``"discrete"`` (a Monte Carlo run reached ``n**2``
    classes, after which no step can split; exact, since Monte Carlo
    iterates are never finer than the closure).
    """

    closure: ColorMatrix
    iterations: int
    trace: tuple[int, ...]
    stopping_reason: str


def noncommutative_product(x: ColorMatrix) -> FingerprintMatrix:
    """Fingerprint every cell by its multiset of (row color, column color) pairs.

    Pure-Python reference path, quadratic memory in the worst case; intended
    for small inputs and differential tests.
    """
    n = x.n
    grid = x.cells.tolist()
    columns = [list(col) for col in zip(*grid)]
    rows = []
    for u in range(n):
        row = []
        for v in range(n):
            counts = Counter(zip(grid[u], columns[v]))
            row.append(tuple(sorted(counts.items())))
        rows.append(tuple(row))
    return FingerprintMatrix(n, tuple(rows))


def _fingerprint_keys(x: ColorMatrix) -> list[bytes]:
    """Fingerprints as packed byte strings, row-major.

    Each pair ``(left, right)`` becomes the code ``left * (r + 1) + right``;
    per cell the sorted codes are run-length encoded and serialized as
    big-endian u64 ``code, count`` words.  Lexicographic byte order of the
    result matches lexicographic order of the sorted pair/count tuples.
    """
    n = x.n
    base = x.r + 1
    cells = x.cells
    mirror = cells.T
    rows_per_chunk = max(1, _CHUNK_TARGET_BYTES // (n * n * 8))
    keys: list[bytes] = []
    for u0 in range(0, n, rows_per_chunk):
        u1 = min(u0 + rows_per_chunk, n)
        codes = cells[u0:u1, None, :] * base + mirror[None, :, :]
        codes.sort(axis=2)
        for row in codes.reshape(-1, n):
            starts = np.empty(n, dtype=bool)
            starts[0] = True
            np.not_equal(row[1:], row[:-1], out=starts[1:])
            idx = np.flatnonzero(starts)
            words = np.empty(2 * len(idx), dtype=np.uint64)
            words[0::2] = row[idx]
            words[1::2] = np.diff(idx, append=n)
            keys.append(words.astype(">u8").tobytes())
    return keys


def classical_step(x: ColorMatrix) -> RefinementOutcome:
    """Split the classes of ``x`` by exact cell fingerprints."""
    keys = _fingerprint_keys(x)
    rank_of = {key: i + 1 for i, key in enumerate(sorted(set(keys)))}
    values = np.fromiter((rank_of[k] for k in keys), dtype=np.int64, count=len(keys))
    return refine_by(x, values.reshape(x.n, x.n))


def classical_closure(x: ColorMatrix) -> WlResult:
    """Refine ``x`` (after rainbow preprocessing) until no class splits.

    Every step strictly grows the class count or stops the run, so at most
    ``n**2`` steps can refine; exceeding that bound raises
    :class:`RefinementInvariantError`.
    """
    current = rainbow_refine(x)
    trace: list[int] = []
    while True:
        if len(trace) > current.n * current.n + 1:
            raise RefinementInvariantError("refinement did not stabilize within n^2 steps")
        outcome = classical_step(current)
        trace.append(outcome.result.r)
        if not outcome.refined:
            break
        current = outcome.result
    return WlResult(current, len(trace), tuple(trace), "stable")


def iteration_budget(n: int, growth_constant: float = 1.0) -> int:
    """Iteration allowance for a size-``n`` run: ``ceil(growth_constant * n * log2(n))``.

    Stabilization needs O(n log n) steps up to a constant that is not known
    exactly; ``growth_constant`` scales the allowance.  ``n == 1`` gets one
    iteration.
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if growth_constant <= 0:
        raise InputError(f"growth constant must be positive, got {growth_constant}")
    if n == 1:
        return 1
    return math.ceil(growth_constant * n * math.log2(n))
