"""Graph file format and run reports.

A graph file is plain text: a header line ``wlgraph <n> <r>``, then ``n``
rows of ``n`` positive integers.  Lines starting with ``#`` are comments and
blank lines are ignored.  The writer always emits the canonical form --
colors renumbered ``1..r`` in first-occurrence order, no comments -- so a
parse/write round trip is bit-stable after one canonicalization.

Run reports are ``key: value`` lines in a fixed order.  Wall-time keys are
prefixed ``wall_`` and grouped last; everything above them is byte-identical
across runs with the same inputs and seed.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .graph import ColorMatrix, InputError, validate

HEADER_TAG = "wlgraph"


class GraphFileError(InputError):
    """The text does not encode a valid colored complete digraph."""


def parse_graph_raw(text: str) -> np.ndarray:
    """Parse to the raw color grid, validated but not renumbered."""
    lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            lines.append(stripped)
    if not lines:
        raise GraphFileError("empty input")
    head = lines[0].split()
    if len(head) != 3 or head[0] != HEADER_TAG:
        raise GraphFileError(f"header must be '{HEADER_TAG} <n> <r>', got {lines[0]!r}")
    try:
        n, r = int(head[1]), int(head[2])
    except ValueError as exc:
        raise GraphFileError(f"bad header numbers in {lines[0]!r}") from exc
    if n < 1 or r < 1:
        raise GraphFileError(f"header sizes must be positive, got n={n} r={r}")
    if len(lines) != n + 1:
        raise GraphFileError(f"expected {n} rows, found {len(lines) - 1}")
    grid = np.empty((n, n), dtype=np.int64)
    for i, line in enumerate(lines[1:]):
        tokens = line.split()
        if len(tokens) != n:
            raise GraphFileError(f"row {i} has {len(tokens)} entries, expected {n}")
        try:
            grid[i] = [int(t) for t in tokens]
        except ValueError as exc:
            raise GraphFileError(f"row {i} has a non-integer entry") from exc
    if grid.min() <= 0:
        raise GraphFileError("color ids must be positive")
    distinct = len(np.unique(grid))
    if distinct != r:
        raise GraphFileError(f"header declares {r} colors, grid uses {distinct}")
    return grid


def parse_graph_text(text: str) -> ColorMatrix:
    """Parse and canonicalize a graph file's content."""
    try:
        return validate(parse_graph_raw(text))
    except GraphFileError:
        raise
    except InputError as exc:
        raise GraphFileError(str(exc)) from exc


def read_graph_file(path) -> ColorMatrix:
    try:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
    except OSError as exc:
        raise GraphFileError(f"cannot read {path}: {exc}") from exc
    return parse_graph_text(text)


def _in_first_occurrence_order(cells: np.ndarray) -> bool:
    """True when the colors already are the canonical ``1..r`` by first
    occurrence: the first cell is 1 and each cell exceeds the running maximum
    of the cells before it by at most one.  Much cheaper than renumbering."""
    flat = cells.ravel()
    return bool(flat[0] == 1 and (flat[1:] <= np.maximum.accumulate(flat)[:-1] + 1).all())


def format_graph_text(x: ColorMatrix, canonical: bool = True) -> str:
    """Serialize a coloring; by default colors are canonically renumbered.

    Pass ``canonical=False`` to emit color ids exactly as stored -- needed
    when two files must keep a shared color vocabulary, e.g. inputs for a
    paired run (ids compare by value across the two files there, and the
    canonical renumbering depends on where colors first occur).
    """
    out = validate(x.cells) if canonical and not _in_first_occurrence_order(x.cells) else x
    lines = [f"{HEADER_TAG} {out.n} {out.r}"]
    lines.extend(" ".join(str(int(c)) for c in row) for row in out.cells)
    return "\n".join(lines) + "\n"


def write_graph_file(path, x: ColorMatrix, canonical: bool = True) -> None:
    """Write atomically: the file appears complete or not at all."""
    text = format_graph_text(x, canonical=canonical)
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="ascii", dir=directory, delete=False, suffix=".tmp"
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


def input_digest(x: ColorMatrix) -> str:
    """SHA-256 of the canonical text form."""
    return hashlib.sha256(format_graph_text(x).encode("ascii")).hexdigest()


@dataclass
class RunReport:
    """Fixed-order textual summary of one CLI run."""

    command: str
    input_digest: str
    n: int
    colors_in: int
    mode: str
    policy: str
    m: int | None
    seed: int | None
    iterations: int
    stopping_reason: str
    classes_out: int
    trace: tuple[int, ...]
    error_note: tuple[str, str] | None = None
    notes: tuple[str, ...] = ()
    timings: tuple[tuple[str, float], ...] = ()
    closure_text: str | None = None

    def to_text(self) -> str:
        lines = [
            f"command: {self.command}",
            f"input_sha256: {self.input_digest}",
            f"n: {self.n}",
            f"colors_in: {self.colors_in}",
            f"mode: {self.mode}",
            f"policy: {self.policy}",
            f"m: {'-' if self.m is None else self.m}",
            f"seed: {'-' if self.seed is None else self.seed}",
            f"iterations: {self.iterations}",
            f"stopping_reason: {self.stopping_reason}",
            f"classes_out: {self.classes_out}",
            f"trace: {','.join(str(t) for t in self.trace)}",
        ]
        if self.error_note is not None:
            lines.append(f"{self.error_note[0]}: {self.error_note[1]}")
        lines.extend(f"note: {note}" for note in self.notes)
        lines.extend(f"wall_{key}_ms: {ms:.3f}" for key, ms in self.timings)
        if self.closure_text is not None:
            lines.append("closure:")
            lines.extend("  " + ln for ln in self.closure_text.rstrip("\n").split("\n"))
        return "\n".join(lines) + "\n"
