"""Graph file format and run reports.

A graph file is ASCII text: a header line ``wlgraph <n> <r>``, then ``n``
rows of ``n`` color ids.  An id is a run of ASCII digits with a value from 1
to 2**63 - 1; ids and header fields are separated by spaces or tabs, and
lines end in ``\n``, ``\r\n`` or ``\r``.  Lines whose first non-blank
character is ``#`` are comments; comments and blank lines are ignored.  The
writer always emits the canonical form -- colors renumbered ``1..r`` in
first-occurrence order, single spaces, ``\n`` line ends, no comments -- so a
parse/write round trip is bit-stable after one canonicalization.

Both directions are vectorized over blocks of rows of about
``_BLOCK_CELLS`` cells, so their working set stays a few MiB at any n.

Run reports are ``key: value`` lines in a fixed order.  Wall-time keys are
prefixed ``wall_`` and grouped last; everything above them is byte-identical
across runs with the same inputs and seed.
"""

from __future__ import annotations

import os
import re
import stat
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graph import INT64_MAX, ColorMatrix, InputError, check_size, id_dtype, is_discrete
from .graph import normalize_by_value, validate
from .probabilistic import guard_memory

HEADER_TAG = "wlgraph"
_BLOCK_CELLS = 1 << 15
_INT32_MAX = 2**31 - 1
_MAX_DIGITS = len(str(INT64_MAX))  # 19

_NOT_BLANK = re.compile(rb"[^ \t]")
_FIELD = re.compile(rb"[^ \t]+")


class GraphFileError(InputError):
    """The text does not encode a valid colored complete digraph."""


def _content_lines(data: bytes) -> list[tuple[int, int]]:
    """Spans of the ``\n``-separated lines that are neither blank nor
    comments, leading blanks cut."""
    spans = []
    start = 0
    while start < len(data):
        end = data.find(b"\n", start)
        if end < 0:
            end = len(data)
        first = _NOT_BLANK.search(data, start, end)
        if first is not None:
            if data[first.start()] != ord("#"):
                spans.append((first.start(), end))
            elif not data[start:end].isascii():
                raise GraphFileError("comment line has a non-ASCII byte")
        start = end + 1
    return spans


def _parse_header(line: bytes) -> tuple[int, int]:
    fields = _FIELD.findall(line)
    shown = line.decode("ascii", "replace").rstrip(" \t")
    if len(fields) != 3 or fields[0] != HEADER_TAG.encode():
        raise GraphFileError(f"header must be '{HEADER_TAG} <n> <r>', got {shown!r}")
    if not (fields[1].isdigit() and fields[2].isdigit()):
        raise GraphFileError(f"bad header numbers in {shown!r}")
    n, r = int(fields[1]), int(fields[2])
    if n < 1 or r < 1:
        raise GraphFileError(f"header sizes must be positive, got n={n} r={r}")
    return n, r


def _decode_rows(chunk: bytes, n: int, first_row: int) -> np.ndarray:
    """Ids of consecutive rows joined by ``\n``, row-major, as uint64.

    An entry is a maximal run of bytes that are not blanks or row ends, as
    ``str.split`` would cut it; a row must have ``n`` entries, each a run of
    ASCII digits worth at most ``2**63 - 1``.  The first failing row is
    named, its entry count checked before its bytes, as a row-by-row parse
    would.
    """
    buf = np.frombuffer(chunk, dtype=np.uint8)
    digits = buf - np.uint8(ord("0"))  # wraps for bytes below '0'
    row_end = buf == ord("\n")
    in_entry = ~((buf == ord(" ")) | (buf == ord("\t")) | row_end)
    bounds = np.flatnonzero(np.diff(in_entry, prepend=False, append=False))
    starts, ends = bounds[0::2], bounds[1::2]
    row_ends = np.flatnonzero(row_end)
    counts = np.diff(np.searchsorted(starts, row_ends), prepend=0, append=len(starts))
    bad_count = np.flatnonzero(counts != n)
    bad_byte = np.flatnonzero(in_entry & (digits > 9))
    count_row = int(bad_count[0]) if len(bad_count) else None
    byte_row = int(np.searchsorted(row_ends, bad_byte[0])) if len(bad_byte) else None
    if count_row is not None and (byte_row is None or count_row <= byte_row):
        raise GraphFileError(
            f"row {first_row + count_row} has {counts[count_row]} entries, expected {n}"
        )
    if byte_row is not None:
        raise GraphFileError(f"row {first_row + byte_row} has a non-integer entry")
    # the last (at most 19) digits of each entry right-aligned in a window,
    # the bytes before its first digit zeroed, then Horner over the columns
    lengths = ends - starts
    width = min(int(lengths.max()), _MAX_DIGITS)
    padded = np.concatenate((np.zeros(width, dtype=np.uint8), digits))
    columns = np.lib.stride_tricks.sliding_window_view(padded, width)[ends]
    columns[np.arange(width) < (width - lengths)[:, None]] = 0
    del padded
    values = np.zeros(len(ends), dtype=np.uint64)
    for column in columns.T:
        values *= np.uint64(10)
        values += column
    if width == _MAX_DIGITS:
        # 19 digits fit uint64; any digits before them must be leading zeros
        big = values > INT64_MAX
        longer = np.flatnonzero(lengths > _MAX_DIGITS)
        if len(longer):
            nonzero = np.concatenate(([0], np.cumsum(digits != 0)))
            big[longer] |= nonzero[ends[longer] - _MAX_DIGITS] > nonzero[starts[longer]]
        big = np.flatnonzero(big)
        if len(big):
            raise GraphFileError(
                f"row {first_row + int(big[0]) // n} has a color id above 2^63-1"
            )
    return values


def _read_bytes(n: int, r: int, held: int) -> int:
    """Estimated working set of reading an ``n x n`` grid of ``r`` colors
    (the header's) from ``held`` bytes of text, ids at most ``n**2``.

    The parse holds the text and the int32 grid.  The renumbering, once the
    text is released, holds the grid and, in ``validate``, the largest
    tables: the first position of each id (8 bytes an id up to ``n**2``), a
    label table and the new ids (``w`` bytes an id or cell, ``w`` the new
    ids' width) and 24 bytes a color (the present ids, their order by first
    position and its labels).  Larger ids are renumbered through
    ``np.unique``, which needs more.
    """
    cells = n * n
    r = min(r, cells)
    return max(held + 4 * cells, (12 + 2 * id_dtype(r).itemsize) * cells + 24 * r)


def parse_graph_raw(text: str | bytes) -> tuple[np.ndarray, int]:
    """Parse to the raw color grid, not renumbered, and the header's ``r``.

    The grid is int32 when every id fits, else int64.  A ``str`` is read as
    its UTF-8 bytes, so a non-ASCII character is an invalid byte.  The text
    is checked here; the ids are neither checked positive nor counted
    against ``r``: the renumbering does both (:func:`_declared`), so the
    grid is scanned once.  Before the grid is allocated, the read's working
    set (:func:`_read_bytes`) is checked against the memory budget.
    """
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    if b"\r" in data:  # a line end too; "\r\n" then reads as a line end and a blank line
        data = data.replace(b"\r", b"\n")
    spans = _content_lines(data)
    if not spans:
        raise GraphFileError("empty input")
    n, r = _parse_header(data[slice(*spans[0])])
    if len(spans) != n + 1:
        raise GraphFileError(f"expected {n} rows, found {len(spans) - 1}")
    # a row of n entries spans at least 2n - 1 bytes; a body too short for
    # that has a short row, which decoding names before any grid is needed
    grid = None
    if sum(e - s for s, e in spans[1:]) >= n * (2 * n - 1):
        check_size(n)
        # a str is held beside its bytes, and bytes beside their line-end copy
        held = len(data) if data is text else 2 * len(data)
        guard_memory(_read_bytes(n, r, held), "graph read", f"at n={n}")
        grid = np.empty((n, n), dtype=np.int32)
    rows = max(1, _BLOCK_CELLS // n)
    for top in range(0, n, rows):
        block = spans[1 + top : 1 + top + rows]
        values = _decode_rows(b"\n".join([data[s:e] for s, e in block]), n, top)
        if grid is None:
            continue
        if grid.dtype == np.int32 and values.max() > _INT32_MAX:
            grid = grid.astype(np.int64)
        grid[top : top + len(block)] = values.reshape(len(block), n)
    return grid, r


def _renumbered(renumber, grid: np.ndarray):
    """``renumber(grid)`` with its input errors raised as :class:`GraphFileError`."""
    try:
        return renumber(grid)
    except InputError as exc:
        raise GraphFileError(str(exc)) from exc


def _declared(x: ColorMatrix, declared: int) -> ColorMatrix:
    """``x``, once its color count equals the header's ``declared``."""
    if x.r != declared:
        raise GraphFileError(f"header declares {declared} colors, grid uses {x.r}")
    return x


def _read_raw(path) -> tuple[np.ndarray, int]:
    """:func:`parse_graph_raw` of a graph file; the file's bytes are
    released on return, before the grid is renumbered.  A file larger than
    the memory budget is refused before it is read."""
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            guard_memory(size, "graph read", f"for the {size:,} bytes of {path}")
            data = handle.read()
    except OSError as exc:
        raise GraphFileError(f"cannot read {path}: {exc}") from exc
    return parse_graph_raw(data)


def read_graph_file(path) -> ColorMatrix:
    """Read a graph file and renumber its colors by first occurrence
    (:func:`~wlclosure.graph.validate`), checking the header's color count."""
    grid, declared = _read_raw(path)
    return _declared(_renumbered(validate, grid), declared)


def read_graph_by_value(path) -> tuple[ColorMatrix, np.ndarray]:
    """Read a graph file renumbered by sorted original id, and those ids:
    :func:`normalize_by_value` of its raw grid."""
    grid, declared = _read_raw(path)
    x, ids = _renumbered(normalize_by_value, grid)
    return _declared(x, declared), ids


def _in_first_occurrence_order(x: ColorMatrix) -> bool:
    """True when the colors already are the canonical ``1..r`` by first
    occurrence: the first cell is 1 and each cell exceeds the running maximum
    of the cells before it by at most one.  Much cheaper than renumbering;
    checked a block at a time, and only until the running maximum is ``r``:
    no later cell, at most ``r``, can exceed it."""
    flat = x.cells.ravel()
    top = 0
    for start in range(0, len(flat), _BLOCK_CELLS):
        if top == x.r:
            break
        block = flat[start : start + _BLOCK_CELLS]
        bound = np.maximum.accumulate(block)
        np.maximum(bound, top, out=bound)
        # ids are at least 1, so ``block - 1`` cannot wrap where ``bound + 1`` could
        if block[0] > top + 1 or (block[1:] - 1 > bound[:-1]).any():
            return False
        top = int(bound[-1])
    return True


def _encode_rows(rows: np.ndarray) -> np.ndarray:
    """ASCII text of a block of rows of positive ids, as a uint8 array.

    Each id is cut into a right-aligned column of decimal digits by
    unsigned ``floor_divide`` by 10 on uint32, which numpy vectorises where
    it does not ``divmod``; the ids, a coloring's or cell positions, are at
    most the cell count, at most ``MAX_CELLS`` = 2**31.  Ids are separated
    by one space and each row ends in ``\n``.  The uniform-width rule: when
    the block's smallest and largest ids have the same digit count, so do
    all its ids, no column is pad and the padded text is the text.
    Otherwise a column before an id's first digit is pad, masked out and
    compressed away.
    """
    hi = int(rows.max())
    width = len(str(hi))
    quotient = rows.astype(np.uint32)
    high, low = np.empty_like(quotient), np.empty_like(quotient)
    text = np.empty(rows.shape + (width + 1,), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool) if len(str(int(rows.min()))) < width else None
    for column in range(width - 1, -1, -1):
        # ids are positive: the last column is never pad
        if keep is not None and column < width - 1:
            np.not_equal(quotient, 0, out=keep[..., column])
        if column:
            np.floor_divide(quotient, 10, out=high)
            np.multiply(high, 10, out=low)
            np.subtract(quotient, low, out=low)  # the digit
            text[..., column] = low
            quotient, high = high, quotient
        else:  # the last quotient is the first digit
            text[..., 0] = quotient
    text[..., :width] += ord("0")
    text[..., width] = ord(" ")
    text[:, -1, width] = ord("\n")
    return text.ravel() if keep is None else text[keep]


def _canonical_chunks(x: ColorMatrix, canonical: bool = True) -> Iterator[bytes | np.ndarray]:
    """The file text of ``x`` as ASCII chunks: the header, then blocks of rows.

    With ``canonical`` (the default) colors are first renumbered ``1..r``
    in first-occurrence order -- for a discrete coloring, whose cells all
    differ, that numbers the cells in order, with no scan of them; the
    chunks are bytes-like, for a binary file, a hash or ``b"".join``.
    """
    n, cells = x.n, x.cells
    positions = canonical and is_discrete(x)
    if canonical and not positions and not _in_first_occurrence_order(x):
        cells = validate(cells).cells
    yield f"{HEADER_TAG} {n} {x.r}\n".encode("ascii")
    rows = max(1, _BLOCK_CELLS // n)
    for top in range(0, n, rows):
        end = min(top + rows, n)
        if positions:  # the ids 1..n**2 in row-major order, a block at a time
            block = np.arange(top * n + 1, end * n + 1, dtype=np.int64).reshape(end - top, n)
        else:
            block = cells[top:end]
        yield _encode_rows(block)


def format_graph_text(x: ColorMatrix, canonical: bool = True) -> str:
    """Serialize a coloring; by default colors are canonically renumbered.

    Pass ``canonical=False`` to emit color ids exactly as stored -- needed
    when two files must keep a shared color vocabulary, e.g. inputs for a
    paired run (ids compare by value across the two files there, and the
    canonical renumbering depends on where colors first occur).
    """
    return b"".join(_canonical_chunks(x, canonical)).decode("ascii")


def write_graph_file(path, x: ColorMatrix, canonical: bool = True) -> None:
    """Write atomically: the file appears complete or not at all.  A new
    file gets mode ``0o666`` less the umask, and a replaced regular file
    keeps its mode.  A path that cannot be written raises
    :class:`GraphFileError`."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        while True:  # a fresh name beside the target, so the rename is atomic
            name = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
            try:
                fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:
                pass
        try:
            with open(fd, "wb") as handle:
                handle.writelines(_canonical_chunks(x, canonical))
            try:
                mode = os.stat(path).st_mode
            except FileNotFoundError:
                mode = 0
            if stat.S_ISREG(mode):
                os.chmod(name, stat.S_IMODE(mode))
            os.replace(name, path)
        except BaseException:
            os.unlink(name)
            raise
    except OSError as exc:
        raise GraphFileError(f"cannot write {path}: {exc.strerror}") from exc


def input_digest(x: ColorMatrix) -> str:
    """SHA-256 of the canonical text form, hashed as it is encoded.

    The hash is CPython's built-in SHA-256 (``_sha2`` from Python 3.12,
    ``_sha256`` before), as in the standard ``random`` module: ``hashlib``
    loads OpenSSL's libcrypto, about 3.5 MiB of resident memory, to hash a
    few MiB of text.  ``hashlib`` serves only a build that ships neither.
    The digest is the same.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    digest = sha256()
    for chunk in _canonical_chunks(x):
        digest.update(chunk)
    return digest.hexdigest()


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
