"""Tests for the file format, run reports, and the command-line interface."""

from __future__ import annotations

import errno
import gc
import hashlib
import importlib.util
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wlclosure import cli, graph, probabilistic
from wlclosure import io as wio
from wlclosure.classical import classical_closure
from wlclosure.coherence import make_fixture
from wlclosure.graph import (
    ColorMatrix,
    is_rainbow,
    is_same_partition,
    normalize_by_value,
    permute_vertices,
    validate,
)
from wlclosure.io import (
    GraphFileError,
    format_graph_text,
    input_digest,
    parse_graph_raw,
    read_graph_by_value,
    read_graph_file,
    write_graph_file,
)
from wlclosure.cli import main

from oracles import (
    brute_rainbow,
    divmod_encode_rows,
    fingerprint_step,
    python_format_graph_text,
    python_parse_graph_raw,
    random_grid,
)

INT64_MAX = 2**63 - 1


def strip_wall_lines(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("wall_"))


def read_text(tmp_path, text: str):
    """:func:`read_graph_file` of a file holding ``text``, encoded as the
    parser reads a ``str``."""
    path = tmp_path / "graph.wlg"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    return read_graph_file(path)


@pytest.mark.parametrize("seed", range(6))
def test_round_trip_is_canonical(tmp_path, seed):
    rng = np.random.default_rng(1900 + seed)
    x = validate(random_grid(rng, int(rng.integers(1, 15)), int(rng.integers(1, 6))))
    text = format_graph_text(x)
    back = read_text(tmp_path, text)
    assert is_same_partition(back, x)
    assert format_graph_text(back) == text


@pytest.mark.parametrize(
    "cells, expected",
    [
        ([[1, 2], [2, 3]], "1 2\n2 3"),  # already canonical: written as stored
        ([[1, 3], [3, 2]], "1 2\n2 3"),  # 3 appears before 2
        ([[2, 1], [1, 2]], "1 2\n2 1"),  # first cell is not 1
        ([[1, 1], [3, 2]], "1 1\n2 3"),
    ],
)
def test_format_writes_first_occurrence_order(cells, expected):
    x = ColorMatrix(np.array(cells), int(np.max(cells)))
    assert format_graph_text(x) == f"wlgraph 2 {x.r}\n{expected}\n"
    assert format_graph_text(x) == format_graph_text(validate(x.cells))


@pytest.mark.parametrize("late", [False, True])
def test_first_occurrence_check_reads_until_every_id_has_occurred(late):
    """Once the running maximum is ``r`` no later cell can break the order;
    before that, an id out of order is found however late it occurs."""
    n = 400  # several text blocks
    cells = np.random.default_rng(3).integers(1, 3, size=(n, n))
    cells[0, :2] = 1, 2
    cells[n - 1, n - 2 :] = (4, 3) if late else (3, 4)
    x = ColorMatrix(cells, 4)
    assert wio._in_first_occurrence_order(x) == (not late)
    assert wio._in_first_occurrence_order(validate(cells))
    assert format_graph_text(x) == python_format_graph_text(cells)


def test_parse_ignores_comments_and_blank_lines(tmp_path):
    text = "# a colored triangle\n\nwlgraph 2 2\n# rows follow\n1 2\n\n2 1\n"
    x = read_text(tmp_path, text)
    assert x.cells.tolist() == [[1, 2], [2, 1]]


def test_parse_renumbers_noncanonical_colors(tmp_path):
    x = read_text(tmp_path, "wlgraph 2 2\n7 4\n4 7\n")
    assert x.cells.tolist() == [[1, 2], [2, 1]]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "graph 2 2\n1 2\n2 1\n",
        "wlgraph 2\n1 2\n2 1\n",
        "wlgraph two 2\n1 2\n2 1\n",
        "wlgraph 0 1\n",
        "wlgraph 2 2\n1 2\n",
        "wlgraph 2 2\n1 2 1\n2 1\n",
        "wlgraph 2 2\n1 x\n2 1\n",
        "wlgraph 2 2\n0 1\n1 0\n",
        "wlgraph 2 3\n1 2\n2 1\n",
        "wlgraph 2 1\n1 2\n2 1\n",
        # an entry is a run of ASCII digits: no sign, underscore or other digits
        "wlgraph 2 2\n+1 2\n2 1\n",
        "wlgraph 2 3\n1 2\n2 1_0\n",
        "wlgraph 2 2\n1 2\n2 \u0661\n",
        "wlgraph +2 2\n1 2\n2 1\n",
        "wlgraph 2 2_0\n1 2\n2 1\n",
        # separators are spaces and tabs; line ends are \n, \r\n and \r
        "wlgraph 2 2\n1\u20032\n2 1\n",
        "wlgraph 2 2\n1 2\x0c\n2 1\n",
        "wlgraph 2 2\n1 2\x0b2 1\n",
        "wlgraph 2 2\n1 2\n2 1\x00\n",
        # the file is ASCII, comments included
        "wlgraph 2 2\n1 2\n2 1\n# caf\u00e9\n",
        "wlgraph 2 2\n1 2\n2 1\u00e9\n",
        # ids above 2**63 - 1
        "wlgraph 2 2\n9223372036854775808 1\n1 1\n",
        "wlgraph 2 2\n1 1\n1 99999999999999999999\n",
        "wlgraph 2 2\n1 1\n1 100000000000000000000000001\n",
    ],
)
def test_parse_rejects_malformed_files(tmp_path, text):
    with pytest.raises(GraphFileError):
        read_text(tmp_path, text)
    try:
        grid, r = parse_graph_raw(text.encode("utf-8"))
    except GraphFileError:
        return
    # well-formed text: the renumbering rejects an id below 1 or an undeclared color count
    assert grid.min() <= 0 or len(np.unique(grid)) != r


@pytest.mark.parametrize(
    "text, message",
    [
        ("wlgraph 3 2\n1 2 1\n2 1 2\n1 +2 1\n", "row 2 has a non-integer entry"),
        ("wlgraph 3 2\n1 2 1\n2 1\n1 x 1 1\n", "row 1 has 2 entries, expected 3"),
        # a row's entry count is checked before its bytes
        ("wlgraph 3 2\n1 2 1\n2 1 x 1\n1 2 1\n", "row 1 has 4 entries, expected 3"),
        ("wlgraph 2 2\n1 2\n2 9223372036854775808\n", "row 1 has a color id above 2^63-1"),
        ("wlgraph two 2\n1 2\n2 1\n", "bad header numbers in 'wlgraph two 2'"),
    ],
)
def test_parse_errors_name_the_row(text, message):
    with pytest.raises(GraphFileError, match=re.escape(message)):
        parse_graph_raw(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("wlgraph 2 2\n0 1\n1 0\n", "color ids must be positive"),
        ("wlgraph 2 3\n1 2\n2 1\n", "header declares 3 colors, grid uses 2"),
        ("wlgraph 2 1\n1 2\n2 1\n", "header declares 1 colors, grid uses 2"),
        ("wlgraph 2 3\n7 99999999999\n7 7\n", "header declares 3 colors, grid uses 2"),
    ],
)
def test_renumbering_rejects_what_the_parser_lets_through(tmp_path, text, message):
    """The parser returns the header's r unchecked; each reader's
    renumbering checks the ids and compares its count with r."""
    grid, r = parse_graph_raw(text)
    assert grid.min() <= 0 or len(np.unique(grid)) != r
    path = tmp_path / "graph.wlg"
    path.write_text(text)
    for read in (read_graph_file, read_graph_by_value):
        with pytest.raises(GraphFileError, match=re.escape(message)):
            read(path)


def test_parse_errors_name_rows_past_the_first_block():
    n = 300
    rows = [" ".join(["1"] * n)] * n
    rows[250] = rows[250][:-1] + "z"
    with pytest.raises(GraphFileError, match="row 250 has a non-integer entry"):
        parse_graph_raw(f"wlgraph {n} 1\n" + "\n".join(rows) + "\n")


def test_parse_names_a_short_row_before_allocating_the_header_size():
    # n = 100000 would be a 40 GB grid; the 200 KB body cannot hold it
    text = "wlgraph 100000 1\n" + "1\n" * 100000
    with pytest.raises(GraphFileError, match="row 0 has 1 entries, expected 100000"):
        parse_graph_raw(text)


def test_parse_refuses_a_grid_past_the_cell_limit(monkeypatch):
    """The parser checks the limit itself, before it allocates a grid and
    before any renumbering."""
    text = format_graph_text(make_fixture("path", 11))
    monkeypatch.setattr(graph, "MAX_CELLS", 121)
    assert parse_graph_raw(text)[0].shape == (11, 11)
    monkeypatch.setattr(graph, "MAX_CELLS", 120)
    with pytest.raises(graph.ResourceGuardError, match="n=11"):
        parse_graph_raw(text)


def test_parse_accepts_ids_up_to_int64_max(tmp_path):
    text = f"wlgraph 2 2\n{INT64_MAX} 1\n1 000000000000000000000000{INT64_MAX}\n"
    raw, r = parse_graph_raw(text)
    assert raw.dtype == np.int64 and r == 2
    assert raw.tolist() == [[INT64_MAX, 1], [1, INT64_MAX]]
    assert read_text(tmp_path, text).cells.tolist() == [[1, 2], [2, 1]]


def _wide_grid(rng, n, digits):
    """Ids of 1..``digits`` digits, the widest present: sparse, as stored by value."""
    top = min(10**digits - 1, INT64_MAX)
    grid = rng.integers(10 ** (digits - 1), top, size=(n, n), dtype=np.int64, endpoint=True)
    grid //= 10 ** rng.integers(0, digits, size=(n, n))
    grid[0, 0] = top
    return grid


@pytest.mark.parametrize("digits", range(1, 20))
def test_encoder_and_decoder_match_python_oracles_at_every_width(digits):
    grid = _wide_grid(np.random.default_rng(digits), 9, digits)
    expected = python_format_graph_text(grid, canonical=False)
    if grid.max() < 2**32:  # the encoder gets ids up to the 2**31 cell limit
        body = wio._encode_rows(grid).tobytes().decode("ascii")
        assert expected.endswith("\n" + body)
    raw, _ = parse_graph_raw(expected)
    assert raw.tolist() == python_parse_graph_raw(expected) == grid.tolist()
    assert raw.dtype == (np.int32 if grid.max() <= 2**31 - 1 else np.int64)


def _encoder_block(name):
    rng = np.random.default_rng(len(name))
    if name.startswith("uniform_"):  # every id with the same digit count, up to the cell limit
        digits = int(name.split("_")[1])
        lo, hi = 10 ** (digits - 1), min(10**digits - 1, 2**31)
        return rng.integers(lo, hi, size=(5, 11), dtype=np.int64, endpoint=True)
    if name.startswith("straddle_"):  # widths w and w + 1 in one block
        edge = int(name.split("_")[1])
        block = rng.integers(edge - 3, edge + 3, size=(4, 9), dtype=np.int64)
        block[0, :2] = edge - 1, edge
        return block
    if name == "single_row":
        return rng.integers(1, 10**5, size=(1, 40), dtype=np.int64)
    if name == "single_row_uniform":
        return np.full((1, 7), 42, dtype=np.int64)
    if name == "single_id":
        return np.array([[1]], dtype=np.int64)
    if name == "uint32_edge":  # the cell limit and the widest ids uint32 holds
        return np.array([[2**32 - 1, 2**31, 1], [3, 2**32 - 2, 10]], dtype=np.int64)
    if name == "discrete_block":  # a row block of a discrete closure's text
        return np.arange(99_990, 100_090, dtype=np.int64).reshape(4, 25)
    raise AssertionError(name)


_ENCODER_BLOCKS = (
    [f"uniform_{d}" for d in (1, 2, 6, 7, 10)]
    + [f"straddle_{e}" for e in (10, 100, 10**6, 10**9)]
    + ["single_row", "single_row_uniform", "single_id", "uint32_edge", "discrete_block"]
)


@pytest.mark.parametrize("name", _ENCODER_BLOCKS)
def test_encoder_matches_the_divmod_encoder(name):
    rows = _encoder_block(name)
    expected = divmod_encode_rows(rows)
    assert wio._encode_rows(rows).tobytes() == expected.tobytes()
    text = expected.tobytes().decode("ascii")
    assert text == "".join(" ".join(map(str, row)) + "\n" for row in rows.tolist())


@pytest.mark.parametrize("n", [1, 3, 37, 300])
@pytest.mark.parametrize("canonical", [True, False])
@pytest.mark.parametrize("classes", ["discrete", "pairs"])
def test_written_blocks_match_the_divmod_encoder(n, canonical, classes):
    """Every row block of a file, canonical or with ids as stored."""
    rng = np.random.default_rng(n)
    order = rng.permutation(n * n) // (1 if classes == "discrete" else 2)
    y = validate(order.reshape(n, n) + 1)
    x = ColorMatrix((y.r + 1 - y.cells).copy(), y.r)  # not first-occurrence order
    chunks = list(wio._canonical_chunks(x, canonical))
    cells = validate(x.cells).cells if canonical else x.cells
    rows = max(1, wio._BLOCK_CELLS // n)
    blocks = [cells[top : top + rows] for top in range(0, n, rows)]
    assert len(chunks) == 1 + len(blocks)
    for chunk, block in zip(chunks[1:], blocks):
        assert chunk.tobytes() == divmod_encode_rows(block).tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 300])
@pytest.mark.parametrize("kind", ["three_colors", "discrete", "relabeled"])
def test_format_matches_row_join_oracle(n, kind):
    rng = np.random.default_rng(n)
    if kind == "three_colors":
        x = validate(random_grid(rng, n, 3))
    elif kind == "discrete":
        x = validate(rng.permutation(n * n).reshape(n, n) + 1)
    else:  # ids stored out of first-occurrence order
        y = validate(random_grid(rng, n, 5))
        x = ColorMatrix((y.r + 1 - y.cells).copy(), y.r)
    if n == 300:  # rows per text block do not divide n
        assert n % max(1, wio._BLOCK_CELLS // n)
    for canonical in (True, False):
        expected = python_format_graph_text(x.cells, canonical=canonical)
        assert format_graph_text(x, canonical=canonical) == expected
    assert input_digest(x) == hashlib.sha256(
        python_format_graph_text(x.cells).encode("ascii")
    ).hexdigest()


@pytest.mark.parametrize("n", [1, 5, 300])
def test_parse_matches_token_oracle_with_comments_blank_lines_and_line_ends(n):
    rng = np.random.default_rng(40 + n)
    grid = _wide_grid(rng, n, 6)
    grid[rng.random((n, n)) < 0.5] = 7
    r = len(np.unique(grid))
    ends = ["\n", "\r\n", "\r"]
    lines = ["# leading comment", "", f"  wlgraph\t{n}  {r}\t"]
    for row in grid.tolist():
        if rng.random() < 0.3:
            lines.append(rng.choice(["  # a comment 1 2 3", "#", "\t ", ""]))
        seps = rng.choice([" ", "\t", "  ", " \t "], size=n)
        lines.append(rng.choice(["", " ", "\t"]) + "".join(f"{c}{s}" for c, s in zip(row, seps)))
    text = "".join(line + rng.choice(ends) for line in lines) + "# trailing comment"
    raw, declared = parse_graph_raw(text)
    assert raw.tolist() == python_parse_graph_raw(text) == grid.tolist() and declared == r
    assert parse_graph_raw(text.encode("ascii"))[0].tolist() == grid.tolist()


# SHA-256 of the canonical text, as computed by the row-join writer: the
# digest a report prints must not change with the encoder
@pytest.mark.parametrize(
    "make, hexdigest",
    [
        (
            lambda: make_fixture("petersen"),
            "471fea84f1994b161cf6123f90baaaaa096c50a6fc9e87def3aa491a6c71a1b0",
        ),
        (
            lambda: make_fixture("cycle5"),
            "f5ad46da69f24b84ee1565e3f59c40654887e3827eff0749e4ebcfd1eb4d45e2",
        ),
        (
            lambda: validate(np.random.default_rng(2024).integers(1, 6, size=(40, 40))),
            "bd63955a877cb0aeab8c0363dd6c6a3bad0f79d71ec2bc296ffb2fe33e0d36d3",
        ),
        (
            lambda: validate(np.random.default_rng(7).permutation(300 * 300).reshape(300, 300) + 1),
            "eb730c5ee103995387a935674a00c15a000567b06d8e473e15f0bbc869d3160c",
        ),
    ],
)
def test_input_digest_is_pinned(make, hexdigest):
    assert input_digest(make()) == hexdigest


def test_text_layers_working_set_is_block_bounded(tmp_path):
    """Writing, reading and hashing a discrete n=1024 coloring together stay
    within two n x n int64 grids, the read-back coloring included."""
    n = 1024
    x = ColorMatrix(np.random.default_rng(3).permutation(n * n).reshape(n, n) + 1, n * n)
    path = tmp_path / "discrete.wl"
    gc.collect()
    tracemalloc.start()
    try:
        write_graph_file(path, x)
        back = read_graph_file(path)
        digest = input_digest(back)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.r == n * n and back.cells[-1, -1] == n * n
    assert digest == input_digest(x)
    assert peak <= 2 * n * n * 8, f"traced peak {peak / 2**20:.2f} MiB"


def test_write_and_read_file(tmp_path):
    x = make_fixture("cycle5")
    path = tmp_path / "c5.wl"
    write_graph_file(path, x)
    assert read_graph_file(path).cells.tolist() == x.cells.tolist()
    # overwriting replaces the content atomically
    write_graph_file(path, make_fixture("trivial", 3))
    assert read_graph_file(path).n == 3
    assert not list(tmp_path.glob("*.tmp"))


def test_read_missing_file_raises():
    with pytest.raises(GraphFileError):
        read_graph_file("/nonexistent/place/graph.wl")


def test_digest_depends_on_partition_not_color_names():
    assert input_digest(validate([[5, 9], [9, 5]])) == input_digest(validate([[1, 2], [2, 1]]))
    assert input_digest(validate([[1, 2], [2, 1]])) != input_digest(validate([[1, 1], [1, 1]]))


# CPython's built-in SHA-256: ``_sha2`` from 3.12, ``_sha256`` before
_BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fixture(tmp_path, name, *params, filename="g.wl"):
    x = make_fixture(name, *params)
    path = tmp_path / filename
    write_graph_file(path, x)
    return path, x


def test_cli_close_exact(tmp_path, capsys):
    path, x = write_fixture(tmp_path, "trivial", 4)
    out_path = tmp_path / "closure.wl"
    code, out, _ = run_cli(capsys, "close", str(path), "--mode", "exact", "--out", str(out_path))
    assert code == 0
    assert "mode: exact" in out
    assert "stopping_reason: stable" in out
    assert "classes_out: 2" in out
    assert "seed: -" in out
    closure = read_graph_file(out_path)
    assert is_same_partition(closure, classical_closure(x).closure)


def test_cli_close_exact_stops_discrete_on_random_input(tmp_path, capsys):
    x = validate(random_grid(np.random.default_rng(23), 12, 3))
    path = tmp_path / "g.wl"
    write_graph_file(path, x)
    code, out, _ = run_cli(capsys, "close", str(path), "--mode", "exact")
    assert code == 0
    assert "stopping_reason: discrete" in out
    assert "iterations: 1" in out
    assert "trace: 144" in out.splitlines()
    assert "classes_out: 144" in out


def _fingerprint_closure(x):
    """Iterate the byte-key fingerprint oracle from the rainbow start, with
    the run's discrete stop: the closure, iterations, trace and reason."""
    grid = np.array(brute_rainbow(x.cells.tolist()), dtype=np.int64)
    r, trace = int(grid.max()), []
    while r < x.n * x.n:
        refined, grid = fingerprint_step(grid, r)
        r = int(grid.max())
        trace.append(r)
        if not refined:
            return grid, trace, "stable"
    return grid, trace, "discrete"


@pytest.mark.parametrize("source", ["path", "random"])
def test_cli_close_exact_writes_the_fingerprint_oracle_closure(tmp_path, capsys, source):
    """``close --mode exact --out`` writes byte for byte the closure of the
    iterated fingerprint oracle, and reports its iterations, trace and
    stopping reason."""
    n = 48
    if source == "path":
        x = permute_vertices(make_fixture("path", n), np.random.default_rng(48).permutation(n))
    else:
        x = make_fixture("random", n, 3, 48)
    path, out_path, expected_path = tmp_path / "g.wl", tmp_path / "c.wl", tmp_path / "e.wl"
    write_graph_file(path, x)
    code, out, _ = run_cli(capsys, "close", str(path), "--mode", "exact", "--out", str(out_path))
    assert code == 0
    grid, trace, reason = _fingerprint_closure(x)
    write_graph_file(expected_path, validate(grid))
    assert out_path.read_bytes() == expected_path.read_bytes()
    lines = out.splitlines()
    assert f"iterations: {len(trace)}" in lines
    assert f"trace: {','.join(map(str, trace))}" in lines
    assert f"stopping_reason: {reason}" in lines
    assert reason == ("stable" if source == "path" else "discrete")


def test_cli_close_mc_matches_exact_and_reproduces(tmp_path, capsys):
    rng = np.random.default_rng(21)
    x = validate(random_grid(rng, 12, 3))
    path = tmp_path / "g.wl"
    write_graph_file(path, x)
    out_path = tmp_path / "closure.wl"
    code, first_out, _ = run_cli(
        capsys, "close", str(path), "--seed", "7", "--out", str(out_path)
    )
    assert code == 0
    assert "mode: mc" in first_out
    assert "policy: practical k=3" in first_out
    assert "m: 1000000" in first_out
    assert "seed: 7" in first_out
    # random input: discrete after one step, so the closure is exact
    assert "stopping_reason: discrete" in first_out
    assert "miss_probability_per_refinement: 0.000000e+00" in first_out
    closure = read_graph_file(out_path)
    assert is_same_partition(closure, classical_closure(x).closure)

    code, second_out, _ = run_cli(capsys, "close", str(path), "--seed", "7", "--out", str(out_path))
    assert code == 0
    assert strip_wall_lines(second_out) == strip_wall_lines(first_out)


def test_cli_close_mc_reports_miss_probability_unless_discrete(tmp_path, capsys):
    path, _ = write_fixture(tmp_path, "path", 6)
    code, out, _ = run_cli(capsys, "close", str(path), "--seed", "7")
    assert code == 0
    assert "stopping_reason: stable" in out
    assert "miss_probability_per_refinement: 8.000000e-18" in out
    x = validate(random_grid(np.random.default_rng(21), 12, 3))
    write_graph_file(path, x)
    code, out, _ = run_cli(capsys, "close", str(path), "--policy", "theoretical", "--seed", "7")
    assert code == 0
    assert "stopping_reason: discrete" in out
    assert "error_bound: 0.000000e+00" in out


def test_cli_close_theoretical_reports_bound(tmp_path, capsys):
    path, _ = write_fixture(tmp_path, "cyclic", 5)
    code, out, _ = run_cli(
        capsys, "close", str(path), "--policy", "theoretical", "--C", "0.5", "--seed", "3"
    )
    assert code == 0
    assert "policy: theoretical C=0.5" in out
    assert "stopping_reason: budget_exhausted" in out
    assert "error_bound:" in out
    assert "note: iteration budget scales with a configured constant" in out
    assert "miss_probability" not in out


def test_cli_close_print_closure_embeds_graph(tmp_path, capsys):
    path, _ = write_fixture(tmp_path, "trivial", 3)
    code, out, _ = run_cli(capsys, "close", str(path), "--mode", "exact", "--print-closure")
    assert code == 0
    assert "closure:" in out
    assert "  wlgraph 3 2" in out


def test_cli_main_in_process_freezes_no_objects(tmp_path, capsys):
    path, _ = write_fixture(tmp_path, "cycle5")
    before = gc.get_freeze_count()
    code, _, _ = run_cli(capsys, "close", str(path), "--seed", "3")
    assert code == 0
    assert gc.get_freeze_count() == before


def test_cli_entry_freezes_the_heap_then_runs_main(monkeypatch):
    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda argv=None: calls.append(argv) or 5)
    assert cli.entry() == 5
    assert calls == ["freeze", None]


def test_cli_module_run_prints_what_main_prints(tmp_path, capsys):
    """``python -m wlclosure.cli``, which freezes the heap first, exits 0
    with the stdout of an in-process :func:`main`, bar wall times."""
    path, _ = write_fixture(tmp_path, "path", 9)
    argv = ["close", str(path), "--seed", "3", "--print-closure"]
    code, out, _ = run_cli(capsys, *argv)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "wlclosure.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert code == proc.returncode == 0, proc.stderr
    assert strip_wall_lines(proc.stdout) == strip_wall_lines(out)


def _child_imports(argv, modules):
    """Run ``main(argv)`` in a child interpreter (no command: only import
    :mod:`wlclosure.cli`); return its exit code, its stdout and which of
    ``modules`` it had imported by the end."""
    script = (
        "import sys; from wlclosure.cli import main; argv = sys.argv[2:]; "
        "code = main(argv) if argv else 0; "
        "print(*(m in sys.modules for m in sys.argv[1].split(','))); sys.exit(code)"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", script, ",".join(modules), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    *out, flags = proc.stdout.splitlines()
    return proc.returncode, "\n".join(out), dict(zip(modules, (f == "True" for f in flags.split())))


def test_cli_close_exact_never_imports_numpy_random(tmp_path):
    """``close --mode exact`` takes its substitution from a hash, not a
    random generator: a child interpreter that runs it on a permuted path,
    whose run ends in the row check, never imports ``numpy.random``."""
    x = permute_vertices(make_fixture("path", 12), np.arange(12)[::-1])
    path = tmp_path / "g.wl"
    write_graph_file(path, x)
    argv = ["close", str(path), "--mode", "exact", "--out", str(tmp_path / "c.wl")]
    code, out, imported = _child_imports(argv, ["numpy.random"])
    assert code == 0
    assert "stopping_reason: stable" in out
    assert not imported["numpy.random"]


@pytest.mark.parametrize("command", ["close", "check", "isopair", "gen", "import"])
def test_cli_commands_load_neither_numpy_random_nor_openssl(tmp_path, command):
    """Monte Carlo commands draw from the package's SplitMix64 stream, so a
    child interpreter that runs them never imports ``numpy.random`` (which
    also imports ``secrets`` and with it OpenSSL).  ``close`` and ``check``
    print a digest from CPython's built-in SHA-256, so where that module
    exists no command imports ``hashlib``'s OpenSSL module ``_hashlib``;
    elsewhere only those two do."""
    x = permute_vertices(make_fixture("path", 12), np.arange(12)[::-1])
    path = tmp_path / "g.wl"
    write_graph_file(path, x)
    argv, digest = {
        "close": (["close", str(path), "--seed", "3"], True),
        "check": (["check", str(path), "--seed", "3"], True),
        "isopair": (["isopair", str(path), str(path), "--seed", "3"], False),
        "gen": (["gen", "path", "12", "--out", str(tmp_path / "p.wl")], False),
        "import": ([], False),
    }[command]
    code, out, imported = _child_imports(argv, ["numpy.random", "secrets", "_hashlib"])
    assert code in (0, 1), out
    assert not imported["numpy.random"] and not imported["secrets"]
    assert imported["_hashlib"] == (digest and not _BUILTIN_SHA256)
    assert ("input_sha256: " in out) == digest


def test_input_digest_falls_back_to_hashlib(monkeypatch):
    """With the built-in SHA-256 modules hidden, ``input_digest`` hashes
    with ``hashlib.sha256``, to the same hex digest, over a text of several
    encoder blocks; with them present it does not touch ``hashlib``."""
    x = validate(np.random.default_rng(11).permutation(300 * 300).reshape(300, 300) + 1)
    text = format_graph_text(x).encode("ascii")
    assert len(text) > 4 * wio._BLOCK_CELLS
    expected = hashlib.sha256(text).hexdigest()
    real, calls = hashlib.sha256, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hashlib, "sha256", spy)
    if _BUILTIN_SHA256:
        assert input_digest(x) == expected and not calls
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    assert input_digest(x) == expected
    assert calls == [()]


def test_cli_close_without_seed_echoes_a_fresh_63_bit_seed(tmp_path):
    """With ``--seed`` omitted, ``close`` takes a seed in ``[0, 2**63)`` from
    OS entropy, echoes it, and rerunning with that seed reproduces the run."""
    x = make_fixture("random", 16, 3, 4)
    path = tmp_path / "g.wl"
    write_graph_file(path, x)
    code, out, imported = _child_imports(["close", str(path)], ["numpy.random", "secrets"])
    assert code == 0
    assert not imported["numpy.random"] and not imported["secrets"]
    (seed,) = (int(ln.split(": ")[1]) for ln in out.splitlines() if ln.startswith("seed: "))
    assert 0 <= seed < 2**63
    code, again, _ = _child_imports(["close", str(path), "--seed", str(seed)], [])
    assert code == 0
    assert strip_wall_lines(again) == strip_wall_lines(out)


def test_cli_close_accepts_a_seed_past_64_bits(tmp_path, capsys):
    """A seed of ``2**64`` or more is accepted and echoed as given; the
    stream reduces it mod ``2**64``, so the run equals that of the reduced
    seed."""
    x = permute_vertices(make_fixture("path", 10), np.random.default_rng(2).permutation(10))
    path = tmp_path / "g.wl"
    write_graph_file(path, x)
    code, big, _ = run_cli(capsys, "close", str(path), "--seed", str(2**64 + 5))
    assert code == 0
    assert f"seed: {2**64 + 5}" in big
    code, small, _ = run_cli(capsys, "close", str(path), "--seed", "5")
    assert code == 0
    assert strip_wall_lines(big).replace(f"seed: {2**64 + 5}", "seed: 5") == strip_wall_lines(small)


def test_cli_close_parse_failure_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.wl"
    bad.write_text("wlgraph 2 2\n1 2\n")
    code, _, err = run_cli(capsys, "close", str(bad))
    assert code == 2
    assert "error:" in err


def test_cli_close_overflow_exits_3(tmp_path, capsys):
    path, _ = write_fixture(tmp_path, "path", 4)
    code, _, err = run_cli(capsys, "close", str(path), "--m", str(2**32), "--seed", "1")
    assert code == 3
    assert "int64" in err


def test_cli_close_exact_over_memory_budget_exits_4(tmp_path, capsys, monkeypatch):
    path, _ = write_fixture(tmp_path, "path", 6)
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: 1000)
    code, out, err = run_cli(capsys, "close", str(path), "--mode", "exact")
    assert code == 4
    assert out == ""
    assert err.startswith("error: exact step needs about ") and "n=6" in err


@pytest.mark.parametrize("command", ["close", "check", "isopair"])
def test_cli_monte_carlo_over_memory_budget_exits_4(tmp_path, capsys, monkeypatch, command):
    path, _ = write_fixture(tmp_path, "cyclic", 7)
    argv = [command, str(path)]
    if command == "isopair":
        argv.append(str(path))
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: 1000)
    code, out, err = run_cli(capsys, *argv, "--seed", "1")
    assert code == 4
    assert err.startswith("error: Monte Carlo run needs about ") and "at n=7," in err
    # no result is printed; isopair's header lines come before the run
    assert "iteration" not in out and "coherent" not in out
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: None)
    assert run_cli(capsys, *argv, "--seed", "1")[0] == 0


@pytest.mark.parametrize("command", ["close", "isopair"])
def test_cli_read_over_memory_budget_exits_4(tmp_path, capsys, monkeypatch, command):
    """A file larger than the budget is refused before it is read, and one
    whose parse and renumbering are over it before its grid is allocated:
    exit 4, the read named, and no n**2 array made.  At a budget of the
    read's own estimate the read passes and the run is refused."""
    n = 512
    path, x = write_fixture(tmp_path, "random", n, 3, 5)
    size = path.stat().st_size
    argv = [command, str(path), *([str(path)] if command == "isopair" else []), "--seed", "1"]
    estimate = wio._read_bytes(n, x.r, size)
    for budget, detail in ((size - 1, f"for the {size:,} bytes of "), (estimate - 1, f"at n={n},")):
        monkeypatch.setattr(probabilistic, "_memory_budget", lambda budget=budget: budget)
        gc.collect()
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (4, "")
        assert err.startswith("error: graph read needs about ") and detail in err
        assert peak < size + n * n, f"{peak / 2**20:.2f} MiB"  # the int32 grid is 4 bytes a cell
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: estimate)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and err.startswith("error: Monte Carlo run needs about ")


@pytest.mark.parametrize("kind", ["few_colors", "half_the_cells"])
def test_read_traced_peak_is_within_the_guard_estimate(tmp_path, kind):
    """Either reader of a 1024 x 1024 file of 3 colors, or of about
    ``n**2 / 2`` (each arc shares its color with its reverse), holds at most
    the read's estimate: the file's bytes and the grid, then the grid and
    the renumbering's tables."""
    n = 1024
    if kind == "few_colors":
        x = make_fixture("random", n, 3, 7)
    else:
        u, v = np.indices((n, n))
        x = validate(np.minimum(u * n + v, v * n + u) + 1)
        assert x.r == n * (n + 1) // 2
    path = tmp_path / "g.wl"
    write_graph_file(path, x)
    estimate = wio._read_bytes(n, x.r, path.stat().st_size)
    for read in (read_graph_file, read_graph_by_value):
        read(path)  # the first call traces one-time allocations
        gc.collect()
        tracemalloc.start()
        try:
            read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate, f"{read.__name__}: {peak / 2**20:.2f} > {estimate / 2**20:.2f} MiB"


def test_cli_check_not_rainbow_over_memory_budget_exits_4(tmp_path, capsys, monkeypatch):
    """The guard runs before the rainbow test, so an input that is not
    rainbow is refused over the budget too (it used to exit 1)."""
    path, x = write_fixture(tmp_path, "random", 7, 3, 5)
    assert not is_rainbow(x)
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: 1000)
    code, out, err = run_cli(capsys, "check", str(path), "--seed", "1")
    assert (code, out) == (4, "")
    assert err.startswith("error: Monte Carlo run needs about ")
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: None)
    assert run_cli(capsys, "check", str(path), "--seed", "1")[0] == 1


@pytest.mark.parametrize(
    "argv, code",
    [(["close"], 0), (["close", "--mode", "exact"], 0), (["check"], 1), (["isopair"], 0)],
    ids=["close", "close_exact", "check", "isopair"],
)
def test_cli_refuses_a_grid_past_the_cell_limit(tmp_path, capsys, monkeypatch, argv, code):
    """With the limit lowered to 100 cells, path(11)'s 121 exit 4 with one
    error line and no output; path(10)'s 100 run."""
    small, _ = write_fixture(tmp_path, "path", 10, filename="p10.wl")
    large, _ = write_fixture(tmp_path, "path", 11, filename="p11.wl")
    monkeypatch.setattr(graph, "MAX_CELLS", 100)

    def args(path):
        inputs = [str(path)] * (2 if argv[0] == "isopair" else 1)
        return [argv[0], *inputs, *argv[1:], "--seed", "1"]

    assert run_cli(capsys, *args(large)) == (
        4, "", "error: a grid at n=11 is over the size limit, n <= 10\n"
    )
    assert run_cli(capsys, *args(small))[0] == code


@pytest.mark.parametrize("command", ["close", "gen"])
@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_cli_unwritable_out_exits_2(tmp_path, capsys, command, target):
    source, _ = write_fixture(tmp_path, "path", 5)
    if target == "directory":
        out_path, reason = tmp_path / "taken", "Is a directory"
        out_path.mkdir()
    else:
        out_path, reason = tmp_path / "missing" / "x.wl", "No such file or directory"
    argv = ["close", str(source), "--seed", "1"] if command == "close" else ["gen", "path", "5"]
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(capsys, *argv, "--out", str(out_path)) == (
        2, "", f"error: cannot write {out_path}: {reason}\n"
    )
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["close", "gen"])
def test_cli_failed_write_keeps_the_old_file(tmp_path, capsys, monkeypatch, command):
    """A write that fails part way (here a full disk) exits 2, removes its
    temporary file and leaves the file it would have replaced as it was."""
    source, _ = write_fixture(tmp_path, "path", 5)
    target = tmp_path / "old.wl"
    target.write_bytes(b"old")

    def full_disk(rows):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(wio, "_encode_rows", full_disk)
    argv = ["close", str(source), "--seed", "1"] if command == "close" else ["gen", "path", "5"]
    assert run_cli(capsys, *argv, "--out", str(target)) == (
        2, "", f"error: cannot write {target}: No space left on device\n"
    )
    assert target.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.wl", "old.wl"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_cli_out_file_mode_follows_the_umask_or_the_replaced_file(tmp_path, capsys, umask):
    """A new ``--out`` file gets ``0o666`` less the umask, as ``open`` would
    give it; a replaced regular file keeps its own mode."""
    source, _ = write_fixture(tmp_path, "path", 5)
    old = os.umask(umask)
    try:
        fresh = tmp_path / "fresh.wl"
        assert run_cli(capsys, "gen", "path", "5", "--out", str(fresh))[0] == 0
        assert fresh.stat().st_mode & 0o777 == 0o666 & ~umask
        for mode in (0o600, 0o640):
            target = tmp_path / f"old_{mode:o}.wl"
            target.write_bytes(b"old")
            target.chmod(mode)
            assert run_cli(capsys, "close", str(source), "--seed", "1", "--out", str(target))[0] == 0
            assert target.read_bytes() != b"old"
            assert target.stat().st_mode & 0o777 == mode
    finally:
        os.umask(old)


def _check_exact_header(digest):
    return f"input_sha256: {digest}\nm: 1000003\ntrials: 2\nseed: 7\n"


@pytest.mark.parametrize(
    "source, code, expected",
    [
        (
            "wlgraph 3 2\n1 2 2\n2 2 2\n2 2 1\n",
            1,
            _check_exact_header("ca6c144abd0585065ac19e75a17c7133bb471570f72b6c68c4bd05d51b5467c7")
            + "exact: not coherent (diagonal_overlap at cells (1, 1) / (0, 1))\n"
            "not coherent (probabilistic)\n",
        ),
        (
            "wlgraph 3 4\n1 2 2\n3 1 4\n2 4 1\n",
            1,
            _check_exact_header("ede9ce94757f2d7d62eed13820ae13fa47a7786105c0b530f5d2cbda338c7af2")
            + "exact: not coherent (transpose_split at cells (0, 1) / (0, 2))\n"
            "not coherent (probabilistic)\n",
        ),
        (
            ("path", 6),
            1,
            _check_exact_header("21279ed23a1cb484cb172047955afb56868bf39031e76236a88aaef904e89d33")
            + "exact: not coherent (profile_mismatch at cells (0, 2) / (0, 3), pair (2, 2))\n"
            "not coherent (probabilistic)\n",
        ),
        (
            ("petersen",),
            0,
            _check_exact_header("471fea84f1994b161cf6123f90baaaaa096c50a6fc9e87def3aa491a6c71a1b0")
            + "exact: coherent\ncoherent\n",
        ),
    ],
)
def test_cli_check_exact_stdout_is_pinned(tmp_path, capsys, source, code, expected):
    """One input per verdict of the exact check, with the stdout of the
    Counter-based verifier the kernel replaced."""
    if isinstance(source, str):
        path = tmp_path / "g.wl"
        path.write_text(source)
    else:
        path, _ = write_fixture(tmp_path, *source)
    argv = ["check", str(path), "--exact", "--m", "1000003", "--trials", "2", "--seed", "7"]
    assert run_cli(capsys, *argv) == (code, expected, "")


def test_cli_check_exact_over_memory_budget_exits_4(tmp_path, capsys, monkeypatch):
    """A budget the Monte Carlo check fits in (about 256 KiB at n=64) but the
    exact check's blocks of rows do not: exit 4 before any line is printed."""
    path, _ = write_fixture(tmp_path, "cyclic", 64)
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: 2**20)
    code, out, err = run_cli(capsys, "check", str(path), "--seed", "1")
    assert code == 0
    code, out, err = run_cli(capsys, "check", str(path), "--seed", "1", "--exact")
    assert code == 4
    assert out == ""
    assert err.startswith("error: exact check needs about ") and "at n=64," in err


def test_cli_check_exit_codes(tmp_path, capsys):
    coherent_path, _ = write_fixture(tmp_path, "cyclic", 7, filename="c.wl")
    code, out, _ = run_cli(capsys, "check", str(coherent_path), "--seed", "5", "--exact")
    assert code == 0
    assert "exact: coherent" in out
    assert out.rstrip().endswith("coherent")

    bad_path, _ = write_fixture(tmp_path, "path", 4, filename="p.wl")
    code, out, _ = run_cli(capsys, "check", str(bad_path), "--seed", "5", "--exact")
    assert code == 1
    assert "not coherent (probabilistic)" in out
    assert "exact: not coherent (profile_mismatch" in out


def test_cli_isopair_verified_mapping(tmp_path, capsys):
    rng = np.random.default_rng(31)
    x = validate(random_grid(rng, 9, 3))
    y = permute_vertices(x, rng.permutation(9))
    pa, pb = tmp_path / "a.wl", tmp_path / "b.wl"
    write_graph_file(pa, x)
    # the permuted copy must keep x's color vocabulary, so no renumbering
    write_graph_file(pb, y, canonical=False)
    code, out, _ = run_cli(capsys, "isopair", str(pa), str(pb), "--seed", "2")
    assert code == 0
    assert "per-iteration color multisets identical" in out
    assert "mapping verified: yes" in out


def test_cli_isopair_vocabulary_mismatch_diverges_up_front(tmp_path, capsys):
    pa, pb = tmp_path / "a.wl", tmp_path / "b.wl"
    pa.write_text("wlgraph 2 2\n1 2\n2 1\n")
    pb.write_text("wlgraph 2 3\n1 2\n3 1\n")
    code, out, _ = run_cli(capsys, "isopair", str(pa), str(pb), "--seed", "1")
    assert code == 0
    assert "color vocabularies differ" in out
    assert "color multisets diverge at iteration 0" in out


@pytest.mark.parametrize(
    "ids_a, ids_b, expected",
    [
        ([1, 2], [1, 2], None),
        ([1, 2], [1, 3], (2, 2)),
        ([1, 2], [1, 2, 3], (2, 3)),
        ([1, 4], [4, 1], None),  # a presence table per side
        ([1, 2], [1, 10**12], (2, 2)),  # dense against sparse
        ([10**12, 5], [5, 10**12], None),  # both sparse: np.unique
        ([10**12, 5], [5, 10**12 + 1], (2, 2)),
        ([10**12, 5, 6], [5, 10**12], (3, 2)),
    ],
)
def test_distinct_ids_match_unique_oracle(ids_a, ids_b, expected):
    n = 3
    a = np.resize(np.array(ids_a, dtype=np.int64), n * n).reshape(n, n)
    b = np.resize(np.array(ids_b, dtype=np.int64), n * n).reshape(n, n)
    def distinct_ids(raw):  # isopair's vocabulary: the ids the by-value renumbering ranks
        x, ids = normalize_by_value(raw)
        assert len(ids) == x.r
        return ids

    for raw in (a, b, a.astype(np.int32) if a.max() < 2**31 else a):  # the parser's int32 grids
        assert distinct_ids(raw).tolist() == np.unique(raw).tolist()
    ua, ub = distinct_ids(a), distinct_ids(b)
    assert (None if np.array_equal(ua, ub) else (len(ua), len(ub))) == expected


@pytest.mark.parametrize(
    "second, line",
    [
        ("wlgraph 2 3\n1 2\n3 1\n", "iteration 0: color vocabularies differ (2 vs 3 ids)"),
        ("wlgraph 2 2\n1 7\n7 1\n", "iteration 0: color vocabularies differ (2 vs 2 ids)"),
        (
            "wlgraph 2 3\n1 2\n99999999999 1\n",
            "iteration 0: color vocabularies differ (2 vs 3 ids)",
        ),
    ],
)
def test_cli_isopair_vocabulary_line(tmp_path, capsys, second, line):
    pa, pb = tmp_path / "a.wl", tmp_path / "b.wl"
    pa.write_text("wlgraph 2 2\n1 2\n2 1\n")
    pb.write_text(second)
    code, out, _ = run_cli(capsys, "isopair", str(pa), str(pb), "--seed", "1")
    assert code == 0
    assert out.splitlines()[4] == line


def test_cli_isopair_divergence(tmp_path, capsys):
    pa, _ = write_fixture(tmp_path, "cycle5", filename="c5.wl")
    pb, _ = write_fixture(tmp_path, "path", 5, filename="p5.wl")
    code, out, _ = run_cli(capsys, "isopair", str(pa), str(pb), "--seed", "2")
    assert code == 0
    assert "color multisets diverge at iteration 0" in out
    assert "certified non-isomorphic" in out


@pytest.mark.parametrize(
    "bad",
    [
        b"wlgraph 2 2\n9223372036854775808 1\n1 1\n",
        b"wlgraph 2 2\n1 2\n2 1\xe9\n",
        b"# \xff\nwlgraph 2 2\n1 2\n2 1\n",
    ],
)
@pytest.mark.parametrize("command", ["close", "check", "isopair"])
def test_cli_bad_bytes_and_huge_ids_exit_2(tmp_path, capsys, command, bad):
    path = tmp_path / "bad.wl"
    path.write_bytes(bad)
    argv = [command, str(path)]
    if command == "isopair":
        good, _ = write_fixture(tmp_path, "trivial", 2)
        argv.append(str(good))
    code, _, err = run_cli(capsys, *argv, "--seed", "1")
    assert code == 2
    assert err.startswith("error: ")


def test_cli_accepts_ids_up_to_int64_max(tmp_path, capsys):
    path = tmp_path / "top.wl"
    path.write_text(f"wlgraph 2 2\n{INT64_MAX} 1\n1 {INT64_MAX}\n")
    code, out, _ = run_cli(capsys, "close", str(path), "--mode", "exact", "--print-closure")
    assert code == 0
    assert "  1 2\n  2 1\n" in out


def test_cli_isopair_size_mismatch_exits_2(tmp_path, capsys):
    pa, _ = write_fixture(tmp_path, "trivial", 3, filename="a.wl")
    pb, _ = write_fixture(tmp_path, "trivial", 4, filename="b.wl")
    code, _, err = run_cli(capsys, "isopair", str(pa), str(pb))
    assert code == 2
    assert "size mismatch" in err


def test_cli_isopair_non_discrete_reports_no_mapping(tmp_path, capsys):
    pa, _ = write_fixture(tmp_path, "trivial", 4, filename="a.wl")
    pb, _ = write_fixture(tmp_path, "trivial", 4, filename="b.wl")
    code, out, _ = run_cli(capsys, "isopair", str(pa), str(pb), "--seed", "1")
    assert code == 0
    assert "closure not discrete; no candidate mapping" in out


def test_cli_gen_stdout_and_file(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "cyclic", "5")
    assert code == 0
    assert out.startswith("wlgraph 5 5\n")

    target = tmp_path / "c5.wl"
    code, out, _ = run_cli(capsys, "gen", "cycle5", "--out", str(target))
    assert code == 0
    assert read_graph_file(target).n == 5


def test_cli_gen_random_echoes_seed(tmp_path, capsys):
    t1, t2 = tmp_path / "r1.wl", tmp_path / "r2.wl"
    code, out, _ = run_cli(capsys, "gen", "random", "6", "2", "--seed", "9", "--out", str(t1))
    assert code == 0
    assert "seed: 9" in out
    run_cli(capsys, "gen", "random", "6", "2", "--seed", "9", "--out", str(t2))
    assert t1.read_text() == t2.read_text()


def test_cli_gen_errors_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "trivial")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "gen", "cyclic", "5", "--seed", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "gen", "random", "5")
    assert code == 2


def test_cli_bench_smoke(capsys):
    code, out, _ = run_cli(capsys, "bench", "--sizes", "8,16", "--reps", "1", "--seed", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mode: mc"
    assert any(ln.strip().startswith("8 ") for ln in lines)
    assert any(ln.strip().startswith("16 ") for ln in lines)
    rows = [ln.split() for ln in lines[3:]]
    assert [row[:2] for row in rows] == [["8", "random"], ["8", "path"], ["16", "random"], ["16", "path"]]
    # the permuted path refines over several steps
    assert all(int(row[4]) > 1 for row in rows if row[1] == "path")


@pytest.mark.parametrize("mode", ["mc", "exact"])
def test_cli_bench_reports_a_traced_peak_per_size_and_input(capsys, mode):
    """The last column is the traced peak of one more closure run, in MiB."""
    argv = ("bench", "--sizes", "8,16", "--reps", "1", "--seed", "4", "--mode", mode)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[2].split() == ["n", "input", "step_ms", "closure_ms", "iterations", "peak_mib"]
    rows = [ln.split() for ln in lines[3:]]
    assert len(rows) == 4 and all(len(row) == 6 for row in rows)
    assert all(float(row[5]) > 0 for row in rows)


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_cli_bench_rejects_reps_below_one(capsys, reps):
    code, out, err = run_cli(capsys, "bench", "--sizes", "8", "--reps", reps)
    assert code == 2
    assert out == ""
    assert err == f"error: reps must be >= 1, got {reps}\n"


@pytest.mark.parametrize("m, code", [("1", 2), ("4294967296", 3)])
def test_cli_bench_checks_m_before_any_output(capsys, m, code):
    """``m`` below 2 is exit 2 and a product bound ``max(sizes) * m**2`` over
    int64 is exit 3, both before the first line; exact mode ignores ``m``."""
    argv = ("bench", "--sizes", "8", "--reps", "1", "--m", m, "--seed", "1")
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ")
    assert run_cli(capsys, *argv, "--mode", "exact")[0] == 0


def test_cli_gen_over_memory_budget_exits_4(tmp_path, capsys, monkeypatch):
    """The grid is estimated before it is built; no large grid is allocated."""
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: 1000)
    target = tmp_path / "t.wl"
    for argv in (["trivial", "6"], ["random", "6", "2", "--seed", "1", "--out", str(target)]):
        code, out, err = run_cli(capsys, "gen", *argv)
        assert code == 4
        assert out == ""
        assert err.startswith("error: gen needs about ") and "at n=6," in err
    assert not target.exists()
    # fixed-size fixtures and argument errors are not sized
    assert run_cli(capsys, "gen", "petersen")[0] == 0
    assert run_cli(capsys, "gen", "trivial", "0")[0] == 2
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: None)
    assert run_cli(capsys, "gen", "trivial", "6")[0] == 0


def test_cli_bench_rejects_bad_sizes(capsys):
    code, _, err = run_cli(capsys, "bench", "--sizes", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "bench", "--sizes", "nope")
    assert code == 2


@pytest.mark.parametrize("command", ["close", "check", "isopair", "bench", "gen"])
def test_cli_negative_seed_exits_2(tmp_path, capsys, command):
    """A negative seed is an input error in every subcommand, before any output;
    for ``check`` that keeps it apart from the exit 1 of "not coherent"."""
    path, _ = write_fixture(tmp_path, "cyclic", 5)
    argv = {
        "close": ["close", str(path)],
        "check": ["check", str(path)],
        "isopair": ["isopair", str(path), str(path)],
        "bench": ["bench", "--sizes", "8", "--reps", "1"],
        "gen": ["gen", "random", "6", "2", "--out", str(tmp_path / "r.wl")],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "r.wl").exists()


@pytest.mark.parametrize("constant", ["inf", "-inf", "nan", "0"])
def test_cli_close_non_finite_or_non_positive_C_exits_2(tmp_path, capsys, constant):
    path, _ = write_fixture(tmp_path, "path", 6)
    code, out, err = run_cli(
        capsys, "close", str(path), "--policy", "theoretical", f"--C={constant}", "--seed", "1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: growth constant must be finite and positive")


@pytest.mark.parametrize("grid", [[[1, 2], [3, 4]], [[1, 2], [2, 1]]], ids=["discrete", "rainbow"])
def test_cli_check_m_below_2_exits_2_on_any_input(tmp_path, capsys, grid):
    path = tmp_path / "g.wl"
    write_graph_file(path, validate(grid))
    code, out, err = run_cli(capsys, "check", str(path), "--m", "1", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == "error: m must be >= 2, got 1\n"


@pytest.mark.parametrize(
    "option, message",
    [(["--m", "1"], "m must be >= 2, got 1"), (["--k", "0"], "patience must be >= 1")],
)
def test_cli_isopair_validates_before_printing(tmp_path, capsys, option, message):
    path, _ = write_fixture(tmp_path, "cyclic", 5)
    code, out, err = run_cli(capsys, "isopair", str(path), str(path), *option, "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
