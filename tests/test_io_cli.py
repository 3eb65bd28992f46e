"""Tests for the file format, run reports, and the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from wlclosure.classical import classical_closure
from wlclosure.coherence import make_fixture
from wlclosure.graph import ColorMatrix, is_same_partition, permute_vertices, validate
from wlclosure.io import (
    GraphFileError,
    format_graph_text,
    input_digest,
    parse_graph_text,
    read_graph_file,
    write_graph_file,
)
from wlclosure.cli import main

from oracles import random_grid


def strip_wall_lines(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("wall_"))


@pytest.mark.parametrize("seed", range(6))
def test_round_trip_is_canonical(seed):
    rng = np.random.default_rng(1900 + seed)
    x = validate(random_grid(rng, int(rng.integers(1, 15)), int(rng.integers(1, 6))))
    text = format_graph_text(x)
    back = parse_graph_text(text)
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


def test_parse_ignores_comments_and_blank_lines():
    text = "# a colored triangle\n\nwlgraph 2 2\n# rows follow\n1 2\n\n2 1\n"
    x = parse_graph_text(text)
    assert x.cells.tolist() == [[1, 2], [2, 1]]


def test_parse_renumbers_noncanonical_colors():
    x = parse_graph_text("wlgraph 2 2\n7 4\n4 7\n")
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
    ],
)
def test_parse_rejects_malformed_files(text):
    with pytest.raises(GraphFileError):
        parse_graph_text(text)


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


def test_cli_isopair_divergence(tmp_path, capsys):
    pa, _ = write_fixture(tmp_path, "cycle5", filename="c5.wl")
    pb, _ = write_fixture(tmp_path, "path", 5, filename="p5.wl")
    code, out, _ = run_cli(capsys, "isopair", str(pa), str(pb), "--seed", "2")
    assert code == 0
    assert "color multisets diverge at iteration 0" in out
    assert "certified non-isomorphic" in out


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


def test_cli_bench_rejects_bad_sizes(capsys):
    code, _, err = run_cli(capsys, "bench", "--sizes", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "bench", "--sizes", "nope")
    assert code == 2
