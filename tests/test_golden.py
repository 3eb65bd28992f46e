"""Seeded end-to-end outputs, pinned by SHA-256.

Each case runs one command, which must succeed, and pins its stdout, less
the ``wall_*`` timing lines, and the file it writes with ``--out``.  Every
Monte Carlo run uses ``m >= 10**6``, so the pins hold as long as no product
collides: a run with no collision follows the exact trajectory, whatever
numbers the random stream draws.  The inputs depend on numpy's stream for
``gen random`` and the vertex permutations.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from wlclosure.cli import main
from wlclosure.coherence import make_fixture
from wlclosure.graph import permute_vertices
from wlclosure.io import write_graph_file


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _permuted_path(n: int, seed: int):
    return permute_vertices(make_fixture("path", n), np.random.default_rng(seed).permutation(n))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["gen", "random", "64", "3", "--seed", "1", "--out", str(root / "random64.wl")]) == 0
    write_graph_file(root / "path48.wl", _permuted_path(48, 7))
    write_graph_file(root / "path16.wl", _permuted_path(16, 8))
    first = make_fixture("random", 48, 3, 2)
    write_graph_file(root / "pair_a.wl", first)
    # the permuted copy keeps the first side's ids, so the pair shares a vocabulary
    second = permute_vertices(first, np.random.default_rng(9).permutation(48))
    write_graph_file(root / "pair_b.wl", second, canonical=False)
    return root


# name -> (argv with {dir} for the input directory, SHA-256 of stdout
#          without wall_* lines, SHA-256 of the --out file or None)
_CASES = {
    "gen_random64": (
        "gen random 64 3 --seed 1 --out {dir}/out.wl",
        "adf0396d435b4047092c20dada268d22d8db7f192fe2a8a9a283c9e9dea6af54",
        "4e5099266ad708b7acf9edef1248434bcf36ce0366ebe99bf8d59c7cef10a37e",
    ),
    "close_random64": (
        "close {dir}/random64.wl --seed 1 --out {dir}/out.wl",
        "bceb1a3039822495da1b1308714b60c512d495c4532b0f0ce92eafd9ef11e8d5",
        "8ba28dcd358af0ecf88bcd1d46ff6875eeb47d646935ddfbcb71c04f39d18406",
    ),
    "close_path48": (
        "close {dir}/path48.wl --seed 1 --out {dir}/out.wl",
        "edf88679c934b68bf0bf2ba3f8b4b45a706f2b35db9413c4e6d095637aa95e3b",
        "d83831432d7edea7502c756f5524b1f1ecc2866864d02645e9b7fadb745ebc8a",
    ),
    "close_theoretical_path16": (
        "close {dir}/path16.wl --policy theoretical --seed 2 --out {dir}/out.wl",
        "6eab8ee01ea74eaef60dc810e137b3896d0046dfe42def8142f370def34d2dc2",
        "0201fb7089b036bda9debceee556e7f9b01ea5fd8d001b954f8f9b8903ddb582",
    ),
    "close_exact_random64": (
        "close {dir}/random64.wl --mode exact --out {dir}/out.wl",
        "0325f35061dd785ea058618867cb6e6b921f19d49b6c8f252e2439fda9a867f5",
        "8ba28dcd358af0ecf88bcd1d46ff6875eeb47d646935ddfbcb71c04f39d18406",
    ),
    "close_exact_path48": (
        "close {dir}/path48.wl --mode exact --out {dir}/out.wl",
        "6ca8a1afc6e238d01c187e22b208fd90128001129f9afd242644c7625188034e",
        "d83831432d7edea7502c756f5524b1f1ecc2866864d02645e9b7fadb745ebc8a",
    ),
    "close_digit_split_path48": (
        "close {dir}/path48.wl --m 100000000 --seed 3 --out {dir}/out.wl",
        "80df03744a9a39c1d16a8d9d2c150e868e72103dad4007393406da7063169139",
        "d83831432d7edea7502c756f5524b1f1ecc2866864d02645e9b7fadb745ebc8a",
    ),
    "isopair": (
        "isopair {dir}/pair_a.wl {dir}/pair_b.wl --seed 4",
        "9d9945f0a7f152d1905aade7265b18b4ff262705424a297c3fbbbe104a382c17",
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_seeded_command_output_is_pinned(name, inputs, capsys):
    template, stdout_sha, out_sha = _CASES[name]
    out_file = inputs / "out.wl"
    out_file.unlink(missing_ok=True)
    assert main(template.format(dir=inputs).split()) == 0
    stdout = capsys.readouterr().out
    kept = "".join(ln for ln in stdout.splitlines(keepends=True) if not ln.startswith("wall_"))
    assert _sha(kept.encode("ascii")) == stdout_sha
    if out_sha is None:
        assert not out_file.exists()
    else:
        assert _sha(out_file.read_bytes()) == out_sha
