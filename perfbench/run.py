"""Benchmark of the wlclosure command-line program.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command runs ``python -m wlclosure.cli ...`` against the checkout's
``src/`` in a fresh child process, one at a time: a closed loop with a
single client, so at most one child exists and it uses numpy's default
thread count.  Inputs are generated from ``--seed`` and reach the program
only as files.  Every output is checked exactly against a result known by
construction (see ``check_close`` and ``check_isopair``); a command fails if it exits nonzero, dies by
a signal, times out or fails its check.

``--trace 0`` prints the end-to-end metrics: the median spawn-to-exit wall
time, the median peak RSS of the child (``ru_maxrss`` from ``wait4``) and
the median time of a child that only imports ``wlclosure.cli``.  ``--trace 1``
alternates untraced commands with commands run under ``tracer.py`` and prints
per-layer self times, call counts and counters, plus the tracing overhead.
The last line of standard output is one JSON object; the lines above it
repeat the figures for people, with the environment and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from tracer import LAYERS, ROOT_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
RUN_DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s
SETUP_LEAD = 4


@dataclass(frozen=True)
class ChildResult:
    code: int  # exit code, or minus the signal number
    timed_out: bool
    wall_s: float
    peak_rss_mib: float
    stdout: str
    stderr: str


def write_graph(path: Path, grid: np.ndarray) -> None:
    """Write a grid in the wlgraph format with its color ids as stored."""
    n = grid.shape[0]
    rows = "\n".join(" ".join(map(str, row)) for row in grid.tolist())
    path.write_text(f"wlgraph {n} {len(np.unique(grid))}\n{rows}\n", encoding="ascii")


def permuted(grid: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Rename vertex ``u`` to ``perm[u]``."""
    out = np.empty_like(grid)
    out[np.ix_(perm, perm)] = grid
    return out


def same_partition(x: np.ndarray, y: np.ndarray) -> bool:
    """True when two labelings of the same cells group them identically."""
    if x.shape != y.shape:
        return False
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    kx, ky = int(xi.max()) + 1, int(yi.max()) + 1
    return kx == ky and len(np.unique(xi.astype(np.int64) * ky + yi)) == kx


def check_close(res: ChildResult, out_path: Path, orbits: np.ndarray) -> str | None:
    """A closure file is correct when it cuts the cells exactly into ``orbits``.

    ``orbits`` labels each cell by its orbit under a known automorphism group
    of the input.  A Monte Carlo closure is never finer than the true closure,
    and the true closure is never finer than the orbital partition, so
    equality with the orbits proves the output correct.
    """
    if res.code != 0:
        return f"exit code {res.code}" + (" (timed out)" if res.timed_out else "")
    try:
        tokens = out_path.read_text(encoding="ascii").split()
        out_path.unlink()
    except OSError as exc:
        return f"no closure file: {exc}"
    n = orbits.shape[0]
    if tokens[:2] != ["wlgraph", str(n)] or len(tokens) != 3 + n * n:
        return "closure file has the wrong header or size"
    try:
        cells = np.array(tokens[3:], dtype=np.int64)
    except ValueError:
        return "closure file has a non-integer entry"
    classes = len(np.unique(cells))
    if tokens[2] != str(classes) or f"classes_out: {classes}\n" not in res.stdout:
        return "class count in header or report disagrees with the closure file"
    if not same_partition(cells, orbits.ravel()):
        return f"closure has {classes} classes; orbital partition differs"
    return None


def check_isopair(res: ChildResult, perm: np.ndarray) -> str | None:
    """The only isomorphism is the planted permutation (trivial automorphism group)."""
    if res.code != 0:
        return f"exit code {res.code}" + (" (timed out)" if res.timed_out else "")
    lines = res.stdout.splitlines()
    if "mapping verified: yes" not in lines:
        return "mapping not verified"
    found = [ln for ln in lines if ln.startswith("mapping: ")]
    if len(found) != 1:
        return "no mapping line"
    try:
        mapping = [int(pair.split("->")[1]) for pair in found[0][len("mapping: "):].split()]
    except (IndexError, ValueError):
        return "malformed mapping line"
    if mapping != perm.tolist():
        return "mapping differs from the planted permutation"
    return None


@dataclass(frozen=True)
class Case:
    """One generated workload instance: CLI arguments and the output check."""

    argv: list[str]
    check: Callable[[ChildResult], str | None]


def random_grid(rng: np.random.Generator, n: int) -> np.ndarray:
    # A uniform 3-colored complete digraph on n >= 32 vertices has a trivial
    # automorphism group with overwhelming probability, so its orbital
    # partition (and closure) is discrete.
    return rng.integers(1, 4, size=(n, n), dtype=np.int64)


def discrete_orbits(n: int) -> np.ndarray:
    return np.arange(n * n, dtype=np.int64).reshape(n, n)


def case_close_random(rng, n, seed, workdir, exact=False) -> Case:
    inp, out = workdir / "input.wlg", workdir / "closure.wlg"
    write_graph(inp, random_grid(rng, n))
    mode = ["--mode", "exact"] if exact else ["--seed", str(seed)]
    orbits = discrete_orbits(n)
    return Case(["close", *mode, str(inp), "--out", str(out)], lambda res: check_close(res, out, orbits))


def case_close_exact(rng, n, seed, workdir) -> Case:
    return case_close_random(rng, n, seed, workdir, exact=True)


def case_close_path(rng, n, seed, workdir) -> Case:
    """A path (loop / edge / non-edge colors) under a seeded vertex permutation.

    Its automorphism group is the reversal ``u -> n-1-u`` conjugated by the
    permutation; every pair of cells swapped by it forms one orbit.
    """
    u = np.arange(n)
    dist = np.abs(u[None, :] - u[:, None])
    path = np.where(dist == 0, 1, np.where(dist == 1, 2, 3))
    q = rng.permutation(n)
    sigma = q[n - 1 - np.argsort(q)]
    cells = u[:, None] * n + u[None, :]
    orbits = np.minimum(cells, sigma[:, None] * n + sigma[None, :])
    inp, out = workdir / "input.wlg", workdir / "closure.wlg"
    write_graph(inp, permuted(path, q))
    return Case(["close", str(inp), "--seed", str(seed), "--out", str(out)],
                lambda res: check_close(res, out, orbits))


def case_isopair(rng, n, seed, workdir) -> Case:
    """A random graph and its copy under a seeded permutation, one shared vocabulary."""
    a = random_grid(rng, n)
    perm = rng.permutation(n)
    first, second = workdir / "first.wlg", workdir / "second.wlg"
    write_graph(first, a)
    write_graph(second, permuted(a, perm))
    return Case(["isopair", str(first), str(second), "--seed", str(seed)],
                lambda res: check_isopair(res, perm))


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    make: Callable[..., Case]

    def case(self, seed: int, workdir: Path, n: int | None = None) -> Case:
        rng = np.random.default_rng(seed)
        return self.make(rng, self.n if n is None else n, seed, workdir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-random-1024", 1024, case_close_random),
        Workload("mc-path-512", 512, case_close_path),
        Workload("exact-random-256", 256, case_close_exact),
        Workload("isopair-random-512", 512, case_isopair),
    )
}


# ---------------------------------------------------------------- per-layer metrics

PER_LAYER_UNITS = {
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "matmul.multiply.computed_gflop": "GFLOP",
    "matmul.multiply.computed_gflops": "GFLOP/s",
    "matmul.multiply.computed_mib": "MiB",
    "probabilistic.steps": "count",
    "probabilistic.refining_steps": "count",
    "probabilistic.useful_step_frac": "ratio",
    "cli.unattributed_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer figures of one traced command, from its spans.

    A layer's self time is its spans' durations minus their child spans.  A
    Monte Carlo step is one ``draw_substitution`` call; it is useful when a
    ``refine_by`` call after it, before the next draw, reports a split.
    """
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for layer, parent, start, end, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    self_ms: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    flop = moved = steps = useful = 0
    step_useful = False
    for i, (layer, _, start, end, attrs) in enumerate(spans):
        self_ms[layer] += (end - start - child_ns[i]) / 1e6
        calls[layer] += 1
        attrs = attrs or {}
        if layer == "matmul.multiply":
            flop += attrs.get("flop", 0)
            moved += attrs.get("bytes", 0)
        elif layer == "probabilistic.draw_substitution":
            steps += 1
            step_useful = False
        elif layer == "graph.refine_by" and steps and attrs.get("refined") and not step_useful:
            useful += 1
            step_useful = True
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ms[layer]
        out[f"{layer}.calls"] = calls[layer]
    multiply_s = sum(e - s for name, _, s, e, _ in spans if name == "matmul.multiply") / 1e9
    out["matmul.multiply.computed_gflop"] = flop / 1e9
    out["matmul.multiply.computed_gflops"] = flop / 1e9 / multiply_s if multiply_s else 0.0
    out["matmul.multiply.computed_mib"] = moved / 2**20
    out["probabilistic.steps"] = steps
    out["probabilistic.refining_steps"] = useful
    out["probabilistic.useful_step_frac"] = useful / steps if steps else 0.0
    out["cli.unattributed_ms"] = self_ms[ROOT_LAYER]
    return out


# ---------------------------------------------------------------- environment


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            env["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), None
            )
    except OSError:
        env["cpu_model"] = None
    for level in (2, 3):
        for index in range(8):
            base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
            try:
                if (base / "level").read_text().strip() == str(level):
                    env[f"l{level}_cache"] = (base / "size").read_text().strip()
                    break
            except OSError:
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = None
    return env


# ---------------------------------------------------------------- the run


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, and its value."""
    k = len(samples)
    if k < 11:
        return None
    return 100.0 * (k - 10) / k, sorted(samples)[k - 11]


class Runner:
    """Runs commands through ``launcher.py``, one at a time, and counts failures."""

    def __init__(self, workdir: Path, started: float) -> None:
        self.workdir = workdir
        self.deadline = started + RUN_DEADLINE_S
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        self.attempted = 0
        self.failures: list[str] = []

    def close(self) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()

    def child(self, argv: list[str]) -> ChildResult:
        out, err = self.workdir / "child.out", self.workdir / "child.err"
        request = {"argv": argv, "timeout_s": self.deadline - time.perf_counter(),
                   "stdout": str(out), "stderr": str(err)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        answer = json.loads(self.launcher.stdout.readline())
        return ChildResult(
            code=answer["code"],
            timed_out=answer["timed_out"],
            wall_s=answer["wall_s"],
            peak_rss_mib=answer["maxrss_kib"] / 1024.0,
            stdout=out.read_text(encoding="ascii", errors="replace"),
            stderr=err.read_text(encoding="ascii", errors="replace"),
        )

    def command(self, case: Case, traced: bool) -> tuple[ChildResult, dict | None]:
        spans = self.workdir / "spans.json"
        if traced:
            argv = [str(HERE / "tracer.py"), str(spans), *case.argv]
        else:
            argv = ["-m", "wlclosure.cli", *case.argv]
        res = self.child(argv)
        self.attempted += 1
        problem = case.check(res)
        doc = None
        if traced:
            try:
                doc = json.loads(spans.read_text(encoding="ascii"))
                spans.unlink()
            except (OSError, ValueError) as exc:
                problem = problem or f"no span file: {exc}"
        if problem:
            tag = "traced " if traced else ""
            self.failures.append(f"{tag}command {self.attempted}: {problem}; {res.stderr.strip()[-300:]}")
        return res, doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "wlclosure" / "cli.py").is_file():
        print(f"error: no wlclosure sources under {SRC}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        runner = Runner(workdir, started)
        try:
            return run(args, runner)
        finally:
            runner.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, runner: Runner) -> int:
    for key, value in environment().items():
        print(f"env {key}: {value}")
    # one unmeasured import fills the bytecode cache, as it is after any first use
    warm = runner.child(["-c", "import wlclosure.cli"])
    if warm.code != 0:
        print(f"error: cannot import wlclosure.cli\n{warm.stderr}", file=sys.stderr)
        return 2

    # Set-up samples: a few up front and one before each untraced command, so
    # they span the run and see the same shifts in machine speed as the commands.
    setup: list[float] = []

    def measure_setup() -> None:
        setup.append(runner.child(["-c", "import wlclosure.cli"]).wall_s)

    if not args.trace:
        for _ in range(SETUP_LEAD):
            measure_setup()

    case = WORKLOADS[args.workload].case(args.seed, runner.workdir)
    plain: list[ChildResult] = []
    traced: list[dict[str, float]] = []
    traced_wall: list[float] = []
    absent: list[str] = []
    missing: list[str] = []
    # Commands start while less than --seconds have passed, so a run measures
    # at least that long; a traced run alternates untraced and traced commands.
    began = time.perf_counter()
    while True:
        traced_turn = bool(args.trace) and len(plain) > len(traced_wall)
        if not args.trace:
            measure_setup()
        res, doc = runner.command(case, traced=traced_turn)
        if not traced_turn:
            plain.append(res)
        else:
            traced_wall.append(res.wall_s)
            if doc is not None:
                traced.append(layer_metrics(doc))
                absent, missing = doc["absent"], doc["missing_sites"]
        now = time.perf_counter()
        done = len(traced_wall) >= args.trace
        if done and (now - began >= args.seconds or now + res.wall_s > runner.deadline):
            break

    metrics: dict[str, tuple[float, str]] = {}
    if setup:
        metrics["setup_s"] = (statistics.median(setup), "s")
    walls = [r.wall_s for r in plain]
    wall = statistics.median(walls)
    print(f"workload: {args.workload} seed: {args.seed} samples: {len(walls)}")
    print(f"wall_s median: {wall:.4f} s  min: {min(walls):.4f}  max: {max(walls):.4f}")
    tail = tail_percentile(walls)
    print("wall_s tail: " + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
                             f"n/a ({len(walls)} samples, 11 needed for ten beyond a percentile)"))
    print(f"ops_failed_frac: {len(runner.failures) / runner.attempted:.4f} "
          f"({len(runner.failures)} of {runner.attempted})")
    for failure in runner.failures:
        print(f"FAILED {failure}")

    if args.trace:
        for name in PER_LAYER_UNITS:
            if name != "trace.overhead_frac":
                values = [t[name] for t in traced] or [0.0]
                metrics[name] = (statistics.median(values), PER_LAYER_UNITS[name])
        overhead = (statistics.median(traced_wall) - wall) / wall
        metrics["trace.overhead_frac"] = (overhead, PER_LAYER_UNITS["trace.overhead_frac"])
        if absent:
            print("absent layers: " + ", ".join(absent))
        if missing:
            print("missing lookup sites: " + ", ".join(missing))
    else:
        metrics["wall_s"] = (wall, "s")
        metrics["peak_rss_mib"] = (statistics.median(r.peak_rss_mib for r in plain), "MiB")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")

    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
