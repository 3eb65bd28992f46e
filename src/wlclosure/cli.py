"""Command-line interface.

Subcommands: ``close`` (compute a coherent closure, exact or Monte Carlo),
``check`` (fast probabilistic coherence verdict, optional exact cross-check),
``isopair`` (lockstep paired run over two graphs, reporting per-iteration
divergence or a candidate vertex mapping), ``bench`` (per-size step and
closure timings) and ``gen`` (write named fixtures).

Exit codes: 0 success (for ``check``: coherent), 1 ``check`` found the input
not coherent, 2 malformed input or arguments or an unwritable ``--out``, 3
overflow guard abort, 4 an input grid past 2**31 cells (n > 46,340), or a
file read, an exact step or check, a Monte Carlo run or a ``gen`` grid over
its memory budget.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import time
import tracemalloc

import numpy as np

from .classical import classical_closure, classical_step
from .coherence import fixture_names, make_fixture, verify_coherent
from .graph import (
    InputError,
    is_color_isomorphism,
    permute_vertices,
    rainbow_refine,
)
from .io import (
    GraphFileError,
    format_graph_text,
    input_digest,
    read_graph_by_value,
    read_graph_file,
    write_graph_file,
)
from .probabilistic import (
    OverflowGuardError,
    ResourceGuardError,
    RunParams,
    SplitMix64Stream,
    StoppingPolicy,
    check_coherent,
    check_product_bound,
    error_bound,
    guard_memory,
    paired_closure,
    probabilistic_closure,
    probabilistic_step,
)

_SIZE_CAP = 4096
# bytes per cell to build and write a fixture grid (traced: 16-39 at n=512, 1024)
_GEN_CELL_BYTES = 40


def _seed(args) -> int:
    """``--seed``, which must not be negative, or a fresh one in
    ``[0, 2**63)`` from OS entropy (``secrets``' source, without its import
    of OpenSSL)."""
    if args.seed is None:
        return random.SystemRandom().getrandbits(63)
    if args.seed < 0:
        raise InputError(f"seed must be >= 0, got {args.seed}")
    return args.seed


def _policy_from_args(args) -> StoppingPolicy:
    if args.policy == "practical":
        return StoppingPolicy.practical(args.k)
    return StoppingPolicy.theoretical(args.C)


def _read_input(path):
    started = time.perf_counter()
    x = read_graph_file(path)
    return x, (time.perf_counter() - started) * 1000.0


def cmd_close(args) -> int:
    x, parse_ms = _read_input(args.input)
    timings = [("parse", parse_ms)]
    notes: tuple[str, ...] = ()
    started = time.perf_counter()
    if args.mode == "exact":
        result = classical_closure(x)
        policy_desc = "exact"
        error_note = None
        probabilistic_m = None
        seed = None
    else:
        seed = _seed(args)
        policy = _policy_from_args(args)
        result = probabilistic_closure(x, RunParams(args.m, policy, seed))
        probabilistic_m = args.m
        # a discrete closure is exact: no split can have been missed
        exact = result.stopping_reason == "discrete"
        if policy.kind == "theoretical":
            policy_desc = f"theoretical C={policy.growth_constant:g}"
            bound = 0.0 if exact else error_bound(x.n, args.m, policy.growth_constant)
            error_note = ("error_bound", f"{bound:.6e}")
            notes = ("iteration budget scales with a configured constant, not a derived one",)
        else:
            policy_desc = f"practical k={policy.patience}"
            miss = 0.0 if exact else (2.0 / args.m) ** policy.patience
            error_note = ("miss_probability_per_refinement", f"{miss:.6e}")
    timings.append(("closure", (time.perf_counter() - started) * 1000.0))

    if args.out is not None:
        started = time.perf_counter()
        write_graph_file(args.out, result.closure)
        timings.append(("write", (time.perf_counter() - started) * 1000.0))

    print("command: close")
    print(f"input_sha256: {input_digest(x)}")
    print(f"n: {x.n}")
    print(f"colors_in: {x.r}")
    print(f"mode: {args.mode}")
    print(f"policy: {policy_desc}")
    print(f"m: {'-' if probabilistic_m is None else probabilistic_m}")
    print(f"seed: {'-' if seed is None else seed}")
    print(f"iterations: {result.iterations}")
    print(f"stopping_reason: {result.stopping_reason}")
    print(f"classes_out: {result.closure.r}")
    print(f"trace: {','.join(str(t) for t in result.trace)}")
    if error_note is not None:
        print(f"{error_note[0]}: {error_note[1]}")
    for note in notes:
        print(f"note: {note}")
    for key, ms in timings:
        print(f"wall_{key}_ms: {ms:.3f}")
    if args.print_closure:
        print("closure:")
        for line in format_graph_text(result.closure).rstrip("\n").split("\n"):
            print("  " + line)
    return 0


def cmd_check(args) -> int:
    x, _ = _read_input(args.input)
    seed = _seed(args)
    verdict = check_coherent(x, args.m, args.trials, SplitMix64Stream(seed))
    report = verify_coherent(x) if args.exact else None
    print(f"input_sha256: {input_digest(x)}")
    print(f"m: {args.m}")
    print(f"trials: {args.trials}")
    print(f"seed: {seed}")
    if report is not None and report.coherent:
        print("exact: coherent")
    elif report is not None:
        w = report.witness
        pair = "" if w.pair is None else f", pair {w.pair}"
        print(f"exact: not coherent ({w.kind} at cells {w.first_cell} / {w.second_cell}{pair})")
    print("coherent" if verdict else "not coherent (probabilistic)")
    return 0 if verdict else 1


def cmd_isopair(args) -> int:
    """Color ids compare by value across the two files: a pair produced from
    one graph (e.g. by permuting vertices) must be written with a shared
    vocabulary, see ``format_graph_text(..., canonical=False)``."""
    # each side renumbered by value, with its vocabulary of original ids;
    # equal vocabularies make the renumbering one shared map
    a, ids_a = read_graph_by_value(args.first)
    b, ids_b = read_graph_by_value(args.second)
    if a.n != b.n:
        raise GraphFileError(f"input size mismatch: {a.n} vs {b.n} vertices")
    seed = _seed(args)
    params = RunParams(args.m, StoppingPolicy.practical(args.k), seed)
    print(f"n: {a.n}")
    print(f"m: {args.m}")
    print(f"k: {args.k}")
    print(f"seed: {seed}")

    if not np.array_equal(ids_a, ids_b):
        print(f"iteration 0: color vocabularies differ ({len(ids_a)} vs {len(ids_b)} ids)")
        print(
            "color multisets diverge at iteration 0 "
            "(certified non-isomorphic at the refinement level)"
        )
        return 0
    del ids_a, ids_b
    run = paired_closure(a, b, params)
    diverged_at = None
    for i, (classes_a, classes_b, agree) in enumerate(run.iteration_trace):
        marker = ""
        if not agree and diverged_at is None:
            diverged_at = i
            marker = "  <- diverged"
        print(f"iteration {i}: classes {classes_a} | {classes_b}{marker}")
    if diverged_at is not None:
        print(
            f"color multisets diverge at iteration {diverged_at} "
            "(certified non-isomorphic at the refinement level)"
        )
        return 0
    print("per-iteration color multisets identical")
    if run.mapping is None:
        print("closure not discrete; no candidate mapping")
        return 0
    print("mapping: " + " ".join(f"{u}->{v}" for u, v in enumerate(run.mapping)))
    verified = is_color_isomorphism(a, b, run.mapping)
    print(f"mapping verified: {'yes' if verified else 'no'}")
    return 0


def _traced_peak_mib(run) -> float:
    """Peak of the memory ``tracemalloc`` traces while ``run()`` runs, in MiB."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def cmd_bench(args) -> int:
    sizes = []
    for token in args.sizes.split(","):
        token = token.strip()
        if token:
            try:
                sizes.append(int(token))
            except ValueError as exc:
                raise InputError(f"bad size {token!r}") from exc
    if not sizes:
        raise InputError("no sizes given")
    if any(n < 2 or n > _SIZE_CAP for n in sizes):
        raise InputError(f"sizes must lie in 2..{_SIZE_CAP}")
    if args.reps < 1:
        raise InputError(f"reps must be >= 1, got {args.reps}")
    seed = _seed(args)
    if args.mode == "mc":  # checked here so a bad --m prints nothing
        params = RunParams(args.m, StoppingPolicy.practical(3), seed)
        check_product_bound(max(sizes), args.m)
    print(f"mode: {args.mode}")
    print(f"seed: {seed}")
    print(
        f"{'n':>6} {'input':>6} {'step_ms':>12} {'closure_ms':>12} {'iterations':>10}"
        f" {'peak_mib':>10}"
    )
    for n in sizes:
        # random is discrete after a step or two; a permuted path's closure has
        # n**2/2 classes and takes several steps, so it times the rank layer too
        path_order = np.random.default_rng(seed + n).permutation(n)
        inputs = (
            ("random", make_fixture("random", n, 2, seed + n)),
            ("path", permute_vertices(make_fixture("path", n), path_order)),
        )
        for name, raw in inputs:
            x = rainbow_refine(raw)
            rng = SplitMix64Stream(seed)
            samples = []
            for _ in range(args.reps):
                started = time.perf_counter()
                if args.mode == "mc":
                    probabilistic_step(x, args.m, rng)
                else:
                    classical_step(x)
                samples.append((time.perf_counter() - started) * 1000.0)
            samples.sort()
            step_ms = samples[len(samples) // 2]

            def closure():
                if args.mode == "mc":
                    return probabilistic_closure(x, params)
                return classical_closure(x)

            started = time.perf_counter()
            result = closure()
            closure_ms = (time.perf_counter() - started) * 1000.0
            # a second, traced run: tracing slows the timed one
            peak_mib = _traced_peak_mib(closure)
            print(
                f"{n:>6} {name:>6} {step_ms:>12.3f} {closure_ms:>12.3f} {result.iterations:>10}"
                f" {peak_mib:>10.3f}"
            )
    return 0


def cmd_gen(args) -> int:
    params = list(args.params)
    if params and params[0] > 0:  # a sized fixture's first parameter is n
        guard_memory(params[0] ** 2 * _GEN_CELL_BYTES, "gen", f"for a grid at n={params[0]}")
    if args.name == "random":
        if len(params) != 2:
            raise InputError("random fixture takes n and r")
        seed = _seed(args)
        x = make_fixture("random", params[0], params[1], seed)
        seed_note = f"seed: {seed}\n"
    else:
        if args.seed is not None:
            raise InputError("--seed applies only to the random fixture")
        x = make_fixture(args.name, *params)
        seed_note = None
    if args.out is not None:
        write_graph_file(args.out, x)
        if seed_note:
            sys.stdout.write(seed_note)
    else:
        if seed_note:
            sys.stderr.write(seed_note)
        sys.stdout.write(format_graph_text(x))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlclosure",
        description="Coherent closure of colored complete digraphs, exactly or by Monte Carlo refinement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    close = sub.add_parser("close", help="compute the coherent closure of a graph file")
    close.add_argument("input", help="graph file to read")
    close.add_argument("--mode", choices=("mc", "exact"), default="mc")
    close.add_argument("--m", type=int, default=1_000_000, help="substitution range (mc)")
    close.add_argument("--k", type=int, default=3, help="practical-policy patience (mc)")
    close.add_argument("--C", type=float, default=1.0, help="theoretical-policy budget constant (mc)")
    close.add_argument("--policy", choices=("practical", "theoretical"), default="practical")
    close.add_argument("--seed", type=int, default=None)
    close.add_argument("--out", default=None, help="write the closure to this file")
    close.add_argument("--print-closure", action="store_true", help="embed the closure in the report")
    close.set_defaults(func=cmd_close)

    check = sub.add_parser("check", help="probabilistic coherence check")
    check.add_argument("input")
    check.add_argument("--m", type=int, default=1_000_000)
    check.add_argument("--trials", type=int, default=3)
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--exact", action="store_true", help="also run the axiom verifier")
    check.set_defaults(func=cmd_check)

    isopair = sub.add_parser("isopair", help="paired run over two graphs on shared randomness")
    isopair.add_argument("first")
    isopair.add_argument("second")
    isopair.add_argument("--m", type=int, default=1_000_000)
    isopair.add_argument("--k", type=int, default=3)
    isopair.add_argument("--seed", type=int, default=None)
    isopair.set_defaults(func=cmd_isopair)

    bench = sub.add_parser("bench", help="time refinement steps and closures per size")
    bench.add_argument("--sizes", default="64,128,256", help="comma-separated sizes")
    bench.add_argument("--mode", choices=("mc", "exact"), default="mc")
    bench.add_argument("--m", type=int, default=1_000_000)
    bench.add_argument("--reps", type=int, default=3)
    bench.add_argument("--seed", type=int, default=None)
    bench.set_defaults(func=cmd_bench)

    gen = sub.add_parser("gen", help="write a named fixture graph")
    gen.add_argument("name", choices=fixture_names())
    gen.add_argument("params", nargs="*", type=int)
    gen.add_argument("--seed", type=int, default=None, help="random fixture only")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OverflowGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """Process entry of the ``wlclosure`` command and of ``python -m
    wlclosure.cli``: :func:`main` on the process's arguments.

    The objects that exist by then, most of them numpy's from its import,
    are first frozen out of the garbage collector, so the collection at
    interpreter exit does not walk them (about 20 ms a command).  Frozen
    here, not at import nor in :func:`main`: importers and in-process
    callers keep a heap they can collect.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
