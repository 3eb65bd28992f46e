"""Smoke test of the benchmark itself, at tiny sizes.

Usage, from the root of a source checkout::

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at a tiny size and
requires each check to pass.  Then shows that the checks catch bad output:
a closure with two classes merged and an isopair mapping with two targets
swapped must each be reported as failed.  Finally it requires the metric
names in ``BENCHMARK.json`` to match the ones ``run.py`` prints.  Exits 0
when all of this holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import run

TINY = {"mc-random-1024": 40, "mc-path-512": 16, "exact-random-256": 32, "isopair-random-512": 40}


def merge_two_classes(path: Path) -> None:
    """Rewrite a closure file with class 2 folded into class 1."""
    tokens = path.read_text(encoding="ascii").split()
    cells = np.array(tokens[3:], dtype=np.int64)
    cells[cells == 2] = 1
    cells[cells > 2] -= 1
    n = int(tokens[1])
    run.write_graph(path, cells.reshape(n, n))


def swap_two_targets(stdout: str) -> str:
    lines = stdout.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("mapping: "):
            pairs = line[len("mapping: "):].split()
            targets = [p.split("->")[1] for p in pairs]
            targets[0], targets[1] = targets[1], targets[0]
            lines[i] = "mapping: " + " ".join(f"{u}->{v}" for u, v in enumerate(targets)) + "\n"
    return "".join(lines)


def main() -> int:
    problems: list[str] = []
    run.WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))
    runner = run.Runner(workdir, time.perf_counter())
    try:
        for name, workload in run.WORKLOADS.items():
            case = workload.case(7, workdir, n=TINY[name])
            for traced in (False, True):
                before = len(runner.failures)
                res, doc = runner.command(case, traced=traced)
                print(f"{name} traced={int(traced)} wall {res.wall_s:.3f} s "
                      f"rss {res.peak_rss_mib:.1f} MiB")
                if len(runner.failures) != before:
                    problems.append(f"{name}: {runner.failures[-1]}")
                if doc is not None:
                    figures = run.layer_metrics(doc)
                    if figures["cli.unattributed_ms"] <= 0 or doc["absent"]:
                        problems.append(f"{name}: bad trace {doc['absent']}")

        n = TINY["mc-path-512"]
        close = run.WORKLOADS["mc-path-512"].case(7, workdir, n=n)
        out_path = Path(close.argv[close.argv.index("--out") + 1])
        res = runner.child(["-m", "wlclosure.cli", *close.argv])
        merge_two_classes(out_path)
        # keep the report consistent with the merged file, so only the
        # comparison with the orbital partition can catch it
        classes = n * n // 2
        merged_stdout = res.stdout.replace(f"classes_out: {classes}\n", f"classes_out: {classes - 1}\n")
        if close.check(dataclasses.replace(res, stdout=merged_stdout)) is None:
            problems.append("a closure with two classes merged passed its check")
        else:
            print("merged closure: reported as failed")

        pair = run.WORKLOADS["isopair-random-512"].case(7, workdir, n=TINY["isopair-random-512"])
        res = runner.child(["-m", "wlclosure.cli", *pair.argv])
        if pair.check(dataclasses.replace(res, stdout=swap_two_targets(res.stdout))) is None:
            problems.append("a wrong isopair mapping passed its check")
        else:
            print("wrong mapping: reported as failed")
        unverified = res.stdout.replace("mapping verified: yes", "mapping verified: no")
        if pair.check(dataclasses.replace(res, stdout=unverified)) is None:
            problems.append("an unverified isopair mapping passed its check")
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if {m["name"] for m in spec["per_layer"]} != set(run.PER_LAYER_UNITS):
        problems.append("BENCHMARK.json per_layer names differ from run.py")
    if {m["name"] for m in spec["end_to_end"]} != {"wall_s", "peak_rss_mib", "setup_s"}:
        problems.append("BENCHMARK.json end_to_end names differ from run.py")
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
