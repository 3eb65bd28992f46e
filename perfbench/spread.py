"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a source checkout::

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1] [--out FILE]

For each workload it runs ``run.py`` once per seed, one run at a time, with
``run_seconds`` from ``BENCHMARK.json``, and prints per metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
distance as a share of the median, beside a third of the metric's bound.
``--out`` writes the same figures as JSON, for a baseline record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report: dict = {"environment": {}}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seed_range(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {"correct": False}
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED\n{proc.stdout}{proc.stderr}")
                return 1
            for line in proc.stdout.splitlines():
                if line.startswith("env "):
                    key, _, value = line[4:].partition(": ")
                    report["environment"].setdefault(key, value)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            report[workload][name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": spread,
                                      "values": vals}
            mark = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                mark = "  <- not below a third of the bound"
                steady = False
            print(f"{workload:20} {name:40} median {med:12.6g} iqr/median {spread:.4f}"
                  + (f" (bound/3 {bound / 3:.4f})" if bound else "") + mark
                  + "  [" + " ".join(f"{v:.4g}" for v in vals) + "]", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
