"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--out FILE]

Runs ``run.py`` once per (workload, seed), each in its own process, and
prints per metric the median, the quartiles and the spread: the distance
between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them.  A spread should stay
below a third of the metric's bound in BENCHMARK.json.  ``--out`` keeps
every run's result as JSON, for a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    runs = {}
    ok = True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in seed_range(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            ok &= result["correct"]
            runs[workload].append(result)
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[workload]]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            flag = "" if share < metric["bound"] / 3 else "  <-- above bound/3"
            print(f"{workload:26s} {metric['name']:12s} median {median:10.6g} "
                  f"q1 {q1:10.6g} q3 {q3:10.6g} spread {share:7.2%} "
                  f"(bound {metric['bound']:.0%}){flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
