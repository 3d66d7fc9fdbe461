"""Self-test of the benchmark at tiny sizes (8x8 links, 1000 trials, 1 s runs).

    python3 perfbench/selftest.py

Checks that every workload emits every end-to-end metric of
BENCHMARK.json with its unit, timed and traced; that the traced counts
repeat exactly between two runs of one seed; that ``fail_ratio`` is 0
against a reference recorded from the current code; and that a corrupted
reference drives ``fail_ratio`` above 0 on the workloads that compare
with one.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import record_reference  # noqa: E402
import run  # noqa: E402

SEED = 3
SECONDS = 1.0
EXACT_COUNTS = (
    "channel.bessel_j.calls", "transceiver.svds", "waterfill.substreams", "cli.output_bytes",
)


def corrupt(reference: dict) -> dict:
    """Shift every sweep SE by 5% and every channel norm by 1e-6 relative."""
    bad = json.loads(json.dumps(reference))
    for rows in bad["tiny"]["sweep"].values():
        for row in rows:
            row[1] *= 1.05
            row[3] *= 1.05
    for dumps in bad["tiny"]["channel"].values():
        for stats in dumps.values():
            stats["norm"] = [x * (1.0 + 1e-6) for x in stats["norm"]]
    return bad


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if tuple(w["name"] for w in spec["workloads"]) != run.WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as tmp:
        good = Path(tmp) / "reference.json"
        reference = {"tiny": record_reference.record("tiny", Path(tmp))}
        good.write_text(json.dumps(reference))
        bad = Path(tmp) / "corrupt.json"
        bad.write_text(json.dumps(corrupt(reference)))

        for name in run.WORKLOADS:
            timed = run.run_workload(name, SEED, SECONDS, False, "tiny", good)
            units = {k: dict(run.END_TO_END)[k] for k in timed["metrics"]}
            if units != end_to_end:
                problems.append(f"{name}: timed run emits {units}, BENCHMARK.json has {end_to_end}")
            if not all(v > 0 for v in timed["metrics"].values()):
                problems.append(f"{name}: a timed metric is not positive: {timed['metrics']}")
            if timed["failed"]:
                problems.append(f"{name}: fail_ratio > 0 on a fresh reference: {timed['failures']}")

            traces = [run.run_workload(name, SEED, SECONDS, True, "tiny", good) for _ in range(2)]
            if traces[0]["units"] != per_layer:
                problems.append(f"{name}: traced run units differ from BENCHMARK.json per_layer")
            for count in EXACT_COUNTS:
                values = [t["metrics"][count] for t in traces]
                if values[0] != values[1]:
                    problems.append(f"{name}: {count} differs between runs: {values}")
            if any(t["failed"] for t in traces):
                problems.append(f"{name}: traced run failed: {traces[0]['failures']}")

            if name != "link-blocks":
                broken = run.run_workload(name, SEED, SECONDS, False, "tiny", bad)
                if broken["failed"] == 0:
                    problems.append(f"{name}: corrupted reference left fail_ratio at 0")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
