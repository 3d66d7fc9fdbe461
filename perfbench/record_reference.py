"""Record the reference values the benchmark's correctness checks compare to.

    python3 perfbench/record_reference.py

Runs every sweep seed and every channel dump of the reference pools
through ``oem_mmwave.cli.main`` at full size and overwrites
``reference.json`` with the sweep CSV rows and the per-mode channel
statistics.  Record again only when a change is meant to move outputs,
and say so with the largest deviation.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def record(size: str, workdir: Path) -> dict:
    sweep = workloads.Sweep(size, 0, {}, workdir)
    sweep.setup()
    sweeps = {}
    for seed in workloads.SWEEP_SEEDS:
        if sweep.op(seed) != 0:
            raise RuntimeError(f"simulate failed for seed {seed}")
        sweeps[str(seed)] = sweep.result()
    dumps = {}
    for model in workloads.MODELS:
        dump = workloads.ChannelDump(model, size, 0, {}, workdir)
        dump.setup()
        dumps[model] = {}
        for k in range(len(workloads.CHANNEL_THETAS_DEG)):
            if dump.op(k) != 0:
                raise RuntimeError(f"channel --model {model} failed for theta index {k}")
            stats = dump.result()
            dumps[model][str(k)] = {key: stats[key] for key in ("norm", "sum_re", "sum_im")}
    return {"sweep": sweeps, "channel": dumps}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as workdir:
        reference = {"full": record("full", Path(workdir))}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
