"""Benchmark of the oem-sim link simulator.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the package is imported from ``src/``.
Each workload runs in fresh processes of its own (``worker.py``): a few
set-up-only processes and one measuring process, so that ``setup_s``
includes the imports and ``peak_rss_mb`` belongs to that workload alone.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report with the environment, sample counts and the
workload-specific metric names.  ``--workload all`` runs every workload
in turn and reports every metric under ``<workload>.<metric>``.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
SPANS_DIR = ROOT / ".perfbench-traces"

WORKLOADS = (
    "sweep-small", "channel-large-exact-sum", "channel-large-bessel",
    "channel-large-convergent", "link-blocks",
)
SETUP_RUNS = 15
# All processes of one workload together must end within this time.
WORKLOAD_TIMEOUT_S = 170.0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# End-to-end metrics, emitted by every workload: (name, unit).
END_TO_END = (
    ("setup_s", "s"), ("op_s_p50", "ref_s"), ("op_s_p90", "ref_s"),
    ("ops_per_s", "1/ref_s"), ("peak_rss_mb", "MB"),
)

ROUND_METRICS = ("op_s_p90", "ops_per_s")

# The name each generic metric goes by on a workload.  One operation is
# one simulate sweep, one channel dump or one link block.
ALIASES = {
    "sweep-small": {"op_s_p50": "sweep_s"},
    "channel-large-exact-sum": {"op_s_p50": "dump_s.exact-sum"},
    "channel-large-bessel": {"op_s_p50": "dump_s.bessel"},
    "channel-large-convergent": {"op_s_p50": "dump_s.convergent"},
    "link-blocks": {"op_s_p50": "block_s_p50", "op_s_p90": "block_s_p90",
                    "ops_per_s": "blocks_per_s"},
}


class BenchError(RuntimeError):
    pass


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def worker_env() -> dict:
    """Environment of the worker: ``src`` importable, BLAS threads capped at nproc."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = nproc
        env[var] = str(min(max(current, 1), nproc))
    return env


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def git_commit() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    head = _read(git / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    commit = _read(git / ref).strip()
    if commit:
        return commit
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(seed: int, env: dict) -> dict:
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
         if line.startswith("model name")), platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size").strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache": caches,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Start a worker; return (seconds until it was ready, its JSON result).

    The worker's first line is ``ready <time.monotonic()>``, the clock
    this process reads too, so set-up is timed without reading the pipe
    early; the worker is killed if it has not ended by `deadline`.
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv], stdout=subprocess.PIPE,
        env=env, cwd=ROOT, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(argv)} did not end in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("ready "):
        raise BenchError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return float(lines[0].split()[1]) - start, json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", reference: Path = REFERENCE) -> dict:
    env = worker_env()
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--size", size, "--reference", str(reference), "--workdir", str(workdir)]
    try:
        runs = []
        if not trace:
            for _ in range(SETUP_RUNS - 1):
                runs.append(spawn([*common, "--setup-only"], env, deadline))
        extra = ["--trace", "1", "--spans-out", str(SPANS_DIR / f"{workload}.jsonl")]
        runs.append(spawn([*common, *(extra if trace else [])], env, deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = runs[-1][1]
    result["env"] = environment(seed, env)
    result["env"]["numpy"] = result["numpy"]
    # Set-up times at the scalar kernel's nominal speed, like the operations.
    setups = [t * r["setup_nominal_s"] / r["setup_reference"] for t, r in runs]
    result["wall"] = {"setup_s": statistics.median(t for t, _ in runs)}
    if trace:
        result["metrics"] = {name: value for name, (value, _) in result["per_layer"].items()}
        result["units"] = {name: unit for name, (_, unit) in result["per_layer"].items()}
        return result
    wall = result["latencies"]
    # Operation times at the calibration kernel's nominal speed (calibrate.py).
    lat = [t * result["nominal_s"] / ref for t, ref in zip(wall, result["references"])]
    # Tail and throughput are taken within each round and then the median
    # over rounds: a sweep or a dump is one round, and the p90 of a dozen
    # operations would measure the host's worst moments, not the program.
    rounds, end = [], 0
    for count in result["rounds"]:
        rounds.append(lat[end:end + count])
        end += count
    result["samples"] = {
        "setup_s": len(setups), "op_s_p50": len(lat), "op_s_p90": len(rounds),
        "ops_per_s": len(rounds), "peak_rss_mb": 1,
    }
    result["metrics"] = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(lat),
        "op_s_p90": statistics.median(percentile(r, 90.0) for r in rounds),
        "ops_per_s": statistics.median(len(r) / sum(r) for r in rounds),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    result["wall"].update({
        "op_s_p50": statistics.median(wall), "op_s_p90": percentile(wall, 90.0),
        "kernel_s_p50": statistics.median(result["references"]),
    })
    return result


def report(workload: str, result: dict, trace: bool) -> None:
    """Readable lines for one workload, ahead of the JSON result line."""
    print(f"# workload {workload}")
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    unit = result.get("units", dict(END_TO_END))
    if trace:
        print(f"# traced run: set-up + {result['ops']} ops, after the same ops untraced")
        for name, value in result["metrics"].items():
            note = "  (computed from input sizes)" if name in result["computed"] else ""
            print(f"{workload:26s} {name:44s} {value:14.6g} {unit[name]}{note}")
    else:
        aliases = ALIASES.get(workload, {})
        for name, value in result["metrics"].items():
            alias = f"  = {aliases[name]}" if name in aliases else ""
            n = result["samples"][name]
            n = f"{n} rounds of {len(result['latencies'])} ops" if name in ROUND_METRICS else n
            print(f"{workload:26s} {name:12s} {value:12.6g} {unit[name]:7s} n={n}{alias}")
        wall = result["wall"]
        print(f"# wall time, uncalibrated: setup_s {wall['setup_s']:.6g} s,"
              f" op_s_p50 {wall['op_s_p50']:.6g} s, op_s_p90 {wall['op_s_p90']:.6g} s;"
              f" kernel median {wall['kernel_s_p50']:.6g} s")
    ratio = result["failed"] / result["attempted"]
    print(f"{workload:26s} fail_ratio   {ratio:12.6g} -    "
          f" ({result['failed']} failed of {result['attempted']} attempted)")
    for failure in result["failures"]:
        print(f"# failure: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oem_mmwave" / "__init__.py").is_file():
        print(f"no oem_mmwave package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"reference values missing: {REFERENCE}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        try:
            results[workload] = run_workload(workload, args.seed, args.seconds, trace)
        except BenchError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        report(workload, results[workload], trace)

    def key(workload, name):
        return name if args.workload != "all" else f"{workload}.{name}"

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key(workload, name): {"value": value, "unit": r.get("units", dict(END_TO_END))[name]}
            for workload, r in results.items() for name, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
