"""One workload in one fresh process; started by ``run.py``.

Prints ``ready <time.monotonic()>`` once set-up is done (imports, config
load, one-time preparation), so the parent can time set-up from process
start, then times a slice of the calibration kernel for it.  Unless
``--setup-only`` is given it then measures.  It ends with one JSON line.

Timed run (``--trace 0``): operations back to back from one caller for
``--seconds``, each timed on its own and checked after.

Traced run (``--trace 1``): a fixed number of operations, so that counts
repeat exactly from run to run.  Each runs once untraced and once under
the tracer (with set-up repeated inside the trace); the difference of the
two op times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

import calibrate
import workloads

# Operations per phase of a traced run.
TRACE_OPS = {"sweep-small": 2, "link-blocks": 4000}
TRACE_OPS_CHANNEL = 2
MAX_FAILURES_SHOWN = 5


def attempt(wl, i: int, tracer=None):
    """Run operation i; returns (seconds, error message or None).

    Under a tracer only the operation itself is a span; the check runs
    outside it and is not traced.
    """
    inp = wl.inputs(i)
    with tracer.root("bench.op", i + 1) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            out = wl.op(inp)
        except Exception:
            return time.perf_counter() - start, traceback.format_exc().strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
    try:
        return elapsed, wl.check(inp, out)
    except Exception as exc:
        return elapsed, f"check raised {exc!r}"


def record(into: dict, outcome: tuple) -> None:
    elapsed, error = outcome
    into["latencies"].append(elapsed)
    if error is not None:
        into["failures"].append(error)


def measure(wl, seconds: float, kernel) -> dict:
    """Operations back to back for `seconds`.

    Operations run in rounds of at least ``calibrate.ROUND_S``; a slice of
    calibration kernels, ``calibrate.SHARE`` of the round's time, follows
    each round, and one precedes the first.  The reference of the
    operations of a round is the median kernel time of the two slices
    around it.  A round starts only if one as long as the last still
    fits in `seconds`, so a run of long operations does not overshoot.
    """
    timed = {"latencies": [], "failures": [], "references": [], "rounds": []}
    before = calibrate.time_slice(kernel, calibrate.SHARE * calibrate.ROUND_S)
    start = time.perf_counter()
    i = 0
    last_round_s = 0.0
    while i == 0 or time.perf_counter() - start + last_round_s < seconds:
        round_start = time.perf_counter()
        first = i
        round_s = 0.0
        while i == first or round_s < calibrate.ROUND_S:
            record(timed, attempt(wl, i))
            round_s += timed["latencies"][-1]
            i += 1
        after = calibrate.time_slice(kernel, calibrate.SHARE * round_s)
        timed["references"] += [statistics.median(before + after)] * (i - first)
        timed["rounds"].append(i - first)
        before = after
        last_round_s = time.perf_counter() - round_start
    return timed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    reference = json.loads(Path(args.reference).read_text()).get(args.size, {})
    wl = workloads.make(args.workload, args.size, args.seed, reference, Path(args.workdir))
    wl.setup()
    print(f"ready {time.monotonic()!r}", flush=True)
    setup_kernel = calibrate.ScalarKernel()
    result = {
        "numpy": numpy.__version__,
        "setup_nominal_s": setup_kernel.nominal_s,
        "setup_reference": statistics.median(
            calibrate.time_slice(setup_kernel, calibrate.SETUP_SLICE_S)
        ),
    }
    if args.setup_only:
        print(json.dumps(result), flush=True)
        return 0

    if args.trace:
        import tracing

        ops = TRACE_OPS.get(args.workload, TRACE_OPS_CHANNEL)
        # A second workload object replays the same inputs under the
        # tracer; untraced and traced operations alternate, so that drift
        # in machine speed does not bias the overhead.
        replay = workloads.make(args.workload, args.size, args.seed, reference, Path(args.workdir))
        tracer = tracing.Tracer()
        untraced = {"latencies": [], "failures": []}
        traced = {"latencies": [], "failures": []}
        with tracer.installed(), tracer.root("bench.setup", 0):
            replay.setup()
        for i in range(ops):
            # Alternate which side runs first, so neither is always the colder.
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                if side == 0:
                    record(untraced, attempt(wl, i))
                else:
                    with tracer.installed():
                        record(traced, attempt(replay, i, tracer))
        if args.spans_out:
            tracer.write(Path(args.spans_out))
        values = tracer.per_layer(sum(untraced["latencies"]))
        result["per_layer"] = {name: (values[name], unit) for name, unit in tracing.PER_LAYER}
        result["computed"] = sorted(tracing.COMPUTED)
        result["attempted"] = 2 * ops
        result["failures"] = untraced["failures"] + traced["failures"]
        result["ops"] = ops
    else:
        kernel = calibrate.for_operations(args.workload)
        timed = measure(wl, args.seconds, kernel)
        result["latencies"] = timed["latencies"]
        result["references"] = timed["references"]
        result["rounds"] = timed["rounds"]
        result["nominal_s"] = kernel.nominal_s
        result["attempted"] = len(timed["latencies"])
        result["failures"] = timed["failures"]
    result["failed"] = len(result["failures"])
    result["failures"] = result["failures"][:MAX_FAILURES_SHOWN]
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
