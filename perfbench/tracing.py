"""Span recorder for the traced run.

The tracer wraps each layer's public function where the calling module
looks it up (``waterfill_ergodic`` as bound in ``oem_mmwave.capacity``,
``bessel_j`` in ``oem_mmwave.channel``, ``zf_detect`` on the
``oem_mmwave.transceiver`` module that the benchmark calls through), and
restores the originals afterwards.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, op, error]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``op`` the id of the
benchmark operation it belongs to (0 for set-up).  Spans stay in memory
until the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap.  Calls made outside a benchmark span, by the correctness
checks, are not recorded.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from oem_mmwave import capacity, channel, cli, config, transceiver, waterfill


def _sample_counts(counts, args, result):
    # One generator per channel, each drawing `count` samples.
    counts["waterfill.substreams"] += result.shape[1]
    counts["waterfill.samples"] += result.size


def _entry_counts(counts, args, result):
    counts["channel.entries"] += sum(ch.matrix.size for ch in result)


def _svd_counts(counts, args, result):
    counts["transceiver.svds"] += len(args[1])


def _active_counts(counts, args, result):
    counts["waterfill.active"] += len(result.active_set)
    counts["waterfill.offered"] += result.allocations.size


def _output_counts(counts, args, result):
    argv = args[0]
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        for path in (out, out.with_suffix(out.suffix + ".manifest.json")):
            if path.is_file():
                counts["cli.output_bytes"] += path.stat().st_size


# (owner, attribute, span name, counter hook).  The owner is the namespace
# the caller looks the name up in.
SITES = (
    (cli, "main", "cli.main", _output_counts),
    (config.OemConfig, "load", "config.load", None),
    (cli, "mode_power_profile", "channel.mode_power_profile", None),
    (cli, "build_mode_channels", "channel.build_mode_channels", _entry_counts),
    (channel, "build_mode_channels", "channel.build_mode_channels", _entry_counts),
    (channel, "build_layout", "geometry.build_layout", None),
    (channel, "bessel_j", "channel.bessel_j", None),
    (cli, "sweep", "capacity.sweep", None),
    (capacity, "ergodic_se_oem", "capacity.ergodic_se_oem", None),
    (capacity, "ergodic_se_mimo", "capacity.ergodic_se_mimo", None),
    (capacity, "waterfill_ergodic", "waterfill.waterfill_ergodic", None),
    (capacity, "sample_snr_realizations", "waterfill.sample_snr_realizations", _sample_counts),
    (waterfill, "sample_snr_realizations", "waterfill.sample_snr_realizations", _sample_counts),
    (waterfill, "waterfill_instantaneous", "waterfill.waterfill_instantaneous", _active_counts),
    (capacity, "instantaneous_se", "capacity.instantaneous_se", None),
    (transceiver, "synthesize_elements", "transceiver.synthesize_elements", None),
    (transceiver, "propagate", "transceiver.propagate", None),
    (transceiver, "decompose_modes", "transceiver.decompose_modes", None),
    (transceiver, "zf_detect", "transceiver.zf_detect", _svd_counts),
)

LAYERS = ("config", "geometry", "channel", "transceiver", "waterfill", "capacity", "cli")

# Per-layer metrics: (name, unit).  Counts marked computed come from the
# sizes of the arrays a call takes or returns.
PER_LAYER = (
    ("waterfill.waterfill_ergodic.calls", "count"),
    ("waterfill.waterfill_ergodic.self_s", "s"),
    ("waterfill.sample_snr_realizations.calls", "count"),
    ("waterfill.sample_snr_realizations.self_s", "s"),
    ("waterfill.substreams", "count"),
    ("waterfill.samples", "count"),
    ("waterfill.waterfill_instantaneous.calls", "count"),
    ("waterfill.waterfill_instantaneous.self_s", "s"),
    ("waterfill.active_ratio", "ratio"),
    ("capacity.sweep.self_s", "s"),
    ("capacity.ergodic_se_oem.self_s", "s"),
    ("capacity.ergodic_se_mimo.self_s", "s"),
    ("capacity.instantaneous_se.self_s", "s"),
    ("channel.build_mode_channels.calls", "count"),
    ("channel.build_mode_channels.self_s", "s"),
    ("channel.bessel_j.calls", "count"),
    ("channel.bessel_j.self_s", "s"),
    ("channel.entries", "count"),
    ("channel.mode_power_profile.self_s", "s"),
    ("geometry.build_layout.calls", "count"),
    ("geometry.build_layout.self_s", "s"),
    ("transceiver.synthesize_elements.self_s", "s"),
    ("transceiver.propagate.self_s", "s"),
    ("transceiver.decompose_modes.self_s", "s"),
    ("transceiver.zf_detect.self_s", "s"),
    ("transceiver.zf_detect.calls", "count"),
    ("transceiver.svds", "count"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("config.load.self_s", "s"),
    *((f"{layer}.errors", "count") for layer in LAYERS),
    ("trace.wall_s", "s"),
    ("trace.untraced_ops_s", "s"),
    ("trace.traced_ops_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_share", "ratio"),
)

COMPUTED = {"waterfill.substreams", "waterfill.samples", "channel.entries", "transceiver.svds"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = 0

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self._op, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            if not self._stack:
                # Outside set-up and operations (a correctness check).
                return fn(*args, **kwargs)
            span = self._open(name)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def root(self, name: str, op: int):
        """A benchmark span (set-up or one operation) that layer spans nest in."""
        self._op = op
        span = self._open(name)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, hook in SITES:
                saved.append((owner, attr, vars(owner)[attr]))
                # A classmethod is wrapped bound and re-attached as a static
                # function, so callers still write OemConfig.load(path).
                wrapped = self.wrap(name, getattr(owner, attr), hook)
                setattr(owner, attr, staticmethod(wrapped) if isinstance(owner, type) else wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def per_layer(self, untraced_ops_s: float) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        values: Counter = Counter(self.counts)
        wall = traced_ops = unattributed = 0.0
        for (name, start, end, parent, op, error), children in zip(self.spans, child_time):
            self_s = (end - start) - children
            if name.startswith("bench."):
                unattributed += self_s
                wall += end - start
                if op > 0:
                    traced_ops += end - start
                continue
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += self_s
            values[f"{name.split('.')[0]}.errors"] += error
        offered = values.pop("waterfill.offered", 0)
        active = values.pop("waterfill.active", 0)
        values["waterfill.active_ratio"] = active / offered if offered else 0.0
        values["trace.wall_s"] = wall
        values["trace.untraced_ops_s"] = untraced_ops_s
        values["trace.traced_ops_s"] = traced_ops
        values["trace.overhead_s"] = traced_ops - untraced_ops_s
        values["trace.unattributed_s"] = unattributed
        values["trace.unattributed_share"] = unattributed / wall if wall > 0 else 0.0
        return {name: float(values.get(name, 0)) for name, _ in PER_LAYER}
