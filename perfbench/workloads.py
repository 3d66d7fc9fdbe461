"""The benchmark's workloads: inputs, the timed operation and its check.

Each workload drives ``oem_mmwave`` only from outside, through
``oem_mmwave.cli.main`` or the public functions of its modules.  Calls
go through the module attribute (``cli.main``, ``transceiver.zf_detect``)
so that the tracer in ``tracing.py`` can wrap them where they are looked
up.  A workload has four steps:

* ``setup()`` — one-time preparation, counted in ``setup_s``;
* ``inputs(i)`` — the inputs of operation i, made from the workload seed
  outside the timed region;
* ``op(inp)`` — the timed operation;
* ``check(inp, out)`` — the correctness check, outside the timed region;
  it returns an error message, or None when the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

from oem_mmwave import capacity, channel, cli, transceiver, waterfill
from oem_mmwave.config import OemConfig

SPEED_OF_LIGHT = 299_792_458.0

# Radii, wavelength and angles of the README config; angles in degrees as
# the config file stores them.
BASE_CONFIG = {
    "r1": 0.1, "r2": 0.004, "wavelength": SPEED_OF_LIGHT / 35e9,
    "phi": 30.0, "phi_c": 3.0,
}

# Per size: (N, U) of the link and the sweep's SNR grid and trial count.
SIZES = {
    "full": {"sweep": (16, 4), "snr_db": "0:30:5", "trials": 10_000,
             "channel": (64, 16), "blocks": (16, 4)},
    "tiny": {"sweep": (8, 4), "snr_db": "0:30:10", "trials": 1_000,
             "channel": (8, 4), "blocks": (8, 4)},
}

# Reference pools.  Operation i of a run uses pool entry order[i % P],
# where order is a permutation drawn from the workload seed, so a run
# does not repeat an input until it has used the whole pool.
SWEEP_SEEDS = tuple(range(16))
CHANNEL_THETAS_DEG = tuple(45.0 * k for k in range(8))
MODELS = ("exact-sum", "bessel", "convergent")

# Tolerances.  SE_SIGMAS: per SNR point, OEM and MIMO SE within this many
# combined standard errors of the reference.  RATIO_REL: the OEM/MIMO SE
# ratio within this share of the channel-count ratio, as acceptance
# criterion 1 pins it.  CHANNEL_REL: per-mode Frobenius norm and entry
# sum, relative to the largest per-mode value of the dump, so that modes
# whose gains sit at the rounding floor do not fail on a change of
# evaluator.  BLOCK_REL: symbol recovery of the noise-free replica, and
# the allocation budget.  All leave room for shifts below 1e-6 relative.
SE_SIGMAS = 3.0
RATIO_REL = 0.03
CHANNEL_REL = 1e-9
BLOCK_REL = 1e-9

# link-blocks: every REPLICA_EVERY-th block is replayed without noise.
REPLICA_EVERY = 16
BLOCK_DISTANCE_M = 1.0
BLOCK_NOISE_VAR = 1e-7


def config_dict(n: int, u: int, **extra) -> dict:
    return {"n_tx": n, "m_rx": n, "u_elems": u, "v_elems": u, **BASE_CONFIG, **extra}


def write_config(path: Path, d: dict) -> Path:
    path.write_text(json.dumps(d, indent=2) + "\n")
    return path


def pool_order(seed: int, size: int) -> list[int]:
    order = list(range(size))
    random.Random(seed).shuffle(order)
    return order


def read_sweep_csv(path: Path) -> list[list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["snr_db", "se_oem", "se_oem_stderr", "se_mimo", "se_mimo_stderr"]:
        raise ValueError(f"unexpected sweep header {rows[0]}")
    return [[float(x) for x in row] for row in rows[1:]]


def channel_stats(path: Path, n: int, u: int) -> dict:
    """Row count and per-mode Frobenius norm and entry sum of a channel CSV."""
    norm2 = [0.0] * u
    sum_re = [0.0] * u
    sum_im = [0.0] * u
    per_mode = [0] * u
    rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["mode", "m", "n", "re", "im"]:
            raise ValueError("unexpected channel header")
        for mode, m, col, re, im in reader:
            l, re, im = int(mode), float(re), float(im)
            if not (1 <= int(m) <= n and 1 <= int(col) <= n):
                raise ValueError(f"entry ({m}, {col}) outside the {n}x{n} matrix")
            norm2[l] += re * re + im * im
            sum_re[l] += re
            sum_im[l] += im
            per_mode[l] += 1
            rows += 1
    return {
        "rows": rows, "per_mode_rows": per_mode,
        "norm": [math.sqrt(x) for x in norm2], "sum_re": sum_re, "sum_im": sum_im,
    }


class Sweep:
    """``oem-sim simulate`` on the README config, through ``cli.main``."""

    def __init__(self, size: str, seed: int, reference: dict, workdir: Path):
        self.n, self.u = SIZES[size]["sweep"]
        self.snr_db = SIZES[size]["snr_db"]
        self.trials = SIZES[size]["trials"]
        self.seed = seed
        self.reference = reference.get("sweep", {})
        self.workdir = workdir

    def setup(self) -> None:
        self.config_path = write_config(self.workdir / "sweep.json", config_dict(self.n, self.u))
        OemConfig.load(self.config_path)
        self.out = self.workdir / "sweep.csv"
        self.order = pool_order(self.seed, len(SWEEP_SEEDS))

    def inputs(self, i: int) -> int:
        return SWEEP_SEEDS[self.order[i % len(self.order)]]

    def argv(self, sweep_seed: int) -> list[str]:
        return [
            "simulate", "--config", str(self.config_path), "--snr-db", self.snr_db,
            "--trials", str(self.trials), "--total-power", "1.0",
            "--normalization", "per-channel", "--seed", str(sweep_seed),
            "--out", str(self.out),
        ]

    def op(self, sweep_seed: int) -> int:
        return cli.main(self.argv(sweep_seed))

    def result(self) -> list[list[float]]:
        return read_sweep_csv(self.out)

    def check(self, sweep_seed: int, rc: int) -> str | None:
        if rc != 0:
            return f"simulate exited {rc}"
        ref = self.reference.get(str(sweep_seed))
        if ref is None:
            return f"no reference sweep for seed {sweep_seed}"
        rows = self.result()
        if [r[0] for r in rows] != [r[0] for r in ref]:
            return f"SNR grid {[r[0] for r in rows]} differs from the reference"
        for (snr, oem, oem_se, mimo, mimo_se), ref_row in zip(rows, ref):
            for what, value, err, ref_value, ref_err in (
                ("OEM", oem, oem_se, ref_row[1], ref_row[2]),
                ("MIMO", mimo, mimo_se, ref_row[3], ref_row[4]),
            ):
                if not abs(value - ref_value) <= SE_SIGMAS * math.hypot(err, ref_err):
                    return f"{what} SE {value} at {snr} dB is off the reference {ref_value}"
            # Per-channel budgets and equal mode gains: the OEM link carries
            # U times the channels of the MIMO baseline.
            if not abs(oem / mimo / self.u - 1.0) <= RATIO_REL:
                return f"OEM/MIMO SE ratio {oem / mimo} at {snr} dB is not {self.u}"
        return None


class ChannelDump:
    """``oem-sim channel --model <model>`` at 64x64, U=V=16, through ``cli.main``."""

    def __init__(self, model: str, size: str, seed: int, reference: dict, workdir: Path):
        self.model = model
        self.n, self.u = SIZES[size]["channel"]
        self.seed = seed
        self.reference = reference.get("channel", {}).get(model, {})
        self.workdir = workdir

    def setup(self) -> None:
        self.config_paths = []
        for k, theta in enumerate(CHANNEL_THETAS_DEG):
            path = write_config(self.workdir / f"channel-{k}.json",
                                config_dict(self.n, self.u, theta=theta))
            OemConfig.load(path)
            self.config_paths.append(path)
        self.out = self.workdir / "channel.csv"
        self.order = pool_order(self.seed, len(CHANNEL_THETAS_DEG))

    def inputs(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def argv(self, k: int) -> list[str]:
        return ["channel", "--config", str(self.config_paths[k]),
                "--model", self.model, "--out", str(self.out)]

    def op(self, k: int) -> int:
        return cli.main(self.argv(k))

    def result(self) -> dict:
        return channel_stats(self.out, self.n, self.u)

    def check(self, k: int, rc: int) -> str | None:
        if rc != 0:
            return f"channel exited {rc}"
        ref = self.reference.get(str(k))
        if ref is None:
            return f"no reference {self.model} dump for theta index {k}"
        got = self.result()
        entries = self.n * self.n
        if got["rows"] != entries * self.u or got["per_mode_rows"] != [entries] * self.u:
            return f"CSV has {got['rows']} rows, expected {entries * self.u}"
        norm_scale = max(ref["norm"])
        sum_scale = max(map(math.hypot, ref["sum_re"], ref["sum_im"]))
        for l in range(self.u):
            if not abs(got["norm"][l] - ref["norm"][l]) <= CHANNEL_REL * norm_scale:
                return f"mode {l} norm {got['norm'][l]} differs from {ref['norm'][l]}"
            delta = math.hypot(got["sum_re"][l] - ref["sum_re"][l],
                               got["sum_im"][l] - ref["sum_im"][l])
            if not delta <= CHANNEL_REL * sum_scale:
                return f"mode {l} entry sum is {delta} off the reference"
        return None


class LinkBlocks:
    """Closed-loop link blocks on a 1 m, 16x16 U=V=4 link.

    At 1 m the mode matrices are well conditioned (cond about 5.3); at the
    README's 100 m the zero-forcing step raises RankDeficientError.
    """

    def __init__(self, size: str, seed: int, reference: dict, workdir: Path):
        self.n, self.u = SIZES[size]["blocks"]
        self.budget = float(self.n * self.u)
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def setup(self) -> None:
        path = write_config(
            self.workdir / "blocks.json",
            config_dict(self.n, self.u, link_distance=BLOCK_DISTANCE_M,
                        noise_var=BLOCK_NOISE_VAR),
        )
        self.cfg = OemConfig.load(path)
        self.quiet_cfg = self.cfg.with_(noise_var=0.0)
        self.channels = channel.build_mode_channels(self.cfg, "convergent")

    def inputs(self, i: int) -> tuple[int, np.ndarray, int]:
        """Unit-power QPSK symbols on the (N, U) grid and a noise seed."""
        bits = self.rng.integers(0, 2, size=(2, self.n, self.u))
        symbols = ((2 * bits[0] - 1) + 1j * (2 * bits[1] - 1)) / math.sqrt(2.0)
        return i, symbols, int(self.rng.integers(2**63))

    def op(self, inp):
        _, symbols, noise_seed = inp
        cfg, channels = self.cfg, self.channels
        transceiver.synthesize_elements(symbols, cfg)
        received = transceiver.propagate(symbols, channels, cfg, noise_seed)
        decomposed = transceiver.decompose_modes(received, cfg)
        _, weights = transceiver.zf_detect(decomposed, channels)
        policy = waterfill.waterfill_instantaneous(weights, self.budget)
        return policy, capacity.instantaneous_se(weights, policy)

    def check(self, inp, out) -> str | None:
        i, symbols, _ = inp
        policy, se = out
        alloc = policy.allocations
        if np.any(alloc < 0.0):
            return f"block {i}: negative allocation"
        if not abs(alloc.sum() - self.budget) <= BLOCK_REL * self.budget:
            return f"block {i}: allocations sum to {alloc.sum()}, budget {self.budget}"
        if not (math.isfinite(se) and se > 0.0):
            return f"block {i}: spectrum efficiency {se}"
        if i % REPLICA_EVERY == 0:
            received = transceiver.propagate(symbols, self.channels, self.quiet_cfg)
            decomposed = transceiver.decompose_modes(received, self.quiet_cfg)
            estimates, _ = transceiver.zf_detect(decomposed, self.channels)
            error = np.linalg.norm(estimates - symbols) / np.linalg.norm(symbols)
            if not error <= BLOCK_REL:
                return f"block {i}: noise-free replica recovers symbols to {error:.2e}"
        return None


def make(name: str, size: str, seed: int, reference: dict, workdir: Path):
    if name == "sweep-small":
        return Sweep(size, seed, reference, workdir)
    if name == "link-blocks":
        return LinkBlocks(size, seed, reference, workdir)
    model = name.removeprefix("channel-large-")
    if name.startswith("channel-large-") and model in MODELS:
        return ChannelDump(model, size, seed, reference, workdir)
    raise ValueError(f"unknown workload {name!r}")
