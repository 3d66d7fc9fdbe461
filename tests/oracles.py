"""Independent reference implementations the tests check the package against.

None of these is part of ``oem_mmwave``: they are slow, literal forms of
what the package computes in closed or vectorized form.

* ``brute_force_oracle`` — exhaustive active-set search for water filling.
* ``element_gain`` — the literal far-field gain of one element pair.
* ``mode_gain`` — one entry c_l * B[m, n] of a mode matrix, without V.
* ``csv_channel_dump`` — the ``channel`` command's CSV, written row by
  row with the csv module.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from typing import Optional

import numpy as np

from oem_mmwave.channel import _base_gain, _mode_coefficients
from oem_mmwave.config import OemConfig
from oem_mmwave.errors import DomainError, InvalidConfigError
from oem_mmwave.geometry import ElementLayout, build_layout
from oem_mmwave.waterfill import GridLike, PowerPolicy, _grid_values


def brute_force_oracle(snr: GridLike, total_power: float) -> PowerPolicy:
    """Exhaustive active-set search; independent check of the sort-based solver.

    Enumerates every nonempty candidate set (at most 2^6 - 1 channels
    supported), solves the equal-water-level system on it, keeps
    candidates whose powers are all strictly positive, and returns the
    feasible candidate with the highest sum rate.
    """
    if total_power <= 0.0:
        raise InvalidConfigError(f"total power must be positive, got {total_power}")
    gamma = _grid_values(snr)
    indices = [tuple(map(int, idx)) for idx in zip(*np.nonzero(gamma > 0.0))]
    if len(indices) > 6:
        raise DomainError(f"exhaustive search supports at most 6 channels, got {len(indices)}")
    if not indices:
        return PowerPolicy(allocations=np.zeros_like(gamma), water_level=0.0,
                           total_power=total_power)
    best = None
    for size in range(1, len(indices) + 1):
        for subset in itertools.combinations(indices, size):
            g = np.array([gamma[idx] for idx in subset])
            water = (total_power + (1.0 / g).sum()) / size
            powers = water - 1.0 / g
            if np.any(powers <= 0.0):
                continue
            rate = float(np.log2(1.0 + powers * g).sum())
            if best is None or rate > best[0]:
                best = (rate, subset, powers, water)
    rate, subset, powers, water = best
    allocations = np.zeros_like(gamma)
    for idx, p in zip(subset, powers):
        allocations[idx] = p
    return PowerPolicy(allocations=allocations, water_level=float(water), total_power=total_power)


def element_gain(cfg: OemConfig, layout: ElementLayout, m: int, n: int, u: int, v: int) -> complex:
    """Far-field gain from transmit element (n, u) to receive element (m, v).

    Inverse-distance amplitude with the first-order phase expansion
    around the center-to-center distance: the transmit-element offset
    enters the phase through its projection on the link direction, the
    receive-element offset is dropped.
    """
    d_vec = layout.center_vectors[m, n]
    d = float(np.linalg.norm(d_vec))
    r_u = layout.tx_positions[n, u] - layout.tx_centers[n]
    phase = -2.0 * math.pi / cfg.wavelength * (d - float(d_vec @ r_u) / d)
    amp = cfg.beta * cfg.wavelength / (4.0 * math.pi * math.sqrt(cfg.u_elems) * d)
    return amp * complex(math.cos(phase), math.sin(phase))


def mode_gain(cfg: OemConfig, m: int, n: int, l: int, kind: str = "bessel",
              layout: Optional[ElementLayout] = None) -> complex:
    """Channel gain of OAM mode l between transmit UCA n and receive UCA m."""
    if not (0 <= l < cfg.u_elems):
        raise DomainError(f"mode index {l} outside 0..{cfg.u_elems - 1}")
    d = float((layout or build_layout(cfg)).center_distances[m, n])
    return complex(_mode_coefficients(cfg, kind)[l] * _base_gain(cfg, d))


def csv_channel_dump(channels, mode: Optional[int] = None) -> str:
    """The ``oem-sim channel`` CSV of a channel set, one csv.writer row per entry.

    Rows (l, m, n, re, im) with 1-based m and n and the parts in
    12-significant-digit ``g`` format; only mode ``mode`` when given.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["mode", "m", "n", "re", "im"])
    for l, ch in enumerate(channels):
        if mode is not None and l != mode:
            continue
        for m, row in enumerate(ch.matrix.tolist(), start=1):
            for n, entry in enumerate(row, start=1):
                writer.writerow([l, m, n, format(float(entry.real), ".12g"),
                                 format(float(entry.imag), ".12g")])
    return out.getvalue()
