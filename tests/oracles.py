"""Independent reference implementations the tests check the package against.

None of these is part of ``oem_mmwave``: they are slow, literal forms of
what the package computes in closed or vectorized form.

* ``brute_force_oracle`` — exhaustive active-set search for water filling.
* ``uca_placement`` — one UCA's center and array-elements in 3-D, placed
  point by point from the config; the package places only the centers.
* ``layout_3d`` — the (M, N) center distances as norms of 3-D center
  differences, where the package squares the in-plane offsets and D.
* ``element_gain`` — the literal far-field gain of one element pair, on
  the placement of ``uca_placement``.
* ``mode_gain`` — one entry c_l * B[m, n] of a mode matrix, without V.
* ``csv_channel_dump`` — the ``channel`` command's CSV, written row by
  row with the csv module.
* ``zf_qr_oracle`` — the zero-forcing filter and noise gains of B from
  its QR factorization, without an SVD.
* ``where_allocation`` — the water-filling powers masked by ``np.where``,
  where the package fills the reciprocals in place.
* ``link_block_oracle`` — one closed-loop link block with a new array
  for every step, where the package scales and divides in place.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from typing import Optional

import numpy as np

from oem_mmwave.channel import ModeChannels, _base_gain, _mode_coefficients
from oem_mmwave.config import OemConfig
from oem_mmwave.errors import DomainError, InvalidConfigError
from oem_mmwave.geometry import build_layout
from oem_mmwave.transceiver import _dft, _zf_weights
from oem_mmwave.waterfill import GridLike, PowerPolicy, _grid, _water_levels


def brute_force_oracle(snr: GridLike, total_power: float) -> PowerPolicy:
    """Exhaustive active-set search; independent check of the sort-based solver.

    Enumerates every nonempty candidate set (at most 2^6 - 1 channels
    supported), solves the equal-water-level system on it, keeps
    candidates whose powers are all strictly positive, and returns the
    feasible candidate with the highest sum rate.
    """
    if total_power <= 0.0:
        raise InvalidConfigError(f"total power must be positive, got {total_power}")
    gamma = _grid(snr).values
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


def _circle_point(radius: float, count: int, k: int) -> np.ndarray:
    """Point k of ``count`` equispaced on a circle about the origin in the
    z=0 plane, at angle 2 pi k / count from the x-axis."""
    angle = 2.0 * math.pi * k / count
    return np.array([radius * math.cos(angle), radius * math.sin(angle), 0.0])


def uca_placement(cfg: OemConfig, receive: bool, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Center (3,) and element positions (U or V, 3) of transmit or receive UCA k.

    The center sits at angle 2 pi k / N (transmit, plane z=0) or 2 pi k / M
    (receive, plane z=link_distance) on the radius-r1 circle; element e at
    angle 2 pi e / U (or / V) on a radius-r2 circle about it, in the same
    plane.
    """
    if receive:
        count, elems, z = cfg.m_rx, cfg.v_elems, cfg.link_distance
    else:
        count, elems, z = cfg.n_tx, cfg.u_elems, 0.0
    center = _circle_point(cfg.r1, count, k) + np.array([0.0, 0.0, z])
    return center, np.array([center + _circle_point(cfg.r2, elems, e) for e in range(elems)])


def layout_3d(cfg: OemConfig) -> np.ndarray:
    """(M, N) distances between receive and transmit UCA centers placed in 3-D.

    Each circle's centers are (r1 cos a, r1 sin a, z) rows at angles
    a = 2 pi k / count, z = 0 (transmit) or link_distance (receive); the
    distances are ``np.linalg.norm`` of every (M, N, 3) center difference.
    """
    def ring(z: float, count: int) -> np.ndarray:
        angles = 2.0 * np.pi * np.arange(count) / count
        points = np.zeros((count, 3))
        points[:, 0] = cfg.r1 * np.cos(angles)
        points[:, 1] = cfg.r1 * np.sin(angles)
        return np.array([0.0, 0.0, z])[None, :] + points

    tx_centers, rx_centers = ring(0.0, cfg.n_tx), ring(cfg.link_distance, cfg.m_rx)
    return np.linalg.norm(rx_centers[:, None, :] - tx_centers[None, :, :], axis=-1)


def element_gain(cfg: OemConfig, m: int, n: int, u: int, v: int) -> complex:
    """Far-field gain from transmit element (n, u) to receive element (m, v).

    Inverse-distance amplitude with the first-order phase expansion
    around the center-to-center distance: the transmit-element offset
    enters the phase through its projection on the link direction, the
    receive-element offset is dropped.
    """
    tx_center, tx_elements = uca_placement(cfg, False, n)
    rx_center, _ = uca_placement(cfg, True, m)
    d_vec = rx_center - tx_center
    d = float(np.linalg.norm(d_vec))
    r_u = tx_elements[u] - tx_center
    phase = -2.0 * math.pi / cfg.wavelength * (d - float(d_vec @ r_u) / d)
    amp = cfg.beta * cfg.wavelength / (4.0 * math.pi * math.sqrt(cfg.u_elems) * d)
    return amp * complex(math.cos(phase), math.sin(phase))


def mode_gain(cfg: OemConfig, m: int, n: int, l: int, kind: str = "bessel") -> complex:
    """Channel gain of OAM mode l between transmit UCA n and receive UCA m."""
    if not (0 <= l < cfg.u_elems):
        raise DomainError(f"mode index {l} outside 0..{cfg.u_elems - 1}")
    d = float(build_layout(cfg)[m, n])
    return complex(_mode_coefficients(cfg, kind)[l] * _base_gain(cfg, d))


def csv_channel_dump(matrices, mode: Optional[int] = None) -> str:
    """The ``oem-sim channel`` CSV of mode matrices V * c_l * B, one csv.writer row per entry.

    Rows (l, m, n, re, im) with 1-based m and n and the parts in
    12-significant-digit ``g`` format; only mode ``mode`` when given.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["mode", "m", "n", "re", "im"])
    for l, matrix in enumerate(matrices):
        if mode is not None and l != mode:
            continue
        for m, row in enumerate(matrix.tolist(), start=1):
            for n, entry in enumerate(row, start=1):
                writer.writerow([l, m, n, format(float(entry.real), ".12g"),
                                 format(float(entry.imag), ".12g")])
    return out.getvalue()


def zf_qr_oracle(base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing filter (B^H B)^{-1} B^H and noise gains diag((B^H B)^{-1}) from B = QR.

    With B = QR (thin, R upper triangular), B^H B = R^H R, so the filter is
    R^{-1} Q^H and (B^H B)^{-1} = R^{-1} R^{-H}, whose diagonal holds the
    squared row norms of R^{-1}.  Backward stable, like the SVD, so both
    stay accurate to about cond(B) * eps.
    """
    q, r = np.linalg.qr(np.asarray(base, dtype=complex))
    r_inv = np.linalg.solve(r, np.eye(r.shape[0], dtype=complex))
    return np.linalg.solve(r, q.conj().T), np.sum(np.abs(r_inv) ** 2, axis=1)


def where_allocation(gamma, water: float) -> np.ndarray:
    """Powers max(0, water - 1/gamma) where gamma > 0, else 0, masked by ``np.where``."""
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(gamma > 0.0, np.maximum(water - 1.0 / gamma, 0.0), 0.0)


def link_block_oracle(symbols: np.ndarray, channels: ModeChannels, cfg: OemConfig,
                      noise_seed: int, total_power: float) -> dict:
    """One link block: synthesis, reception, decomposition, ZF detection,
    instantaneous water filling and its sum rate, each step a new array.

    The water level is ``_water_levels`` on a copy of the ZF weights; the
    ZF filter, mode gains and weights are the ones ``zf_detect`` caches.
    """
    u, v = cfg.u_elems, cfg.v_elems
    received = ((channels.base @ symbols) * channels.coefficients) @ _dft(u, v, v)
    if cfg.noise_var > 0.0:
        noise = np.random.default_rng(noise_seed).standard_normal((2, cfg.m_rx, v))
        received += np.sqrt(cfg.noise_var / 2.0) * (noise[0] + 1j * noise[1])
    zf, gains, weights = _zf_weights(channels, v,
                                     v * cfg.noise_var if cfg.noise_var > 0.0 else 1.0)
    gamma = weights.values
    water = _water_levels(gamma.copy(), [total_power])[0]
    allocations = where_allocation(gamma, water)
    return {
        "elements": symbols @ _dft(u, u, u).T / np.sqrt(u),
        "received": received,
        "estimates": (zf @ (received @ _dft(v, u, v, inverse=True))) / gains,
        "allocations": allocations,
        "water_level": water,
        "se": float(np.log2(1 + allocations * gamma).sum()),
    }
