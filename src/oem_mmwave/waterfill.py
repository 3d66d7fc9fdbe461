"""Water-filling power allocation over the per-stream, per-mode SNR grid.

Channels are indexed (i, l): spatial stream i of OAM mode l.  Grids are
stored as (streams, modes) arrays and flattened mode-major (all streams
of mode 0, then mode 1, ...) wherever a linear channel order is needed;
the same order keys the per-channel random substreams so that configs
sharing a channel layout see identical fading draws.

``log 2`` below always means the natural logarithm of 2: the water
level is 1 / (mu* ln 2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DomainError, InvalidConfigError

LN2 = math.log(2.0)

GridLike = Union["SnrGrid", np.ndarray]


@dataclass(frozen=True)
class SnrGrid:
    """Nonnegative SNR weights gamma_{i,l}, shape (streams, modes)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise InvalidConfigError("SNR grid entries must be finite and nonnegative")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class PowerPolicy:
    """Result of one water-filling solve.

    allocations : nonnegative powers, same shape as the input grid.
    water_level : common value of P + 1/gamma on active channels,
        equal to 1/(mu* ln 2); 0 for the outage (all-off) policy.
    active_set : sorted (i, l) index pairs with positive power.
    total_power : the power budget the solve was run against.
    """

    allocations: np.ndarray
    water_level: float
    active_set: tuple[tuple[int, int], ...]
    total_power: float

    @property
    def mu_star(self) -> float:
        """Optimal multiplier of the power constraint."""
        if self.water_level <= 0.0:
            return math.inf
        return 1.0 / (self.water_level * LN2)

    @property
    def is_outage(self) -> bool:
        return not self.active_set


def _grid_values(snr: GridLike) -> np.ndarray:
    values = snr.values if isinstance(snr, SnrGrid) else np.asarray(snr, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return values


def flatten_mode_major(grid: np.ndarray) -> np.ndarray:
    """Flatten (streams, modes) to a vector ordered mode-major."""
    return np.asarray(grid).flatten(order="F")


def _prefix_level(inv: np.ndarray, cums: np.ndarray, total_power: float) -> float:
    """Exact water level of ``total_power`` over ascending reciprocals ``inv``.

    ``cums`` is the cumulative sum of ``inv``.  Takes the largest prefix
    k whose level (P + cums_k) / k lies strictly above inv_k, so channels
    exactly at the level stay off and +inf entries (zero SNR) are never
    filled.  The test holds for every k up to that prefix and for none
    beyond, since cums_k - k inv_k does not grow with k, so a bisection
    finds k with ~log2(n) scalar probes.  The level of that prefix is
    then re-summed pairwise, which keeps the budget exact to rounding
    where the running sum ``cums`` has drifted.  Returns 0 when nothing
    can be filled.
    """
    lo, hi = 0, inv.size
    while lo < hi:
        k = (lo + hi + 1) // 2
        if (total_power + cums[k - 1]) / k > inv[k - 1]:
            lo = k
        else:
            hi = k - 1
    if lo == 0:
        return 0.0
    return float((total_power + inv[:lo].sum()) / lo)


def _water_level(gamma: np.ndarray, total_power: float) -> float:
    """Exact water level of ``total_power`` over the positive entries of gamma.

    Returns 0 when nothing can be filled: no positive entry, or a budget
    below the resolution of the best 1/gamma.
    """
    inv = 1.0 / gamma[gamma > 0.0]
    inv.sort()
    return _prefix_level(inv, np.cumsum(inv), total_power)


def _sorted_reciprocals(draws: np.ndarray) -> np.ndarray:
    """Ascending reciprocals of the nonnegative ``draws``, flattened, in their own buffer.

    ``draws`` must be contiguous; it is overwritten.  A zero draw becomes
    +inf and sorts last, where no water level reaches it.
    """
    with np.errstate(divide="ignore"):
        inv = np.divide(1.0, draws, out=draws).reshape(-1)
    inv.sort()
    return inv


def _allocate(gamma: np.ndarray, water: float) -> np.ndarray:
    """Powers max(0, water - 1/gamma), zero where gamma is not positive."""
    gamma = np.asarray(gamma, dtype=float)
    out = np.zeros_like(gamma)
    mask = gamma > 0.0
    out[mask] = np.maximum(water - 1.0 / gamma[mask], 0.0)
    return out


def waterfill_instantaneous(snr: GridLike, total_power: float) -> PowerPolicy:
    """Exact water filling over one SNR realization.

    The water level comes from one sort and cumulative sum of 1/gamma
    (see ``_water_level``); every channel below it gets the difference.
    Channels at the level exactly count as inactive.  If no channel has
    positive SNR the outage (all-zero) policy is returned.
    """
    if total_power <= 0.0:
        raise InvalidConfigError(f"total power must be positive, got {total_power}")
    gamma = _grid_values(snr)
    water = _water_level(gamma, total_power)
    allocations = _allocate(gamma, water)
    streams, modes = np.nonzero(allocations)
    return PowerPolicy(
        allocations=allocations, water_level=water,
        active_set=tuple(zip(streams.tolist(), modes.tolist())), total_power=total_power,
    )


def _unit_draws(n_channels: int, count: int, seed: int, stage: int = 0) -> np.ndarray:
    """Draw (n_channels, count) i.i.d. unit-mean exponentials, channel-major.

    Row k comes from its own generator keyed by (seed, stage, k), so two
    configurations sharing a channel order see identical draws for the
    channels they have in common.  A draw of mean m is m times the unit
    draw, bit for bit.
    """
    out = np.empty((n_channels, count))
    for k, row in enumerate(out):
        np.random.default_rng([int(seed), int(stage), k]).standard_exponential(out=row)
    return out


def sample_snr_realizations(mean_flat: np.ndarray, count: int, seed: int,
                            stage: int = 0) -> np.ndarray:
    """Draw (count, K) i.i.d. exponential SNRs, one substream per channel.

    Column k is ``mean_flat[k]`` times row k of ``_unit_draws``; a
    zero-mean channel draws zeros.
    """
    mean_flat = np.asarray(mean_flat, dtype=float)
    return (_unit_draws(mean_flat.size, count, seed, stage) * mean_flat[:, None]).T


def _ergodic_means(mean_snr: GridLike, total_power: float, samples: int) -> np.ndarray:
    """Checked mode-major channel means of one ergodic solve."""
    if not (math.isfinite(total_power) and total_power > 0.0):
        raise InvalidConfigError(f"total power must be positive and finite, got {total_power}")
    if samples < 1_000:
        raise InvalidConfigError(f"need at least 1000 samples, got {samples}")
    means = flatten_mode_major(_grid_values(mean_snr))
    if not np.all(np.isfinite(means)) or np.any(means < 0.0):
        raise InvalidConfigError("mean SNRs must be finite and nonnegative")
    if not np.any(means > 0.0):
        raise InvalidConfigError("at least one channel must have positive mean SNR")
    return means


def _rule_water_level(mu_star: float) -> float:
    """Water level 1/(mu* ln 2) of the allocation rule; 0 when mu* is infinite."""
    return 1.0 / (mu_star * LN2)


def _allocation_rule(mu: float) -> Callable[[np.ndarray], np.ndarray]:
    water = _rule_water_level(mu)
    return lambda gamma: _allocate(gamma, water)


def waterfill_ergodic(mean_snr: GridLike, total_power: float, samples: int = 10_000,
                      seed: int = 0) -> tuple[float, Callable[[np.ndarray], np.ndarray]]:
    """Solve the expectation-constrained water-filling multiplier.

    Draws ``samples`` exponential SNR realizations per channel with the
    given means.  The sample-average budget over those T draws of K
    channels is instantaneous water filling over the T*K pooled draws
    with budget T*P, so the exact water level w of the pooled draws
    gives mu* = 1/(w ln 2), and the rule
    P(gamma) = max(0, 1/(mu* ln 2) - 1/gamma) meets the budget on the
    sample to rounding.  This is the unit-SNR case of the solver that
    ``capacity`` runs for every point of a sweep.  Returns (mu_star, rule).
    """
    means = _ergodic_means(mean_snr, total_power, samples)
    draws = _unit_draws(means.size, samples, seed)
    draws *= means[:, None]
    inv = _sorted_reciprocals(draws)
    water = _prefix_level(inv, np.cumsum(inv), samples * total_power)
    mu_star = 1.0 / (water * LN2) if water > 0.0 else math.inf
    return mu_star, _allocation_rule(mu_star)


def classify_region(gamma_0: float, gamma_1: float, mu_star: float) -> str:
    """Region of the two-channel SNR plane under a fixed multiplier.

    R1: both channels above the activation threshold mu* ln 2.
    R2: only gamma_0 above.  R3: only gamma_1 above.  R4: outage.
    """
    if mu_star <= 0.0:
        raise DomainError(f"mu_star must be positive, got {mu_star}")
    threshold = mu_star * LN2
    first, second = gamma_0 > threshold, gamma_1 > threshold
    if first and second:
        return "R1"
    if first:
        return "R2"
    if second:
        return "R3"
    return "R4"


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
        return PowerPolicy(
            allocations=np.zeros_like(gamma), water_level=0.0,
            active_set=(), total_power=total_power,
        )
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
    return PowerPolicy(
        allocations=allocations, water_level=float(water),
        active_set=tuple(sorted(subset)), total_power=total_power,
    )
