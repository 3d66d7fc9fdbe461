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

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DomainError, InvalidConfigError

LN2 = math.log(2.0)

# Fewest fading draws per channel an ergodic solve accepts.
MIN_SAMPLES = 1_000

# Most draws (channels x trials) one stage may hold: 2**27 float64 values
# are 1 GiB.  A sweep keeps at most two buffers of this size alive (the
# draws and their cumulative sums, or the draws and the rate sums), so a
# run stays within a few GiB and fails with a message, not a MemoryError,
# beyond that.  The 64x64 U=16 link at 10k trials uses 1e7 draws, 1/13 of
# the cap.  The channel build caps its layout and exact-sum tables at the
# same count.
MAX_DRAWS = 2**27

GridLike = Union["SnrGrid", np.ndarray]


@dataclass(frozen=True)
class SnrGrid:
    """Finite, nonnegative SNR weights gamma_{i,l}, shape (streams, modes); a vector is one mode."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise InvalidConfigError(f"SNR grid must be a vector or a matrix, got shape {v.shape}")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise InvalidConfigError("SNR grid entries must be finite and nonnegative")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class PowerPolicy:
    """Result of one water-filling solve.

    allocations : nonnegative powers, same shape as the input grid.
    water_level : common value of P + 1/gamma on active channels,
        equal to 1/(mu* ln 2); 0 for the outage (all-off) policy.
    total_power : the power budget the solve was run against.
    """

    allocations: np.ndarray
    water_level: float
    total_power: float

    @property
    def active_set(self) -> tuple[tuple[int, int], ...]:
        """Sorted (i, l) index pairs with positive power."""
        streams, modes = np.nonzero(self.allocations)
        return tuple(zip(streams.tolist(), modes.tolist()))

    @property
    def mu_star(self) -> float:
        """Optimal multiplier of the power constraint."""
        if self.water_level <= 0.0:
            return math.inf
        return 1.0 / (self.water_level * LN2)

    @property
    def is_outage(self) -> bool:
        return not self.allocations.any()


def _grid_values(snr: GridLike) -> np.ndarray:
    """The checked (streams, modes) values of ``snr``; see ``SnrGrid``."""
    return (snr if isinstance(snr, SnrGrid) else SnrGrid(snr)).values


def _check_power(total_power: float) -> None:
    """InvalidConfigError unless ``total_power`` is a positive, finite budget."""
    if not (math.isfinite(total_power) and total_power > 0.0):
        raise InvalidConfigError(f"total power must be positive and finite, got {total_power}")


def _check_samples(count: int, noun: str) -> None:
    if count < MIN_SAMPLES:
        raise InvalidConfigError(f"need at least {MIN_SAMPLES} {noun}, got {count}")


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
    can be filled; a level beyond the float range raises
    InvalidConfigError.
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
    level = float((total_power + inv[:lo].sum()) / lo)
    if not math.isfinite(level):
        raise InvalidConfigError(
            f"the water level of power budget {total_power:g} overflows the float range"
        )
    return level


def _water_levels(values: np.ndarray, budgets: Sequence[float]) -> list[float]:
    """Exact water level of each of ``budgets`` over the nonnegative ``values``.

    The reciprocals are taken in the buffer of ``values``, which is
    overwritten, and sorted once with one cumulative sum for every
    budget.  A zero (-0.0 included) becomes +inf and sorts last, where
    no level reaches it.  A level is 0 when nothing can be filled: no
    positive value, or a budget below the resolution of the best
    1/value.  A level that overflows raises InvalidConfigError; sums
    that overflow on the way, and a 1/value that overflows to +inf
    (which no level reaches), stay silent.
    """
    np.abs(values, out=values)
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.divide(1.0, values, out=values).reshape(-1)
        inv.sort()
        cums = np.cumsum(inv)
        return [_prefix_level(inv, cums, budget) for budget in budgets]


def _allocate(gamma: np.ndarray, water: float) -> np.ndarray:
    """Powers max(0, water - 1/gamma): zero where gamma is not positive or 1/gamma overflows."""
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(gamma > 0.0, np.maximum(water - 1.0 / gamma, 0.0), 0.0)


def waterfill_instantaneous(snr: GridLike, total_power: float) -> PowerPolicy:
    """Exact water filling over one SNR realization.

    The water level comes from one sort and cumulative sum of 1/gamma
    (see ``_water_levels``); every channel below it gets the difference.
    Channels at the level exactly count as inactive.  If no channel has
    positive SNR the outage (all-zero) policy is returned.
    """
    _check_power(total_power)
    gamma = _grid_values(snr)
    water = _water_levels(gamma.copy(), [total_power])[0]
    return PowerPolicy(_allocate(gamma, water), water_level=water, total_power=total_power)


def _check_draws(n_channels: int, count: int, seed: int) -> None:
    """InvalidConfigError unless ``seed`` is nonnegative and the draws fit in MAX_DRAWS."""
    if seed < 0:
        raise InvalidConfigError(f"seed must be nonnegative, got {seed}")
    if n_channels * count > MAX_DRAWS:
        raise InvalidConfigError(
            f"{count} trials of {n_channels} channels exceed the {MAX_DRAWS} draws"
            f" one run may hold; use at most {MAX_DRAWS // n_channels} trials"
        )


def _fading_draws(means: np.ndarray, count: int, seed: int, stage: int = 0) -> np.ndarray:
    """Draw (K, count) i.i.d. exponential SNRs of the K ``means``, channel-major.

    Row k comes from its own generator keyed by (seed, stage, k), so two
    configurations sharing a channel order see identical draws for the
    channels they have in common.  Each row is scaled by its mean as soon
    as it is drawn: a draw of mean m is m times the unit draw, bit for
    bit, and a zero-mean channel draws zeros.  A draw beyond the float
    range raises InvalidConfigError.
    """
    _check_draws(means.size, count, seed)
    out = np.empty((means.size, count))
    try:
        with np.errstate(over="raise"):
            for k, row in enumerate(out):
                np.random.default_rng([int(seed), int(stage), k]).standard_exponential(out=row)
                row *= means[k]
    except FloatingPointError:
        raise InvalidConfigError(
            f"fading draws of mean {means.max():g} overflow the float range"
        ) from None
    return out


def sample_snr_realizations(mean_flat: np.ndarray, count: int, seed: int,
                            stage: int = 0) -> np.ndarray:
    """Draw (count, K) i.i.d. exponential SNRs, one substream per channel.

    Column k is row k of ``_fading_draws``, scaled by ``mean_flat[k]``
    when drawn.  The means are checked by ``SnrGrid``.
    """
    mean_flat = _grid_values(mean_flat).flatten(order="F")
    return _fading_draws(mean_flat, count, seed, stage).T


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
    _check_power(total_power)
    _check_samples(samples, "samples")
    means = _grid_values(mean_snr).flatten(order="F")
    if not np.any(means > 0.0):
        raise InvalidConfigError("at least one channel must have positive mean SNR")
    draws = _fading_draws(means, samples, seed)
    water = _water_levels(draws, [samples * total_power])[0]
    mu_star = 1.0 / (water * LN2) if water > 0.0 else math.inf
    return mu_star, lambda gamma: _allocate(gamma, 1.0 / (mu_star * LN2))


def classify_region(gamma_0: float, gamma_1: float, mu_star: float) -> str:
    """Region of the two-channel SNR plane under a fixed multiplier.

    R1: both channels above the activation threshold mu* ln 2.
    R2: only gamma_0 above.  R3: only gamma_1 above.  R4: outage,
    which is every pair when mu* = +inf.
    """
    if not (gamma_0 >= 0.0 and gamma_1 >= 0.0):
        raise DomainError(f"SNRs must be nonnegative, got {gamma_0} and {gamma_1}")
    if not mu_star > 0.0:
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
