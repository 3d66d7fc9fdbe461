"""Ergodic spectrum-efficiency estimation for OEM and plain massive MIMO.

Fading draws each channel SNR i.i.d. exponential (Rayleigh amplitude)
around its mean; the mean of channel (i, l) is the mean SNR times the
per-mode power profile g_l (g_0 = 1; ``channel.mode_power_profile``).
The mean SNR, the profile and the budget convention are arguments of
each estimator.  Two budget conventions, the ``normalization`` argument:

* ``per-channel`` — the total power budget is total_power times the
  channel count, i.e. the per-channel average budget is held fixed as
  channel counts grow.  This is the convention under which spectrum
  efficiency scales multiplicatively with the orthogonal-channel count.
* ``total`` — the budget is total_power regardless of channel count.

The ergodic estimator first solves the expectation-constrained
multiplier exactly on one sample set: T draws of K channels under a
sample-average budget P are one water filling over the T*K pooled draws
with budget T*P.  It then averages the instantaneous sum rate of the
induced rule over an independent sample set.  Channel substreams
are keyed by their mode-major flat index, so systems sharing channels
(e.g. an OEM link's mode-0 streams and the MIMO baseline) draw identical
values for the channels they share.

Every point of a curve has channel means s*g: s is the linear SNR and g
per-channel gains that do not depend on it (the mode profile repeated
over the streams for OEM, ones for MIMO).  So a curve makes its unit
draws u once per stage, and each SNR point costs scalar probes plus one
pass over the rates:

* stage 0 sorts a = 1/(u*g) and takes C = cumsum(a) once.  At SNR s the
  pooled reciprocals are a/s, so the water level is w~/s, where
  w~ = (s*T*P + sum a[:k]) / k for the largest k with
  (s*T*P + C_k)/k > a_k.  That test holds up to k and fails beyond, so a
  bisection finds k; the prefix is then re-summed pairwise.
* stage 1 uses L = log2(u*g).  With w = w~/s the rate
  log2(1 + max(0, w - 1/gamma)*gamma) of a draw gamma = s*u*g is
  max(0, L + log2 w~), so a point needs no divide and no log per draw.
  The draws are walked in blocks of trials that fit L2: per block, L is
  taken once for a group of points and their rates are summed there
  into each point's per-trial sums.

A product u*g beyond the float range raises InvalidConfigError.
``sweep`` is two curves, the MIMO baseline's and the OEM link's, each
drawing its own substreams once for all its points; single-point calls
are one-point curves, so a sweep point equals them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import OemConfig
from .errors import InvalidConfigError
from .waterfill import (
    GridLike,
    PowerPolicy,
    _check_power,
    _check_draws,
    _check_samples,
    _grid_values,
    _scaled_draws,
    _unit_draws,
    _water_levels,
    sample_snr_realizations,  # noqa: F401  bound here for perfbench/tracing.py
    waterfill_ergodic,  # noqa: F401  bound here for perfbench/tracing.py
)

NORMALIZATIONS = ("per-channel", "total")

# Largest |mean SNR| in dB that the estimators accept.  Far beyond any
# physical link, and well inside the float range of 10**(dB/10).
MAX_SNR_DB = 300.0

# Substream stages: stage 0 draws the samples the multiplier is solved
# on; the rate average uses an independent stage-1 stream.
_SE_STAGE = 1

# Bytes of one stage-1 block buffer (the logs or the rates of a block of
# trials); the two of them fit in L2.
_BLOCK_BYTES = 512 * 1024


def _snr_linear(snr_db: float) -> float:
    """Linear SNR of ``snr_db``; InvalidConfigError outside +-MAX_SNR_DB."""
    if not (math.isfinite(snr_db) and abs(snr_db) <= MAX_SNR_DB):
        raise InvalidConfigError(
            f"mean SNR must be finite and within +-{MAX_SNR_DB:g} dB, got {snr_db}"
        )
    return 10.0 ** (snr_db / 10.0)


@dataclass(frozen=True)
class SePoint:
    mean_snr_db: float
    se: float
    stderr: float


def instantaneous_se(snr: GridLike, policy: PowerPolicy) -> float:
    """Sum rate sum_{i,l} log2(1 + P_{i,l} gamma_{i,l}) in bits/s/Hz."""
    gamma = _grid_values(snr)
    if gamma.shape != policy.allocations.shape:
        raise InvalidConfigError(
            f"SNR grid shape {gamma.shape} does not match policy shape {policy.allocations.shape}"
        )
    return float(np.log2(1.0 + policy.allocations * gamma).sum())


def _budget(total_power: float, n_channels: int, normalization: str) -> float:
    _check_power(total_power)
    if normalization == "per-channel":
        return total_power * n_channels
    if normalization == "total":
        return total_power
    raise InvalidConfigError(f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}")


def _rate_sums(units: np.ndarray, gains: np.ndarray, waters: Sequence[float],
               rates: np.ndarray) -> None:
    """Per-trial rate sums of the channels of ``gains`` at the levels ``waters``, in ``rates``.

    The trials are walked in contiguous blocks of all K channels by
    ``width`` trials.  Per block, L = log2(u*g) is taken once and each
    point's rates max(0, L + log2 w~) are summed over the channels in
    row order, the order of ``sum(axis=0)`` over the whole array, so
    every sum is the same bit for bit.  numpy sums a one-trial block
    pairwise instead, so the last block takes a lone trailing trial.
    """
    k, trials = units.shape
    width = max(2, _BLOCK_BYTES // (8 * k))
    edges = list(range(0, trials - 1, width)) + [trials]
    logs_buf = np.empty(k * min(width + 1, trials))
    work_buf = np.empty_like(logs_buf)
    shifts = [math.log2(w) if w > 0.0 else -math.inf for w in waters]
    for lo, hi in zip(edges, edges[1:]):
        size = k * (hi - lo)
        logs = logs_buf[:size].reshape(k, hi - lo)
        work = work_buf[:size].reshape(k, hi - lo)
        _scaled_draws(units[:, lo:hi], gains, out=logs)
        with np.errstate(divide="ignore"):
            np.log2(logs, out=logs)
        for shift, row in zip(shifts, rates):
            np.add(logs, shift, out=work)
            np.maximum(work, 0.0, out=work)
            work.sum(axis=0, out=row[lo:hi])


def _pooled_budgets(gains: np.ndarray, budget: float, snr_db: Sequence[float], trials: int,
                    seed: int) -> list[float]:
    """Pooled budgets s*T*P of the points ``snr_db``, after every check a curve makes."""
    _check_samples(trials, "trials")
    if len(snr_db) == 0:
        raise InvalidConfigError("need at least one SNR point")
    scales = [_snr_linear(point_db) for point_db in snr_db]
    _check_draws(gains.size, trials, seed)
    pooled = trials * budget
    if not math.isfinite(pooled * max(scales)):
        raise InvalidConfigError(
            f"a power budget of {budget:g} per trial over {trials} trials at"
            f" {max(snr_db):g} dB overflows the float range"
        )
    return [s * pooled for s in scales]


def _ergodic_curve(gains: np.ndarray, budget: float, snr_db: Sequence[float], trials: int,
                   seed: int) -> tuple[SePoint, ...]:
    """Ergodic SE of the channels of ``gains`` and per-trial ``budget`` at each of ``snr_db``.

    Stage 0 scales its draws in place and is freed, once it has every
    point's water level w~, before stage 1 draws.  Stage 1 takes the
    points in groups of at most as many as there are channels, so their
    rate sums never outgrow the draws, whatever the point count.
    """
    budgets = _pooled_budgets(gains, budget, snr_db, trials, seed)
    draws = _unit_draws(gains.size, trials, seed)
    _scaled_draws(draws, gains, out=draws)
    waters = _water_levels(draws, budgets)
    del draws

    units = _unit_draws(gains.size, trials, seed, stage=_SE_STAGE)
    rates = np.empty((min(len(waters), gains.size), trials))
    points = []
    for first in range(0, len(waters), len(rates)):
        group = waters[first:first + len(rates)]
        _rate_sums(units, gains, group, rates)
        for point_db, per_trial in zip(snr_db[first:first + len(group)], rates):
            stderr = per_trial.std(ddof=1) / math.sqrt(trials)
            points.append(SePoint(point_db, float(per_trial.mean()), float(stderr)))
    return tuple(points)


def _oem_pattern(cfg: OemConfig, mode_profile: np.ndarray, total_power: float,
                 normalization: str) -> tuple[np.ndarray, float]:
    """Gains and budget of min(N, M) streams of gain g_l on each of the U modes l."""
    profile = np.asarray(mode_profile, dtype=float)
    if profile.shape != (cfg.u_elems,):
        raise InvalidConfigError(
            f"mode profile must be a vector of U={cfg.u_elems} entries, got shape {profile.shape}"
        )
    if np.any(profile < 0.0) or not np.all(np.isfinite(profile)):
        raise InvalidConfigError("mode profile entries must be finite and nonnegative")
    if not math.isclose(profile[0], 1.0, rel_tol=1e-9):
        raise InvalidConfigError(f"mode profile must be normalized to g_0 = 1, got {profile[0]}")
    gains = np.repeat(profile, min(cfg.n_tx, cfg.m_rx))
    return gains, _budget(total_power, gains.size, normalization)


def _mimo_pattern(n: int, m: int, total_power: float,
                  normalization: str) -> tuple[np.ndarray, float]:
    """Gains and budget of min(N, M) unit-gain streams."""
    if n < 1 or m < 1:
        raise InvalidConfigError("need at least one transmit and one receive antenna")
    gains = np.ones(min(n, m))
    return gains, _budget(total_power, gains.size, normalization)


def ergodic_se_oem(cfg: OemConfig, mode_profile: np.ndarray, mean_snr_db: float,
                   total_power: float, trials: int, seed: int,
                   normalization: str = "per-channel") -> SePoint:
    """Ergodic SE of the OEM link: min(N, M) streams on each of U modes.

    ``mode_profile`` holds the U per-mode power gains g_l, g_0 = 1, e.g.
    from ``channel.mode_power_profile``.
    """
    gains, budget = _oem_pattern(cfg, mode_profile, total_power, normalization)
    return _ergodic_curve(gains, budget, [mean_snr_db], trials, seed)[0]


def ergodic_se_mimo(n: int, m: int, mean_snr_db: float, total_power: float,
                    trials: int, seed: int, normalization: str = "per-channel") -> SePoint:
    """Ergodic SE of the plain multiplexing-MIMO baseline (single mode)."""
    gains, budget = _mimo_pattern(n, m, total_power, normalization)
    return _ergodic_curve(gains, budget, [mean_snr_db], trials, seed)[0]


def sweep(cfg: OemConfig, mode_profile: np.ndarray, snr_db_list: Sequence[float],
          total_power: float, trials: int, seed: int, normalization: str = "per-channel"
          ) -> tuple[tuple[SePoint, ...], tuple[SePoint, ...]]:
    """SE-versus-SNR curves for the OEM link and its N x M MIMO baseline.

    Returns two tuples of ``SePoint``, OEM then MIMO, one point per entry
    of ``snr_db_list``; every point equals the matching ``ergodic_se_oem``
    or ``ergodic_se_mimo`` call bit for bit.  Both curves are checked,
    the MIMO one first, before either draws its own substreams; the MIMO
    channels draw the values of the OEM mode-0 ones.
    """
    oem = _oem_pattern(cfg, mode_profile, total_power, normalization)
    mimo = _mimo_pattern(cfg.n_tx, cfg.m_rx, total_power, normalization)
    for gains, budget in (mimo, oem):
        _pooled_budgets(gains, budget, snr_db_list, trials, seed)
    mimo_curve = _ergodic_curve(*mimo, snr_db_list, trials, seed)
    return _ergodic_curve(*oem, snr_db_list, trials, seed), mimo_curve
