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
per-channel gains that do not depend on it: the mode profile repeated
over the streams, the MIMO baseline's being the one-mode profile [1.0].
So a curve makes its draws u*g once per stage, each row scaled by its
gain g when it is drawn, and each SNR point costs scalar probes plus
one pass over the rates:

* stage 0 sorts a = 1/(u*g) once and sums it at the edges of blocks of a
  few thousand entries.  At SNR s the pooled reciprocals are a/s, so the
  water level is w~/s, where w~ = (s*T*P + sum a[:k]) / k for the
  largest k with (s*T*P + C_k)/k > a_k, C_k = sum a[:k].  That test
  holds up to k and fails beyond, so a bisection over the block edges,
  then over the cumulative sum of one block, finds k; the prefix is then
  re-summed pairwise.
* every stage runs on the caller and one worker thread, which the
  curve starts once and joins when it returns: the caller draws the
  first half of the stage-0 rows and the worker the rest; while the
  caller sorts and solves stage 0, the worker solves the MIMO
  baseline's levels, if any, then draws stage 1 into an array the
  caller has allocated; and each thread sums the rates of one half of
  the trials.  Every row comes from its own keyed generator and every
  trial's rate sum from its own column, so the bytes do not depend on
  how the two threads are scheduled.
* stage 1 uses L = log2(u*g).  With w = w~/s the rate
  log2(1 + max(0, w - 1/gamma)*gamma) of a draw gamma = s*u*g is
  max(0, L + log2 w~), so a point needs no divide and no log per draw.
  The draws are walked in blocks of trials that fit L2: per block, L is
  taken once for a group of points and their rates are summed there
  into each point's per-trial sums.

A draw u*g beyond the float range raises InvalidConfigError as it is
drawn.  ``sweep`` computes the OEM link's curve and, from the same
draws, the MIMO baseline's: the baseline's channels are the OEM mode-0
rows, under the same keys and at the same gain, exactly 1 once
``_checked_profile`` divides the profile by its g_0.  So the baseline
reads the OEM's rows [0, n) as they are, and every keyed row of a sweep
is drawn once.  Single-point calls are one-point curves with no
baseline, so a sweep point equals them bit for bit.  Each curve is
checked once, before anything is drawn.
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
    _fading_draws,
    _grid,
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
# trials); the two of each thread fit in its core's L2.
_BLOCK_BYTES = 512 * 1024


@dataclass(frozen=True)
class SePoint:
    mean_snr_db: float
    se: float
    stderr: float


def instantaneous_se(snr: GridLike, policy: PowerPolicy) -> float:
    """Sum rate sum_{i,l} log2(1 + P_{i,l} gamma_{i,l}) in bits/s/Hz.

    Where P * gamma overflows, its rate is log2 P + log2 gamma, which
    log2(1 + P gamma) equals to rounding there.
    """
    gamma, allocations = _grid(snr).values, policy.allocations
    if gamma.shape != allocations.shape:
        raise InvalidConfigError(
            f"SNR grid shape {gamma.shape} does not match policy shape {allocations.shape}"
        )
    with np.errstate(over="ignore"):
        rates = allocations * gamma
    rates += 1.0
    np.log2(rates, out=rates)
    se = float(rates.sum())
    if se == math.inf:
        overflowed = np.isinf(rates)
        rates[overflowed] = np.log2(allocations[overflowed]) + np.log2(gamma[overflowed])
        se = float(rates.sum())
    return se


def _block_buffers(k: int) -> np.ndarray:
    """The two block buffers of ``_rate_sums`` over K channels.

    A block is width = max(2, _BLOCK_BYTES // 8K) trials of all K
    channels; each buffer holds one more trial, for a lone trailing one.
    """
    return np.empty((2, k * (max(2, _BLOCK_BYTES // (8 * k)) + 1)))


def _rate_sums(draws: np.ndarray, waters: Sequence[float], rates: np.ndarray,
               buffers: np.ndarray) -> None:
    """Per-trial rate sums of the (K, T) draws u*g at the levels ``waters``, in ``rates``.

    The trials are walked in contiguous blocks of all K channels by
    ``width`` trials, in the ``_block_buffers(K)`` given as ``buffers``.
    Per block, L = log2(u*g) is taken once and each point's rates
    max(0, L + log2 w~) are summed over the channels in row order, the
    order of ``sum(axis=0)`` over the whole array, so every sum is the
    same bit for bit.  numpy sums a one-trial block pairwise instead, so
    the last block takes a lone trailing trial.
    """
    k, trials = draws.shape
    logs_buf, work_buf = buffers
    width = logs_buf.size // k - 1
    edges = list(range(0, trials - 1, width)) + [trials]
    shifts = [math.log2(w) if w > 0.0 else -math.inf for w in waters]
    for lo, hi in zip(edges, edges[1:]):
        size = k * (hi - lo)
        logs = logs_buf[:size].reshape(k, hi - lo)
        work = work_buf[:size].reshape(k, hi - lo)
        with np.errstate(divide="ignore"):
            np.log2(draws[:, lo:hi], out=logs)
        for shift, row in zip(shifts, rates):
            np.add(logs, shift, out=work)
            np.maximum(work, 0.0, out=work)
            work.sum(axis=0, out=row[lo:hi])


def _ergodic_curves(gains: np.ndarray, budgets: Sequence[float], snr_db: Sequence[float],
                    trials: int, seed: int, base_rows: int = 0,
                    base_budgets: Sequence[float] = ()) -> tuple[tuple[SePoint, ...], ...]:
    """Ergodic SE at each of ``snr_db`` of the ``_curve_inputs`` gains and pooled budgets.

    Returns that curve and, from the same draws, the curve of a baseline
    on rows [0, ``base_rows``) at ``base_budgets`` (empty when there are
    none); those rows must have the baseline's gain, exactly 1.

    The curve runs here and on one worker thread, started once and
    joined before the curve returns.  Each step submits the worker's
    share, runs the caller's here, then waits for the worker's.  The
    shares, here then on the worker: the stage-0 rows [0, K//2) and
    [K//2, K); the stage-0 levels w~ and the baseline's levels, solved
    on a copy of its rows in the stage-1 array (so stage 0 holds two
    draw arrays), then the stage-1 draws; the rate sums of trials
    [0, T//2) and [T//2, T), each at least MIN_SAMPLES // 2 wide, so no
    block is one trial.  Both rate halves' block buffers are allocated
    here: a thread's own allocations come from a malloc arena of its
    own, which stays resident after the curve.  The baseline's sums take
    them too, as a per-trial sum does not depend on the block width.  An
    error here wins, so a stage-0 level overflow is raised before a
    stage-1 draw overflow; the worker's error is raised here otherwise.
    Stage 0 is freed before the rate sums take its place, and stage 1
    takes the points in groups of at most as many as there are channels,
    so their rate sums never outgrow the draws, whatever the point count.
    """
    # imported here, as only a curve starts a thread: about 6 ms at import
    from concurrent.futures import ThreadPoolExecutor

    half = gains.size // 2
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="oem-curve-worker") as worker:
        draws = np.empty((gains.size, trials))
        job = worker.submit(_fading_draws, gains, trials, seed, out=draws, rows=slice(half, None))
        _fading_draws(gains, trials, seed, out=draws, rows=slice(half))
        job.result()
        later = np.empty_like(draws)
        later[:base_rows] = draws[:base_rows]

        def base_levels_then_stage_one() -> list[float]:
            base_waters = _water_levels(later[:base_rows], base_budgets)
            _fading_draws(gains, trials, seed, _SE_STAGE, out=later)
            return base_waters

        job = worker.submit(base_levels_then_stage_one)
        waters = _water_levels(draws, budgets)
        base_waters = job.result()
        del draws

        rates = np.empty((min(len(waters), gains.size), trials))
        mid = trials // 2
        here, there = _block_buffers(gains.size), _block_buffers(gains.size)

        def curve(rows: np.ndarray, curve_waters: Sequence[float]) -> tuple[SePoint, ...]:
            points = []
            for first in range(0, len(curve_waters), len(rates)):
                group = curve_waters[first:first + len(rates)]
                job = worker.submit(_rate_sums, rows[:, mid:], group, rates[:, mid:], there)
                _rate_sums(rows[:, :mid], group, rates[:, :mid], here)
                job.result()
                for point_db, per_trial in zip(snr_db[first:first + len(group)], rates):
                    stderr = per_trial.std(ddof=1) / math.sqrt(trials)
                    points.append(SePoint(point_db, float(per_trial.mean()), float(stderr)))
            return tuple(points)

        return curve(later, waters), curve(later[:base_rows], base_waters)


def _checked_profile(cfg: OemConfig, mode_profile: np.ndarray) -> np.ndarray:
    """``mode_profile`` as U finite, nonnegative gains over its g_0, which is then exactly 1.

    g_0 must lie within 1e-9 of 1; a profile whose g_0 is 1.0 keeps its bytes.
    """
    profile = np.asarray(mode_profile, dtype=float)
    if profile.shape != (cfg.u_elems,):
        raise InvalidConfigError(
            f"mode profile must be a vector of U={cfg.u_elems} entries, got shape {profile.shape}"
        )
    if np.any(profile < 0.0) or not np.all(np.isfinite(profile)):
        raise InvalidConfigError("mode profile entries must be finite and nonnegative")
    if not math.isclose(profile[0], 1.0, rel_tol=1e-9):
        raise InvalidConfigError(f"mode profile must be normalized to g_0 = 1, got {profile[0]}")
    return profile / profile[0]


def _curve_inputs(profile: Sequence[float], n: int, m: int, total_power: float,
                  normalization: str, snr_db: Sequence[float], trials: int,
                  seed: int) -> tuple[np.ndarray, list[float]]:
    """Gains and pooled budgets s*T*P of min(N, M) streams on each mode of a checked profile.

    Every check a curve makes is made here, before anything is drawn.
    """
    if n < 1 or m < 1:
        raise InvalidConfigError("need at least one transmit and one receive antenna")
    gains = np.repeat(np.asarray(profile, dtype=float), min(n, m))
    _check_power(total_power)
    if normalization not in NORMALIZATIONS:
        raise InvalidConfigError(f"normalization must be one of {NORMALIZATIONS},"
                                 f" got {normalization!r}")
    budget = total_power * gains.size if normalization == "per-channel" else total_power
    _check_samples(trials, "trials")
    if len(snr_db) == 0:
        raise InvalidConfigError("need at least one SNR point")
    for point_db in snr_db:
        if not (math.isfinite(point_db) and abs(point_db) <= MAX_SNR_DB):
            raise InvalidConfigError(
                f"mean SNR must be finite and within +-{MAX_SNR_DB:g} dB, got {point_db}"
            )
    scales = [10.0 ** (point_db / 10.0) for point_db in snr_db]
    _check_draws(gains.size, trials, seed)
    pooled = trials * budget
    if not math.isfinite(pooled * max(scales)):
        raise InvalidConfigError(
            f"a power budget of {budget:g} per trial over {trials} trials at"
            f" {max(snr_db):g} dB overflows the float range"
        )
    return gains, [s * pooled for s in scales]


def ergodic_se_oem(cfg: OemConfig, mode_profile: np.ndarray, mean_snr_db: float,
                   total_power: float, trials: int, seed: int,
                   normalization: str = "per-channel") -> SePoint:
    """Ergodic SE of the OEM link: min(N, M) streams on each of U modes.

    ``mode_profile`` holds the U per-mode power gains g_l, g_0 = 1, e.g.
    from ``channel.mode_power_profile``; it is divided by its g_0.
    """
    inputs = _curve_inputs(_checked_profile(cfg, mode_profile), cfg.n_tx, cfg.m_rx, total_power,
                           normalization, [mean_snr_db], trials, seed)
    return _ergodic_curves(*inputs, [mean_snr_db], trials, seed)[0][0]


def ergodic_se_mimo(n: int, m: int, mean_snr_db: float, total_power: float,
                    trials: int, seed: int, normalization: str = "per-channel") -> SePoint:
    """Ergodic SE of the plain multiplexing-MIMO baseline (single mode)."""
    inputs = _curve_inputs([1.0], n, m, total_power, normalization, [mean_snr_db], trials, seed)
    return _ergodic_curves(*inputs, [mean_snr_db], trials, seed)[0][0]


def sweep(cfg: OemConfig, mode_profile: np.ndarray, snr_db_list: Sequence[float],
          total_power: float, trials: int, seed: int, normalization: str = "per-channel"
          ) -> tuple[tuple[SePoint, ...], tuple[SePoint, ...]]:
    """SE-versus-SNR curves for the OEM link and its N x M MIMO baseline.

    Returns two tuples of ``SePoint``, OEM then MIMO, one point per entry
    of ``snr_db_list``; every point equals the matching ``ergodic_se_oem``
    or ``ergodic_se_mimo`` call bit for bit.  The MIMO baseline is the
    one-mode profile [1.0] on the same N x M link.  Each curve is checked
    once, the MIMO one first, before anything is drawn.  The MIMO
    channels are the OEM mode-0 rows, so one ``_ergodic_curves`` call
    draws each keyed row once for both curves.
    """
    profile = _checked_profile(cfg, mode_profile)
    (mimo_gains, mimo_budgets), oem = [
        _curve_inputs(p, cfg.n_tx, cfg.m_rx, total_power, normalization, snr_db_list, trials, seed)
        for p in ([1.0], profile)
    ]
    return _ergodic_curves(*oem, snr_db_list, trials, seed, mimo_gains.size, mimo_budgets)
