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
(e.g. an OEM link's mode-0 streams and the MIMO baseline) see identical
draws for the channels they share.

Every point of a curve has channel means s*g: s is the linear SNR and g
a per-channel pattern that does not depend on it (the mode profile
repeated over the streams for OEM, ones for MIMO).  So the estimator
works on the unit draws u once per pattern and stage, and each SNR
point costs scalar probes plus one pass over the rates:

* stage 0 sorts a = 1/(u*g) and takes C = cumsum(a) once.  At SNR s the
  pooled reciprocals are a/s, so the water level is w~/s, where
  w~ = (s*T*P + sum a[:k]) / k for the largest k with
  (s*T*P + C_k)/k > a_k.  That test holds up to k and fails beyond, so a
  bisection finds k; the prefix is then re-summed pairwise.
* stage 1 takes L = log2(u*g) once.  With w = w~/s the rate
  log2(1 + max(0, w - 1/gamma)*gamma) of a draw gamma = s*u*g is
  max(0, L + log2 w~), so a point needs no divide and no log per draw.

``sweep`` draws each stage's unit substreams once for all its points,
for the OEM link and its MIMO baseline alike; single-point calls are
one-point sweeps, so a sweep point equals them bit for bit.
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
    _check_samples,
    _grid_values,
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


@dataclass(frozen=True, eq=False)
class _Pattern:
    """One curve: per-channel gains g of substreams 0..K-1 and per-trial budget."""

    gains: np.ndarray
    budget: float


def _gained(units: np.ndarray, pattern: _Pattern, in_place: bool) -> np.ndarray:
    """Draws u*g of the pattern's channels, in the units' own buffer if ``in_place``."""
    draws = units[:pattern.gains.size]
    if not in_place:
        draws = draws.copy()
    draws *= pattern.gains[:, None]
    return draws


def _ergodic_curves(patterns: Sequence[_Pattern], snr_db: Sequence[float], trials: int,
                    seed: int) -> list[tuple[SePoint, ...]]:
    """Ergodic SE curves of ``patterns`` at the points ``snr_db``, one set of draws per stage.

    The SNR points are checked and converted to linear once, for every
    pattern.  Each stage's unit substreams are drawn once for the largest
    pattern; every pattern uses the first ``gains.size`` of them.  The
    last pattern works in the draws' own buffer, so it must be the
    largest.  Stage 0 solves every point's water level w~ and is freed
    before stage 1 averages the rates, so one stage's draws are alive at
    a time.
    """
    _check_samples(trials, "trials")
    if len(snr_db) == 0:
        raise InvalidConfigError("need at least one SNR point")
    scales = [_snr_linear(point_db) for point_db in snr_db]
    last = len(patterns) - 1

    units = _unit_draws(patterns[last].gains.size, trials, seed)
    waters = []
    for i, p in enumerate(patterns):
        pooled = trials * p.budget
        draws = _gained(units, p, i == last)
        waters.append(_water_levels(draws, [s * pooled for s in scales]))
        del draws  # freed before the next pattern allocates its own
    del units

    units = _unit_draws(patterns[last].gains.size, trials, seed, stage=_SE_STAGE)
    curves = []
    for i, (p, ws) in enumerate(zip(patterns, waters)):
        logs = _gained(units, p, i == last)
        with np.errstate(divide="ignore"):
            np.log2(logs, out=logs)
        work = np.empty_like(logs)
        points = []
        for point_db, w in zip(snr_db, ws):
            np.add(logs, math.log2(w) if w > 0.0 else -math.inf, out=work)
            np.maximum(work, 0.0, out=work)
            per_trial = work.sum(axis=0)
            points.append(SePoint(
                mean_snr_db=point_db,
                se=float(per_trial.mean()),
                stderr=float(per_trial.std(ddof=1) / math.sqrt(trials)),
            ))
        curves.append(tuple(points))
        del logs, work
    return curves


def _oem_pattern(cfg: OemConfig, mode_profile: np.ndarray, total_power: float,
                 normalization: str) -> _Pattern:
    """min(N, M) streams of gain g_l on each mode l; the profile must hold U entries."""
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
    return _Pattern(gains, _budget(total_power, gains.size, normalization))


def _mimo_pattern(n: int, m: int, total_power: float, normalization: str) -> _Pattern:
    if n < 1 or m < 1:
        raise InvalidConfigError("need at least one transmit and one receive antenna")
    gains = np.ones(min(n, m))
    return _Pattern(gains, _budget(total_power, gains.size, normalization))


def ergodic_se_oem(cfg: OemConfig, mode_profile: np.ndarray, mean_snr_db: float,
                   total_power: float, trials: int, seed: int,
                   normalization: str = "per-channel") -> SePoint:
    """Ergodic SE of the OEM link: min(N, M) streams on each of U modes.

    ``mode_profile`` holds the U per-mode power gains g_l, g_0 = 1, e.g.
    from ``channel.mode_power_profile``.
    """
    pattern = _oem_pattern(cfg, mode_profile, total_power, normalization)
    return _ergodic_curves([pattern], [mean_snr_db], trials, seed)[0][0]


def ergodic_se_mimo(n: int, m: int, mean_snr_db: float, total_power: float,
                    trials: int, seed: int, normalization: str = "per-channel") -> SePoint:
    """Ergodic SE of the plain multiplexing-MIMO baseline (single mode)."""
    pattern = _mimo_pattern(n, m, total_power, normalization)
    return _ergodic_curves([pattern], [mean_snr_db], trials, seed)[0][0]


def sweep(cfg: OemConfig, mode_profile: np.ndarray, snr_db_list: Sequence[float],
          total_power: float, trials: int, seed: int, normalization: str = "per-channel"
          ) -> tuple[tuple[SePoint, ...], tuple[SePoint, ...]]:
    """SE-versus-SNR curves for the OEM link and its N x M MIMO baseline.

    Returns two tuples of ``SePoint``, OEM then MIMO, one point per entry
    of ``snr_db_list``; every point equals the matching ``ergodic_se_oem``
    or ``ergodic_se_mimo`` call bit for bit.  Each stage's unit draws are
    made once for all min(N, M)*U channels; the MIMO channels are the
    first min(N, M), the OEM mode-0 ones.
    """
    oem = _oem_pattern(cfg, mode_profile, total_power, normalization)
    mimo = _mimo_pattern(cfg.n_tx, cfg.m_rx, total_power, normalization)
    mimo_curve, oem_curve = _ergodic_curves([mimo, oem], snr_db_list, trials, seed)
    return oem_curve, mimo_curve
