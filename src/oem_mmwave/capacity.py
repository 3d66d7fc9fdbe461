"""Ergodic spectrum-efficiency estimation for OEM and plain massive MIMO.

Fading draws each channel SNR i.i.d. exponential (Rayleigh amplitude)
around its mean; the mean of channel (i, l) is the baseline average SNR
scaled by the per-mode power profile g_l.  Two budget conventions:

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
draws for the channels they share.  Because an exponential draw is its
mean times a unit draw, bit for bit, ``sweep`` draws each stage's unit
substreams once and rescales them at every SNR point, for the OEM link
and its MIMO baseline alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .config import OemConfig
from .errors import InvalidConfigError
from .waterfill import (
    GridLike,
    PowerPolicy,
    SnrGrid,
    _ergodic_means,
    _grid_values,
    _pooled_multiplier,
    _rule_water_level,
    flatten_mode_major,
    sample_snr_realizations,
    waterfill_ergodic,
)

NORMALIZATIONS = ("per-channel", "total")

# Substream stages: waterfill_ergodic draws the multiplier samples at
# stage 0; the rate average here uses an independent stage-1 stream.
_SE_STAGE = 1


@dataclass(frozen=True)
class FadingModel:
    """Average-SNR structure of the fading simulation.

    mean_snr_db : baseline average per-channel SNR (dB), applied to mode 0.
    mode_profile : relative per-mode power gains, g_0 normalized to 1.
    normalization : budget convention, "per-channel" or "total".
    """

    mean_snr_db: float
    mode_profile: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    normalization: str = "per-channel"

    def __post_init__(self):
        profile = np.asarray(self.mode_profile, dtype=float)
        if profile.ndim != 1 or profile.size < 1:
            raise InvalidConfigError("mode profile must be a nonempty vector")
        if np.any(profile < 0.0) or not np.all(np.isfinite(profile)):
            raise InvalidConfigError("mode profile entries must be finite and nonnegative")
        if not math.isclose(profile[0], 1.0, rel_tol=1e-9):
            raise InvalidConfigError(f"mode profile must be normalized to g_0 = 1, got {profile[0]}")
        if self.normalization not in NORMALIZATIONS:
            raise InvalidConfigError(
                f"normalization must be one of {NORMALIZATIONS}, got {self.normalization!r}"
            )
        object.__setattr__(self, "mode_profile", profile)

    @property
    def mean_snr_linear(self) -> float:
        return 10.0 ** (self.mean_snr_db / 10.0)

    def mean_grid(self, n_streams: int) -> np.ndarray:
        """Mean SNR matrix (streams, modes): baseline times mode gain."""
        return self.mean_snr_linear * np.tile(self.mode_profile, (n_streams, 1))


@dataclass(frozen=True)
class SePoint:
    mean_snr_db: float
    se: float
    stderr: float


@dataclass(frozen=True)
class SeCurve:
    points: tuple[SePoint, ...]
    config_tag: str


def instantaneous_se(snr: GridLike, policy: PowerPolicy) -> float:
    """Sum rate sum_{i,l} log2(1 + P_{i,l} gamma_{i,l}) in bits/s/Hz."""
    gamma = _grid_values(snr)
    if gamma.shape != policy.allocations.shape:
        raise InvalidConfigError(
            f"SNR grid shape {gamma.shape} does not match policy shape {policy.allocations.shape}"
        )
    return float(np.log2(1.0 + policy.allocations * gamma).sum())


def _budget(total_power: float, n_channels: int, normalization: str) -> float:
    if normalization == "per-channel":
        return total_power * n_channels
    if normalization == "total":
        return total_power
    raise InvalidConfigError(f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}")


def _rate_point(gammas: np.ndarray, mu_star: float) -> SePoint:
    """SE of the allocation rule with multiplier mu*, averaged over (trials, K) draws.

    The rate log2(1 + max(0, w - 1/gamma) * gamma) is formed step by step
    in one work buffer; a zero draw has 1/gamma = +inf and rate 0.  The
    point's ``mean_snr_db`` is NaN: the callers label it.
    """
    work = np.empty_like(gammas)
    with np.errstate(divide="ignore"):
        np.divide(1.0, gammas, out=work)
    np.subtract(_rule_water_level(mu_star), work, out=work)
    np.maximum(work, 0.0, out=work)
    work *= gammas
    work += 1.0
    np.log2(work, out=work)
    per_trial = work.sum(axis=1)
    return SePoint(
        mean_snr_db=math.nan,
        se=float(per_trial.mean()),
        stderr=float(per_trial.std(ddof=1) / math.sqrt(gammas.shape[0])),
    )


def _check_trials(trials: int) -> None:
    if trials < 1_000:
        raise InvalidConfigError(f"need at least 1000 trials, got {trials}")


def _check_profile(cfg: OemConfig, fading: FadingModel) -> None:
    if fading.mode_profile.size != cfg.u_elems:
        raise InvalidConfigError(
            f"mode profile has {fading.mode_profile.size} entries, config has U={cfg.u_elems} modes"
        )


def _mimo_grid(n: int, m: int, mean_snr_db: float) -> np.ndarray:
    return 10.0 ** (mean_snr_db / 10.0) * np.ones((min(n, m), 1))


def ergodic_point(mean_grid: np.ndarray, total_power: float, normalization: str,
                  trials: int, seed: int) -> tuple[SePoint, float]:
    """Monte-Carlo ergodic SE of water-filled channels with the given means.

    Returns the curve point and the solved multiplier.  The point's
    ``mean_snr_db`` is NaN: the callers label it with their own SNR.
    """
    _check_trials(trials)
    mean_grid = np.asarray(mean_grid, dtype=float)
    budget = _budget(total_power, mean_grid.size, normalization)
    # waterfill_ergodic samples its own stage-0 substreams from this seed.
    mu_star, _ = waterfill_ergodic(mean_grid, budget, samples=trials, seed=seed)
    gammas = sample_snr_realizations(
        flatten_mode_major(mean_grid), trials, seed, stage=_SE_STAGE
    )
    return _rate_point(gammas, mu_star), mu_star


def ergodic_se_oem(cfg: OemConfig, fading: FadingModel, total_power: float,
                   trials: int, seed: int) -> SePoint:
    """Ergodic SE of the OEM link: min(N, M) streams on each of U modes."""
    _check_profile(cfg, fading)
    n_streams = min(cfg.n_tx, cfg.m_rx)
    point, _ = ergodic_point(
        fading.mean_grid(n_streams), total_power, fading.normalization, trials, seed
    )
    return replace(point, mean_snr_db=fading.mean_snr_db)


def ergodic_se_mimo(n: int, m: int, mean_snr_db: float, total_power: float,
                    trials: int, seed: int, normalization: str = "per-channel") -> SePoint:
    """Ergodic SE of the plain multiplexing-MIMO baseline (single mode)."""
    if n < 1 or m < 1:
        raise InvalidConfigError("need at least one transmit and one receive antenna")
    point, _ = ergodic_point(_mimo_grid(n, m, mean_snr_db), total_power, normalization,
                             trials, seed)
    return replace(point, mean_snr_db=mean_snr_db)


def _scaled(units: np.ndarray, means: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Draws units[:, :K] * means of K channels, written to the front of buf."""
    out = buf[:units.shape[0] * means.size].reshape(units.shape[0], means.size)
    return np.multiply(units[:, :means.size], means, out=out)


def sweep(cfg: OemConfig, fading: FadingModel, snr_db_list: Sequence[float],
          total_power: float, trials: int, seed: int) -> tuple[SeCurve, SeCurve]:
    """SE-versus-SNR curves for the OEM link and its N x M MIMO baseline.

    Every point equals the matching ``ergodic_se_oem`` or
    ``ergodic_se_mimo`` call bit for bit.  Each stage's unit draws are
    made once for all min(N, M)*U channels and rescaled per point; the
    MIMO channels are the first min(N, M), the OEM mode-0 ones.  Stage 0
    solves every multiplier and is freed before stage 1 averages the
    rates, so one stage's draws are alive at a time.
    """
    if len(snr_db_list) == 0:
        raise InvalidConfigError("need at least one SNR point")
    _check_profile(cfg, fading)
    _check_trials(trials)
    n_streams = min(cfg.n_tx, cfg.m_rx)
    grids = [replace(fading, mean_snr_db=snr_db).mean_grid(n_streams) for snr_db in snr_db_list]
    grids += [_mimo_grid(cfg.n_tx, cfg.m_rx, snr_db) for snr_db in snr_db_list]
    budgets = [_budget(total_power, grid.size, fading.normalization) for grid in grids]
    means = [_ergodic_means(grid, budget, trials) for grid, budget in zip(grids, budgets)]

    n_channels = means[0].size
    buf = np.empty(trials * n_channels)
    units = sample_snr_realizations(np.ones(n_channels), trials, seed)
    mus = [_pooled_multiplier(_scaled(units, m, buf), b) for m, b in zip(means, budgets)]
    del units
    units = sample_snr_realizations(np.ones(n_channels), trials, seed, stage=_SE_STAGE)
    points = [
        replace(_rate_point(_scaled(units, m, buf), mu), mean_snr_db=snr_db)
        for m, mu, snr_db in zip(means, mus, list(snr_db_list) * 2)
    ]
    tag = (f"N={cfg.n_tx} M={cfg.m_rx} U={cfg.u_elems} V={cfg.v_elems} "
           f"normalization={fading.normalization}")
    n_points = len(snr_db_list)
    return (
        SeCurve(points=tuple(points[:n_points]), config_tag=f"OEM {tag}"),
        SeCurve(points=tuple(points[n_points:]), config_tag=f"MIMO {tag}"),
    )
