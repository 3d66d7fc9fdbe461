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
draws for the channels they share.
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
    _grid_values,
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


def ergodic_point(mean_grid: np.ndarray, total_power: float, normalization: str,
                  trials: int, seed: int) -> tuple[SePoint, float]:
    """Monte-Carlo ergodic SE of water-filled channels with the given means.

    Returns the curve point and the solved multiplier.  The point's
    ``mean_snr_db`` is NaN: the callers label it with their own SNR.
    """
    if trials < 1_000:
        raise InvalidConfigError(f"need at least 1000 trials, got {trials}")
    mean_grid = np.asarray(mean_grid, dtype=float)
    budget = _budget(total_power, mean_grid.size, normalization)
    # waterfill_ergodic samples its own stage-0 substreams from this seed.
    mu_star, rule = waterfill_ergodic(mean_grid, budget, samples=trials, seed=seed)
    gammas = sample_snr_realizations(
        flatten_mode_major(mean_grid), trials, seed, stage=_SE_STAGE
    )
    powers = rule(gammas)
    per_trial = np.log2(1.0 + powers * gammas).sum(axis=1)
    point = SePoint(
        mean_snr_db=math.nan,
        se=float(per_trial.mean()),
        stderr=float(per_trial.std(ddof=1) / math.sqrt(trials)),
    )
    return point, mu_star


def ergodic_se_oem(cfg: OemConfig, fading: FadingModel, total_power: float,
                   trials: int, seed: int) -> SePoint:
    """Ergodic SE of the OEM link: min(N, M) streams on each of U modes."""
    if fading.mode_profile.size != cfg.u_elems:
        raise InvalidConfigError(
            f"mode profile has {fading.mode_profile.size} entries, config has U={cfg.u_elems} modes"
        )
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
    mean_grid = 10.0 ** (mean_snr_db / 10.0) * np.ones((min(n, m), 1))
    point, _ = ergodic_point(mean_grid, total_power, normalization, trials, seed)
    return replace(point, mean_snr_db=mean_snr_db)


def sweep(cfg: OemConfig, fading: FadingModel, snr_db_list: Sequence[float],
          total_power: float, trials: int, seed: int) -> tuple[SeCurve, SeCurve]:
    """SE-versus-SNR curves for the OEM link and its N x M MIMO baseline."""
    if len(snr_db_list) == 0:
        raise InvalidConfigError("need at least one SNR point")
    oem_points, mimo_points = [], []
    for snr_db in snr_db_list:
        fad = FadingModel(
            mean_snr_db=snr_db, mode_profile=fading.mode_profile,
            normalization=fading.normalization,
        )
        oem_points.append(ergodic_se_oem(cfg, fad, total_power, trials, seed))
        mimo_points.append(
            ergodic_se_mimo(cfg.n_tx, cfg.m_rx, snr_db, total_power, trials, seed,
                            normalization=fading.normalization)
        )
    tag = (f"N={cfg.n_tx} M={cfg.m_rx} U={cfg.u_elems} V={cfg.v_elems} "
           f"normalization={fading.normalization}")
    return (
        SeCurve(points=tuple(oem_points), config_tag=f"OEM {tag}"),
        SeCurve(points=tuple(mimo_points), config_tag=f"MIMO {tag}"),
    )
