"""Element-level transmit synthesis, reception, mode decomposition, detection.

Symbols live on a complex N x U grid: entry (n, l) is the symbol of OAM
mode l on transmit UCA n.  Element observations live on an M x V grid.
Channels come as the list of ``build_mode_channels``: entry l is mode l.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ModeChannel
from .config import OemConfig
from .errors import AliasRiskError, InvalidConfigError, RankDeficientError
from .waterfill import SnrGrid


@dataclass(frozen=True)
class DecomposedSignal:
    """Per-mode received signals after the DFT projection over elements.

    values : complex (M, U) array, entry (m, l) is the mode-l signal at
        receive UCA m.
    noise_var_per_mode : variance of the projected noise, V times the
        per-element variance.
    """

    values: np.ndarray
    noise_var_per_mode: float


def synthesize_elements(symbols: np.ndarray, cfg: OemConfig) -> np.ndarray:
    """Per-element transmit signals from the per-mode symbols.

    x_{n,u} = (1/sqrt(U)) * sum_l s_{n,l} exp(j 2 pi (u-1) l / U) — the
    unitary inverse DFT over the mode index.
    """
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.shape != (cfg.n_tx, cfg.u_elems):
        raise InvalidConfigError(
            f"symbols must be (N, U) = ({cfg.n_tx}, {cfg.u_elems}), got {symbols.shape}"
        )
    u = cfg.u_elems
    dft = np.exp(2j * np.pi * np.outer(np.arange(u), np.arange(u)) / u)  # (u_idx, l)
    return symbols @ dft.T / np.sqrt(u)


def propagate(symbols: np.ndarray, channels: Sequence[ModeChannel], cfg: OemConfig,
              noise_seed: int = 0) -> np.ndarray:
    """Simulate reception at every element of every receive UCA.

    y_{m,v} = sum_l sum_n h_{mn,l} s_{n,l} exp(j 2 pi (v-1) l / V) + w_{m,v}
    with circularly-symmetric complex Gaussian element noise of variance
    cfg.noise_var, drawn deterministically from noise_seed.  The channel
    matrices carry the V factor, which belongs to the decomposition
    stage, so it is divided back out here.
    """
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.shape != (cfg.n_tx, cfg.u_elems):
        raise InvalidConfigError(
            f"symbols must be (N, U) = ({cfg.n_tx}, {cfg.u_elems}), got {symbols.shape}"
        )
    if len(channels) != cfg.u_elems:
        raise InvalidConfigError(f"need one channel per mode 0..{cfg.u_elems - 1}")
    m_rx, u, v = cfg.m_rx, cfg.u_elems, cfg.v_elems
    # (M, U) per-UCA sums, without the decomposition factor V
    per_uca = np.column_stack([ch.matrix @ symbols[:, l] for l, ch in enumerate(channels)]) / v
    if per_uca.shape[0] != m_rx:
        raise InvalidConfigError(f"channel matrices must have M = {m_rx} rows")
    ramps = np.exp(2j * np.pi * np.outer(np.arange(u), np.arange(v)) / v)  # (l, v_idx)
    out = per_uca @ ramps
    if cfg.noise_var > 0.0:
        noise = np.random.default_rng(noise_seed).standard_normal((2, m_rx, v))
        out += np.sqrt(cfg.noise_var / 2.0) * (noise[0] + 1j * noise[1])
    return out


def decompose_modes(observation: np.ndarray, cfg: OemConfig) -> DecomposedSignal:
    """Project element observations onto the OAM modes.

    y~_{m,l0} = sum_v y_{m,v} exp(-j 2 pi (v-1) l0 / V).  Exact DFT
    orthogonality cancels every mode l != l0 when V >= U; the projected
    noise variance grows to V times the element variance.
    """
    observation = np.asarray(observation, dtype=complex)
    if observation.shape != (cfg.m_rx, cfg.v_elems):
        raise InvalidConfigError(
            f"observation must be (M, V) = ({cfg.m_rx}, {cfg.v_elems}), got {observation.shape}"
        )
    if cfg.v_elems < cfg.u_elems:
        raise AliasRiskError(
            f"V={cfg.v_elems} < U={cfg.u_elems}: modes would alias in the decomposition"
        )
    v, u = cfg.v_elems, cfg.u_elems
    proj = np.exp(-2j * np.pi * np.outer(np.arange(v), np.arange(u)) / v)  # (v_idx, l0)
    return DecomposedSignal(values=observation @ proj, noise_var_per_mode=cfg.v_elems * cfg.noise_var)


def zf_detect(decomposed: DecomposedSignal, channels: Sequence[ModeChannel]
              ) -> tuple[np.ndarray, SnrGrid]:
    """Zero-forcing detection of every mode's spatial streams.

    Per mode l: s_hat_l = (H_l^H H_l)^{-1} H_l^H y_l.  The returned SNR
    grid holds the per-stream weights gamma_{i,l} = 1 / (sigma_l^2 *
    [(H_l^H H_l)^{-1}]_{ii}), so a stream carrying power P is received
    at SNR P * gamma_{i,l}.  In the noiseless case (sigma_l^2 = 0) the
    weights are reported per unit mode-noise variance instead.  Each
    mode's filter and noise gains come from ``ModeChannel.zf_solution``,
    computed once per channel, so a block costs one product per mode.
    """
    values = decomposed.values
    m_rx, u = values.shape
    if len(channels) != u:
        raise InvalidConfigError(
            f"need one channel per mode 0..{u - 1}, got {len(channels)} channels"
        )
    n_tx = channels[0].matrix.shape[1]
    if m_rx < n_tx:
        raise RankDeficientError(f"zero forcing needs M >= N, got M={m_rx} N={n_tx}")
    estimates = np.empty((n_tx, u), dtype=complex)
    weights = np.empty((n_tx, u))
    sigma2 = decomposed.noise_var_per_mode if decomposed.noise_var_per_mode > 0.0 else 1.0
    for l, ch in enumerate(channels):
        try:
            zf_filter, noise_gains = ch.zf_solution
        except RankDeficientError as exc:
            raise RankDeficientError(f"mode {l}: {exc}") from exc
        estimates[:, l] = zf_filter @ values[:, l]
        weights[:, l] = 1.0 / (sigma2 * noise_gains)
    return estimates, SnrGrid(values=weights)
