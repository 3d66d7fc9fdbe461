"""Element-level transmit synthesis, reception, mode decomposition, detection.

Symbols live on a complex N x U grid: entry (n, l) is the symbol of OAM
mode l on transmit UCA n.  Element observations live on an M x V grid.
Channels come as the ``ModeChannels`` of ``build_mode_channels``: mode l's
matrix is c_l * B, which the decomposition over V elements scales by V, so
reception and detection of all modes are one product with B or its
zero-forcing filter, scaled per mode.  Detection's filter, mode gains and
per-stream SNR weights are kept together for the 8 most recent (link, V,
noise level) keys of the process, the weights handed out as one read-only
grid.  The DFT matrices over the element and mode indices are built once
per size.  Each step scales, adds and divides in place in the array its
own product has just made, never in one it was given or that a link
shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .channel import ModeChannels
from .config import OemConfig
from .errors import InvalidConfigError, RankDeficientError
from .waterfill import SnrGrid, _check_nonnegative


@dataclass(frozen=True, eq=False)
class DecomposedSignal:
    """Per-mode received signals after the DFT projection over elements.

    values : complex (M, U) array, entry (m, l) is the mode-l signal at
        receive UCA m; a read-only complex copy of the one passed in.
    noise_var_per_mode : variance of the projected noise, V times the
        per-element variance; a finite, nonnegative real number, not a bool.
    v_elems : the V of the decomposition, a positive integer; detection
        divides by V times each mode's coefficient.

    Signals compare and hash by identity, as an ndarray field has no
    single truth value.
    """

    values: np.ndarray
    noise_var_per_mode: float
    v_elems: int

    def __post_init__(self):
        values, noise, v = np.array(self.values, dtype=complex), self.noise_var_per_mode, self.v_elems
        if values.ndim != 2:
            raise InvalidConfigError(f"decomposed values must be (M, U), got shape {values.shape}")
        if isinstance(v, bool) or not isinstance(v, Integral) or v < 1:
            raise InvalidConfigError(f"v_elems must be a positive integer, got {v!r}")
        if isinstance(noise, bool) or not isinstance(noise, Real) or not 0.0 <= noise < math.inf:
            raise InvalidConfigError(
                f"noise_var_per_mode must be a finite real number >= 0, got {noise!r}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def _of_projection(cls, values: np.ndarray, noise_var_per_mode: float, v_elems: int
                       ) -> "DecomposedSignal":
        """The signal of a complex (M, U) projection just made from a checked config.

        ``values`` is made read-only in place, not copied, and V is not
        re-checked; V * noise_var may still overflow, which raises as in
        the public constructor.
        """
        if not noise_var_per_mode < math.inf:
            raise InvalidConfigError(
                f"noise_var_per_mode must be finite and >= 0, got {noise_var_per_mode}")
        values.setflags(write=False)
        signal = object.__new__(cls)
        vars(signal).update(values=values, noise_var_per_mode=noise_var_per_mode,
                            v_elems=v_elems)
        return signal


@lru_cache(maxsize=16)
def _dft(rows: int, cols: int, period: int, inverse: bool = False) -> np.ndarray:
    """Read-only (rows, cols) matrix exp(+-j 2 pi r c / period), minus sign if inverse."""
    phase = (-2j if inverse else 2j) * np.pi * np.outer(np.arange(rows), np.arange(cols))
    dft = np.exp(phase / period)
    dft.setflags(write=False)
    return dft


@lru_cache(maxsize=8)
def _zf_weights(channels: ModeChannels, v_elems: int, sigma2: float
                ) -> tuple[np.ndarray, np.ndarray, SnrGrid]:
    """Zero-forcing filter (B^H B)^{-1} B^H, (N, M), mode gains V * c, (U,),
    and the SnrGrid of weights |V c_l|^2 / (sigma2 [(B^H B)^{-1}]_ii) of
    one link, V and positive mode-noise variance sigma2, all read-only.

    The filter and the noise gains diag((B^H B)^{-1}) come from one thin
    SVD B = U S V^H, as V S^{-1} U^H and the squared row norms of
    V S^{-1}; with no Gram matrix formed they are accurate to about
    cond(B) * eps inside the ten-decade gate.  Kept for the 8 most
    recent (link, V, sigma2) keys of the process; a link is keyed by
    identity and held alive while its key is kept.  A zero c_l raises
    RankDeficientError before the SVD, as do M < N and singular values
    of B that span more than ten decades; no failure is kept, so each
    such call, and one whose weights fall outside SnrGrid's range,
    raises again.
    """
    dead = np.flatnonzero(channels.coefficients == 0.0)
    if dead.size:
        raise RankDeficientError(f"mode {dead[0]} gain vanished")
    b = channels.base
    if b.shape[0] < b.shape[1]:
        raise RankDeficientError(f"zero forcing needs M >= N, got M={b.shape[0]} N={b.shape[1]}")
    left, svals, right_h = np.linalg.svd(b, full_matrices=False)
    if svals[0] == 0.0 or svals[-1] < 1e-10 * svals[0]:
        ratio = svals[-1] / svals[0] if svals[0] > 0.0 else 0.0
        raise RankDeficientError(
            f"channel matrix is rank deficient (singular value ratio {ratio:.2e})"
        )
    scaled = right_h.conj().T / svals
    zf_filter = scaled @ left.conj().T
    noise_gains = np.sum(np.abs(scaled) ** 2, axis=1)
    mode_gains = v_elems * channels.coefficients
    grid = SnrGrid(np.abs(mode_gains) ** 2 / (sigma2 * noise_gains[:, None]))
    zf_filter.setflags(write=False)
    mode_gains.setflags(write=False)
    return zf_filter, mode_gains, grid


def _checked_symbols(symbols, cfg: OemConfig) -> np.ndarray:
    """``symbols`` as a complex (N, U) array; any other shape raises InvalidConfigError."""
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.shape != (cfg.n_tx, cfg.u_elems):
        raise InvalidConfigError(
            f"symbols must be (N, U) = ({cfg.n_tx}, {cfg.u_elems}), got {symbols.shape}"
        )
    return symbols


def synthesize_elements(symbols: np.ndarray, cfg: OemConfig) -> np.ndarray:
    """Per-element transmit signals from the per-mode symbols.

    x_{n,u} = (1/sqrt(U)) * sum_l s_{n,l} exp(j 2 pi (u-1) l / U) — the
    unitary inverse DFT over the mode index.
    """
    symbols = _checked_symbols(symbols, cfg)
    u = cfg.u_elems
    elements = symbols @ _dft(u, u, u).T  # dft is (u_idx, l)
    elements /= math.sqrt(u)
    return elements


def propagate(symbols: np.ndarray, channels: ModeChannels, cfg: OemConfig,
              noise_seed: int = 0) -> np.ndarray:
    """Simulate reception at every element of every receive UCA.

    y_{m,v} = sum_l sum_n h_{mn,l} s_{n,l} exp(j 2 pi (v-1) l / V) + w_{m,v}
    with circularly-symmetric complex Gaussian element noise of variance
    cfg.noise_var, drawn deterministically from noise_seed.  The per-UCA
    sums of the mode matrices c_l * B are c_l * (B s_l), scaled by c in
    the product B s.  The noise is drawn as one (2, M, V) array of
    standard normals, scaled once by sqrt(noise_var / 2) and added to the
    real and the imaginary parts of the received signal in one pass over
    its interleaved (M, V, 2) float view.  A noise_seed
    that is not a nonnegative integer (bools included) raises
    InvalidConfigError.
    """
    _check_nonnegative(noise_seed, "noise_seed")
    symbols = _checked_symbols(symbols, cfg)
    if len(channels) != cfg.u_elems:
        raise InvalidConfigError(f"need one channel per mode 0..{cfg.u_elems - 1}")
    m_rx, u, v = cfg.m_rx, cfg.u_elems, cfg.v_elems
    if channels.base.shape != (m_rx, cfg.n_tx):
        raise InvalidConfigError(
            f"channel matrices must be (M, N) = ({m_rx}, {cfg.n_tx}), got {channels.base.shape}"
        )
    per_uca = channels.base @ symbols
    per_uca *= channels.coefficients
    out = per_uca @ _dft(u, v, v)  # dft is (l, v_idx)
    if cfg.noise_var > 0.0:
        noise = np.random.default_rng(noise_seed).standard_normal((2, m_rx, v))
        noise *= math.sqrt(cfg.noise_var / 2.0)
        parts = out.view(float).reshape(m_rx, v, 2)
        parts += noise.transpose(1, 2, 0)
    return out


def decompose_modes(observation: np.ndarray, cfg: OemConfig) -> DecomposedSignal:
    """Project element observations onto the OAM modes.

    y~_{m,l0} = sum_v y_{m,v} exp(-j 2 pi (v-1) l0 / V).  Exact DFT
    orthogonality cancels every mode l != l0 as V >= U; the projected
    noise variance grows to V times the element variance.  The product
    becomes the signal's values without a copy.
    """
    observation = np.asarray(observation, dtype=complex)
    if observation.shape != (cfg.m_rx, cfg.v_elems):
        raise InvalidConfigError(
            f"observation must be (M, V) = ({cfg.m_rx}, {cfg.v_elems}), got {observation.shape}"
        )
    v, u = cfg.v_elems, cfg.u_elems
    proj = _dft(v, u, v, inverse=True)  # (v_idx, l0)
    return DecomposedSignal._of_projection(observation @ proj, v * cfg.noise_var, v)


def zf_detect(decomposed: DecomposedSignal, channels: ModeChannels
              ) -> tuple[np.ndarray, SnrGrid]:
    """Zero-forcing detection of every mode's spatial streams.

    Per mode l: s_hat_l = (H_l^H H_l)^{-1} H_l^H y_l with H_l = V c_l B and
    V from ``decomposed``, which is ZF(B) y_l / (V c_l).  The returned SNR
    grid holds the per-stream weights gamma_{i,l} = 1 / (sigma_l^2 *
    [(H_l^H H_l)^{-1}]_{ii}) = |V c_l|^2 / (sigma_l^2 * [(B^H B)^{-1}]_{ii}),
    so a stream carrying power P is received at SNR P * gamma_{i,l}.  In the
    noiseless case (sigma_l^2 = 0) the weights are reported per unit
    mode-noise variance instead.  The filter ZF(B), from B's SVD, the mode
    gains and the weights are kept together for the 8 most recent (link,
    V, noise level) keys of the process (see ``_zf_weights``), and the
    returned grid is read-only and shared by every block of that key, so
    a block costs one cache lookup, one product for all modes and one
    divide; the grid also keeps its last water filling (see
    ``waterfill_instantaneous``).
    """
    values = decomposed.values
    m_rx, u = values.shape
    if len(channels) != u:
        raise InvalidConfigError(
            f"need one channel per mode 0..{u - 1}, got {len(channels)} channels"
        )
    if m_rx != channels.base.shape[0]:
        raise InvalidConfigError(
            f"decomposed signal has {m_rx} receive UCAs, "
            f"the channel matrices have M={channels.base.shape[0]}"
        )
    noise_var = decomposed.noise_var_per_mode
    zf_filter, mode_gains, weights = _zf_weights(channels, decomposed.v_elems,
                                                 noise_var if noise_var > 0.0 else 1.0)
    estimates = zf_filter @ values
    estimates /= mode_gains
    return estimates, weights
