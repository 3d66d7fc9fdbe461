"""Per-mode channel gains of the UCA vortex link.

The mode-l gain between transmit UCA n and receive UCA m is c_l * B[m, n]:
a per-mode coefficient c_l times the distance term B[m, n] = beta *
lambda * exp(-j 2 pi d_mn / lambda) / (4 pi d_mn).  So every mode matrix
is V * c_l * B, and the mode power profile is |c_l / c_0|^2.  The
variants differ only in c_l:

* ``exact-sum`` — the finite sum over transmit elements of the far-field
  element phases with the progressive per-element phase ramp.
* ``bessel`` — the closed form where the element sum is replaced by a
  Bessel function of the first kind; exact in the large-U limit.
* ``convergent`` — the Bessel form with the reduced divergence angle and
  per-mode amplitude gains of the converging reflector.

``element_gain``, the literal per-element gain, is not of this form and
serves the tests as a reference.  The Bessel evaluator integrates the
periodic integral representation with the trapezoid rule, which
converges spectrally for these analytic integrands; an independent
power-series oracle lives in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .config import OemConfig
from .errors import DomainError, InvalidConfigError, RankDeficientError
from .geometry import ElementLayout, build_layout

VARIANTS = ("exact-sum", "bessel", "convergent")


@dataclass(frozen=True, eq=False)
class ModeChannel:
    """Complex M x N channel matrix of one OAM mode, including the V factor.

    The matrix is a read-only complex copy of the one passed in, so the
    zero-forcing solution computed from it on first use stays valid.
    Channels compare and hash by identity, as an ndarray field has no
    single truth value.
    """

    mode: int
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=complex)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @cached_property
    def zf_solution(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-forcing filter (H^H H)^{-1} H^H, (N, M), and the noise gains
        diag((H^H H)^{-1}), (N,), both read-only.

        Raises RankDeficientError, on every access, when M < N or the
        singular values of H span more than ten decades.
        """
        h = self.matrix
        if h.shape[0] < h.shape[1]:
            raise RankDeficientError(
                f"zero forcing needs M >= N, got M={h.shape[0]} N={h.shape[1]}"
            )
        svals = np.linalg.svd(h, compute_uv=False)
        if svals[0] == 0.0 or svals[-1] < 1e-10 * svals[0]:
            raise RankDeficientError(
                f"mode {self.mode} channel matrix is rank deficient "
                f"(singular value ratio {svals[-1] / svals[0]:.2e})"
            )
        gram_inv = np.linalg.inv(h.conj().T @ h)
        zf_filter = gram_inv @ h.conj().T
        noise_gains = np.real(np.diag(gram_inv)).copy()
        zf_filter.setflags(write=False)
        noise_gains.setflags(write=False)
        return zf_filter, noise_gains


def bessel_j(order: int, x: float) -> float:
    """Bessel function of the first kind J_order(x).

    Trapezoid quadrature of (1/pi) * integral_0^pi cos(order*t - x*sin t) dt
    with a node count scaled to the oscillation rate.  Accurate to well
    below 1e-10 absolute for order <= 16 and |x| <= 20; supported for
    order <= 64 and |x| <= 1e3.
    """
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    if order > 64:
        raise DomainError(f"order {order} exceeds the supported maximum 64")
    if abs(x) > 1e3:
        raise DomainError(f"|x| = {abs(x)} exceeds the supported maximum 1e3")
    nodes = 64 + 4 * (order + int(math.ceil(abs(x))))
    t = np.pi * (np.arange(nodes) + 0.5) / nodes
    return float(np.mean(np.cos(order * t - x * np.sin(t))))


def conv_gains(cfg: OemConfig) -> np.ndarray:
    """Configured per-mode convergence gains, or the equal-gain default.

    The default idealizes the converging reflector: amplitude gains that
    bring every mode up to the mode-0 magnitude at the convergent angle.
    Modes whose Bessel factor vanishes there cannot be equalized and get
    zero gain.
    """
    if cfg.conv_gains is not None:
        return np.asarray(cfg.conv_gains, dtype=float)
    arg = 2.0 * math.pi * cfg.r2 * math.sin(cfg.phi_c) / cfg.wavelength
    mags = np.abs([bessel_j(l, arg) for l in range(cfg.u_elems)])
    return np.divide(mags[0], mags, out=np.zeros(cfg.u_elems), where=mags > 1e-12)


def element_gain(cfg: OemConfig, layout: ElementLayout, m: int, n: int, u: int, v: int) -> complex:
    """Far-field gain from transmit element (n, u) to receive element (m, v).

    Inverse-distance amplitude with the first-order phase expansion
    around the center-to-center distance: the transmit-element offset
    enters the phase through its projection on the link direction, the
    receive-element offset is dropped.
    """
    d_vec = layout.center_vectors[m, n]
    d = float(np.linalg.norm(d_vec))
    r_u = layout.tx_positions[n, u] - layout.tx_centers[n]
    phase = -2.0 * math.pi / cfg.wavelength * (d - float(d_vec @ r_u) / d)
    amp = cfg.beta * cfg.wavelength / (4.0 * math.pi * math.sqrt(cfg.u_elems) * d)
    return amp * complex(math.cos(phase), math.sin(phase))


def _mode_coefficients(cfg: OemConfig, kind: str) -> np.ndarray:
    """(U,) per-mode factors c_l of the gains c_l * B[m, n]; none depends on (m, n)."""
    u_count = cfg.u_elems
    if kind not in VARIANTS:
        raise InvalidConfigError(f"unknown channel variant {kind!r}; expected one of {VARIANTS}")
    if kind == "exact-sum":
        psi_u = 2.0 * math.pi * np.arange(u_count) / u_count
        ramp = np.exp(1j * np.outer(np.arange(u_count), psi_u))
        wavefront = np.exp(
            1j * 2.0 * math.pi / cfg.wavelength * cfg.r2 * math.sin(cfg.phi)
            * np.cos(psi_u - cfg.theta)
        )
        return np.sum(ramp * wavefront, axis=1) / math.sqrt(u_count)
    angle, amps = (cfg.phi, np.ones(u_count)) if kind == "bessel" else (cfg.phi_c, conv_gains(cfg))
    arg = 2.0 * math.pi * cfg.r2 * math.sin(angle) / cfg.wavelength
    return np.array([float(amps[l]) * math.sqrt(u_count) * (np.exp(1j * cfg.theta * l) * (1j) ** l)
                     * bessel_j(l, arg) for l in range(u_count)])


def _base_gain(cfg: OemConfig, d):
    """Distance term beta * lambda * exp(-j 2 pi d / lambda) / (4 pi d), elementwise in d."""
    lam = cfg.wavelength
    return cfg.beta * lam * np.exp(1j * (-2.0 * math.pi * d / lam)) / (4.0 * math.pi * d)


def mode_gain(cfg: OemConfig, m: int, n: int, l: int, kind: str = "bessel",
              layout: Optional[ElementLayout] = None) -> complex:
    """Channel gain of OAM mode l between transmit UCA n and receive UCA m."""
    if not (0 <= l < cfg.u_elems):
        raise DomainError(f"mode index {l} outside 0..{cfg.u_elems - 1}")
    d = float((layout or build_layout(cfg)).center_distances[m, n])
    return complex(_mode_coefficients(cfg, kind)[l] * _base_gain(cfg, d))


def build_mode_channels(cfg: OemConfig, kind: str = "convergent") -> list[ModeChannel]:
    """Deterministic line-of-sight channel matrices for all modes 0..U-1.

    Mode l's matrix is V * c_l * B: V times the per-UCA mode gains, so
    the matrices apply directly to mode-decomposed receive signals.
    """
    base = _base_gain(cfg, build_layout(cfg).center_distances)
    channels = []
    for l, coeff in enumerate(_mode_coefficients(cfg, kind)):
        matrix = cfg.v_elems * (coeff * base)
        if not np.all(np.isfinite(matrix)):
            raise InvalidConfigError(f"mode {l} channel matrix has non-finite entries")
        channels.append(ModeChannel(mode=l, matrix=matrix))
    return channels


def mode_power_profile(cfg: OemConfig, kind: str = "convergent") -> np.ndarray:
    """Relative per-mode power gains g_l = |c_l / c_0|^2 of one channel variant.

    These are also the squared Frobenius-norm ratios of the matrices that
    ``build_mode_channels`` returns for the same variant.
    """
    amps = np.abs(_mode_coefficients(cfg, kind))
    if amps[0] == 0.0:
        raise DomainError("mode 0 gain vanished; cannot normalize the profile")
    return (amps / amps[0]) ** 2
