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

The Bessel evaluator integrates the periodic integral representation
with the trapezoid rule, which converges spectrally for these analytic
integrands.  The test suite holds the independent references: a
power-series Bessel oracle and the literal per-element gain, which is
not of the c_l * B form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import OemConfig
from .errors import DomainError, InvalidConfigError, RankDeficientError
from .geometry import build_layout

VARIANTS = ("exact-sum", "bessel", "convergent")


@dataclass(frozen=True, eq=False)
class ModeChannel:
    """Complex M x N channel matrix of one OAM mode, including the V factor.

    A channel does not store its mode: mode l is position l of the list
    that ``build_mode_channels`` returns.  The matrix is a read-only
    complex copy of the one passed in, so the zero-forcing solution
    computed from it on first use stays valid.  Channels compare and
    hash by identity, as an ndarray field has no single truth value.
    """

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
                f"channel matrix is rank deficient "
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


def _bessel_factors(cfg: OemConfig, angle: float) -> np.ndarray:
    """(U,) values J_l(2 pi r2 sin(angle) / lambda) for l = 0..U-1."""
    arg = 2.0 * math.pi * cfg.r2 * math.sin(angle) / cfg.wavelength
    return np.array([bessel_j(l, arg) for l in range(cfg.u_elems)])


def _equalizing_gains(bessel: np.ndarray) -> np.ndarray:
    """Default per-mode convergence gains |J_0| / |J_l|, zero where J_l vanishes.

    The default idealizes the converging reflector: amplitude gains that
    bring every mode up to the mode-0 magnitude at the convergent angle.
    Modes whose Bessel factor vanishes there cannot be equalized and get
    zero gain.
    """
    mags = np.abs(bessel)
    return np.divide(mags[0], mags, out=np.zeros(mags.size), where=mags > 1e-12)


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
    if kind == "bessel":
        bessel, amps = _bessel_factors(cfg, cfg.phi), np.ones(u_count)
    else:
        # configured gains, or the default ones of the same J_l values
        bessel = _bessel_factors(cfg, cfg.phi_c)
        amps = cfg.conv_gains if cfg.conv_gains is not None else _equalizing_gains(bessel)
    return np.array([float(amps[l]) * math.sqrt(u_count) * (np.exp(1j * cfg.theta * l) * (1j) ** l)
                     * float(bessel[l]) for l in range(u_count)])


def _base_gain(cfg: OemConfig, d):
    """Distance term beta * lambda * exp(-j 2 pi d / lambda) / (4 pi d), elementwise in d."""
    lam = cfg.wavelength
    return cfg.beta * lam * np.exp(1j * (-2.0 * math.pi * d / lam)) / (4.0 * math.pi * d)


def build_mode_channels(cfg: OemConfig, kind: str = "convergent") -> list[ModeChannel]:
    """Deterministic line-of-sight channel matrices for all modes 0..U-1.

    Entry l of the list is mode l's channel.  Its matrix is V * c_l * B:
    V times the per-UCA mode gains, so the matrices apply directly to
    mode-decomposed receive signals.
    """
    base = _base_gain(cfg, build_layout(cfg).center_distances)
    channels = []
    for l, coeff in enumerate(_mode_coefficients(cfg, kind)):
        matrix = cfg.v_elems * (coeff * base)
        if not np.all(np.isfinite(matrix)):
            raise InvalidConfigError(f"mode {l} channel matrix has non-finite entries")
        channels.append(ModeChannel(matrix))
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
