"""Per-mode channel gains of the UCA vortex link.

The mode-l gain between transmit UCA n and receive UCA m is c_l * B[m, n]:
a per-mode coefficient c_l times the distance term B[m, n] = beta *
lambda * exp(-j 2 pi d_mn / lambda) / (4 pi d_mn); neither factor depends
on the receive element count V.  So every mode matrix is c_l * B, and the
mode power profile is |c_l / c_0|^2.  ``build_mode_channels`` returns the
link in that factored form, as one ``ModeChannels`` of B and c.  The
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
from numbers import Integral, Real

import numpy as np

from . import waterfill
from .config import OemConfig
from .errors import DomainError, InvalidConfigError
from .geometry import build_layout

VARIANTS = ("exact-sum", "bessel", "convergent")

@dataclass(frozen=True, eq=False)
class ModeMatrix:
    """One mode's complex M x N matrix c_l * B, read-only."""

    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class ModeChannels:
    """The channel matrices c_l * B of modes l = 0..U-1 as one factored link.

    base : complex (M, N) distance matrix B.
    coefficients : complex (U,) per-mode factors c; mode l is position l.

    Both arrays are complex copies of the ones passed in, held in
    immutable bytes (see ``waterfill._immutable``), so a result cached
    for the link stays the result of its B and c.
    ``channels[l].matrix`` is mode l's full matrix, computed on access.
    Channel sets compare and hash by identity, as an ndarray field has
    no single truth value.
    """

    base: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        base = np.asarray(self.base, dtype=complex)
        coefficients = np.asarray(self.coefficients, dtype=complex)
        if base.ndim != 2 or coefficients.ndim != 1:
            raise InvalidConfigError(
                f"need an (M, N) base matrix and (U,) mode coefficients, "
                f"got shapes {base.shape} and {coefficients.shape}"
            )
        if not (np.all(np.isfinite(base)) and np.all(np.isfinite(coefficients))):
            raise InvalidConfigError("channel matrices have non-finite entries")
        object.__setattr__(self, "base", waterfill._immutable(base))
        object.__setattr__(self, "coefficients", waterfill._immutable(coefficients))

    def __len__(self) -> int:
        return self.coefficients.size

    def __getitem__(self, l: int) -> ModeMatrix:
        matrix = self.coefficients[l] * self.base
        matrix.setflags(write=False)
        return ModeMatrix(matrix)


def _bessel_range_error(order: int, x: float) -> str | None:
    """Why ``bessel_j`` does not support J_order(x) for order >= 0, or None."""
    if order > 64:
        return f"order {order} exceeds the supported maximum 64"
    return f"|x| = {abs(x)} exceeds the supported maximum 1e3" if abs(x) > 1e3 else None


def bessel_j(order: int, x: float) -> float:
    """Bessel function of the first kind J_order(x).

    Trapezoid quadrature of (1/pi) * integral_0^pi cos(order*t - x*sin t) dt
    with a node count scaled to the oscillation rate.  Accurate to well
    below 1e-10 absolute for order <= 16 and |x| <= 20; supported for
    integer order <= 64 and finite real |x| <= 1e3.  Any other order or
    x raises DomainError.
    """
    if isinstance(order, bool) or not (isinstance(order, Integral) and isinstance(x, Real)
                                       and math.isfinite(x)):
        raise DomainError(f"need an integer order and a finite real x, got {order!r}, {x!r}")
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    reason = _bessel_range_error(order, x)
    if reason is not None:
        raise DomainError(reason)
    nodes = 64 + 4 * (order + int(math.ceil(abs(x))))
    t = np.pi * (np.arange(nodes) + 0.5) / nodes
    return float(np.mean(np.cos(order * t - x * np.sin(t))))


def _bessel_factors(cfg: OemConfig, kind: str) -> np.ndarray:
    """(U,) values J_l(2 pi r2 sin(angle) / lambda), l = 0..U-1, angle phi_c if convergent."""
    angle = "phi" if kind == "bessel" else "phi_c"
    arg = 2.0 * math.pi * cfg.r2 * math.sin(getattr(cfg, angle)) / cfg.wavelength
    reason = _bessel_range_error(cfg.u_elems - 1, arg)
    if reason is not None:
        raise InvalidConfigError(f"the {kind} model needs J_l(x) for l < U={cfg.u_elems}"
                                 f" at x = 2 pi r2 sin({angle}) / wavelength: {reason}")
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
    """(U,) per-mode factors c_l of the gains c_l * B[m, n]; none depends on (m, n).

    The exact sum builds U x U phase tables; a U whose tables would exceed
    ``waterfill.MAX_DRAWS`` values raises InvalidConfigError before any is built,
    as does a Bessel order U-1 or argument outside ``bessel_j``'s range, or a
    convergence gain whose product with sqrt(U) overflows.
    """
    u_count = cfg.u_elems
    if kind not in VARIANTS:
        raise InvalidConfigError(f"unknown channel variant {kind!r}; expected one of {VARIANTS}")
    if kind == "exact-sum":
        if u_count * u_count > waterfill.MAX_DRAWS:
            raise InvalidConfigError(
                f"the exact sum over U={u_count} elements needs {u_count * u_count} phase"
                f" values, more than the {waterfill.MAX_DRAWS} one array may hold"
            )
        psi_u = 2.0 * math.pi * np.arange(u_count) / u_count
        ramp = np.exp(1j * np.outer(np.arange(u_count), psi_u))
        wavefront = np.exp(
            1j * 2.0 * math.pi / cfg.wavelength * cfg.r2 * math.sin(cfg.phi)
            * np.cos(psi_u - cfg.theta)
        )
        return np.sum(ramp * wavefront, axis=1) / math.sqrt(u_count)
    if kind == "bessel":
        bessel, amps = _bessel_factors(cfg, kind), np.ones(u_count)
    else:
        # configured gains, or the default ones of the same J_l values
        bessel = _bessel_factors(cfg, kind)
        amps = cfg.conv_gains if cfg.conv_gains is not None else _equalizing_gains(bessel)
        # |J_l| <= 1 and the phasor is unit, so c_l is finite when amps[l] * sqrt(U) is
        top = float(max(amps))
        if not math.isfinite(top * math.sqrt(u_count)):
            raise InvalidConfigError(f"conv_gains up to {top:g} give mode coefficients"
                                     f" beyond the float range at U={u_count}")
    return np.array([float(amps[l]) * math.sqrt(u_count) * (np.exp(1j * cfg.theta * l) * (1j) ** l)
                     * float(bessel[l]) for l in range(u_count)])


def _base_gain(cfg: OemConfig, d):
    """Distance term beta * lambda * exp(-j 2 pi d / lambda) / (4 pi d), elementwise in d."""
    lam = cfg.wavelength
    return cfg.beta * lam * np.exp(1j * (-2.0 * math.pi * d / lam)) / (4.0 * math.pi * d)


def build_mode_channels(cfg: OemConfig, kind: str = "convergent") -> ModeChannels:
    """Deterministic line-of-sight channels of all modes 0..U-1.

    Mode l's matrix is c_l * B, the per-UCA mode gains; the mode
    decomposition over V receive elements scales them by V.
    """
    coefficients = _mode_coefficients(cfg, kind)
    return ModeChannels(_base_gain(cfg, build_layout(cfg)), coefficients)


def mode_power_profile(cfg: OemConfig, kind: str = "convergent") -> np.ndarray:
    """Relative per-mode power gains g_l = |c_l / c_0|^2 of one channel variant.

    These are also the squared Frobenius-norm ratios of the mode matrices
    that ``build_mode_channels`` returns; a g_l that overflows raises InvalidConfigError.
    """
    amps = np.abs(_mode_coefficients(cfg, kind))
    if amps[0] == 0.0:
        raise DomainError("mode 0 gain vanished; cannot normalize the profile")
    top = float(amps.max()) / float(amps[0])
    if not math.isfinite(top * top):
        raise InvalidConfigError("conv_gains give mode powers |c_l / c_0|^2 beyond the float range")
    return (amps / amps[0]) ** 2
