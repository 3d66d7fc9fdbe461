"""Closed-form design of the rectangular patch element and the reflector dish.

Lengths are meters internally; the CLI converts to millimeters for
reporting.  The patch formulas are the classical transmission-line
design chain for a half-wave rectangular microstrip element; the dish
is sized from its gain/efficiency product and an f/D ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidConfigError, NumericSingularityError


@dataclass(frozen=True)
class PatchSpec:
    """Inputs for the patch design: wavelength, substrate, feed impedance."""

    wavelength: float
    eps_r: float
    thickness: float
    z0: float = 50.0

    def __post_init__(self):
        if not (0.0 < self.wavelength < math.inf):
            raise InvalidConfigError(f"wavelength must be finite and > 0, got {self.wavelength}")
        if not (1.0 < self.eps_r < math.inf):
            raise InvalidConfigError(f"eps_r must be finite and > 1, got {self.eps_r}")
        if not (0.0 < self.thickness < math.inf):
            raise InvalidConfigError(f"thickness must be finite and > 0, got {self.thickness}")
        if not (0.0 < self.z0 < math.inf):
            raise InvalidConfigError(f"z0 must be finite and > 0, got {self.z0}")


@dataclass(frozen=True)
class PatchDesign:
    width: float            # W_1
    eps_eff: float          # effective permittivity
    guide_wavelength: float  # in-medium wavelength
    length: float           # L_E
    gap_correction: float   # radiation-gap length extension
    feed_offset: float      # L_F, inset of the feed from the patch edge line
    xi_re: float            # effective permittivity recomputed with T_H/L_E


@dataclass(frozen=True)
class DishDesign:
    diameter: float
    focal_length: float
    kappa: float
    surface: float  # paraboloid coefficient 1/(4F): Z = surface * (X^2 + Y^2)


def _eff_permittivity(eps_r: float, ratio: float) -> float:
    """Static effective permittivity for a microstrip of height/width ratio."""
    return (eps_r + 1.0) / 2.0 + (eps_r - 1.0) / 2.0 / math.sqrt(1.0 + 12.0 * ratio)


def design_patch(spec: PatchSpec) -> PatchDesign:
    """Run the closed-form patch design chain.

    Width from the half-wavelength/permittivity rule, effective
    permittivity from the microstrip filling factor, resonant length as
    half the guided wavelength minus twice the fringing-gap extension,
    and the 50-ohm feed inset from the length-based effective
    permittivity.
    """
    lam, eps_r, t = spec.wavelength, spec.eps_r, spec.thickness

    width = lam / 2.0 / math.sqrt((eps_r + 1.0) / 2.0)
    eps_eff = _eff_permittivity(eps_r, t / width)
    guide_wavelength = lam / math.sqrt(eps_eff)
    w_over_t = width / t
    gap = 0.412 * t * (eps_eff + 0.3) * (w_over_t + 0.264) / ((eps_eff - 0.258) * (w_over_t + 0.8))
    length = guide_wavelength / 2.0 - 2.0 * gap
    if not (length > 0.0):  # NaN when W/T overflows for a vanishing thickness
        raise InvalidConfigError(
            f"thickness {t:.3e} m leaves no positive resonant length at this wavelength,"
            f" got {length:.3e} m"
        )
    xi_re = _eff_permittivity(eps_r, t / length)
    feed_offset = length / 2.0 * (1.0 - 1.0 / math.sqrt(xi_re))
    return PatchDesign(
        width=width,
        eps_eff=eps_eff,
        guide_wavelength=guide_wavelength,
        length=length,
        gap_correction=gap,
        feed_offset=feed_offset,
        xi_re=xi_re,
    )


def wall_impedance(spec: PatchSpec, design: PatchDesign) -> complex:
    """Radiating-wall impedance of the patch (diagnostic)."""
    lam, t = spec.wavelength, spec.thickness
    denom = complex(
        0.00836 * design.width / lam,
        0.01668 * design.gap_correction * design.width * design.eps_eff / (t * lam),
    )
    if abs(denom) < 1e-300:
        raise NumericSingularityError("wall admittance vanished")
    return 1.0 / denom


def feed_impedance(spec: PatchSpec, design: PatchDesign, feed_offset: float) -> complex:
    """Input impedance seen at a given feed inset (diagnostic).

    Transforms the wall impedance along the two patch sections either
    side of the feed with the in-medium phase constant 2*pi/guide
    wavelength, sums the admittances, and adds the probe reactance.
    The 50-ohm design point used elsewhere is the closed-form inset in
    ``PatchDesign.feed_offset``; this function exists to inspect how
    close that closed form lands.
    """
    if not (0.0 < feed_offset < design.length):
        raise InvalidConfigError(
            f"feed offset must lie strictly inside the patch length, got {feed_offset}"
        )
    z0 = spec.z0
    zw = wall_impedance(spec, design)
    psi = 2.0 * math.pi / design.guide_wavelength

    def section(seg: float) -> complex:
        num = z0 * math.cos(psi * seg) + 1j * zw * math.sin(psi * seg)
        den = zw * math.cos(psi * seg) + 1j * z0 * math.sin(psi * seg)
        if abs(den) < 1e-12 * abs(num):
            raise NumericSingularityError("transmission-line section denominator vanished")
        return num / den

    y1 = (section(feed_offset) + section(design.length - feed_offset)) / z0
    if abs(y1) < 1e-300:
        raise NumericSingularityError("input admittance vanished")
    probe = 1j * 377.0 / math.sqrt(spec.eps_r) * math.tan(2.0 * math.pi * spec.thickness / spec.wavelength)
    return 1.0 / y1 + probe


def design_dish(gain_db: float, efficiency: float, kappa: float, wavelength: float) -> DishDesign:
    """Size the converging paraboloid from gain, aperture efficiency and f/D.

    D = wavelength * sqrt(G * eta) / pi with G linear, F = kappa * D,
    surface Z = (X^2 + Y^2) / (4 F).
    """
    if not (0.0 <= gain_db < math.inf):
        raise InvalidConfigError(f"gain_db must be finite and >= 0, got {gain_db}")
    if not (0.0 < efficiency <= 1.0):
        raise InvalidConfigError(f"aperture efficiency must lie in (0, 1], got {efficiency}")
    if not (0.25 <= kappa <= 0.5):
        raise InvalidConfigError(f"focal ratio must lie in [0.25, 0.5], got {kappa}")
    if not (0.0 < wavelength < math.inf):
        raise InvalidConfigError(f"wavelength must be finite and > 0, got {wavelength}")
    try:
        gain_linear = 10.0 ** (gain_db / 10.0)
    except OverflowError:
        raise InvalidConfigError(f"gain_db={gain_db} overflows as a linear gain") from None
    diameter = wavelength * math.sqrt(gain_linear * efficiency) / math.pi
    focal = kappa * diameter
    surface = 1.0 / (4.0 * focal) if focal > 0.0 else math.inf
    if not (diameter < math.inf and surface < math.inf):
        raise InvalidConfigError(f"dish diameter {diameter:.3e} m leaves the float range")
    return DishDesign(diameter=diameter, focal_length=focal, kappa=kappa, surface=surface)
