"""UCA placement, adjacent spacings and the wavelength regime.

Propagation runs along the z-axis: the transmit OEM circle lies in the
z=0 plane, the receive circle in the parallel z=link_distance plane.
UCA centers sit equidistantly on circles of radius r1; array-elements
sit equidistantly on circles of radius r2 around each center, in the
same transverse plane.  The link needs only the center distances,
sqrt(dx^2 + dy^2 + D^2) of in-plane offsets (elements enter through the
mode factors of ``channel``); ``scenario_check`` gives the spacings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import waterfill
from .config import OemConfig
from .errors import InvalidConfigError


@dataclass(frozen=True)
class ScenarioReport:
    """Which deployment regime the configuration falls into.

    Scenario-I wavelengths lie in [wavelength_min, wavelength_max) =
    [2 * d_adjacent_element, 2 * d_adjacent_uca).
    """

    d_adjacent_uca: float
    d_adjacent_element: float
    wavelength: float

    @property
    def wavelength_min(self) -> float:
        return 2.0 * self.d_adjacent_element

    @property
    def wavelength_max(self) -> float:
        return 2.0 * self.d_adjacent_uca

    @property
    def scenario(self) -> str:
        """The regime: "I" when OEM pays off (adjacent UCAs farther than half
        a wavelength apart, adjacent elements within half a wavelength), "II"
        when the element spacing also exceeds half a wavelength, and "none"
        when even the UCA spacing is below the half-wavelength threshold."""
        if self.wavelength >= self.wavelength_max:
            return "none"
        return "I" if self.wavelength >= self.wavelength_min else "II"

    @property
    def interval_empty(self) -> bool:
        return not (self.wavelength_min < self.wavelength_max)

    @property
    def use_oem(self) -> bool:
        return self.scenario == "I"


def build_layout(cfg: OemConfig) -> np.ndarray:
    """(M, N) matrix of distances d_mn from transmit UCA n to receive UCA m (m).

    UCA centers sit at angles 2*pi*k/N (transmit) and 2*pi*k/M (receive)
    on radius-r1 circles, measured from the x-axis.  Raises
    InvalidConfigError, before any array is built, when the three (M, N)
    arrays dx, dy and d would exceed ``waterfill.MAX_DRAWS`` values.
    """
    n, m = cfg.n_tx, cfg.m_rx
    if 3 * m * n > waterfill.MAX_DRAWS:
        raise InvalidConfigError(
            f"N={n} transmit and M={m} receive UCAs need {3 * m * n} layout values,"
            f" more than the {waterfill.MAX_DRAWS} one array may hold"
        )
    r1, d2 = cfg.r1, cfg.link_distance * cfg.link_distance
    tx, rx = (2.0 * np.pi * np.arange(count) / count for count in (n, m))
    dx = (r1 * np.cos(rx))[:, None] - r1 * np.cos(tx)
    dy = (r1 * np.sin(rx))[:, None] - r1 * np.sin(tx)
    return np.sqrt(dx * dx + dy * dy + d2)


def chord_length(radius: float, count: int) -> float:
    """Distance between adjacent points equispaced on a circle, in the law-of-cosines
    form sqrt(2 r^2 (1 - cos(2 pi / count))), identical to 2 r sin(pi / count)."""
    return math.sqrt(2.0 * radius * radius * (1.0 - math.cos(2.0 * math.pi / count)))


def scenario_check(cfg: OemConfig) -> ScenarioReport:
    """Classify the deployment regime and report the admissible wavelengths.

    Scenario I requires d_a > lambda/2 and d_e <= lambda/2 (boundary
    inclusive), i.e. lambda in the admissible interval
    [r2*sqrt(8(1-cos(2 pi/U))), r1*sqrt(8(1-cos(2 pi/N)))) = [2*d_e, 2*d_a),
    so the regime is read off the interval, which can be empty.  Raises
    InvalidConfigError for N < 2 or U < 2.
    """
    if cfg.n_tx < 2 or cfg.u_elems < 2:
        raise InvalidConfigError(
            f"adjacent distances need N >= 2 and U >= 2, got N={cfg.n_tx} U={cfg.u_elems}"
        )
    return ScenarioReport(d_adjacent_uca=chord_length(cfg.r1, cfg.n_tx),
                          d_adjacent_element=chord_length(cfg.r2, cfg.u_elems),
                          wavelength=cfg.wavelength)
