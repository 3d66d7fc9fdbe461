"""3-D placement of the UCAs and their array-elements.

Propagation runs along the z-axis: the transmit OEM circle lies in the
z=0 plane, the receive circle in the z=link_distance plane.  UCA centers
sit equidistantly on circles of radius r1; array-elements sit
equidistantly on circles of radius r2 around each center, in the same
transverse plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import OemConfig
from .errors import InvalidConfigError


@dataclass(frozen=True)
class ElementLayout:
    """Element coordinates and center-to-center vectors.

    tx_positions : (N, U, 3) transmit element coordinates (m).
    rx_positions : (M, V, 3) receive element coordinates (m).
    tx_centers   : (N, 3) transmit UCA centers (m).
    rx_centers   : (M, 3) receive UCA centers (m).
    center_vectors : (M, N, 3) vectors from transmit UCA n to receive UCA m (m).
    """

    tx_positions: np.ndarray
    rx_positions: np.ndarray
    tx_centers: np.ndarray
    rx_centers: np.ndarray
    center_vectors: np.ndarray

    @property
    def center_distances(self) -> np.ndarray:
        """(M, N) matrix of distances d_mn between UCA centers."""
        return np.linalg.norm(self.center_vectors, axis=-1)


@dataclass(frozen=True)
class ScenarioReport:
    """Which deployment regime the configuration falls into.

    scenario is "I" when OEM pays off (adjacent UCAs farther than half a
    wavelength apart, adjacent elements within half a wavelength), "II"
    when the element spacing also exceeds half a wavelength, and "none"
    when even the UCA spacing is below the half-wavelength threshold.
    """

    scenario: str
    d_adjacent_uca: float
    d_adjacent_element: float
    wavelength: float
    wavelength_min: float
    wavelength_max: float

    @property
    def interval_empty(self) -> bool:
        return not (self.wavelength_min < self.wavelength_max)

    @property
    def use_oem(self) -> bool:
        return self.scenario == "I"


def _ring(center: np.ndarray, radius: float, count: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(count) / count
    ring = np.zeros((count, 3))
    ring[:, 0] = radius * np.cos(angles)
    ring[:, 1] = radius * np.sin(angles)
    return center[None, :] + ring


def build_layout(cfg: OemConfig) -> ElementLayout:
    """Place every array-element of every UCA in 3-D.

    UCA centers sit at angles 2*pi*k/N (transmit) and 2*pi*k/M (receive)
    on radius-r1 circles; elements at angles 2*pi*(u-1)/U on radius-r2
    circles around each center, measured from the x-axis.
    """
    cfg.validate()
    n, m, u, v = cfg.n_tx, cfg.m_rx, cfg.u_elems, cfg.v_elems

    tx_centers = _ring(np.zeros(3), cfg.r1, n)
    rx_centers = _ring(np.array([0.0, 0.0, cfg.link_distance]), cfg.r1, m)

    tx_positions = np.stack([_ring(c, cfg.r2, u) for c in tx_centers])
    rx_positions = np.stack([_ring(c, cfg.r2, v) for c in rx_centers])

    center_vectors = rx_centers[:, None, :] - tx_centers[None, :, :]
    return ElementLayout(
        tx_positions=tx_positions,
        rx_positions=rx_positions,
        tx_centers=tx_centers,
        rx_centers=rx_centers,
        center_vectors=center_vectors,
    )


def chord_length(radius: float, count: int) -> float:
    """Distance between adjacent points equispaced on a circle.

    Law-of-cosines form sqrt(2 r^2 (1 - cos(2 pi / count))), identical to
    2 r sin(pi / count).
    """
    return math.sqrt(2.0 * radius * radius * (1.0 - math.cos(2.0 * math.pi / count)))


def adjacent_distances(cfg: OemConfig) -> tuple[float, float]:
    """Return (d_a, d_e): adjacent UCA-center and element spacings (m)."""
    if cfg.n_tx < 2 or cfg.u_elems < 2:
        raise InvalidConfigError(
            f"adjacent distances need N >= 2 and U >= 2, got N={cfg.n_tx} U={cfg.u_elems}"
        )
    return chord_length(cfg.r1, cfg.n_tx), chord_length(cfg.r2, cfg.u_elems)


def wavelength_interval(r1: float, n: int, r2: float, u: int) -> tuple[float, float]:
    """Admissible [lo, hi) wavelength interval for the OEM regime.

    lo = 2 * element chord, hi = 2 * UCA-center chord.  The interval is
    empty (lo >= hi) when the two spacing constraints cannot hold at the
    same time, e.g. r2 == r1 with U == N.
    """
    if n < 2 or u < 2:
        raise InvalidConfigError(f"wavelength interval needs N >= 2 and U >= 2, got N={n} U={u}")
    return 2.0 * chord_length(r2, u), 2.0 * chord_length(r1, n)


def scenario_check(cfg: OemConfig) -> ScenarioReport:
    """Classify the deployment regime and report the admissible wavelengths.

    Scenario I requires d_a > lambda/2 and d_e <= lambda/2 (boundary
    inclusive), i.e. lambda in the admissible interval
    [r2*sqrt(8(1-cos(2 pi/U))), r1*sqrt(8(1-cos(2 pi/N)))) = [2*d_e, 2*d_a),
    so the regime is read off the interval; the interval can be empty
    when the two constraints cannot hold together.
    """
    d_a, d_e = adjacent_distances(cfg)
    lam_min, lam_max = 2.0 * d_e, 2.0 * d_a
    scenario = "none" if cfg.wavelength >= lam_max else "I" if cfg.wavelength >= lam_min else "II"
    return ScenarioReport(
        scenario=scenario,
        d_adjacent_uca=d_a,
        d_adjacent_element=d_e,
        wavelength=cfg.wavelength,
        wavelength_min=lam_min,
        wavelength_max=lam_max,
    )
