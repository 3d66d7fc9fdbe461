import math

import pytest

from oem_mmwave import OemConfig, capacity

SPEED_OF_LIGHT = 299_792_458.0
WAVELENGTH_35GHZ = SPEED_OF_LIGHT / 35e9


@pytest.fixture
def base_cfg():
    """Small 35 GHz link used across the suite."""
    return OemConfig(
        n_tx=2,
        m_rx=3,
        u_elems=4,
        v_elems=8,
        r1=0.1,
        r2=0.004,
        wavelength=WAVELENGTH_35GHZ,
        phi=math.radians(30.0),
        phi_c=math.radians(3.0),
        theta=0.3,
        link_distance=50.0,
        noise_var=0.0,
    )


@pytest.fixture
def drawn(monkeypatch):
    """Shapes of the arrays ``capacity``'s fading draws fill during the test, one per call."""
    shapes = []
    fading_draws = capacity._fading_draws

    def spy(*args, **kwargs):
        draws = fading_draws(*args, **kwargs)
        shapes.append(draws.shape)
        return draws

    monkeypatch.setattr(capacity, "_fading_draws", spy)
    return shapes
