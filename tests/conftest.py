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
    """Shapes of the unit draws ``capacity`` makes during the test, in order."""
    shapes = []
    unit_draws = capacity._unit_draws

    def spy(*args, **kwargs):
        units = unit_draws(*args, **kwargs)
        shapes.append(units.shape)
        return units

    monkeypatch.setattr(capacity, "_unit_draws", spy)
    return shapes
