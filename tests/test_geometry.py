import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from oem_mmwave import OemConfig, adjacent_distances, build_layout, scenario_check
from oem_mmwave.errors import InvalidConfigError
from oem_mmwave.geometry import chord_length

from conftest import WAVELENGTH_35GHZ


def law_of_cosines(r, k):
    # independent oracle for the adjacent-point chord
    return math.sqrt(r * r + r * r - 2 * r * r * math.cos(2 * math.pi / k))


class TestBuildLayout:
    def test_single_element_offset_along_reference_azimuth(self, base_cfg):
        cfg = base_cfg.with_(n_tx=1, m_rx=1, u_elems=1, v_elems=1, r2=0.01)
        layout = build_layout(cfg)
        assert np.allclose(layout.tx_positions[0, 0] - layout.tx_centers[0], [0.01, 0.0, 0.0])

    def test_adjacent_center_distance_four_ucas(self, base_cfg):
        cfg = base_cfg.with_(n_tx=4, r1=1.0)
        layout = build_layout(cfg)
        d = np.linalg.norm(layout.tx_centers[0] - layout.tx_centers[1])
        assert d == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_center_distance_bounds(self, base_cfg):
        layout = build_layout(base_cfg)
        d = layout.center_distances
        lo = base_cfg.link_distance - 2 * base_cfg.r1
        hi = base_cfg.link_distance + 2 * base_cfg.r1
        assert np.all(d >= lo) and np.all(d <= hi)

    def test_element_radii_exact(self, base_cfg):
        layout = build_layout(base_cfg)
        for centers, positions in [
            (layout.tx_centers, layout.tx_positions),
            (layout.rx_centers, layout.rx_positions),
        ]:
            radii = np.linalg.norm(positions - centers[:, None, :], axis=-1)
            assert np.allclose(radii, base_cfg.r2, rtol=1e-12)
        assert np.allclose(np.linalg.norm(layout.tx_centers, axis=1), base_cfg.r1, rtol=1e-12)

    def test_invalid_config_rejected(self, base_cfg):
        with pytest.raises(InvalidConfigError):
            base_cfg.with_(r2=base_cfg.r1 * 2)


class TestAdjacentDistances:
    def test_antipodal(self, base_cfg):
        d_a, _ = adjacent_distances(base_cfg.with_(n_tx=2, r1=1.0))
        assert d_a == pytest.approx(2.0, rel=1e-12)

    def test_hexagon(self, base_cfg):
        d_a, _ = adjacent_distances(base_cfg.with_(n_tx=6, r1=1.0))
        assert d_a == pytest.approx(1.0, rel=1e-12)

    def test_square_elements(self, base_cfg):
        _, d_e = adjacent_distances(base_cfg.with_(u_elems=4, v_elems=4, r2=0.005))
        assert d_e == pytest.approx(0.005 * math.sqrt(2.0), rel=1e-12)

    def test_requires_two_points(self, base_cfg):
        with pytest.raises(InvalidConfigError):
            adjacent_distances(base_cfg.with_(n_tx=1))

    @given(st.integers(2, 200), st.floats(1e-6, 1e3))
    def test_closed_form_equivalence(self, k, r):
        assert chord_length(r, k) == pytest.approx(2 * r * math.sin(math.pi / k), rel=1e-12)
        assert chord_length(r, k) == pytest.approx(law_of_cosines(r, k), rel=1e-12)


class TestScenarioCheck:
    def test_paper_operating_point_is_scenario_one(self, base_cfg):
        cfg = base_cfg.with_(n_tx=8, u_elems=8, v_elems=8, r1=0.1, r2=0.004)
        report = scenario_check(cfg)
        assert report.d_adjacent_uca == pytest.approx(0.0765, abs=1e-4)
        assert report.d_adjacent_element == pytest.approx(0.00306, abs=1e-5)
        assert report.scenario == "I"
        assert report.use_oem

    def test_boundary_element_spacing_counts_as_scenario_one(self, base_cfg):
        cfg = base_cfg.with_(n_tx=8, u_elems=8, v_elems=8)
        _, d_e = adjacent_distances(cfg)
        report = scenario_check(cfg.with_(wavelength=2 * d_e))
        assert report.scenario == "I"

    def test_scenario_two_when_elements_too_sparse(self, base_cfg):
        cfg = base_cfg.with_(n_tx=8, u_elems=8, v_elems=8, wavelength=1e-4)
        report = scenario_check(cfg)
        assert report.scenario == "II"

    def test_conflicting_constraints_give_empty_interval(self):
        # elements 71 mm apart, UCA centers 9.8 mm apart: no wavelength has
        # d_e <= lambda/2 < d_a
        cfg = OemConfig(n_tx=64, m_rx=64, u_elems=4, v_elems=4, r1=0.1, r2=0.05,
                        wavelength=0.01, phi=0.5, phi_c=0.05)
        report = scenario_check(cfg)
        assert report.wavelength_min > report.wavelength_max
        assert report.interval_empty
        assert not report.use_oem

    @given(
        st.floats(1e-3, 1.0),
        st.floats(1e-4, 1e-3),
        st.integers(2, 32),
        st.integers(2, 32),
        st.floats(1e-4, 1.0),
    )
    def test_scenario_one_iff_wavelength_in_interval(self, r1, r2, n, u, lam):
        assume(r2 < r1)
        cfg = OemConfig(
            n_tx=n, m_rx=n, u_elems=u, v_elems=u, r1=r1, r2=r2,
            wavelength=lam, phi=0.5, phi_c=0.05,
        )
        report = scenario_check(cfg)
        inside = report.wavelength_min <= lam < report.wavelength_max
        assert (report.scenario == "I") == inside
