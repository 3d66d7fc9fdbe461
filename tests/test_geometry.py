import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from oem_mmwave import OemConfig, adjacent_distances, build_layout, scenario_check
from oem_mmwave.errors import InvalidConfigError
from oem_mmwave.geometry import chord_length

from conftest import WAVELENGTH_35GHZ
from oracles import uca_placement


def law_of_cosines(r, k):
    # independent oracle for the adjacent-point chord
    return math.sqrt(r * r + r * r - 2 * r * r * math.cos(2 * math.pi / k))


class TestBuildLayout:
    @pytest.mark.parametrize("n,m,d", [(64, 64, 100.0), (3, 5, 1.0), (7, 4, 50.0)])
    def test_center_distances_closed_form(self, base_cfg, n, m, d):
        # centers 2 pi n / N and 2 pi m / M apart on radius-r1 circles a
        # distance D apart: d_mn^2 = D^2 + 2 r1^2 (1 - cos(2 pi (m/M - n/N)))
        cfg = base_cfg.with_(n_tx=n, m_rx=m, link_distance=d)
        r1 = cfg.r1
        expected = np.array([
            [math.sqrt(d * d + 2 * r1 * r1 * (1 - math.cos(2 * math.pi * (mm / m - nn / n))))
             for nn in range(n)]
            for mm in range(m)
        ])
        distances = build_layout(cfg)
        assert distances.shape == (m, n)
        assert np.allclose(distances, expected, rtol=1e-12, atol=0.0)

    def test_single_element_offset_along_reference_azimuth(self, base_cfg):
        cfg = base_cfg.with_(n_tx=1, m_rx=1, u_elems=1, v_elems=1, r2=0.01)
        center, elements = uca_placement(cfg, False, 0)
        assert np.allclose(elements[0] - center, [0.01, 0.0, 0.0])

    def test_adjacent_center_distance_four_ucas(self, base_cfg):
        # receive UCA 1 sits a quarter turn from transmit UCA 0: the
        # transverse chord is sqrt(2) r1
        cfg = base_cfg.with_(n_tx=4, m_rx=4, r1=1.0, link_distance=1.0)
        d = build_layout(cfg)[1, 0]
        assert math.sqrt(d * d - 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_center_distance_bounds(self, base_cfg):
        d = build_layout(base_cfg)
        lo = base_cfg.link_distance - 2 * base_cfg.r1
        hi = base_cfg.link_distance + 2 * base_cfg.r1
        assert np.all(d >= lo) and np.all(d <= hi)

    def test_element_radii_exact(self, base_cfg):
        for receive, count in [(False, base_cfg.n_tx), (True, base_cfg.m_rx)]:
            for k in range(count):
                center, elements = uca_placement(base_cfg, receive, k)
                radii = np.linalg.norm(elements - center, axis=-1)
                assert np.allclose(radii, base_cfg.r2, rtol=1e-12)

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
