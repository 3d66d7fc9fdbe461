import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from oem_mmwave import OemConfig, build_layout, scenario_check
from oem_mmwave.errors import InvalidConfigError
from oem_mmwave.geometry import chord_length

from conftest import WAVELENGTH_35GHZ
from oracles import layout_3d, uca_placement


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

    def test_matches_the_3d_construction_bytewise(self, base_cfg):
        # in-plane offsets squared with D give the bytes of the norm of
        # 3-D center differences, for N != M and for D far below and far
        # above r1
        rng = np.random.default_rng(28)
        for _ in range(200):
            n, m = (int(k) for k in rng.integers(1, 97, size=2))
            r1 = float(10.0 ** rng.uniform(-3.0, 1.0))
            d = float(10.0 ** rng.uniform(-6.0, 6.0))
            cfg = base_cfg.with_(n_tx=n, m_rx=m, r1=r1, r2=r1 / 10.0, link_distance=d)
            distances, want = build_layout(cfg), layout_3d(cfg)
            assert (distances.dtype, distances.shape) == (want.dtype, want.shape)
            assert distances.tobytes() == want.tobytes()

    @pytest.mark.parametrize("changes, message", [
        # (2 r1)^2 overflowed in the norm, and 1/d of d = inf gave NaN gains
        ({"r1": 1e300}, "r1 must lie in [1e-150, 1e+150] m, got 1e+300"),
        ({"r1": 7e153}, "r1 must lie in [1e-150, 1e+150] m, got 7e+153"),
        ({"link_distance": 1e300}, "link_distance must lie in [1e-150, 1e+150] m, got 1e+300"),
        # D^2 underflowed to 0: coincident UCAs 0 m apart, 1/0 in the gains
        ({"link_distance": 1e-320}, "link_distance must lie in [1e-150, 1e+150] m, got 1e-320"),
    ])
    def test_distances_beyond_the_float_range_rejected_naming_the_field(
            self, base_cfg, changes, message):
        # the config's length rule rejects them, so no layout is built from them
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
            base_cfg.with_(**changes)

    @pytest.mark.parametrize("r1", [math.nextafter(1e-150, 1.0), 1.0, 1e150])
    @pytest.mark.parametrize("d", [1e-150, 1.0, 1e150])
    def test_distances_at_the_corners_of_the_length_box_are_finite_and_normal(
            self, base_cfg, r1, d):
        # inside [1e-150, 1e150] m, (2 r1)^2 + D^2 neither overflows nor leaves
        # the normal floats, so d_mn >= D needs no guard
        cfg = base_cfg.with_(n_tx=7, m_rx=5, r1=r1, r2=1e-150, link_distance=d)
        distances = build_layout(cfg)
        assert np.all(np.isfinite(distances))
        assert np.all(distances >= d * (1.0 - 1e-15))
        assert np.all(distances <= math.hypot(2.0 * r1, d) * (1.0 + 1e-15))

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
    # the spacings come through scenario_check, which carries both
    def test_antipodal(self, base_cfg):
        d_a = scenario_check(base_cfg.with_(n_tx=2, r1=1.0)).d_adjacent_uca
        assert d_a == pytest.approx(2.0, rel=1e-12)

    def test_hexagon(self, base_cfg):
        d_a = scenario_check(base_cfg.with_(n_tx=6, r1=1.0)).d_adjacent_uca
        assert d_a == pytest.approx(1.0, rel=1e-12)

    def test_square_elements(self, base_cfg):
        d_e = scenario_check(base_cfg.with_(u_elems=4, v_elems=4, r2=0.005)).d_adjacent_element
        assert d_e == pytest.approx(0.005 * math.sqrt(2.0), rel=1e-12)

    def test_requires_two_points(self, base_cfg):
        with pytest.raises(InvalidConfigError, match="need N >= 2 and U >= 2, got N=1 U=4"):
            scenario_check(base_cfg.with_(n_tx=1))

    @pytest.mark.parametrize("changes, message", [
        ({"r1": 1e300}, "r1 must lie in [1e-150, 1e+150] m, got 1e+300"),
        ({"r1": 1.5e300, "r2": 1e300},
         "r1 must lie in [1e-150, 1e+150] m, got 1.5e+300; "
         "r2 must lie in [1e-150, 1e+150] m, got 1e+300"),
        ({"r1": 8e153, "r2": 7e153, "n_tx": 64, "u_elems": 2},
         "r1 must lie in [1e-150, 1e+150] m, got 8e+153; "
         "r2 must lie in [1e-150, 1e+150] m, got 7e+153"),
    ])
    def test_spacing_beyond_the_float_range_rejected_naming_the_field(
            self, base_cfg, changes, message):
        # chord_length squares the radius: 2 r^2 (1 - cos(2 pi / k)) leaves
        # the float range above r = 1.3e154, and above 6.7e153 for k = 2; the
        # config's length rule rejects such radii, each one naming its field
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
            base_cfg.with_(**changes)

    @pytest.mark.parametrize("r1, r2", [(1e150, math.nextafter(1e150, 0.0)),
                                        (math.nextafter(1e-150, 1.0), 1e-150)])
    def test_spacings_at_the_corners_of_the_length_box_are_finite(self, base_cfg, r1, r2):
        report = scenario_check(base_cfg.with_(n_tx=2, u_elems=2, v_elems=2, r1=r1, r2=r2))
        assert report.d_adjacent_uca == pytest.approx(2.0 * r1, rel=1e-12)
        assert report.d_adjacent_element == pytest.approx(2.0 * r2, rel=1e-12)

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
        d_e = scenario_check(cfg).d_adjacent_element
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
