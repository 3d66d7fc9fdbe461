import cmath
import math

import pytest
from hypothesis import given, strategies as st

from oem_mmwave import DishDesign, PatchSpec, design_dish, design_patch, feed_impedance
from oem_mmwave.antenna import wall_impedance
from oem_mmwave.errors import InvalidConfigError

from conftest import WAVELENGTH_35GHZ

REFERENCE_SPEC = dict(wavelength=WAVELENGTH_35GHZ, eps_r=2.2, thickness=0.245e-3)


class TestDesignPatch:
    def test_width_golden(self):
        design = design_patch(PatchSpec(**REFERENCE_SPEC))
        assert design.width * 1e3 == pytest.approx(3.386, abs=1e-3)
        # frozen first-run regression value
        assert design.width == pytest.approx(3.385810687929882e-3, rel=1e-12)

    def test_eps_eff_golden(self):
        design = design_patch(PatchSpec(**REFERENCE_SPEC))
        assert design.eps_eff == pytest.approx(2.039, abs=1e-3)
        assert design.eps_eff == pytest.approx(2.0389595387486525, rel=1e-12)

    def test_air_substrate_limit(self):
        design = design_patch(PatchSpec(wavelength=0.01, eps_r=1.0 + 1e-9, thickness=1e-6))
        assert design.width == pytest.approx(0.005, rel=1e-6)
        assert design.eps_eff == pytest.approx(1.0, abs=1e-6)

    def test_design_invariants(self):
        design = design_patch(PatchSpec(**REFERENCE_SPEC))
        assert 0 < design.feed_offset < design.length < design.guide_wavelength
        assert 1 < design.eps_eff < REFERENCE_SPEC["eps_r"]
        assert design.gap_correction > 0
        assert 0 < design.feed_offset < design.length / 2  # holds whenever xi_re > 1

    def test_too_thick_substrate_rejected(self):
        with pytest.raises(InvalidConfigError):
            design_patch(PatchSpec(wavelength=1e-3, eps_r=2.2, thickness=5e-3))

    def test_vanishing_thickness_rejected_naming_it(self):
        # W/T overflows to inf, so the gap and the resonant length are NaN
        with pytest.raises(InvalidConfigError, match="thickness"):
            design_patch(PatchSpec(wavelength=WAVELENGTH_35GHZ, eps_r=2.2, thickness=1e-323))

    @given(st.floats(0.1, 10.0))
    def test_scale_covariance(self, c):
        a = design_patch(PatchSpec(**REFERENCE_SPEC))
        b = design_patch(
            PatchSpec(
                wavelength=REFERENCE_SPEC["wavelength"] * c,
                eps_r=REFERENCE_SPEC["eps_r"],
                thickness=REFERENCE_SPEC["thickness"] * c,
            )
        )
        for name in ("width", "guide_wavelength", "length", "gap_correction", "feed_offset"):
            assert getattr(b, name) == pytest.approx(c * getattr(a, name), rel=1e-12)
        assert b.eps_eff == pytest.approx(a.eps_eff, rel=1e-12)
        assert b.xi_re == pytest.approx(a.xi_re, rel=1e-12)


class TestFeedImpedance:
    def test_finite_with_real_part_at_design_inset(self):
        spec = PatchSpec(**REFERENCE_SPEC)
        design = design_patch(spec)
        zin = feed_impedance(spec, design, design.feed_offset)
        assert cmath.isfinite(zin)
        assert zin.real > 0

    def test_wall_impedance_matches_independent_evaluation(self):
        spec = PatchSpec(**REFERENCE_SPEC)
        design = design_patch(spec)
        # independent re-evaluation of the radiating-wall formula
        lam, t = spec.wavelength, spec.thickness
        g = 0.00836 * design.width / lam
        b = 0.01668 * design.gap_correction * design.width * design.eps_eff / (t * lam)
        expected = 1.0 / complex(g, b)
        assert wall_impedance(spec, design) == pytest.approx(expected, rel=1e-12)

    def test_center_feed_is_symmetric(self):
        spec = PatchSpec(**REFERENCE_SPEC)
        design = design_patch(spec)
        mid = design.length / 2
        eps = design.length / 10
        left = feed_impedance(spec, design, mid - eps)
        right = feed_impedance(spec, design, mid + eps)
        assert left == pytest.approx(right, rel=1e-10)

    def test_offset_outside_patch_rejected(self):
        spec = PatchSpec(**REFERENCE_SPEC)
        design = design_patch(spec)
        with pytest.raises(InvalidConfigError):
            feed_impedance(spec, design, design.length * 1.5)


class TestDesignDish:
    def test_paper_golden(self):
        design = design_dish(36.0, 0.5, 0.4, WAVELENGTH_35GHZ)
        assert design.diameter * 1e3 == pytest.approx(121.6, abs=0.1)
        assert design.focal_length == pytest.approx(0.4 * design.diameter, rel=1e-15)

    def test_unity_gain_efficiency(self):
        design = design_dish(0.0, 1.0, 0.4, 0.01)
        assert design.diameter == pytest.approx(0.01 / math.pi, rel=1e-12)

    def test_rim_depth(self):
        design = design_dish(36.0, 0.5, 0.4, WAVELENGTH_35GHZ)
        depth = design.depth_at(design.diameter / 2, 0.0)
        assert depth == pytest.approx(design.diameter / (16 * design.kappa), rel=1e-12)

    def test_monotone_in_gain_and_efficiency(self):
        base = design_dish(36.0, 0.5, 0.4, WAVELENGTH_35GHZ)
        assert design_dish(37.0, 0.5, 0.4, WAVELENGTH_35GHZ).diameter > base.diameter
        assert design_dish(36.0, 0.6, 0.4, WAVELENGTH_35GHZ).diameter > base.diameter

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gain_db=-1.0),
            dict(efficiency=0.0),
            dict(efficiency=1.5),
            dict(kappa=0.2),
            dict(kappa=0.6),
            dict(wavelength=-1.0),
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs):
        args = dict(gain_db=36.0, efficiency=0.5, kappa=0.4, wavelength=WAVELENGTH_35GHZ)
        args.update(kwargs)
        with pytest.raises(InvalidConfigError):
            design_dish(**args)
