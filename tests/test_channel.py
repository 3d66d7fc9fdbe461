import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from oem_mmwave import (
    ModeChannel,
    bessel_j,
    build_layout,
    build_mode_channels,
    mode_power_profile,
)
from oem_mmwave import channel
from oem_mmwave.channel import VARIANTS
from oem_mmwave.errors import DomainError, InvalidConfigError
from oracles import element_gain, mode_gain


def bessel_series(order, x, terms=60):
    """Independent power-series oracle: sum_k (-1)^k (x/2)^(2k+order) / (k! (k+order)!).

    Evaluated in exact rational arithmetic; plain floats lose ~7 digits
    to cancellation near |x| = 20.
    """
    half = Fraction(x) / 2
    total = Fraction(0)
    for k in range(terms):
        total += (-1) ** k * half ** (2 * k + order) / (
            math.factorial(k) * math.factorial(k + order)
        )
    return float(total)


class TestBesselJ:
    def test_j0_at_origin(self):
        assert bessel_j(0, 0.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("order", range(1, 8))
    def test_higher_orders_vanish_at_origin(self, order):
        assert bessel_j(order, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_first_zero_of_j0(self):
        assert abs(bessel_j(0, 2.40483)) < 1e-5

    def test_matches_series_oracle(self):
        for order in range(17):
            for x in np.linspace(-20.0, 20.0, 41):
                assert abs(bessel_j(order, float(x)) - bessel_series(order, float(x))) < 1e-10

    def test_small_argument_law(self):
        for order in range(5):
            for x in (0.005, 0.02, 0.09):
                leading = (x / 2.0) ** order / math.factorial(order)
                assert bessel_j(order, x) == pytest.approx(leading, rel=1e-2)

    def test_domain_limits(self):
        with pytest.raises(DomainError):
            bessel_j(65, 1.0)
        with pytest.raises(DomainError):
            bessel_j(0, 2e3)
        with pytest.raises(DomainError):
            bessel_j(-1, 1.0)


class TestElementGain:
    def test_magnitude_independent_of_element_indices(self, base_cfg):
        layout = build_layout(base_cfg)
        mags = {
            abs(element_gain(base_cfg, layout, 0, 0, u, v))
            for u in range(base_cfg.u_elems)
            for v in range(base_cfg.v_elems)
        }
        d = layout.center_distances[0, 0]
        expected = abs(base_cfg.beta) * base_cfg.wavelength / (
            4 * math.pi * math.sqrt(base_cfg.u_elems) * d
        )
        assert all(m == pytest.approx(expected, rel=1e-12) for m in mags)

    def test_inverse_distance_law(self, base_cfg):
        near = build_layout(base_cfg)
        far = build_layout(base_cfg.with_(link_distance=2 * base_cfg.link_distance))
        ratio = abs(element_gain(base_cfg, near, 0, 0, 0, 0)) / abs(
            element_gain(base_cfg.with_(link_distance=2 * base_cfg.link_distance), far, 0, 0, 0, 0)
        )
        d_near = near.center_distances[0, 0]
        d_far = far.center_distances[0, 0]
        assert ratio == pytest.approx(d_far / d_near, rel=1e-12)

    def test_zero_radius_phase(self, base_cfg):
        cfg = base_cfg.with_(r2=1e-15)
        layout = build_layout(cfg)
        gain = element_gain(cfg, layout, 0, 0, 0, 0)
        d = layout.center_distances[0, 0]
        expected_phase = -2 * math.pi * d / cfg.wavelength
        assert math.remainder(math.atan2(gain.imag, gain.real) - expected_phase, 2 * math.pi) == (
            pytest.approx(0.0, abs=1e-6)
        )


class TestModeGain:
    def test_small_divergence_angle_keeps_only_mode_zero(self, base_cfg):
        cfg = base_cfg.with_(phi=1e-9, phi_c=0.0)
        d = build_layout(cfg).center_distances[0, 0]
        expected = abs(cfg.beta) * cfg.wavelength * math.sqrt(cfg.u_elems) / (4 * math.pi * d)
        assert abs(mode_gain(cfg, 0, 0, 0, "bessel")) == pytest.approx(expected, rel=1e-9)
        for l in range(1, cfg.u_elems):
            assert abs(mode_gain(cfg, 0, 0, l, "bessel")) < 1e-8 * expected

    def test_exact_sum_approaches_bessel(self, base_cfg):
        for l in range(5):
            errors = []
            for u in (16, 32, 64):
                cfg = base_cfg.with_(u_elems=u, v_elems=u)
                exact = mode_gain(cfg, 0, 1, l, "exact-sum")
                closed = mode_gain(cfg, 0, 1, l, "bessel")
                errors.append(abs(exact - closed) / abs(closed))
            assert errors[-1] < 0.01

    def test_convergent_with_unit_gains_reduces_to_bessel(self, base_cfg):
        cfg = base_cfg.with_(phi_c=base_cfg.phi, conv_gains=(1.0,) * base_cfg.u_elems)
        for l in range(cfg.u_elems):
            assert mode_gain(cfg, 0, 1, l, "convergent") == mode_gain(cfg, 0, 1, l, "bessel")

    def test_magnitude_decreases_with_mode_order(self, base_cfg):
        # keep the phase argument below the first crossover of the mode
        # amplitudes so the ordering is strict
        cfg = base_cfg.with_(r2=0.001)
        mags = [abs(mode_gain(cfg, 0, 1, l, "bessel")) for l in range(4)]
        assert all(a >= b for a, b in zip(mags, mags[1:]))

    def test_magnitude_depends_only_on_center_distance(self, base_cfg):
        cfg = base_cfg.with_(n_tx=3, m_rx=3)
        layout = build_layout(cfg)
        mags = {}
        for m in range(3):
            for n in range(3):
                d = round(float(layout.center_distances[m, n]), 12)
                mags.setdefault(d, set()).add(round(abs(mode_gain(cfg, m, n, 1, "bessel")), 15))
        assert all(len(v) == 1 for v in mags.values())

    def test_mode_index_bounds(self, base_cfg):
        with pytest.raises(DomainError):
            mode_gain(base_cfg, 0, 0, base_cfg.u_elems, "bessel")


class TestBuildModeChannels:
    def test_single_link_matrix(self, base_cfg):
        cfg = base_cfg.with_(n_tx=1, m_rx=1)
        channels = build_mode_channels(cfg, "bessel")
        assert len(channels) == cfg.u_elems
        for l, ch in enumerate(channels):
            assert ch.matrix.shape == (1, 1)
            expected = cfg.v_elems * mode_gain(cfg, 0, 0, l, "bessel")
            assert ch.matrix[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_equal_distances_give_equal_magnitudes(self, base_cfg):
        # two antipodal transmit UCAs seen from two antipodal receive UCAs:
        # all four center distances coincide
        cfg = base_cfg.with_(n_tx=2, m_rx=2)
        for ch in build_mode_channels(cfg, "bessel"):
            mags = np.abs(ch.matrix)
            off = np.array([[mags[0, 1], mags[1, 0]]])
            diag = np.array([[mags[0, 0], mags[1, 1]]])
            assert np.allclose(diag, diag[0, 0], rtol=1e-12)
            assert np.allclose(off, off[0, 0], rtol=1e-12)


    def test_unknown_variant_rejected(self, base_cfg):
        with pytest.raises(InvalidConfigError, match="unknown channel variant"):
            build_mode_channels(base_cfg, "bad")


class TestModeChannelImmutable:
    def test_matrix_is_read_only(self, base_cfg):
        for ch in build_mode_channels(base_cfg):
            with pytest.raises(ValueError):
                ch.matrix[0, 0] = 1.0

    def test_caller_array_is_copied_and_left_writeable(self):
        source = np.array([[2.0, 0.0], [0.0, 3.0]])
        ch = ModeChannel(matrix=source)
        source[0, 0] = 99.0
        assert source.flags.writeable
        assert ch.matrix.dtype == complex
        assert np.array_equal(ch.matrix, np.diag([2.0, 3.0]))

    def test_zf_solution_is_read_only(self, base_cfg):
        zf_filter, noise_gains = build_mode_channels(base_cfg)[0].zf_solution
        assert not zf_filter.flags.writeable
        assert not noise_gains.flags.writeable

    def test_compares_and_hashes_by_identity(self):
        a = ModeChannel(matrix=np.eye(2))
        b = ModeChannel(matrix=np.eye(2))
        assert a == a
        assert a != b
        assert hash(a) == hash(a)
        assert {a: "a", b: "b"}[a] == "a"
        # the cached filter still lands on the frozen instance
        assert a.zf_solution is a.zf_solution


def mode_ratio_oracle(cfg, kind, l):
    """c_l / c_0 of one variant, written out from the model's formulas.

    exact-sum: the element sum over psi_u = 2 pi u / U of the ramp
    exp(j l psi_u) times the wavefront exp(j 2 pi r2 sin(phi) cos(psi_u -
    theta) / lambda).  bessel and convergent: A_l exp(j l theta) j^l
    J_l(x) / (A_0 J_0(x)), with the series oracle for J and the
    configured gains A.
    """
    if kind == "exact-sum":
        def element_sum(order):
            total = 0j
            for u in range(cfg.u_elems):
                psi = 2 * math.pi * u / cfg.u_elems
                total += cmath.exp(1j * (order * psi + 2 * math.pi / cfg.wavelength * cfg.r2
                                         * math.sin(cfg.phi) * math.cos(psi - cfg.theta)))
            return total
        return element_sum(l) / element_sum(0)
    angle = cfg.phi if kind == "bessel" else cfg.phi_c
    amps = np.ones(cfg.u_elems) if kind == "bessel" else cfg.conv_gains
    x = 2 * math.pi * cfg.r2 * math.sin(angle) / cfg.wavelength
    return (amps[l] * cmath.exp(1j * l * cfg.theta) * 1j ** l * bessel_series(l, x)
            / (amps[0] * bessel_series(0, x)))


class TestRankOneModes:
    @pytest.mark.parametrize("kind", VARIANTS)
    def test_every_mode_is_a_multiple_of_mode_zero(self, base_cfg, kind):
        cfg = base_cfg.with_(n_tx=3, m_rx=4, conv_gains=(1.0, 0.5, 2.0, 3.0))
        channels = build_mode_channels(cfg, kind)
        h0 = channels[0].matrix
        for l, ch in enumerate(channels):
            expected = mode_ratio_oracle(cfg, kind, l) * h0
            assert np.max(np.abs(ch.matrix - expected)) <= 1e-12 * np.max(np.abs(ch.matrix))

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_profile_is_the_squared_norm_ratio_of_the_channels(self, base_cfg, kind):
        channels = build_mode_channels(base_cfg, kind)
        norms = np.array([np.linalg.norm(ch.matrix) ** 2 for ch in channels])
        assert np.allclose(mode_power_profile(base_cfg, kind), norms / norms[0],
                           rtol=1e-12, atol=0.0)

    def test_vanishing_mode_zero_rejected(self, base_cfg):
        cfg = base_cfg.with_(conv_gains=(0.0, 1.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            mode_power_profile(cfg, "convergent")


class TestConvergenceGains:
    def test_default_gains_equalize_modes(self, base_cfg):
        profile = mode_power_profile(base_cfg, "convergent")
        assert profile[0] == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(profile, 1.0, rtol=1e-9)

    def test_explicit_gains_override_default(self, base_cfg):
        # profile |A_l J_l(x) / (A_0 J_0(x))|^2 of the configured gains A,
        # with the series oracle for J at the convergent angle
        cfg = base_cfg.with_(conv_gains=(1.0, 2.0, 3.0, 4.0))
        expected = [abs(mode_ratio_oracle(cfg, "convergent", l)) ** 2 for l in range(cfg.u_elems)]
        assert np.allclose(mode_power_profile(cfg, "convergent"), expected, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("build", [build_mode_channels, mode_power_profile])
    def test_each_bessel_value_is_computed_once(self, base_cfg, build, monkeypatch):
        # the default gains and the coefficients share the U values J_l
        calls = []
        evaluate = channel.bessel_j
        monkeypatch.setattr(channel, "bessel_j", lambda l, x: calls.append(l) or evaluate(l, x))
        build(base_cfg, "convergent")
        assert calls == list(range(base_cfg.u_elems))

    def test_nonconvergent_profile_follows_bessel_decay(self, base_cfg):
        profile = mode_power_profile(base_cfg, "bessel")
        arg = 2 * math.pi * base_cfg.r2 * math.sin(base_cfg.phi) / base_cfg.wavelength
        expected = np.array(
            [bessel_series(l, arg) ** 2 for l in range(base_cfg.u_elems)]
        )
        expected /= expected[0]
        assert np.allclose(profile, expected, rtol=1e-9)
