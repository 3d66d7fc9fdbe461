import cmath
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oem_mmwave import (
    ModeChannels,
    bessel_j,
    build_layout,
    build_mode_channels,
    mode_power_profile,
)
from oem_mmwave import channel, geometry, waterfill
from oem_mmwave.channel import VARIANTS, _base_gain, _mode_coefficients
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

    @pytest.mark.parametrize("order", [1.5, 2.0, True, False, "1", None, 1 + 0j])
    def test_order_that_is_not_an_integer_rejected(self, order):
        # J_1.5(1) is 0.2403, but the integer-order integral gave 0.1190
        with pytest.raises(DomainError, match="need an integer order"):
            bessel_j(order, 1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 1j, "1.0", None])
    def test_argument_that_is_not_a_finite_real_rejected(self, x):
        # a NaN raised a raw ValueError from the node count
        with pytest.raises(DomainError, match="finite real x"):
            bessel_j(1, x)

    def test_numpy_scalars_give_the_python_bits(self):
        for order, x in ((0, 0.7), (3, -12.5), (16, 20.0)):
            assert bessel_j(np.int64(order), np.float64(x)) == bessel_j(order, x)


class TestElementGain:
    def test_magnitude_independent_of_element_indices(self, base_cfg):
        mags = {
            abs(element_gain(base_cfg, 0, 0, u, v))
            for u in range(base_cfg.u_elems)
            for v in range(base_cfg.v_elems)
        }
        d = build_layout(base_cfg)[0, 0]
        expected = abs(base_cfg.beta) * base_cfg.wavelength / (
            4 * math.pi * math.sqrt(base_cfg.u_elems) * d
        )
        assert all(m == pytest.approx(expected, rel=1e-12) for m in mags)

    def test_inverse_distance_law(self, base_cfg):
        far_cfg = base_cfg.with_(link_distance=2 * base_cfg.link_distance)
        ratio = abs(element_gain(base_cfg, 0, 0, 0, 0)) / abs(element_gain(far_cfg, 0, 0, 0, 0))
        d_near = build_layout(base_cfg)[0, 0]
        d_far = build_layout(far_cfg)[0, 0]
        assert ratio == pytest.approx(d_far / d_near, rel=1e-12)

    def test_zero_radius_phase(self, base_cfg):
        cfg = base_cfg.with_(r2=1e-15)
        gain = element_gain(cfg, 0, 0, 0, 0)
        d = build_layout(cfg)[0, 0]
        expected_phase = -2 * math.pi * d / cfg.wavelength
        assert math.remainder(math.atan2(gain.imag, gain.real) - expected_phase, 2 * math.pi) == (
            pytest.approx(0.0, abs=1e-6)
        )


class TestModeGain:
    def test_small_divergence_angle_keeps_only_mode_zero(self, base_cfg):
        cfg = base_cfg.with_(phi=1e-9, phi_c=0.0)
        d = build_layout(cfg)[0, 0]
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
        distances = build_layout(cfg)
        mags = {}
        for m in range(3):
            for n in range(3):
                d = round(float(distances[m, n]), 12)
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
            assert cfg.v_elems * ch.matrix[0, 0] == pytest.approx(expected, rel=1e-12)

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

    def test_overflowing_element_phase_rejected_naming_the_wavelength(self, base_cfg):
        # 2 pi / 5e-324 overflows: the exact sum's wavefront phases were
        # NaN, and so were its coefficients, with no warning.  The config's
        # length rule rejects that wavelength; at the corner of the length box
        # the phase 2 pi r2 sin(phi) / wavelength is below 6.3e300
        with pytest.raises(InvalidConfigError, match=re.escape(
                "wavelength must lie in [1e-150, 1e+150] m, got 5e-324")):
            base_cfg.with_(wavelength=5e-324)
        corner = base_cfg.with_(r1=1e150, r2=math.nextafter(1e150, 0.0), wavelength=1e-150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(_mode_coefficients(corner, "exact-sum")))

    def test_overflowing_distance_gain_rejected_naming_beta(self, base_cfg):
        # |beta| * wavelength overflowed in _base_gain, numpy warned "invalid
        # value encountered in divide", and the exit 3 named no field
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigError,
                               match=re.escape("beta=(1e+300+0j) gives a distance gain")):
                base_cfg.with_(beta=1e300 + 0j, wavelength=1e10)

    @pytest.mark.parametrize("beta, wavelength, d", [
        (1e300, 1.0, 1.0),              # largest gain 8e298
        (1e150, 1e150, 1e150),          # |beta| lambda = 1e300
        (1.0, 1e150, 1e-150),           # the widest ratio of two lengths
    ])
    def test_finite_distance_gain_builds_without_warning(self, base_cfg, beta, wavelength, d):
        cfg = base_cfg.with_(beta=beta, wavelength=wavelength, link_distance=d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = build_mode_channels(cfg, "bessel").base
        assert np.all(np.isfinite(base))
        assert np.abs(base).max() <= beta * wavelength / (4.0 * math.pi * d) * (1.0 + 1e-12)


class TestModeChannelImmutable:
    def test_matrix_is_read_only(self, base_cfg):
        channels = build_mode_channels(base_cfg)
        for array in (channels.base, channels.coefficients):
            with pytest.raises(ValueError):
                array[0] = 1.0
        for ch in channels:
            with pytest.raises(ValueError):
                ch.matrix[0, 0] = 1.0

    def test_caller_array_is_copied_and_left_writeable(self):
        base, coefficients = np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([1.0, 0.5])
        channels = ModeChannels(base, coefficients)
        base[0, 0] = 99.0
        coefficients[0] = 99.0
        assert base.flags.writeable and coefficients.flags.writeable
        assert channels.base.dtype == complex and channels.coefficients.dtype == complex
        assert np.array_equal(channels.base, np.diag([2.0, 3.0]))
        assert np.array_equal(channels.coefficients, [1.0, 0.5])
        assert np.array_equal(channels[1].matrix, np.diag([1.0, 1.5]))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (1, 1)])
    def test_arrays_cannot_be_made_writable_again(self, shape):
        # a link whose B or c could be re-flagged and written would keep
        # detecting with the zero-forcing filter cached for its old values:
        # neither array nor any array under it (the base of a view owns
        # its data) is writable, down to the immutable bytes
        base = np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape)
        channels = ModeChannels(base, [1.0, 2.0j])
        for array in (channels.base, channels.coefficients):
            layer = array
            while isinstance(layer, np.ndarray):
                with pytest.raises(ValueError, match="WRITEABLE"):
                    layer.setflags(write=True)
                layer = layer.base
            assert isinstance(layer, bytes)
        assert np.array_equal(channels.base, base)
        assert np.array_equal(channels.coefficients, [1.0, 2.0j])

    def test_compares_and_hashes_by_identity(self):
        a = ModeChannels(np.eye(2), [1.0])
        b = ModeChannels(np.eye(2), [1.0])
        assert a == a
        assert a != b
        assert hash(a) == hash(a)
        assert {a: "a", b: "b"}[a] == "a"


class TestModeChannels:
    @pytest.mark.parametrize("kind", VARIANTS)
    def test_mode_matrix_is_v_times_the_scaled_base(self, base_cfg, kind):
        # mode l's matrix is c_l * B, and the channel dump writes it in the
        # order V * (c_l * B); V = 7 is not a power of two, so the order
        # shows in the bits
        cfg = base_cfg.with_(n_tx=4, m_rx=5, v_elems=7)
        channels = build_mode_channels(cfg, kind)
        base = _base_gain(cfg, build_layout(cfg))
        coefficients = _mode_coefficients(cfg, kind)
        assert len(channels) == cfg.u_elems
        for l, ch in enumerate(channels):
            assert np.array_equal(ch.matrix, coefficients[l] * base)
            assert np.array_equal(cfg.v_elems * ch.matrix, cfg.v_elems * (coefficients[l] * base))

    @pytest.mark.parametrize("base,coefficients", [
        (np.ones(3), [1.0]),
        (np.ones((2, 2)), [[1.0]]),
    ])
    def test_bad_shapes_rejected(self, base, coefficients):
        with pytest.raises(InvalidConfigError, match="shapes"):
            ModeChannels(base, coefficients)

    @pytest.mark.parametrize("base,coefficients", [
        (np.array([[1.0, np.nan]]), [1.0]),
        (np.ones((1, 1)), [1.0, np.inf]),
    ])
    def test_non_finite_factors_rejected(self, base, coefficients):
        with pytest.raises(InvalidConfigError, match="non-finite"):
            ModeChannels(base, coefficients)

    def test_iteration_stops_after_the_last_mode(self):
        channels = ModeChannels(np.eye(2), [1.0, 2.0])
        assert [ch.matrix[0, 0] for ch in channels] == [1.0, 2.0]
        with pytest.raises(IndexError):
            channels[2]


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

    def test_overflowing_power_ratio_rejected_naming_the_gains(self, base_cfg):
        # |c_1 / c_0| is about 1e302: its square overflowed in the profile
        cfg = base_cfg.with_(conv_gains=(1e-300, 180.0, 1.0, 1.0))
        with pytest.raises(InvalidConfigError, match=re.escape("conv_gains give mode power")):
            mode_power_profile(cfg, "convergent")
        # the Bessel model ignores the gains
        assert mode_power_profile(cfg, "bessel")[0] == 1.0

    def test_largest_finite_power_ratio_accepted(self, base_cfg):
        cfg = base_cfg.with_(conv_gains=(1.0, 1.0, 1.0, 1.0))
        bessel = mode_power_profile(cfg, "convergent")
        top = 1e150 / math.sqrt(bessel[1])
        profile = mode_power_profile(cfg.with_(conv_gains=(1.0, top, 1.0, 1.0)), "convergent")
        assert math.isfinite(profile[1]) and profile[1] > 1e299

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


class TestBesselRange:
    """A Bessel model whose orders 0..U-1 or argument lie outside
    ``bessel_j``'s range rejects the config, naming U or the argument and
    the model, before any Bessel value or layout is computed."""

    @pytest.fixture
    def computed(self, monkeypatch):
        calls = []
        evaluate, layout = channel.bessel_j, channel.build_layout
        monkeypatch.setattr(channel, "bessel_j", lambda l, x: calls.append(l) or evaluate(l, x))
        monkeypatch.setattr(channel, "build_layout",
                            lambda cfg: calls.append("layout") or layout(cfg))
        return calls

    @pytest.mark.parametrize("build", [build_mode_channels, mode_power_profile])
    @pytest.mark.parametrize("kind", ["bessel", "convergent"])
    def test_order_past_64_rejected_naming_u(self, base_cfg, build, kind, computed):
        cfg = base_cfg.with_(u_elems=128, v_elems=128)
        with pytest.raises(InvalidConfigError, match=(
                f"^the {kind} model needs J_l\\(x\\) for l < U=128 at x = .*:"
                " order 127 exceeds the supported maximum 64$")):
            build(cfg, kind)
        assert computed == []
        # orders 0..64 are supported
        build(base_cfg.with_(u_elems=65, v_elems=65), kind)
        assert computed[:65] == list(range(65))

    @pytest.mark.parametrize("build", [build_mode_channels, mode_power_profile])
    def test_argument_past_1e3_rejected_naming_it(self, base_cfg, build, computed):
        # x = 2 pi r2 sin(30 deg) / lambda = 500 pi at phi; 26.2 at phi_c = 3 deg
        cfg = base_cfg.with_(r1=1.0, r2=0.5, wavelength=1e-3)
        with pytest.raises(InvalidConfigError, match=re.escape(
                "the bessel model needs J_l(x) for l < U=4 at x = 2 pi r2 sin(phi) / wavelength:"
                " |x| = 1570.79")):
            build(cfg, "bessel")
        assert computed == []
        build(cfg, "convergent")
        assert computed[:4] == list(range(4))

    def test_exact_sum_needs_no_bessel_value(self, base_cfg, computed):
        cfg = base_cfg.with_(u_elems=128, v_elems=128, r1=1.0, r2=0.5, wavelength=1e-3)
        assert mode_power_profile(cfg, "exact-sum").shape == (128,)
        assert computed == []


class TestSizeCap:
    # every array a channel build makes holds at most waterfill.MAX_DRAWS
    # values; the cap is lowered here, the real sizes are never run
    def test_layout_cap_is_inclusive(self, base_cfg, monkeypatch):
        cfg = base_cfg.with_(n_tx=4, m_rx=5)  # three (5, 4) arrays: dx, dy and d
        monkeypatch.setattr(waterfill, "MAX_DRAWS", 60)
        assert build_layout(cfg).shape == (5, 4)

        class NoArrays:
            # geometry's numpy: its first array call, or any other, fails
            def __getattr__(self, name):
                raise AssertionError("placed the UCAs of an oversized link")

        monkeypatch.setattr(waterfill, "MAX_DRAWS", 59)
        monkeypatch.setattr(geometry, "np", NoArrays())
        with pytest.raises(InvalidConfigError, match="N=4 transmit and M=5 receive UCAs need 60"):
            build_mode_channels(cfg)

    def test_exact_sum_cap_is_inclusive(self, base_cfg, monkeypatch):
        cfg = base_cfg.with_(n_tx=1, m_rx=1)  # U = 4: 4 x 4 phase tables
        monkeypatch.setattr(waterfill, "MAX_DRAWS", 16)
        assert len(build_mode_channels(cfg, "exact-sum")) == 4
        monkeypatch.setattr(waterfill, "MAX_DRAWS", 15)
        for build in (build_mode_channels, mode_power_profile):
            with pytest.raises(InvalidConfigError, match="U=4 elements needs 16"):
                build(cfg, "exact-sum")
        # the Bessel forms build no U x U table
        assert len(build_mode_channels(cfg, "bessel")) == 4
