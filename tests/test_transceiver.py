import math

import numpy as np
import pytest

from oem_mmwave import (
    ModeChannels,
    build_mode_channels,
    decompose_modes,
    mode_power_profile,
    propagate,
    synthesize_elements,
    zf_detect,
)
from oem_mmwave.channel import VARIANTS
from oem_mmwave.transceiver import DecomposedSignal
from oem_mmwave.errors import InvalidConfigError, RankDeficientError

from oracles import zf_qr_oracle


def random_symbols(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((cfg.n_tx, cfg.u_elems)) + 1j * rng.standard_normal(
        (cfg.n_tx, cfg.u_elems)
    )


class TestSynthesize:
    def test_single_zero_mode_is_constant(self, base_cfg):
        s = np.zeros((base_cfg.n_tx, base_cfg.u_elems), dtype=complex)
        s[0, 0] = 1.0
        x = synthesize_elements(s, base_cfg)
        assert np.allclose(x[0], 1.0 / math.sqrt(base_cfg.u_elems))

    def test_single_mode_is_unit_modulus_ramp(self, base_cfg):
        l = 2
        s = np.zeros((base_cfg.n_tx, base_cfg.u_elems), dtype=complex)
        s[1, l] = 1.0
        x = synthesize_elements(s, base_cfg)
        u = base_cfg.u_elems
        assert np.allclose(np.abs(x[1]), 1.0 / math.sqrt(u))
        phases = np.angle(x[1])
        expected = 2 * np.pi * np.arange(u) * l / u
        assert np.allclose(np.exp(1j * phases), np.exp(1j * expected))

    def test_adjoint_recovers_symbols(self, base_cfg):
        s = random_symbols(base_cfg)
        x = synthesize_elements(s, base_cfg)
        u = base_cfg.u_elems
        adjoint = np.exp(-2j * np.pi * np.outer(np.arange(u), np.arange(u)) / u)
        recovered = x @ adjoint / math.sqrt(u)
        assert np.allclose(recovered, s, atol=1e-12)

    def test_shape_mismatch_rejected(self, base_cfg):
        # propagate shares the symbols check and its message
        channels = build_mode_channels(base_cfg)
        for call in (lambda s: synthesize_elements(s, base_cfg),
                     lambda s: propagate(s, channels, base_cfg)):
            with pytest.raises(InvalidConfigError,
                               match=r"^symbols must be \(N, U\) = \(2, 4\), got \(1, 1\)$"):
                call(np.zeros((1, 1)))


class TestPropagate:
    def test_zero_symbols_noiseless_gives_zero(self, base_cfg):
        channels = build_mode_channels(base_cfg)
        y = propagate(np.zeros((base_cfg.n_tx, base_cfg.u_elems)), channels, base_cfg)
        assert np.all(y == 0)

    def test_single_active_pair(self, base_cfg):
        channels = build_mode_channels(base_cfg)
        n, l = 1, 2
        s = np.zeros((base_cfg.n_tx, base_cfg.u_elems), dtype=complex)
        s[n, l] = 0.7 - 0.3j
        y = propagate(s, channels, base_cfg)
        v = base_cfg.v_elems
        h = channels[l].matrix[:, n]
        expected = np.outer(h * s[n, l], np.exp(2j * np.pi * np.arange(v) * l / v))
        assert np.allclose(y, expected, rtol=1e-12)

    def test_noise_is_deterministic_per_seed(self, base_cfg):
        cfg = base_cfg.with_(noise_var=0.5)
        channels = build_mode_channels(cfg)
        s = random_symbols(cfg)
        a = propagate(s, channels, cfg, noise_seed=42)
        b = propagate(s, channels, cfg, noise_seed=42)
        c = propagate(s, channels, cfg, noise_seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_noise_is_two_consecutive_standard_normal_draws(self, base_cfg):
        # the seeded noise stream stays the one of two (M, V) draws, real then imaginary
        cfg = base_cfg.with_(noise_var=0.5)
        y = propagate(np.zeros((cfg.n_tx, cfg.u_elems)), build_mode_channels(cfg), cfg,
                      noise_seed=42)
        rng = np.random.default_rng(42)
        re = rng.standard_normal((cfg.m_rx, cfg.v_elems))
        im = rng.standard_normal((cfg.m_rx, cfg.v_elems))
        assert np.array_equal(y, math.sqrt(0.5 / 2.0) * (re + 1j * im))

    def test_channel_row_count_must_match_config(self, base_cfg):
        channels = build_mode_channels(base_cfg.with_(m_rx=base_cfg.m_rx + 1))
        with pytest.raises(InvalidConfigError):
            propagate(random_symbols(base_cfg), channels, base_cfg)

    def test_one_channel_per_mode_needed(self, base_cfg):
        channels = build_mode_channels(base_cfg.with_(u_elems=3))
        with pytest.raises(InvalidConfigError, match=r"^need one channel per mode 0\.\.3$"):
            propagate(random_symbols(base_cfg), channels, base_cfg)

    def test_channel_column_count_must_match_config(self, base_cfg):
        cfg = base_cfg.with_(n_tx=4, m_rx=4)
        channels = build_mode_channels(cfg.with_(n_tx=5))
        with pytest.raises(InvalidConfigError, match=r"\(M, N\) = \(4, 4\), got \(4, 5\)"):
            propagate(random_symbols(cfg), channels, cfg)

    @pytest.mark.parametrize("noiseless", [True, False])
    def test_negative_noise_seed_rejected(self, base_cfg, noiseless):
        cfg = base_cfg if noiseless else base_cfg.with_(noise_var=0.5)
        with pytest.raises(InvalidConfigError, match="^noise_seed must be nonnegative, got -1$"):
            propagate(random_symbols(cfg), build_mode_channels(cfg), cfg, noise_seed=-1)

    def test_linearity(self, base_cfg):
        channels = build_mode_channels(base_cfg)
        s1, s2 = random_symbols(base_cfg, 1), random_symbols(base_cfg, 2)
        lhs = propagate(s1 + 2 * s2, channels, base_cfg)
        rhs = propagate(s1, channels, base_cfg) + 2 * propagate(s2, channels, base_cfg)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestDecompose:
    def test_mode_isolation(self, base_cfg):
        cfg = base_cfg.with_(n_tx=1, m_rx=1, u_elems=8, v_elems=8)
        channels = build_mode_channels(cfg)
        s = np.zeros((1, 8), dtype=complex)
        s[0, 2] = 1.5 + 0.5j
        y = propagate(s, channels, cfg)
        dec = decompose_modes(y, cfg)
        signal = cfg.v_elems * channels[2].matrix[0, 0] * s[0, 2]
        assert dec.values[0, 2] == pytest.approx(signal, rel=1e-10)
        assert abs(dec.values[0, 3]) < 1e-10 * abs(signal)

    def test_cross_mode_leakage_negligible(self, base_cfg):
        channels = build_mode_channels(base_cfg)
        for l in range(base_cfg.u_elems):
            s = np.zeros((base_cfg.n_tx, base_cfg.u_elems), dtype=complex)
            s[:, l] = 1.0
            dec = decompose_modes(propagate(s, channels, base_cfg), base_cfg)
            power = np.abs(dec.values) ** 2
            signal = power[:, l].sum()
            leakage = power.sum() - signal
            assert leakage < 1e-20 * signal

    def test_mode_zero_is_plain_sum(self, base_cfg):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((base_cfg.m_rx, base_cfg.v_elems)) * (1 + 0j)
        dec = decompose_modes(y, base_cfg)
        assert np.allclose(dec.values[:, 0], y.sum(axis=1))

    def test_observation_shape_must_match_config(self, base_cfg):
        with pytest.raises(InvalidConfigError,
                           match=r"^observation must be \(M, V\) = \(3, 8\), got \(3, 7\)$"):
            decompose_modes(np.zeros((3, 7), dtype=complex), base_cfg)

    def test_noise_variance_scales_with_element_count(self, base_cfg):
        cfg = base_cfg.with_(n_tx=1, m_rx=1, noise_var=1.0)
        channels = build_mode_channels(cfg)
        zeros = np.zeros((1, cfg.u_elems))
        n_seeds = 10_000
        acc = np.zeros(cfg.u_elems)
        for seed in range(n_seeds):
            dec = decompose_modes(propagate(zeros, channels, cfg, noise_seed=seed), cfg)
            acc += np.abs(dec.values[0]) ** 2
        variances = acc / n_seeds
        assert dec.noise_var_per_mode == cfg.v_elems * cfg.noise_var
        assert np.allclose(variances, cfg.v_elems * cfg.noise_var, rtol=0.05)


class TestDecomposedSignal:
    @pytest.mark.parametrize("noise_var", [-1.0, math.nan, math.inf])
    def test_bad_noise_variance_rejected(self, noise_var):
        # a negative or NaN variance would give the noiseless weights
        with pytest.raises(InvalidConfigError, match="noise_var_per_mode"):
            DecomposedSignal(values=np.zeros((2, 1), dtype=complex),
                             noise_var_per_mode=noise_var, v_elems=1)

    @pytest.mark.parametrize("v_elems", [0, -4, 2.0, True])
    def test_bad_element_count_rejected(self, v_elems):
        # zf_detect divides by V times the mode coefficients
        with pytest.raises(InvalidConfigError, match="v_elems must be a positive integer"):
            DecomposedSignal(values=np.zeros((2, 1), dtype=complex), noise_var_per_mode=1.0,
                             v_elems=v_elems)

    @pytest.mark.parametrize("shape", [(2,), (2, 1, 1)])
    def test_values_must_be_two_dimensional(self, shape):
        with pytest.raises(InvalidConfigError, match=r"must be \(M, U\)"):
            DecomposedSignal(values=np.zeros(shape, dtype=complex), noise_var_per_mode=1.0,
                             v_elems=1)

    def test_values_are_read_only(self, base_cfg):
        dec = decompose_modes(propagate(random_symbols(base_cfg), build_mode_channels(base_cfg),
                                        base_cfg), base_cfg)
        with pytest.raises(ValueError):
            dec.values[0, 0] = 1.0

    def test_caller_array_is_copied_and_left_writeable(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        dec = DecomposedSignal(values=values, noise_var_per_mode=1.0, v_elems=1)
        values[0, 0] = 99.0
        assert values.flags.writeable
        assert dec.values.dtype == complex
        assert np.array_equal(dec.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_compares_and_hashes_by_identity(self):
        a = DecomposedSignal(np.zeros((2, 2)), 0.0, 1)
        b = DecomposedSignal(np.zeros((2, 2)), 0.0, 1)
        assert a == a
        assert a != b
        assert hash(a) == hash(a)
        assert {a: "a", b: "b"}[a] == "a"


class TestZfDetect:
    def test_identity_channel_passthrough(self, base_cfg):
        cfg = base_cfg.with_(n_tx=2, m_rx=2)
        channels = ModeChannels(np.eye(2), np.ones(cfg.u_elems))
        values = np.arange(2 * cfg.u_elems, dtype=complex).reshape(2, cfg.u_elems)
        dec = DecomposedSignal(values=values, noise_var_per_mode=0.0, v_elems=1)
        est, _ = zf_detect(dec, channels)
        assert np.allclose(est, values)

    def test_diagonal_channel_snr_weights(self):
        a, b = 3.0, 0.5
        channels = ModeChannels(np.diag([a, b]), [1.0])
        dec = DecomposedSignal(values=np.zeros((2, 1), dtype=complex), noise_var_per_mode=2.0,
                               v_elems=1)
        _, grid = zf_detect(dec, channels)
        assert grid.values[0, 0] == pytest.approx(a * a / 2.0, rel=1e-12)
        assert grid.values[1, 0] == pytest.approx(b * b / 2.0, rel=1e-12)

    def test_rank_deficient_rejected(self):
        # a rank-one B fails the whole link, not one mode
        channels = ModeChannels(np.ones((2, 2)), [1.0, 2.0])
        dec = DecomposedSignal(values=np.zeros((2, 2), dtype=complex), noise_var_per_mode=1.0,
                               v_elems=1)
        with pytest.raises(RankDeficientError, match="^channel matrix is rank deficient"):
            zf_detect(dec, channels)

    def test_mode_weights_scale_by_the_mode_power_profile(self, base_cfg):
        # every mode matrix is c_l times one base matrix, so each stream's
        # mode-l weight is its mode-0 weight times |c_l / c_0|^2
        cfg = base_cfg.with_(n_tx=4, m_rx=4, u_elems=4, v_elems=4,
                             link_distance=1.0, noise_var=1e-7)
        channels = build_mode_channels(cfg, "bessel")
        received = propagate(random_symbols(cfg), channels, cfg, noise_seed=3)
        _, grid = zf_detect(decompose_modes(received, cfg), channels)
        profile = mode_power_profile(cfg, "bessel")
        for l in range(cfg.u_elems):
            assert np.allclose(grid.values[:, l] / grid.values[:, 0], profile[l],
                               rtol=1e-9, atol=0.0)

    def test_channel_count_must_match_modes(self, base_cfg):
        channels, dec = TestZfCache.near_field_link(base_cfg)
        c = channels.coefficients
        for wrong in (c[:2], np.concatenate([c, c[:1]])):
            with pytest.raises(InvalidConfigError, match="one channel per mode"):
                zf_detect(dec, ModeChannels(channels.base, wrong))

    def test_signal_row_count_must_match_channels(self, base_cfg):
        channels, dec = TestZfCache.near_field_link(base_cfg)
        extra_row = DecomposedSignal(values=np.vstack([dec.values, dec.values[:1]]),
                                     noise_var_per_mode=dec.noise_var_per_mode,
                                     v_elems=dec.v_elems)
        with pytest.raises(InvalidConfigError, match="17 receive UCAs.*M=16"):
            zf_detect(extra_row, channels)

    def test_mode_is_the_list_position(self, base_cfg):
        # mode l is position l of the coefficients: a repeated coefficient
        # detects column 1 exactly as mode 0 would
        channels, dec = TestZfCache.near_field_link(base_cfg)
        c = channels.coefficients
        repeated = ModeChannels(channels.base, [c[0], c[0], c[2], c[3]])
        est, grid = zf_detect(dec, repeated)
        zf_filter, _ = channels.zf_solution
        mode_0 = (zf_filter @ dec.values) / (dec.v_elems * c[0])
        assert np.array_equal(est[:, 1], mode_0[:, 1])
        assert np.array_equal(grid.values[:, 1], grid.values[:, 0])

    def test_rank_deficient_error_names_the_mode(self):
        channels = ModeChannels(np.eye(2), [1.0, 0.0])
        dec = DecomposedSignal(values=np.zeros((2, 2), dtype=complex), noise_var_per_mode=1.0,
                               v_elems=1)
        with pytest.raises(RankDeficientError, match="mode 1"):
            zf_detect(dec, channels)

    def test_dead_mode_rejected_before_any_division(self, base_cfg, monkeypatch):
        # the suite turns a 0/0 RuntimeWarning into an error, so reaching
        # the SVD of a zero mode matrix would fail differently
        cfg = base_cfg.with_(n_tx=16, m_rx=16, u_elems=4, v_elems=4, link_distance=1.0,
                             noise_var=1e-7, conv_gains=(1.0, 0.0, 1.0, 1.0))
        channels = build_mode_channels(cfg, "convergent")
        dec = decompose_modes(propagate(random_symbols(cfg), channels, cfg, noise_seed=2), cfg)

        def unexpected(*args, **kwargs):
            raise AssertionError("factorized a link with a dead mode")

        monkeypatch.setattr(np.linalg, "svd", unexpected)
        with pytest.raises(RankDeficientError, match="^mode 1 gain vanished$"):
            zf_detect(dec, channels)

    def test_more_streams_than_antennas_rejected(self):
        channels = ModeChannels(np.ones((1, 2)), [1.0])
        dec = DecomposedSignal(values=np.zeros((1, 1), dtype=complex), noise_var_per_mode=1.0,
                               v_elems=1)
        with pytest.raises(RankDeficientError):
            zf_detect(dec, channels)


class TestZfCache:
    @staticmethod
    def near_field_link(base_cfg):
        """The 1 m 16x16 U=V=4 link, where the mode matrices are well conditioned."""
        cfg = base_cfg.with_(n_tx=16, m_rx=16, u_elems=4, v_elems=4,
                             link_distance=1.0, noise_var=1e-7)
        channels = build_mode_channels(cfg, "convergent")
        received = propagate(random_symbols(cfg, seed=4), channels, cfg, noise_seed=9)
        return channels, decompose_modes(received, cfg)

    def test_second_call_makes_no_second_factorization(self, base_cfg, monkeypatch):
        channels, dec = self.near_field_link(base_cfg)
        calls = {"svd": 0, "inv": 0}

        def counting(name):
            original = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        first_est, first_grid = zf_detect(dec, channels)
        assert calls == {"svd": 1, "inv": 0}
        second_est, second_grid = zf_detect(dec, channels)
        assert calls == {"svd": 1, "inv": 0}
        assert np.array_equal(first_est, second_est)
        assert np.array_equal(first_grid.values, second_grid.values)

    def test_rank_deficient_raises_on_every_call(self):
        channels = ModeChannels(np.ones((2, 2)), [1.0])
        dec = DecomposedSignal(values=np.zeros((2, 1), dtype=complex), noise_var_per_mode=1.0,
                               v_elems=1)
        for _ in range(3):
            with pytest.raises(RankDeficientError):
                zf_detect(dec, channels)

    def test_matches_pseudo_inverse_oracle(self, base_cfg):
        # pinv(H) = (H^H H)^{-1} H^H, and pinv(H) pinv(H)^H = (H^H H)^{-1},
        # so the noise gains are the squared row norms of pinv(H)
        channels, dec = self.near_field_link(base_cfg)
        zf_detect(dec, channels)
        est, grid = zf_detect(dec, channels)
        for l, ch in enumerate(channels):
            y = dec.values[:, l]
            h = dec.v_elems * ch.matrix  # the decomposed mode-l matrix V * (c_l * B)
            oracle_est = np.linalg.lstsq(h, y, rcond=None)[0]
            assert np.allclose(est[:, l], oracle_est,
                               rtol=0.0, atol=1e-12 * np.abs(oracle_est).max())
            pinv = np.linalg.pinv(h)
            oracle_weights = 1.0 / (dec.noise_var_per_mode * np.sum(np.abs(pinv) ** 2, axis=1))
            assert np.allclose(grid.values[:, l], oracle_weights, rtol=1e-12, atol=0.0)


class TestZfConditioning:
    """The 16x16 U=V=4 link of the README geometry as D grows: cond(B) is
    about 2.5e3 at 3 m, 1.4e5 at 5 m and 5.4e7 at 10 m, inside the
    ten-decade rank gate, so detection must hold to about cond(B) * eps."""

    @staticmethod
    def link(base_cfg, distance):
        cfg = base_cfg.with_(n_tx=16, m_rx=16, u_elems=4, v_elems=4, link_distance=distance)
        return cfg, build_mode_channels(cfg, "convergent")

    @pytest.mark.parametrize("distance", [3.0, 5.0, 10.0])
    def test_noise_free_chain_recovers_symbols(self, base_cfg, distance):
        cfg, channels = self.link(base_cfg, distance)
        s = random_symbols(cfg, seed=5)
        est, _ = zf_detect(decompose_modes(propagate(s, channels, cfg), cfg), channels)
        assert np.max(np.abs(est - s)) <= 1e-6 * np.max(np.abs(s))

    @pytest.mark.parametrize("distance", [3.0, 5.0, 10.0])
    def test_solution_matches_qr_oracle(self, base_cfg, distance):
        _, channels = self.link(base_cfg, distance)
        oracle_filter, oracle_gains = zf_qr_oracle(channels.base)
        zf_filter, noise_gains = channels.zf_solution
        assert np.max(np.abs(noise_gains - oracle_gains) / oracle_gains) <= 1e-6
        assert np.max(np.abs(zf_filter - oracle_filter)) <= 1e-6 * np.max(np.abs(oracle_filter))


class TestEndToEnd:
    @pytest.mark.parametrize("n,m,u,v", [(1, 1, 1, 1), (2, 2, 2, 4), (2, 3, 4, 8), (3, 3, 8, 8)])
    def test_noiseless_recovery(self, base_cfg, n, m, u, v):
        cfg = base_cfg.with_(n_tx=n, m_rx=m, u_elems=u, v_elems=v)
        channels = build_mode_channels(cfg, "convergent")
        s = random_symbols(cfg, seed=n * 100 + u)
        est, _ = zf_detect(decompose_modes(propagate(s, channels, cfg), cfg), channels)
        assert np.allclose(est, s, rtol=1e-9, atol=1e-12 * np.abs(s).max())

    def test_channels_do_not_depend_on_v(self, base_cfg):
        # V enters only through the decomposition: channels built for V=8
        # are the V=4 link's channels, and detect a V=4 chain exactly
        cfg4 = base_cfg.with_(v_elems=4)
        for kind in VARIANTS:
            ch4, ch8 = build_mode_channels(cfg4, kind), build_mode_channels(base_cfg, kind)
            assert np.array_equal(ch4.base, ch8.base)
            assert np.array_equal(ch4.coefficients, ch8.coefficients)
        s = random_symbols(cfg4)
        dec = decompose_modes(propagate(s, build_mode_channels(cfg4), cfg4), cfg4)
        est, _ = zf_detect(dec, build_mode_channels(base_cfg))
        assert np.max(np.abs(est - s)) <= 1e-9 * np.max(np.abs(s))

    def test_array_gain_factor(self, base_cfg):
        # decomposition multiplies signal amplitude by V and noise variance
        # by V: per-mode SNR gain of exactly V over one element
        cfg = base_cfg.with_(n_tx=1, m_rx=1, noise_var=1.0)
        channels = build_mode_channels(cfg)
        s = np.zeros((1, cfg.u_elems), dtype=complex)
        s[0, 0] = 1.0
        y = propagate(s, channels, cfg.with_(noise_var=0.0))
        dec = decompose_modes(y, cfg)
        element_snr = np.abs(y[0, 0]) ** 2 / cfg.noise_var
        mode_snr = np.abs(dec.values[0, 0]) ** 2 / dec.noise_var_per_mode
        assert mode_snr == pytest.approx(cfg.v_elems * element_snr, rel=1e-9)
