import gc
import math
import re
import sys
import threading
import weakref

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
from oem_mmwave.capacity import instantaneous_se
from oem_mmwave.transceiver import DecomposedSignal, _zf_weights
from oem_mmwave.errors import InvalidConfigError, RankDeficientError
from oem_mmwave.waterfill import waterfill_instantaneous

from oracles import link_block_oracle, zf_qr_oracle


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

    @pytest.mark.parametrize("noise_seed", [0, 42, 2**63 - 1])
    def test_noise_adds_as_the_two_part_sums(self, base_cfg, noise_seed):
        # one add over the interleaved (M, V, 2) view gives the bits of
        # out.real += noise[0]; out.imag += noise[1], here with M=3 != V=8
        cfg = base_cfg.with_(noise_var=0.5)
        assert cfg.m_rx != cfg.v_elems
        channels = build_mode_channels(cfg)
        s = random_symbols(cfg, seed=5)
        expected = propagate(s, channels, cfg.with_(noise_var=0.0))
        noise = np.random.default_rng(noise_seed).standard_normal((2, cfg.m_rx, cfg.v_elems))
        noise *= math.sqrt(cfg.noise_var / 2.0)
        expected.real += noise[0]
        expected.imag += noise[1]
        got = propagate(s, channels, cfg, noise_seed)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

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

    @pytest.mark.parametrize("noiseless", [True, False])
    @pytest.mark.parametrize("seed", [True, False, 1.5, np.float64(2.0), "7", None])
    def test_non_integer_noise_seed_rejected(self, base_cfg, noiseless, seed):
        cfg = base_cfg if noiseless else base_cfg.with_(noise_var=0.5)
        with pytest.raises(InvalidConfigError,
                           match=f"^noise_seed must be an integer, got {re.escape(repr(seed))}$"):
            propagate(random_symbols(cfg), build_mode_channels(cfg), cfg, noise_seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(42), np.uint64(42), np.int8(42)])
    def test_numpy_integer_noise_seed_is_its_int(self, base_cfg, seed):
        cfg = base_cfg.with_(noise_var=0.5)
        channels, s = build_mode_channels(cfg), random_symbols(cfg)
        assert np.array_equal(propagate(s, channels, cfg, noise_seed=seed),
                              propagate(s, channels, cfg, noise_seed=42))

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

    @pytest.mark.parametrize("noise_var", [True, False, "1.0", 1j, None, np.array([1.0])])
    def test_noise_variance_that_is_not_a_real_number_rejected(self, noise_var):
        # a bool was taken as 0 or 1, and a string or None raised a raw TypeError
        with pytest.raises(InvalidConfigError, match="noise_var_per_mode must be a finite real"):
            DecomposedSignal(values=np.zeros((2, 1), dtype=complex),
                             noise_var_per_mode=noise_var, v_elems=1)

    @pytest.mark.parametrize("noise_var", [0, 3, 0.5, np.float32(0.5), np.int64(2)])
    def test_real_noise_variance_of_any_number_type_accepted(self, noise_var):
        dec = DecomposedSignal(values=np.zeros((2, 1), dtype=complex),
                               noise_var_per_mode=noise_var, v_elems=1)
        assert dec.noise_var_per_mode is noise_var

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

    def test_decomposition_is_the_public_constructors_signal(self, base_cfg):
        # decompose_modes keeps its product without a copy, read-only, with
        # the fields the public constructor would give it
        cfg = base_cfg.with_(noise_var=0.25)
        received = propagate(random_symbols(cfg), build_mode_channels(cfg), cfg, noise_seed=9)
        dec = decompose_modes(received, cfg)
        proj = np.exp(-2j * np.pi * np.outer(np.arange(cfg.v_elems), np.arange(cfg.u_elems))
                      / cfg.v_elems)
        public = DecomposedSignal(values=received @ proj,
                                  noise_var_per_mode=cfg.v_elems * cfg.noise_var,
                                  v_elems=cfg.v_elems)
        assert type(dec) is DecomposedSignal
        assert not dec.values.flags.writeable
        assert dec.values.dtype == public.values.dtype and dec.values.shape == public.values.shape
        assert dec.values.tobytes() == public.values.tobytes()
        assert (dec.noise_var_per_mode, dec.v_elems) == (public.noise_var_per_mode,
                                                         public.v_elems)
        assert not np.shares_memory(dec.values, received)
        assert received.flags.writeable

    def test_decomposition_rejects_an_overflowing_mode_noise(self, base_cfg):
        # V * noise_var = 8 * 1e308 leaves the float range
        cfg = base_cfg.with_(noise_var=1e308)
        with pytest.raises(InvalidConfigError, match="noise_var_per_mode must be finite"):
            decompose_modes(np.zeros((cfg.m_rx, cfg.v_elems), dtype=complex), cfg)

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
        zf_filter, _ = TestZfCache.svd_solution(channels.base)
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

    @staticmethod
    def counted_factorizations(monkeypatch):
        """Calls of ``np.linalg.svd`` and ``np.linalg.inv`` from now on, by name."""
        calls = {"svd": 0, "inv": 0}

        def counting(name):
            original = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        return calls

    def test_second_call_makes_no_second_factorization(self, base_cfg, monkeypatch):
        # the blocks cycle four (V, noise level) keys of one link: each
        # key's first call factorizes B once, every later call not at all
        channels, blocks = self.blocks(base_cfg, 16)
        calls = self.counted_factorizations(monkeypatch)
        before = _zf_weights.cache_info()
        seen = set()
        for dec in blocks:
            seen.add((dec.v_elems, dec.noise_var_per_mode))
            first_est, first_grid = zf_detect(dec, channels)
            second_est, second_grid = zf_detect(dec, channels)
            assert calls == {"svd": len(seen), "inv": 0}
            assert np.array_equal(first_est, second_est)
            assert second_grid is first_grid
        after = _zf_weights.cache_info()
        assert len(seen) == 4
        assert (after.hits - before.hits, after.misses - before.misses) == (28, 4)

    @pytest.mark.parametrize("base, svds", [(np.ones((2, 2)), 1), (np.ones((1, 2)), 0)])
    def test_rank_deficient_raises_on_every_call(self, base, svds, monkeypatch):
        # a rank-one B is factorized and rejected anew on each call; M < N
        # is rejected before any SVD
        channels = ModeChannels(base, [1.0])
        dec = DecomposedSignal(values=np.zeros((base.shape[0], 1), dtype=complex),
                               noise_var_per_mode=1.0, v_elems=1)
        calls = self.counted_factorizations(monkeypatch)
        for call in range(1, 4):
            with pytest.raises(RankDeficientError):
                zf_detect(dec, channels)
            assert calls == {"svd": call * svds, "inv": 0}

    @staticmethod
    def svd_solution(base):
        """The zero-forcing filter and noise gains of B, written out from its thin SVD."""
        left, svals, right_h = np.linalg.svd(base, full_matrices=False)
        scaled = right_h.conj().T / svals
        return scaled @ left.conj().T, np.sum(np.abs(scaled) ** 2, axis=1)

    @staticmethod
    def uncached(dec, channels):
        """zf_detect's estimates and weights, by its formula from the SVD solution."""
        zf_filter, noise_gains = TestZfCache.svd_solution(channels.base)
        mode_gains = dec.v_elems * channels.coefficients
        sigma2 = dec.noise_var_per_mode if dec.noise_var_per_mode > 0.0 else 1.0
        return ((zf_filter @ dec.values) / mode_gains,
                np.abs(mode_gains) ** 2 / (sigma2 * noise_gains[:, None]))

    @staticmethod
    def blocks(base_cfg, count, noise_vars=(1e-7, 0.0)):
        """Decomposed blocks of the 1 m link, cycling V in (4, 8) and ``noise_vars``."""
        rng = np.random.default_rng(11)
        cfg = base_cfg.with_(n_tx=16, m_rx=16, u_elems=4, v_elems=4, link_distance=1.0)
        channels = build_mode_channels(cfg, "convergent")
        out = []
        for i in range(count):
            block = cfg.with_(v_elems=(4, 8)[i // 2 % 2], noise_var=noise_vars[i % len(noise_vars)])
            received = propagate(random_symbols(block, seed=i), channels, block,
                                 noise_seed=int(rng.integers(2**63)))
            out.append(decompose_modes(received, block))
        return channels, out

    def test_blocks_match_the_uncached_formula_bitwise(self, base_cfg):
        # noisy and noise-free blocks in turn under V = 4 and V = 8; the
        # noise-free weights are reported per unit mode-noise variance
        channels, blocks = self.blocks(base_cfg, 40)
        assert {(d.v_elems, d.noise_var_per_mode > 0.0) for d in blocks} == {
            (4, True), (4, False), (8, True), (8, False)}
        for dec in blocks:
            est, grid = zf_detect(dec, channels)
            oracle_est, oracle_weights = self.uncached(dec, channels)
            assert np.array_equal(est, oracle_est)
            assert np.array_equal(grid.values, oracle_weights)

    def test_weights_are_read_only(self, base_cfg):
        channels, blocks = self.blocks(base_cfg, 2, noise_vars=(1e-7,))
        _, grid = zf_detect(blocks[0], channels)
        before = grid.values.copy()
        assert not grid.values.flags.writeable
        with pytest.raises(ValueError):
            grid.values[0, 0] = 0.0
        with pytest.raises(ValueError):
            grid.values *= 2.0
        _, again = zf_detect(blocks[0], channels)
        assert np.array_equal(again.values, before)
        assert np.array_equal(again.values, self.uncached(blocks[0], channels)[1])

    def test_filter_gains_and_grid_are_read_only(self, base_cfg):
        channels, dec = self.near_field_link(base_cfg)
        zf_filter, mode_gains, grid = _zf_weights(channels, dec.v_elems, dec.noise_var_per_mode)
        for array in (zf_filter, mode_gains, grid.values):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert zf_filter.shape == channels.base.shape[::-1]
        assert np.array_equal(mode_gains, dec.v_elems * channels.coefficients)

    def test_dead_mode_raises_on_every_call_without_a_factorization(self, base_cfg,
                                                                     monkeypatch):
        cfg = base_cfg.with_(n_tx=16, m_rx=16, u_elems=4, v_elems=4, link_distance=1.0,
                             noise_var=1e-7, conv_gains=(1.0, 1.0, 0.0, 1.0))
        channels = build_mode_channels(cfg, "convergent")
        dec = decompose_modes(propagate(random_symbols(cfg), channels, cfg, noise_seed=2), cfg)
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a))
        for _ in range(3):
            with pytest.raises(RankDeficientError, match="^mode 2 gain vanished$"):
                zf_detect(dec, channels)
        assert calls == []

    def test_noise_sweep_keeps_the_cache_within_its_limit(self, base_cfg):
        noise_vars = tuple(np.geomspace(1e-9, 1e-5, 100))
        channels, blocks = self.blocks(base_cfg, 200, noise_vars=noise_vars)
        for dec in blocks:
            est, grid = zf_detect(dec, channels)
            assert _zf_weights.cache_info().currsize <= 8
            oracle_est, oracle_weights = self.uncached(dec, channels)
            assert np.array_equal(est, oracle_est)
            assert np.array_equal(grid.values, oracle_weights)
        assert _zf_weights.cache_info().currsize == _zf_weights.cache_info().maxsize == 8

    def test_cache_keeps_eight_links_and_releases_evicted_ones(self, base_cfg, monkeypatch):
        channels, dec = self.near_field_link(base_cfg)
        links = [ModeChannels(channels.base, channels.coefficients) for _ in range(9)]
        first = weakref.ref(links[0])
        svds = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            svds.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        before = _zf_weights.cache_info()
        expected = [zf_detect(dec, link) for link in links]
        assert _zf_weights.cache_info().currsize == 8
        assert len(svds) == 9
        # each link was evicted by the one detected after it in the first
        # pass, or by the one before it in this one: every call misses,
        # factorizes its link again and gives the same bytes
        for link, (want_est, want_grid) in zip(links, expected):
            est, grid = zf_detect(dec, link)
            assert np.array_equal(est, want_est)
            assert np.array_equal(grid.values, want_grid.values)
        after = _zf_weights.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (0, 18)
        assert len(svds) == 18
        del links[0]
        gc.collect()
        assert first() is None

    def test_concurrent_callers_give_the_serial_results(self, base_cfg):
        # four threads on one link, over more keys than the cache keeps,
        # switching threads every microsecond
        noise_vars = (1e-7, 0.0, 3e-6, 2e-9, 5e-8)
        channels, blocks = self.blocks(base_cfg, 60, noise_vars=noise_vars)
        serial_channels = ModeChannels(channels.base, channels.coefficients)
        expected = [zf_detect(dec, serial_channels) for dec in blocks]
        got = [[None] * len(blocks) for _ in range(4)]

        def run(caller):
            for i in range(len(blocks)):
                j = (i + 15 * caller) % len(blocks)
                got[caller][j] = zf_detect(blocks[j], channels)

        callers = [threading.Thread(target=run, args=(c,)) for c in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for results in got:
            for (est, grid), (want_est, want_grid) in zip(results, expected):
                assert np.array_equal(est, want_est)
                assert np.array_equal(grid.values, want_grid.values)
        assert _zf_weights.cache_info().currsize <= 8

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
        cfg, channels = self.link(base_cfg, distance)
        oracle_filter, oracle_gains = zf_qr_oracle(channels.base)
        sigma2 = 1e-7
        zf_filter, mode_gains, grid = _zf_weights(channels, cfg.v_elems, sigma2)
        oracle_weights = np.abs(mode_gains) ** 2 / (sigma2 * oracle_gains[:, None])
        assert np.max(np.abs(grid.values - oracle_weights) / oracle_weights) <= 1e-6
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


def block_link(base_cfg):
    """The 1 m 16x16 U=V=4 link of the benchmark's link blocks, its channels and budget."""
    cfg = base_cfg.with_(n_tx=16, m_rx=16, u_elems=4, v_elems=4, theta=0.0,
                         link_distance=1.0, noise_var=1e-7)
    return cfg, build_mode_channels(cfg, "convergent"), float(cfg.n_tx * cfg.u_elems)


def qpsk_blocks(cfg, count, seed=3):
    """(symbols, noise seed) of ``count`` blocks of unit-power QPSK symbols."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(count):
        bits = rng.integers(0, 2, size=(2, cfg.n_tx, cfg.u_elems))
        symbols = ((2 * bits[0] - 1) + 1j * (2 * bits[1] - 1)) / math.sqrt(2.0)
        blocks.append((symbols, int(rng.integers(2**63))))
    return blocks


def run_block(symbols, channels, cfg, noise_seed, budget):
    """One link block, keyed as ``link_block_oracle`` keys its results."""
    received = propagate(symbols, channels, cfg, noise_seed)
    decomposed = decompose_modes(received, cfg)
    estimates, weights = zf_detect(decomposed, channels)
    policy = waterfill_instantaneous(weights, budget)
    return {
        "elements": synthesize_elements(symbols, cfg),
        "received": received,
        "estimates": estimates,
        "allocations": policy.allocations,
        "water_level": policy.water_level,
        "se": instantaneous_se(weights, policy),
    }, decomposed, weights


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLinkBlockBitwise:
    def test_blocks_match_the_new_array_expressions(self, base_cfg):
        # every in-place step gives the bits of the expression it replaced
        cfg, channels, budget = block_link(base_cfg)
        for symbols, noise_seed in qpsk_blocks(cfg, 200):
            got, _, _ = run_block(symbols, channels, cfg, noise_seed, budget)
            want = link_block_oracle(symbols, channels, cfg, noise_seed, budget)
            assert got.keys() == want.keys()
            for key in want:
                assert same_bits(got[key], want[key]), key


class TestSharedArrays:
    """A block writes into no array it is given or that a link shares."""

    def test_waterfill_leaves_the_shared_grid_alone(self, base_cfg):
        cfg, channels, budget = block_link(base_cfg)
        symbols, noise_seed = qpsk_blocks(cfg, 1)[0]
        _, weights = zf_detect(decompose_modes(propagate(symbols, channels, cfg, noise_seed),
                                               cfg), channels)
        before = weights.values.copy()
        assert not weights.values.flags.writeable
        policy = waterfill_instantaneous(weights, budget)
        assert same_bits(weights.values, before)
        assert policy.allocations.flags.writeable
        assert not np.shares_memory(policy.allocations, weights.values)
        policy.allocations[:] = -1.0
        assert same_bits(weights.values, before)
        assert same_bits(waterfill_instantaneous(weights, budget).allocations,
                         waterfill_instantaneous(before, budget).allocations)

    def test_block_leaves_its_inputs_alone(self, base_cfg):
        cfg, channels, budget = block_link(base_cfg)
        base, coefficients = channels.base.copy(), channels.coefficients.copy()
        for symbols, noise_seed in qpsk_blocks(cfg, 8):
            kept = symbols.copy()
            synthesize_elements(symbols, cfg)
            received = propagate(symbols, channels, cfg, noise_seed)
            decomposed = decompose_modes(received, cfg)
            values = decomposed.values.copy()
            estimates, weights = zf_detect(decomposed, channels)
            instantaneous_se(weights, waterfill_instantaneous(weights, budget))
            assert same_bits(symbols, kept)
            assert same_bits(decomposed.values, values)
            assert not np.shares_memory(estimates, decomposed.values)
            assert not np.shares_memory(received, decomposed.values)
        assert same_bits(channels.base, base)
        assert same_bits(channels.coefficients, coefficients)

    def test_four_threads_on_one_grid_give_the_serial_results(self, base_cfg):
        # one read-only grid, as zf_detect hands every block of a link,
        # water-filled by four threads switching every microsecond
        cfg, channels, budget = block_link(base_cfg)
        symbols, noise_seed = qpsk_blocks(cfg, 1)[0]
        _, weights = zf_detect(decompose_modes(propagate(symbols, channels, cfg, noise_seed),
                                               cfg), channels)
        budgets = [budget * 2.0 ** k for k in range(-20, 21)]

        def solve(total_power):
            policy = waterfill_instantaneous(weights, total_power)
            return policy.allocations.copy(), policy.water_level

        expected = [solve(b) for b in budgets]
        got = [[None] * len(budgets) for _ in range(4)]

        def run(caller):
            for i in range(len(budgets)):
                j = (i + 10 * caller) % len(budgets)
                got[caller][j] = solve(budgets[j])

        callers = [threading.Thread(target=run, args=(c,)) for c in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for results in got:
            for (allocations, water), (want, want_water) in zip(results, expected):
                assert same_bits(allocations, want)
                assert water == want_water
