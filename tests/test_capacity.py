import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oem_mmwave import (
    OemConfig,
    PowerPolicy,
    ergodic_se_mimo,
    ergodic_se_oem,
    instantaneous_se,
    sweep,
    waterfill_ergodic,
    waterfill_instantaneous,
)
from oem_mmwave import capacity, waterfill
from oem_mmwave.capacity import MAX_SNR_DB
from oem_mmwave.errors import InvalidConfigError
from oem_mmwave.waterfill import LN2, _water_levels, sample_snr_realizations

from conftest import WAVELENGTH_35GHZ


def link(n, m, u):
    """N x M link with U modes; only the counts matter to the estimators."""
    return OemConfig(n_tx=n, m_rx=m, u_elems=u, v_elems=u, r1=0.1, r2=0.004,
                     wavelength=WAVELENGTH_35GHZ, phi=math.radians(30.0),
                     phi_c=math.radians(3.0))


def mean_grid(snr_db, profile, n_streams):
    """Mean SNR matrix (streams, modes): the linear SNR times each mode's gain."""
    return 10.0 ** (snr_db / 10.0) * np.tile(profile, (n_streams, 1))


def literal_se(means, total_power, trials, seed):
    """Ergodic SE by the literal formulas: the rule's multiplier from
    ``waterfill_ergodic``, then log2(1 + max(0, w - 1/gamma) * gamma)
    averaged over the stage-1 draws."""
    mu, _ = waterfill_ergodic(means, total_power, samples=trials, seed=seed)
    water = 1.0 / (mu * LN2)
    gammas = sample_snr_realizations(means.flatten(order="F"), trials, seed, stage=1)
    with np.errstate(divide="ignore"):
        per_trial = np.log2(1.0 + np.maximum(water - 1.0 / gammas, 0.0) * gammas).sum(axis=1)
    return float(per_trial.mean()), float(per_trial.std(ddof=1) / math.sqrt(trials))


def gained_draws(gains, trials, seed, stage):
    """(K, T) draws u*g: row k is the unit exponentials of the generator
    keyed (seed, stage, k), times g_k."""
    units = np.array([np.random.default_rng([seed, stage, k]).standard_exponential(trials)
                      for k in range(gains.size)])
    return units * gains[:, None]


def whole_array_sums(draws, waters):
    """Per-trial rate sums, one row per water level w~, over all (K, T) draws at once.

    L = log2(u*g) is taken over the whole array, and each level's rates
    max(0, L + log2 w~) are summed with one ``sum(axis=0)``.
    """
    with np.errstate(divide="ignore"):
        logs = np.log2(draws)
    return np.array([
        np.maximum(logs + (math.log2(w) if w > 0.0 else -math.inf), 0.0).sum(axis=0)
        for w in waters
    ])


def whole_array_curve(gains, budget, snr_db_list, trials, seed):
    """(SE, stderr) per point of one pattern: the stage-0 levels, then ``whole_array_sums``."""
    scales = [10.0 ** (snr_db / 10.0) for snr_db in snr_db_list]
    draws = gained_draws(gains, trials, seed, stage=0)
    waters = _water_levels(draws, [s * (trials * budget) for s in scales])
    draws = gained_draws(gains, trials, seed, stage=1)
    return [(float(per_trial.mean()), float(per_trial.std(ddof=1) / math.sqrt(trials)))
            for per_trial in whole_array_sums(draws, waters)]


class TestInstantaneousSe:
    def test_single_channel(self):
        policy = waterfill_instantaneous(np.array([3.0]), 1.0)
        assert instantaneous_se(np.array([3.0]), policy) == pytest.approx(2.0)

    def test_outage_gives_zero(self):
        policy = waterfill_instantaneous(np.zeros(3), 1.0)
        assert instantaneous_se(np.zeros(3), policy) == 0.0

    def test_two_channel_value(self):
        gamma = np.array([4.0, 1.0])
        policy = waterfill_instantaneous(gamma, 1.0)
        expected = math.log2(4.5) + math.log2(1.125)
        assert instantaneous_se(gamma, policy) == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(2.3399, abs=1e-4)

    def test_overflowing_rate_is_the_sum_of_logs(self):
        # P * gamma = 1e600 overflowed to an SE of inf, with a RuntimeWarning,
        # which the suite turns into an error
        gamma = np.array([1e300])
        policy = waterfill_instantaneous(gamma, 1e300)
        assert policy.allocations.ravel().tolist() == [1e300]
        se = instantaneous_se(gamma, policy)
        assert se == float(2.0 * np.log2(gamma)[0])
        assert se == pytest.approx(1993.16, abs=0.01)

    def test_overflow_takes_only_the_overflowing_channels(self):
        # the largest P and the largest gamma would overflow together, but
        # no product does: every rate is the plain expression's.  Then one
        # product overflows, and only its rate changes
        gamma = np.array([[1e300], [1.0], [0.0]])
        policy = PowerPolicy(np.array([[1.0], [1e300], [5.0]]), water_level=2e300,
                             total_power=1e300)
        plain = np.log2(policy.allocations * gamma + 1.0)
        assert instantaneous_se(gamma, policy) == float(plain.sum())
        policy.allocations[0, 0] = 1e10
        plain[0, 0] = (np.log2(np.array([1e10])) + np.log2(np.array([1e300])))[0]
        assert instantaneous_se(gamma, policy) == float(plain.sum())

    def test_shape_mismatch_rejected(self):
        policy = waterfill_instantaneous(np.array([3.0]), 1.0)
        with pytest.raises(InvalidConfigError):
            instantaneous_se(np.array([3.0, 1.0]), policy)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_raw_grid_rejected(self, bad):
        policy = waterfill_instantaneous(np.array([3.0, 1.0]), 1.0)
        with pytest.raises(InvalidConfigError):
            instantaneous_se(np.array([bad, 2.0]), policy)


class TestErgodicEstimators:
    def test_oem_with_one_mode_equals_mimo(self, base_cfg):
        cfg = base_cfg.with_(u_elems=1, v_elems=1, n_tx=4, m_rx=4, phi_c=0.0)
        oem = ergodic_se_oem(cfg, np.ones(1), 10.0, 1.0, 2_000, seed=11)
        mimo = ergodic_se_mimo(4, 4, 10.0, 1.0, 2_000, seed=11)
        assert oem.se == pytest.approx(mimo.se, rel=1e-12)

    def test_dead_high_modes_collapse_to_mimo(self, base_cfg):
        # all power lands on the mode-0 streams when the higher modes
        # carry no gain, reproducing the plain MIMO baseline bit for bit:
        # the substream keys alone make the MIMO draws the mode-0 ones
        cfg = base_cfg.with_(n_tx=4, m_rx=4, u_elems=2, v_elems=2)
        profile = np.array([1.0, 0.0])
        oem = ergodic_se_oem(cfg, profile, 15.0, 4.0, 3_000, seed=21, normalization="total")
        mimo = ergodic_se_mimo(4, 4, 15.0, 4.0, 3_000, seed=21, normalization="total")
        assert (oem.se, oem.stderr) == (mimo.se, mimo.stderr)
        oem, mimo = sweep(link(6, 5, 4), np.array([1.0, 0.0, 0.0, 0.0]),
                          [-20.0, 0.0, 10.0, 30.0], 0.4, 1_025, seed=3, normalization="total")
        assert oem == mimo

    def test_se_vanishes_at_low_snr(self):
        values = [
            ergodic_se_mimo(2, 2, snr_db, 1.0, 2_000, seed=3).se
            for snr_db in (-30.0, -20.0, -10.0, 0.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[0] < 0.05

    def test_stderr_shrinks_with_trials(self):
        a = ergodic_se_mimo(2, 2, 10.0, 1.0, 4_000, seed=5)
        b = ergodic_se_mimo(2, 2, 10.0, 1.0, 8_000, seed=5)
        assert b.stderr / a.stderr == pytest.approx(1 / math.sqrt(2), rel=0.2)

    def test_reproducible_across_seeds_at_scale(self):
        a = ergodic_se_mimo(32, 32, 20.0, 1.0, 10_000, seed=1)
        b = ergodic_se_mimo(32, 32, 20.0, 1.0, 10_000, seed=2)
        assert abs(a.se - b.se) / a.se < 0.01

    def test_trial_floor_enforced(self, base_cfg):
        with pytest.raises(InvalidConfigError):
            ergodic_se_oem(base_cfg, np.ones(base_cfg.u_elems), 10.0, 1.0, 100, seed=0)

    def test_profile_length_must_match_modes(self, base_cfg):
        with pytest.raises(InvalidConfigError):
            ergodic_se_oem(base_cfg, np.ones(2), 10.0, 1.0, 2_000, seed=0)

    def test_unknown_normalization_rejected(self):
        with pytest.raises(InvalidConfigError, match="normalization"):
            ergodic_se_mimo(2, 2, 10.0, 1.0, 2_000, seed=0, normalization="bad")

    def test_negative_seed_rejected(self, base_cfg):
        with pytest.raises(InvalidConfigError, match="seed"):
            ergodic_se_oem(base_cfg, np.ones(base_cfg.u_elems), 10.0, 1.0, 2_000, seed=-1)
        with pytest.raises(InvalidConfigError, match="seed"):
            ergodic_se_mimo(2, 2, 10.0, 1.0, 2_000, seed=-1)

    @pytest.mark.parametrize("n, m", [(0, 4), (4, 0)])
    def test_mimo_needs_an_antenna_at_each_end(self, n, m):
        with pytest.raises(InvalidConfigError,
                           match="^need at least one transmit and one receive antenna$"):
            ergodic_se_mimo(n, m, 10.0, 1.0, 2_000, seed=0)

    def test_draw_cap_rejected_before_drawing(self, base_cfg):
        with pytest.raises(InvalidConfigError, match="trials"):
            ergodic_se_mimo(2, 2, 10.0, 1.0, 10**15, seed=0)
        with pytest.raises(InvalidConfigError, match="trials"):
            sweep(base_cfg, np.ones(base_cfg.u_elems), [10.0], 1.0, 10**15, seed=0)

    def test_overflowing_draws_rejected(self):
        # a unit draw above 1.8 times a gain of 1e308 leaves the float range
        with pytest.raises(InvalidConfigError, match="mean 1e\\+308 overflow the float range"):
            ergodic_se_oem(link(4, 4, 2), np.array([1.0, 1e308]), 0.0, 1.0, 1_000, 0)


class TestRateAverage:
    @given(
        streams=st.integers(1, 4),
        profile_tail=st.lists(st.sampled_from([0.0, 0.01, 0.3, 1.0, 3.0]), max_size=3),
        snr_db=st.floats(-20.0, 30.0),
        normalization=st.sampled_from(["per-channel", "total"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_is_the_literal_rule_average(self, streams, profile_tail, snr_db, normalization,
                                         seed):
        # zero-gain modes draw zero SNR; the literal rate skips them by
        # 1/gamma = inf, the estimator by log2(0) = -inf
        profile = np.array([1.0] + profile_tail)
        point = ergodic_se_oem(link(streams, streams, profile.size), profile, snr_db, 0.7, 1_000,
                               seed, normalization)
        means = mean_grid(snr_db, profile, streams)
        budget = 0.7 * means.size if normalization == "per-channel" else 0.7
        se, stderr = literal_se(means, budget, 1_000, seed)
        assert point.se == pytest.approx(se, rel=1e-12)
        assert point.stderr == pytest.approx(stderr, rel=1e-12)

    @given(snr_db=st.floats(-MAX_SNR_DB, -200.0), power=st.floats(1e-300, 1e-250),
           seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_budget_below_resolution_gives_zero(self, snr_db, power, seed):
        means = 10.0 ** (snr_db / 10.0) * np.ones((3, 1))
        mu, rule = waterfill_ergodic(means, power, samples=1_000, seed=seed)
        assert mu == math.inf
        assert np.all(rule(np.logspace(-3, 6, 10)) == 0.0)
        point = ergodic_se_mimo(3, 5, snr_db, power, 1_000, seed, normalization="total")
        assert (point.se, point.stderr) == (0.0, 0.0)


class TestWaterfillingOptimality:
    def test_beats_uniform_power(self):
        cfg = link(2, 2, 2)
        profile = np.array([1.0, 0.1])
        point = ergodic_se_oem(cfg, profile, 20.0, 1.0, 5_000, seed=13, normalization="total")
        means = mean_grid(20.0, profile, 2)
        gammas = sample_snr_realizations(means.flatten(order="F"), 5_000, seed=13, stage=1)
        uniform = np.log2(1.0 + (1.0 / means.size) * gammas).sum(axis=1).mean()
        assert point.se >= uniform


class TestSweep:
    def test_monotone_curves_and_oem_dominance(self, base_cfg):
        cfg = base_cfg.with_(n_tx=2, m_rx=2, u_elems=2, v_elems=2, noise_var=1.0)
        oem, mimo = sweep(cfg, np.ones(2), [0.0, 10.0, 20.0], 1.0, 2_000, seed=17)
        for curve in (oem, mimo):
            ses = [p.se for p in curve]
            assert all(a <= b for a, b in zip(ses, ses[1:]))
        for op, mp in zip(oem, mimo):
            assert op.se >= mp.se - 2 * (op.stderr + mp.stderr)

    def test_empty_snr_list_rejected(self, base_cfg):
        with pytest.raises(InvalidConfigError):
            sweep(base_cfg, np.ones(base_cfg.u_elems), [], 1.0, 2_000, seed=0)

    def test_profile_length_must_match_modes(self, base_cfg):
        with pytest.raises(InvalidConfigError):
            sweep(base_cfg, np.ones(base_cfg.u_elems - 1), [0.0], 1.0, 2_000, seed=0)

    def test_trial_floor_enforced(self, base_cfg):
        with pytest.raises(InvalidConfigError):
            sweep(base_cfg, np.ones(base_cfg.u_elems), [0.0], 1.0, 999, seed=0)

    @pytest.mark.parametrize("normalization", ["per-channel", "total"])
    # g_0 = 1 + 5e-10 passes the profile check, which divides the profile
    # by it, so the MIMO points read OEM mode-0 rows of gain exactly 1.0
    @pytest.mark.parametrize("profile", [[1.0, 0.7, 0.3, 0.1], [1.0, 0.0, 0.5, 0.0],
                                         [1.0 + 5e-10, 0.7, 0.3, 0.1]])
    def test_points_are_the_single_point_estimates_bitwise(self, base_cfg, normalization,
                                                           profile):
        # N != M; 5000 trials of 16 channels pool 80,000 draws, more than
        # one block of the stage-1 rate pass
        cfg = base_cfg.with_(n_tx=8, m_rx=4, u_elems=4, v_elems=4)
        snr_db_list = [-20.0, 0.0, 12.5, 30.0]
        oem, mimo = sweep(cfg, profile, snr_db_list, 0.2, 5_000, seed=3,
                          normalization=normalization)
        for snr_db, op, mp in zip(snr_db_list, oem, mimo):
            single_oem = ergodic_se_oem(cfg, profile, snr_db, 0.2, 5_000, seed=3,
                                        normalization=normalization)
            single_mimo = ergodic_se_mimo(8, 4, snr_db, 0.2, 5_000, seed=3,
                                          normalization=normalization)
            assert op.mean_snr_db == mp.mean_snr_db == snr_db
            assert (op.se, op.stderr) == (single_oem.se, single_oem.stderr)
            assert (mp.se, mp.stderr) == (single_mimo.se, single_mimo.stderr)

    @pytest.mark.parametrize("normalization", ["per-channel", "total"])
    def test_profile_is_divided_by_its_g0(self, monkeypatch, base_cfg, normalization):
        # the division moves every gain of this profile, and makes g_0 1.0
        cfg = base_cfg.with_(n_tx=8, m_rx=4, u_elems=4, v_elems=4)
        profile = np.array([1.0 + 5e-10, 0.7, 0.3, 0.1])
        divided = profile / profile[0]
        assert divided[0] == 1.0 and not np.any(divided[1:] == profile[1:])
        mode_zero_gains = []
        fading_draws = capacity._fading_draws

        def spy(means, *args, **kwargs):
            mode_zero_gains.append(means[:4].tolist())
            return fading_draws(means, *args, **kwargs)

        monkeypatch.setattr(capacity, "_fading_draws", spy)
        snr_db_list = [-20.0, 0.0, 12.5, 30.0]
        args = (snr_db_list, 0.2, 1_000)
        oem, mimo = sweep(cfg, profile, *args, seed=3, normalization=normalization)
        assert (oem, mimo) == sweep(cfg, divided, *args, seed=3, normalization=normalization)
        for snr_db, point in zip(snr_db_list, oem):
            assert point == ergodic_se_oem(cfg, profile, snr_db, 0.2, 1_000, seed=3,
                                           normalization=normalization)
        # two sweeps and four one-point curves draw three times each: the
        # two halves of stage 0, then stage 1
        assert mode_zero_gains == [[1.0] * 4] * 18

    @pytest.mark.parametrize("n, profile", [(16, (1.0, 0.7, 0.3, 0.1)), (64, (1.0,))])
    def test_each_keyed_row_is_drawn_once(self, monkeypatch, n, profile):
        # both links have 64 channels, so 2 stages of 64 keyed rows; the
        # MIMO baseline's rows are the OEM mode-0 rows and draw no more
        drawn_words = []
        pcg64 = np.random.PCG64

        def spy(seed_seq):
            drawn_words.append(tuple(seed_seq.generate_state(4, np.uint64).tolist()))
            return pcg64(seed_seq)

        monkeypatch.setattr(np.random, "PCG64", spy)
        sweep(link(n, n, len(profile)), np.array(profile), [0.0, 20.0], 0.5, 1_000, seed=11)
        keyed = {tuple(np.random.SeedSequence([11, stage, k]).generate_state(4, np.uint64).tolist())
                 for stage in (0, 1) for k in range(64)}
        assert len(drawn_words) == 128
        assert set(drawn_words) == keyed

    @staticmethod
    def peak_bytes(snr_db_list, trials, n=16, profile=(1.0, 0.8, 0.6, 0.8)):
        """Traced peak of a sweep at ``trials`` trials, by default of a 16x16 U=4 link."""
        cfg = link(n, n, len(profile))
        profile = np.array(profile)
        tracemalloc.start()
        try:
            sweep(cfg, profile, snr_db_list, 0.2, trials, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_working_memory_stays_within_two_draw_arrays(self):
        # stage 0 holds its draws and the stage-1 draws being filled
        # alongside them; stage 1 its draws, four 512 KiB block buffers
        # (two per trial half, one half per thread) and seven rows of rate
        # sums.
        # Both links have 64 channels; on the 64x64 U=1 one the MIMO
        # curve is as large as the OEM one.
        draw_array = 10_000 * 64 * 8
        snr_db_list = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
        for n, profile in ((16, (1.0, 0.8, 0.6, 0.8)), (64, (1.0,))):
            peak = self.peak_bytes(snr_db_list, 10_000, n, profile)
            assert peak <= 2 * draw_array + 2 * 2**20, (n, peak / draw_array)

    def test_rate_sums_never_outgrow_the_draws(self):
        # 200 rows of rate sums at once would be 3.1 draw arrays on top of
        # the draws; in groups of at most 64 points they are one at most
        draw_array = 10_000 * 64 * 8
        peak = self.peak_bytes(np.linspace(-20.0, 40.0, 200).tolist(), 10_000)
        assert peak <= 4 * draw_array

    @given(
        snr_db_list=st.lists(st.sampled_from([-30.0, -5.0, 0.0, 7.5, 20.0, 40.0]),
                             min_size=1, max_size=5),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=20, deadline=None)
    def test_point_ignores_the_other_points_and_their_order(self, snr_db_list, order):
        cfg = link(3, 2, 3)
        profile = np.array([1.0, 0.0, 0.4])
        shuffled = list(snr_db_list)
        order.shuffle(shuffled)
        curves = [sweep(cfg, profile, snrs, 0.5, 1_000, seed=9)
                  for snrs in (snr_db_list, shuffled)]
        for snrs, (oem, mimo) in zip((snr_db_list, shuffled), curves):
            for snr_db, op, mp in zip(snrs, oem, mimo):
                alone_oem, alone_mimo = sweep(cfg, profile, [snr_db], 0.5, 1_000, seed=9)
                assert op == alone_oem[0]
                assert mp == alone_mimo[0]

    def test_out_of_range_snr_rejected(self, base_cfg):
        for bad in (math.nan, math.inf, MAX_SNR_DB + 1.0, -MAX_SNR_DB - 1.0):
            with pytest.raises(InvalidConfigError):
                sweep(base_cfg, np.ones(base_cfg.u_elems), [0.0, bad], 1.0, 1_000, seed=0)

    def test_each_curve_is_checked_once_mimo_first(self, monkeypatch, drawn):
        checked = []
        check_draws = capacity._check_draws

        def spy(count, trials, seed):
            checked.append((count, len(drawn)))
            check_draws(count, trials, seed)

        monkeypatch.setattr(capacity, "_check_draws", spy)
        sweep(link(16, 16, 4), np.ones(4), [0.0, 10.0], 1.0, 1_000, seed=0)
        # 16 MIMO then 64 OEM channels, both before the first draw
        assert checked == [(16, 0), (64, 0)]

    def test_draw_cap_checked_before_any_draw(self, monkeypatch, drawn):
        # the cap admits the 16 MIMO channels but not the 64 OEM ones
        # at 1000 trials; the sweep rejects it before the MIMO curve draws
        monkeypatch.setattr(waterfill, "MAX_DRAWS", 16 * 1_000)
        with pytest.raises(InvalidConfigError, match="use at most 250 trials"):
            sweep(link(16, 16, 4), np.ones(4), [0.0], 1.0, 1_000, seed=0)
        with pytest.raises(InvalidConfigError, match="seed"):
            sweep(link(16, 16, 4), np.ones(4), [0.0], 1.0, 1_000, seed=-1)
        assert drawn == []

    def test_overflowing_budget_rejected(self):
        # 1000 trials of 1e300 per channel at 300 dB pool a budget beyond
        # the float range, and so would its water level
        cfg = link(16, 16, 4)
        with pytest.raises(InvalidConfigError, match="budget of 1.6e\\+301 per trial"):
            sweep(cfg, np.ones(4), [280.0, 290.0, 300.0], 1e300, 1_000, seed=0)
        with pytest.raises(InvalidConfigError, match="overflows the float range"):
            ergodic_se_mimo(2, 2, 300.0, 1e300, 1_000, seed=0)


class TestBlockedRatePass:
    """Sweep points equal the whole-array rate average bit for bit.

    At 64 channels a rate block is 1024 trials wide, at 16 channels 4096
    and at 1024 channels 64; a lone trailing trial joins the last block.
    """

    @pytest.mark.parametrize("n, u, trials", [
        (16, 4, 1_023), (16, 4, 1_024), (16, 4, 1_025), (16, 4, 2_500), (16, 4, 4_097),
        (32, 32, 1_000), (32, 32, 1_089),
    ])
    @pytest.mark.parametrize("normalization", ["per-channel", "total"])
    def test_points_equal_the_whole_array_average(self, n, u, trials, normalization):
        # a dead mode draws log2(0) = -inf; -300 dB is an outage point
        # (w~ = 0), where every rate is max(0, -inf) = 0
        profile = np.ones(u)
        profile[1] = 0.0
        profile[2:] = np.linspace(0.9, 0.1, u - 2)
        snr_db_list = [-300.0, -10.0, 0.0, 17.5, 40.0]
        oem, mimo = sweep(link(n, n, u), profile, snr_db_list, 0.3, trials, seed=4,
                          normalization=normalization)
        assert oem[0].se == mimo[0].se == 0.0
        for curve, gains in ((oem, np.repeat(profile, n)), (mimo, np.ones(n))):
            budget = 0.3 * gains.size if normalization == "per-channel" else 0.3
            expected = whole_array_curve(gains, budget, snr_db_list, trials, seed=4)
            assert [(p.se, p.stderr) for p in curve] == expected

    @pytest.mark.parametrize("k, trials", [(64, 1_025), (64, 2_049), (16, 4_097), (1024, 1_089)])
    def test_per_trial_sums_are_the_whole_array_sums(self, k, trials):
        # each of these trial counts leaves one trial past the last full
        # block; a dead channel and an outage level (w~ = 0) ride along
        draws = gained_draws(np.linspace(1.0, 0.0, k), trials, seed=2, stage=1)
        waters = [0.0, 0.5, 30.0]
        rates = np.empty((len(waters), trials))
        capacity._rate_sums(draws, waters, rates, capacity._block_buffers(k))
        assert np.array_equal(rates, whole_array_sums(draws, waters))

    def test_overflowing_block_rejected(self):
        # at seed 5 the largest unit draw of channel 1 is 6.89 in stage 0,
        # which fits at a gain of 2.4e307, and 8.86 in stage 1, which does
        # not: the rate pass never sees an infinite SNR
        with pytest.raises(InvalidConfigError, match="mean 2.4e\\+307 overflow the float range"):
            ergodic_se_oem(link(1, 1, 2), np.array([1.0, 2.4e307]), 0.0, 1.0, 1_000, 5)

    @pytest.mark.parametrize("trials", [1_000, 1_001])
    def test_narrowest_blocks_keep_the_sums(self, monkeypatch, trials):
        # with no room in the block buffers every block is two trials
        # wide, or three at the end, never one
        monkeypatch.setattr(capacity, "_BLOCK_BYTES", 1)
        profile = np.array([1.0, 0.5, 0.0])
        snr_db_list = [-5.0, 20.0]
        oem, mimo = sweep(link(4, 4, 3), profile, snr_db_list, 0.3, trials, seed=6)
        for curve, gains in ((oem, np.repeat(profile, 4)), (mimo, np.ones(4))):
            expected = whole_array_curve(gains, 0.3 * gains.size, snr_db_list, trials, seed=6)
            assert [(p.se, p.stderr) for p in curve] == expected

    @pytest.mark.parametrize("block_bytes", [capacity._BLOCK_BYTES, 1])
    @pytest.mark.parametrize("trials", [1_000, 1_001])
    @pytest.mark.parametrize("n, profile", [(1, (1.0,)), (9, (1.0, 0.0, 0.7, 0.5, 0.9, 0.3, 0.8))])
    def test_thread_halves_keep_the_sums(self, monkeypatch, block_bytes, trials, n, profile):
        # K = 1 leaves this thread no stage-0 rows; K = 63 and 9 split
        # unevenly; 1001 trials split into rate halves of 500 and 501, and
        # at one byte per buffer every block of either half is two or three
        # trials wide.  Each half's per-trial sums are checked too: a
        # one-trial block moves them by an ulp, which the means may absorb
        monkeypatch.setattr(capacity, "_BLOCK_BYTES", block_bytes)
        rate_sums = capacity._rate_sums
        halves = []

        def spy(draws, waters, rates, buffers):
            rate_sums(draws, waters, rates, buffers)
            halves.append((draws.shape[1], rates[:len(waters)].copy(),
                           whole_array_sums(draws, waters)))

        monkeypatch.setattr(capacity, "_rate_sums", spy)
        profile = np.array(profile)
        snr_db_list = [-300.0, 0.0, 25.0]
        oem, mimo = sweep(link(n, n, profile.size), profile, snr_db_list, 0.4, trials, seed=8)
        for curve, gains in ((oem, np.repeat(profile, n)), (mimo, np.ones(n))):
            expected = whole_array_curve(gains, 0.4 * gains.size, snr_db_list, trials, seed=8)
            assert [(p.se, p.stderr) for p in curve] == expected
        assert {width for width, _, _ in halves} == {trials // 2, trials - trials // 2}
        for _, got, whole in halves:
            assert np.array_equal(got, whole)


class TestStageOneWorker:
    """Each stage of a curve runs on the caller and one worker thread."""

    @staticmethod
    def stage_one_overflow_gain(seed):
        """A gain at which only the stage-1 draws of channel 1 overflow.

        The geometric mean of DBL_MAX over the largest unit draw of
        channel 1 in each stage: 6.89 in stage 0 and 8.86 in stage 1 at
        seed 5, 1000 trials.
        """
        top = [np.random.default_rng([seed, stage, 1]).standard_exponential(1_000).max()
               for stage in (0, 1)]
        assert top[0] < top[1]
        return sys.float_info.max / math.sqrt(top[0] * top[1])

    def test_no_thread_outlives_a_sweep(self, base_cfg):
        before = threading.enumerate()
        sweep(base_cfg, np.ones(base_cfg.u_elems), [0.0, 10.0], 1.0, 1_000, seed=2)
        assert threading.enumerate() == before

    def test_concurrent_sweeps_give_the_serial_points(self):
        # four callers, each with its own stage-1 worker, on more threads
        # than cores, switching threads every microsecond
        args = (link(4, 4, 3), np.array([1.0, 0.5, 0.2]), [0.0, 20.0], 0.5, 2_000)
        expected = [sweep(*args, seed=seed) for seed in range(4)]
        got = [None] * 4

        def run(seed):
            got[seed] = sweep(*args, seed=seed)

        callers = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
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
        assert got == expected

    def test_stage_one_overflow_is_raised_in_the_caller(self):
        before = threading.enumerate()
        gain = self.stage_one_overflow_gain(5)
        message = re.escape(f"fading draws of mean {gain:g} overflow the float range")
        with pytest.raises(InvalidConfigError, match=message):
            ergodic_se_oem(link(1, 1, 2), np.array([1.0, gain]), 0.0, 1.0, 1_000, 5)
        assert threading.enumerate() == before

    def test_stage_zero_level_overflow_wins(self, monkeypatch):
        # channel 2's reciprocals near 1e303 push a pooled budget of
        # 1.79e308 past the float range in stage 0, while channel 1's
        # stage-1 draws overflow as above.  The stage-1 draws start late,
        # so the worker is still running when stage 0 fails
        fading_draws = capacity._fading_draws

        def late_stage_one(means, count, seed, stage=0, out=None, rows=slice(None)):
            if stage:
                time.sleep(0.1)
            return fading_draws(means, count, seed, stage, out=out, rows=rows)

        monkeypatch.setattr(capacity, "_fading_draws", late_stage_one)
        before = threading.enumerate()
        cfg = link(1, 1, 3)
        profile = np.array([1.0, self.stage_one_overflow_gain(5), 1e-303])
        with pytest.raises(InvalidConfigError, match="fading draws of mean"):
            ergodic_se_oem(cfg, profile, 0.0, 1.0, 1_000, 5)
        assert threading.enumerate() == before
        with pytest.raises(InvalidConfigError,
                           match="water level of power budget 1.79e\\+308 overflows"):
            ergodic_se_oem(cfg, profile, 0.0, 1.79e305, 1_000, 5, normalization="total")
        assert threading.enumerate() == before

    def test_stage_zero_overflow_on_the_worker_names_the_largest_mean(self):
        # one channel per mode: the caller draws rows 0-1, the worker rows
        # 2-3.  The largest stage-0 unit draws of channels 1 and 2 are
        # 5.68 and 9.15 at seed 1, so channel 1's gain, the largest, fits
        # and channel 2's smaller one overflows
        top = [np.random.default_rng([1, 0, k]).standard_exponential(1_000).max() for k in (1, 2)]
        fits, overflows = sys.float_info.max / top[0] * 0.9, sys.float_info.max / top[1] * 1.1
        assert fits > overflows
        before = threading.enumerate()
        message = re.escape(f"fading draws of mean {fits:g} overflow the float range")
        with pytest.raises(InvalidConfigError, match=message):
            ergodic_se_oem(link(1, 1, 4), np.array([1.0, fits, overflows, 0.5]), 0.0, 1.0,
                           1_000, 1)
        assert threading.enumerate() == before

    @staticmethod
    def failing_draws(monkeypatch, *where):
        """Patch the stage-0 draws of the named shares to raise their name.

        The caller draws rows [0, K//2), the worker [K//2, K); a failing
        caller waits until the worker has run, so both errors exist.
        """
        fading_draws, worker_ran = waterfill._fading_draws, threading.Event()

        def draw(means, count, seed, stage=0, out=None, rows=slice(None)):
            if stage == 0:
                share = "worker" if rows.start else "caller"
                if share == "worker":
                    worker_ran.set()
                else:
                    assert worker_ran.wait(timeout=30)
                if share in where:
                    raise RuntimeError(share)
            return fading_draws(means, count, seed, stage, out=out, rows=rows)

        monkeypatch.setattr(capacity, "_fading_draws", draw)

    def test_a_caller_error_wins_over_the_workers(self, monkeypatch):
        inputs = capacity._curve_inputs([1.0, 0.5], 2, 2, 1.0, "per-channel", [0.0], 1_000, 3)
        expected = capacity._ergodic_curves(*inputs, [0.0], 1_000, 3)
        before = threading.enumerate()
        self.failing_draws(monkeypatch, "caller", "worker")
        with pytest.raises(RuntimeError, match="caller"):
            capacity._ergodic_curves(*inputs, [0.0], 1_000, 3)
        assert threading.enumerate() == before
        self.failing_draws(monkeypatch, "worker")
        with pytest.raises(RuntimeError, match="worker"):
            capacity._ergodic_curves(*inputs, [0.0], 1_000, 3)
        assert threading.enumerate() == before
        self.failing_draws(monkeypatch)
        assert capacity._ergodic_curves(*inputs, [0.0], 1_000, 3) == expected
        assert threading.enumerate() == before

    def test_one_worker_thread_per_curve(self, base_cfg, monkeypatch):
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread.name) or start(thread))
        profile = np.ones(base_cfg.u_elems)
        sweep(base_cfg, profile, [0.0, 10.0, 20.0], 1.0, 1_000, seed=2)
        assert len(started) == 1
        ergodic_se_oem(base_cfg, profile, 10.0, 1.0, 1_000, seed=2)
        assert len(started) == 2


class TestIntegerArguments:
    """Seeds and trial counts are integers, numpy ones too, and never bools."""

    @staticmethod
    def estimators(seed, trials=1_000):
        """Each ergodic estimator on a 2x2 U=3 link, as a zero-argument call."""
        cfg = link(2, 2, 3)
        profile = np.array([1.0, 0.5, 0.2])

        def waterfill_rule():
            mu, rule = waterfill_ergodic(mean_grid(10.0, profile, 2), 1.0, trials, seed)
            return mu, rule(np.logspace(-3.0, 3.0, 13)).tolist()

        return (
            lambda: ergodic_se_oem(cfg, profile, 10.0, 1.0, trials, seed),
            lambda: ergodic_se_mimo(2, 2, 10.0, 1.0, trials, seed),
            lambda: sweep(cfg, profile, [0.0, 10.0], 1.0, trials, seed),
            waterfill_rule,
        )

    @pytest.mark.parametrize("seed", [0.9, 1.5, math.nan, math.inf, "3", True])
    def test_non_integer_seed_rejected(self, seed):
        message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
        for call in self.estimators(seed):
            with pytest.raises(InvalidConfigError, match=message):
                call()

    def test_non_integer_trial_count_rejected(self):
        for call in self.estimators(0, trials=1000.0):
            with pytest.raises(InvalidConfigError,
                               match="^(trials|samples) must be an integer, got 1000.0$"):
                call()

    def test_numpy_integers_give_the_int_bytes(self):
        for numpy_call, int_call in zip(self.estimators(np.int64(3), np.int64(1_000)),
                                        self.estimators(3)):
            assert numpy_call() == int_call()


def closed_form_se(means, total_power):
    """Ergodic SE of water filling over independent Rayleigh channels.

    With exponential SNRs of means m_k, the water level w solves
    sum_k [w e^{-1/(w m_k)} - E1(1/(w m_k)) / m_k] = P, found here by
    bisection on log w; the SE is sum_k E1(1/(w m_k)) / ln 2
    (Goldsmith & Varaiya, IEEE T-IT 1997).  Zero means contribute
    nothing.
    """
    special = pytest.importorskip("scipy.special")
    means = np.asarray(means, dtype=float).ravel()
    means = means[means > 0.0]

    def spent(w):
        x = 1.0 / (w * means)
        return float(np.sum(w * np.exp(-x) - special.exp1(x) / means))

    lo, hi = 1e-300, 1.0
    while spent(hi) < total_power:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if spent(mid) < total_power else (lo, mid)
    return float(np.sum(special.exp1(1.0 / (hi * means)))) / LN2


class TestClosedForm:
    @pytest.mark.parametrize("normalization", ["per-channel", "total"])
    @pytest.mark.parametrize("profile", [[1.0, 1.0, 1.0, 1.0], [1.0, 0.5, 0.25, 0.0]])
    def test_sweep_matches_the_e1_closed_form(self, normalization, profile):
        cfg = link(16, 16, 4)
        snr_db_list = [0.0, 10.0, 20.0, 30.0]
        oem, mimo = sweep(cfg, profile, snr_db_list, 0.2, 10_000, seed=1,
                          normalization=normalization)
        for snr_db, op, mp in zip(snr_db_list, oem, mimo):
            for point, means in ((op, mean_grid(snr_db, np.array(profile), 16)),
                                 (mp, 10.0 ** (snr_db / 10.0) * np.ones(16))):
                budget = 0.2 * means.size if normalization == "per-channel" else 0.2
                exact = closed_form_se(means, budget)
                assert abs(point.se - exact) <= 3.0 * point.stderr


class TestFadingModel:
    """The fading model's inputs, checked by every estimator that takes them."""

    @staticmethod
    def estimators(profile, normalization="per-channel"):
        """ergodic_se_oem and sweep on a 2x2 U=3 link, as zero-argument calls."""
        cfg = link(2, 2, 3)
        return (
            lambda: ergodic_se_oem(cfg, profile, 10.0, 1.0, 1_000, seed=0,
                                   normalization=normalization),
            lambda: sweep(cfg, profile, [10.0], 1.0, 1_000, seed=0, normalization=normalization),
        )

    def test_profile_must_be_normalized(self):
        for call in self.estimators(np.array([2.0, 1.0, 1.0])):
            with pytest.raises(InvalidConfigError, match="g_0 = 1"):
                call()

    @pytest.mark.parametrize("profile, message", [
        ([1.0, -0.5, 0.2], "finite and nonnegative"),
        ([1.0, math.nan, 0.2], "finite and nonnegative"),
        ([1.0, 0.5, math.inf], "finite and nonnegative"),
        ([[1.0, 0.5, 0.2]], "vector of U=3"),
        ([1.0, 0.5], "vector of U=3"),
        ([1.0, 0.5, 0.2, 0.1], "vector of U=3"),
        ([], "vector of U=3"),
    ])
    def test_bad_profile_rejected(self, profile, message):
        for call in self.estimators(np.array(profile)):
            with pytest.raises(InvalidConfigError, match=message):
                call()

    def test_unknown_normalization_rejected(self):
        for call in self.estimators(np.ones(3), normalization="per-antenna"):
            with pytest.raises(InvalidConfigError, match="normalization"):
                call()

    @pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf, MAX_SNR_DB + 0.5,
                                        -MAX_SNR_DB - 0.5, 3100.0])
    def test_out_of_range_snr_rejected(self, snr_db):
        cfg = link(2, 2, 1)
        with pytest.raises(InvalidConfigError):
            ergodic_se_oem(cfg, np.ones(1), snr_db, 1.0, 1_000, seed=0)
        with pytest.raises(InvalidConfigError):
            ergodic_se_mimo(2, 2, snr_db, 1.0, 1_000, seed=0)

    def test_snr_bound_is_inclusive(self):
        cfg = link(2, 2, 1)
        for snr_db in (-MAX_SNR_DB, MAX_SNR_DB):
            assert math.isfinite(ergodic_se_oem(cfg, np.ones(1), snr_db, 1.0, 1_000, seed=0).se)
            assert math.isfinite(ergodic_se_mimo(2, 2, snr_db, 1.0, 1_000, seed=0).se)
