import math
import tracemalloc

import numpy as np
import pytest

from oem_mmwave import (
    FadingModel,
    PowerPolicy,
    ergodic_se_mimo,
    ergodic_se_oem,
    instantaneous_se,
    sweep,
    waterfill_ergodic,
    waterfill_instantaneous,
)
from oem_mmwave.capacity import ergodic_point
from oem_mmwave.errors import InvalidConfigError
from oem_mmwave.waterfill import sample_snr_realizations


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

    def test_shape_mismatch_rejected(self):
        policy = waterfill_instantaneous(np.array([3.0]), 1.0)
        with pytest.raises(InvalidConfigError):
            instantaneous_se(np.array([3.0, 1.0]), policy)


class TestErgodicEstimators:
    def test_oem_with_one_mode_equals_mimo(self, base_cfg):
        cfg = base_cfg.with_(u_elems=1, v_elems=1, n_tx=4, m_rx=4, phi_c=0.0)
        fading = FadingModel(mean_snr_db=10.0, mode_profile=np.ones(1))
        oem = ergodic_se_oem(cfg, fading, 1.0, 2_000, seed=11)
        mimo = ergodic_se_mimo(4, 4, 10.0, 1.0, 2_000, seed=11)
        assert oem.se == pytest.approx(mimo.se, rel=1e-12)

    def test_dead_high_modes_collapse_to_mimo(self, base_cfg):
        # all power lands on the mode-0 streams when the higher modes
        # carry no gain, reproducing the plain MIMO baseline exactly on
        # the shared channel substreams
        cfg = base_cfg.with_(n_tx=4, m_rx=4, u_elems=2, v_elems=2)
        profile = np.array([1.0, 0.0])
        fading = FadingModel(mean_snr_db=15.0, mode_profile=profile, normalization="total")
        oem = ergodic_se_oem(cfg, fading, 4.0, 3_000, seed=21)
        mimo = ergodic_se_mimo(4, 4, 15.0, 4.0, 3_000, seed=21, normalization="total")
        assert oem.se == pytest.approx(mimo.se, abs=2 * (oem.stderr + mimo.stderr))

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
        fading = FadingModel(mean_snr_db=10.0, mode_profile=np.ones(base_cfg.u_elems))
        with pytest.raises(InvalidConfigError):
            ergodic_se_oem(base_cfg, fading, 1.0, 100, seed=0)

    def test_profile_length_must_match_modes(self, base_cfg):
        fading = FadingModel(mean_snr_db=10.0, mode_profile=np.ones(2))
        with pytest.raises(InvalidConfigError):
            ergodic_se_oem(base_cfg, fading, 1.0, 2_000, seed=0)


class TestRateAverage:
    def test_is_the_rule_average_bitwise(self):
        # zero-mean channels draw zero SNR, which the in-place rate buffer
        # turns into 1/gamma = inf and the rule skips by its mask
        means = np.array([[100.0, 0.0], [5.0, 1.0], [0.2, 0.0]])
        point, mu = ergodic_point(means, 3.0, "total", 2_000, seed=4)
        mu_rule, rule = waterfill_ergodic(means, 3.0, samples=2_000, seed=4)
        gammas = sample_snr_realizations(means.flatten(order="F"), 2_000, seed=4, stage=1)
        per_trial = np.log2(1.0 + rule(gammas) * gammas).sum(axis=1)
        assert mu == mu_rule
        assert point.se == float(per_trial.mean())
        assert point.stderr == float(per_trial.std(ddof=1) / math.sqrt(2_000))


class TestWaterfillingOptimality:
    def test_beats_uniform_power(self):
        means = np.array([[100.0, 10.0], [50.0, 1.0]])
        point, mu = ergodic_point(means, 1.0, "total", 5_000, seed=13)
        gammas = sample_snr_realizations(means.flatten(order="F"), 5_000, seed=13, stage=1)
        uniform = np.log2(1.0 + (1.0 / means.size) * gammas).sum(axis=1).mean()
        assert point.se >= uniform


class TestSweep:
    def test_monotone_curves_and_oem_dominance(self, base_cfg):
        cfg = base_cfg.with_(n_tx=2, m_rx=2, u_elems=2, v_elems=2, noise_var=1.0)
        fading = FadingModel(mean_snr_db=0.0, mode_profile=np.ones(2))
        oem, mimo = sweep(cfg, fading, [0.0, 10.0, 20.0], 1.0, 2_000, seed=17)
        for curve in (oem, mimo):
            ses = [p.se for p in curve.points]
            assert all(a <= b for a, b in zip(ses, ses[1:]))
        for op, mp in zip(oem.points, mimo.points):
            assert op.se >= mp.se - 2 * (op.stderr + mp.stderr)

    def test_empty_snr_list_rejected(self, base_cfg):
        fading = FadingModel(mean_snr_db=0.0, mode_profile=np.ones(base_cfg.u_elems))
        with pytest.raises(InvalidConfigError):
            sweep(base_cfg, fading, [], 1.0, 2_000, seed=0)

    def test_profile_length_must_match_modes(self, base_cfg):
        fading = FadingModel(mean_snr_db=0.0, mode_profile=np.ones(base_cfg.u_elems - 1))
        with pytest.raises(InvalidConfigError):
            sweep(base_cfg, fading, [0.0], 1.0, 2_000, seed=0)

    def test_trial_floor_enforced(self, base_cfg):
        fading = FadingModel(mean_snr_db=0.0, mode_profile=np.ones(base_cfg.u_elems))
        with pytest.raises(InvalidConfigError):
            sweep(base_cfg, fading, [0.0], 1.0, 999, seed=0)

    @pytest.mark.parametrize("normalization", ["per-channel", "total"])
    @pytest.mark.parametrize("profile", [[1.0, 0.7, 0.3, 0.1], [1.0, 0.0, 0.5, 0.0]])
    def test_points_are_the_single_point_estimates_bitwise(self, base_cfg, normalization,
                                                           profile):
        # N != M; 5000 trials of 16 channels pool 80,000 draws, more than
        # one chunk of the water-level scan
        cfg = base_cfg.with_(n_tx=8, m_rx=4, u_elems=4, v_elems=4)
        fading = FadingModel(mean_snr_db=0.0, mode_profile=np.array(profile),
                             normalization=normalization)
        snr_db_list = [-20.0, 0.0, 12.5, 30.0]
        oem, mimo = sweep(cfg, fading, snr_db_list, 0.2, 5_000, seed=3)
        for snr_db, op, mp in zip(snr_db_list, oem.points, mimo.points):
            fad = FadingModel(mean_snr_db=snr_db, mode_profile=fading.mode_profile,
                              normalization=normalization)
            single_oem = ergodic_se_oem(cfg, fad, 0.2, 5_000, seed=3)
            single_mimo = ergodic_se_mimo(8, 4, snr_db, 0.2, 5_000, seed=3,
                                          normalization=normalization)
            assert op.mean_snr_db == mp.mean_snr_db == snr_db
            assert (op.se, op.stderr) == (single_oem.se, single_oem.stderr)
            assert (mp.se, mp.stderr) == (single_mimo.se, single_mimo.stderr)

    def test_working_memory_stays_below_four_draw_arrays(self, base_cfg):
        cfg = base_cfg.with_(n_tx=16, m_rx=16, u_elems=4, v_elems=4)
        fading = FadingModel(mean_snr_db=0.0, mode_profile=np.array([1.0, 0.8, 0.6, 0.8]))
        trials, n_channels = 10_000, 16 * 4
        tracemalloc.start()
        try:
            sweep(cfg, fading, [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0], 0.2, trials, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * trials * n_channels * 8


class TestFadingModel:
    def test_profile_must_be_normalized(self):
        with pytest.raises(InvalidConfigError):
            FadingModel(mean_snr_db=0.0, mode_profile=np.array([2.0, 1.0]))

    def test_unknown_normalization_rejected(self):
        with pytest.raises(InvalidConfigError):
            FadingModel(mean_snr_db=0.0, normalization="per-antenna")

    def test_mean_grid_scales_profile(self):
        fading = FadingModel(mean_snr_db=20.0, mode_profile=np.array([1.0, 0.25]))
        grid = fading.mean_grid(3)
        assert grid.shape == (3, 2)
        assert np.allclose(grid[:, 0], 100.0)
        assert np.allclose(grid[:, 1], 25.0)
