import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oem_mmwave import (
    SnrGrid,
    classify_region,
    waterfill,
    waterfill_ergodic,
    waterfill_instantaneous,
)
from oem_mmwave.errors import DomainError, InvalidConfigError
from oem_mmwave.waterfill import LN2, sample_snr_realizations
from oracles import brute_force_oracle

LOG2 = LN2  # natural log of 2, the "log 2" of the allocation formulas


class TestInstantaneous:
    def test_single_channel_takes_all_power(self):
        policy = waterfill_instantaneous(np.array([4.0]), 1.0)
        assert policy.allocations.ravel() == pytest.approx([1.0])
        assert policy.water_level == pytest.approx(1.25)

    def test_symmetric_channels_split_evenly(self):
        policy = waterfill_instantaneous(np.array([1.0, 1.0]), 2.0)
        assert policy.allocations.ravel() == pytest.approx([1.0, 1.0])

    def test_subnormal_channel_gets_no_power(self):
        # 1/5e-324 overflows to +inf, which no water level reaches
        policy = waterfill_instantaneous(np.array([5e-324, 1.0]), 1.0)
        assert policy.water_level == 2.0
        assert policy.allocations.ravel().tolist() == [0.0, 1.0]

    def test_two_channel_analytic_solution(self):
        # solve 2w - 1/4 - 1 = 1 for the water level
        policy = waterfill_instantaneous(np.array([4.0, 1.0]), 1.0)
        assert policy.water_level == pytest.approx(1.125, rel=1e-12)
        assert policy.allocations.ravel() == pytest.approx([0.875, 0.125], rel=1e-12)

    def test_weak_channel_dropped(self):
        # full-set candidate gives the weak channel -0.375 power, so the
        # active set shrinks to the strong channel only
        policy = waterfill_instantaneous(np.array([4.0, 0.5]), 1.0)
        assert policy.allocations.ravel() == pytest.approx([1.0, 0.0])
        assert policy.water_level == pytest.approx(1.25)
        assert policy.active_set == ((0, 0),)
        oracle = brute_force_oracle(np.array([4.0, 0.5]), 1.0)
        assert np.allclose(policy.allocations, oracle.allocations)

    def test_channel_at_the_water_level_stays_off(self):
        # w = (1 + 1/1) / 1 = 2 equals 1/gamma of the second channel, so
        # the second channel would get zero power and stays inactive
        policy = waterfill_instantaneous(np.array([1.0, 0.5]), 1.0)
        assert policy.water_level == 2.0
        assert policy.allocations.ravel().tolist() == [1.0, 0.0]
        assert policy.active_set == ((0, 0),)
        oracle = brute_force_oracle(np.array([1.0, 0.5]), 1.0)
        assert policy.active_set == oracle.active_set
        assert np.array_equal(policy.allocations, oracle.allocations)
        assert policy.water_level == oracle.water_level

    def test_all_dead_channels_give_outage(self):
        policy = waterfill_instantaneous(np.zeros((2, 2)), 1.0)
        assert policy.is_outage
        assert np.all(policy.allocations == 0)
        assert policy.mu_star == math.inf

    def test_budget_below_resolution_is_outage(self):
        # 1e20 + 1e-5 rounds to 1e20: no channel can take any power
        policy = waterfill_instantaneous(np.array([1e-20]), 1e-5)
        assert policy.is_outage
        assert policy.water_level == 0.0
        assert np.all(policy.allocations == 0)

    @pytest.mark.parametrize("gammas", [[1e-308, 2e-308], [1e-308] * 3])
    def test_overflowing_water_level_rejected(self, gammas):
        # (P + sum 1/gamma) / k passes the float range: with two channels
        # in the level's own sum, with three already in the running sum
        with pytest.raises(InvalidConfigError, match="power budget 1.7e\\+308 overflows"):
            waterfill_instantaneous(np.array(gammas), 1.7e308)

    def test_water_level_near_the_float_limit_accepted(self):
        policy = waterfill_instantaneous(np.array([1e-308]), 7e307)
        assert policy.water_level == 7e307 + 1e308
        assert policy.allocations.sum() == pytest.approx(7e307, rel=1e-12)

    def test_grid_input_keeps_shape(self):
        grid = SnrGrid(values=np.array([[4.0, 1.0], [2.0, 0.1]]))
        policy = waterfill_instantaneous(grid, 1.0)
        assert policy.allocations.shape == (2, 2)
        assert policy.total_power == 1.0

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(InvalidConfigError):
            waterfill_instantaneous(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(InvalidConfigError):
            waterfill_instantaneous(np.array([1.0, 2.0]), budget)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_raw_grid_rejected(self, bad):
        with pytest.raises(InvalidConfigError):
            waterfill_instantaneous(np.array([bad, 2.0]), 1.0)

    def test_grid_of_more_than_two_axes_rejected(self):
        with pytest.raises(InvalidConfigError):
            waterfill_instantaneous(np.ones((2, 2, 2)), 1.0)

    def test_negative_zero_counts_as_zero(self):
        policy = waterfill_instantaneous(np.array([-0.0, 2.0]), 1.0)
        assert policy.allocations.ravel().tolist() == [0.0, 1.0]
        assert policy.water_level == 1.5

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=1, max_size=6),
        st.sampled_from([0.1, 1.0, 10.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_kkt_conditions(self, gammas, budget):
        gamma = np.array(gammas)
        policy = waterfill_instantaneous(gamma, budget)
        # budget exactness
        assert policy.allocations.sum() == pytest.approx(budget, rel=1e-9)
        threshold = policy.mu_star * LOG2
        for (i, l) in policy.active_set:
            p = policy.allocations[i, l]
            assert p > 0
            assert p + 1.0 / gamma.reshape(-1, 1)[i, l] == pytest.approx(
                policy.water_level, rel=1e-9
            )
        inactive = np.ones_like(policy.allocations, dtype=bool)
        for idx in policy.active_set:
            inactive[idx] = False
        assert np.all(gamma.reshape(-1, 1)[inactive] <= threshold * (1 + 1e-12))


def full_prefix_level(gamma, total_power):
    """Reference water level: the full-length prefix search with an index array."""
    inv = np.sort(1.0 / gamma[gamma > 0.0])
    levels = (np.cumsum(inv) + total_power) / np.arange(1, inv.size + 1)
    filled = np.flatnonzero(levels > inv)
    if filled.size == 0:
        return 0.0
    k = int(filled[-1]) + 1
    return float((total_power + inv[:k].sum()) / k)


class TestLevelBisection:
    @pytest.mark.parametrize("budget", [1e-300, 1e-3, 1e4, 1e5, 1e9])
    def test_matches_the_full_prefix_search_bitwise(self, budget):
        # 168,535 positive entries; the budgets fill none, 2, a quarter,
        # three fifths and nearly all of them, and the bisection must land
        # where the search of every prefix does
        gamma = np.random.default_rng(5).exponential(1.0, 3 * 65_536 + 17)
        gamma[::7] = 0.0
        assert waterfill_instantaneous(gamma, budget).water_level == full_prefix_level(gamma, budget)


class TestOracleEquivalence:
    def test_random_instances_match_brute_force(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            gamma = 10.0 ** rng.uniform(-2, 2, size=k)
            budget = float(rng.choice([0.1, 1.0, 10.0]))
            fast = waterfill_instantaneous(gamma, budget)
            slow = brute_force_oracle(gamma, budget)
            assert np.max(np.abs(fast.allocations - slow.allocations)) < 1e-6 * budget
            assert fast.active_set == slow.active_set

    def test_uniform_split_on_identical_channels(self):
        policy = brute_force_oracle(np.full(5, 2.0), 1.0)
        assert policy.allocations.ravel() == pytest.approx(np.full(5, 0.2))

    def test_single_channel(self):
        policy = brute_force_oracle(np.array([3.0]), 2.0)
        assert policy.allocations.ravel() == pytest.approx([2.0])

    def test_too_many_channels_rejected(self):
        with pytest.raises(DomainError):
            brute_force_oracle(np.ones(7), 1.0)


class TestErgodic:
    def test_high_snr_limit(self):
        mu, _ = waterfill_ergodic(np.array([[1e9]]), 1.0, samples=20_000, seed=1)
        assert mu == pytest.approx(1.0 / (1.0 * LOG2), rel=1e-3)

    def test_deterministic_for_fixed_seed(self):
        a, _ = waterfill_ergodic(np.array([[10.0, 5.0]]), 1.0, samples=5_000, seed=9)
        b, _ = waterfill_ergodic(np.array([[10.0, 5.0]]), 1.0, samples=5_000, seed=9)
        assert a == b

    def test_negative_seed_rejected(self):
        # numpy's own error would be a plain ValueError naming no seed
        with pytest.raises(InvalidConfigError, match="seed must be nonnegative"):
            waterfill_ergodic(np.array([[10.0, 5.0]]), 1.0, samples=5_000, seed=-1)

    def test_rule_gives_a_subnormal_channel_no_power(self):
        mu, rule = waterfill_ergodic(np.array([[1.0]]), 1.0, samples=1_000, seed=0)
        powers = rule(np.array([5e-324, 0.0, -0.0, 1e300]))
        assert powers.tolist() == [0.0, 0.0, 0.0, 1.0 / (mu * LN2) - 1e-300]
        assert not np.signbit(powers).any()

    def test_budget_met_on_independent_resample(self):
        means = np.array([[20.0, 8.0], [15.0, 3.0]])
        mu, rule = waterfill_ergodic(means, 2.0, samples=50_000, seed=4)
        fresh = sample_snr_realizations(means.flatten(order="F"), 50_000, seed=999)
        assert rule(fresh).sum(axis=1).mean() == pytest.approx(2.0, rel=0.01)

    @pytest.mark.parametrize("snr_db", [-10.0, 10.0, 30.0])
    def test_budget_met_exactly_on_solving_sample(self, snr_db):
        means = 10.0 ** (snr_db / 10.0) * np.array([[1.0, 0.3], [1.0, 0.3], [1.0, 0.3]])
        mu, rule = waterfill_ergodic(means, 6.0, samples=20_000, seed=5)
        solved_on = sample_snr_realizations(means.flatten(order="F"), 20_000, seed=5)
        assert rule(solved_on).sum(axis=1).mean() == pytest.approx(6.0, rel=1e-12)

    def test_multiplier_is_pooled_instantaneous_solve(self):
        # the sample-average budget over T draws is instantaneous water
        # filling over all T x K pooled draws with budget T * P
        means = np.array([[20.0, 8.0, 0.0], [15.0, 3.0, 1.0]])
        mu, _ = waterfill_ergodic(means, 2.0, samples=2_000, seed=11)
        pooled = sample_snr_realizations(means.flatten(order="F"), 2_000, seed=11)
        assert mu == waterfill_instantaneous(pooled, 2_000 * 2.0).mu_star

    @given(
        means=st.lists(st.sampled_from([0.0, 1e-3, 0.5, 2.0, 40.0, 1e4]), min_size=1,
                       max_size=6).filter(any),
        budget=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_multiplier_is_the_pooled_solve_for_any_means(self, means, budget, seed):
        means = np.array(means)
        mu, _ = waterfill_ergodic(means, budget, samples=1_000, seed=seed)
        pooled = sample_snr_realizations(means, 1_000, seed=seed)
        assert mu == waterfill_instantaneous(pooled, 1_000 * budget).mu_star

    def test_rule_is_monotone_and_saturates(self):
        mu, rule = waterfill_ergodic(np.array([[10.0]]), 1.0, samples=5_000, seed=0)
        grid = np.logspace(-3, 6, 400)
        powers = rule(grid)
        assert np.all(np.diff(powers) >= 0)
        assert np.all(powers <= 1.0 / (mu * LOG2) + 1e-15)
        assert powers[-1] == pytest.approx(1.0 / (mu * LOG2), rel=1e-5)

    def test_budget_below_resolution_gives_zero_rule(self):
        mu, rule = waterfill_ergodic(np.array([[1e-30]]), 1e-20, samples=1_000, seed=0)
        assert mu == math.inf
        assert np.all(rule(np.logspace(-3, 6, 10)) == 0.0)

    def test_overflowing_water_level_rejected(self):
        # 1000 draws of budget 1e306 pool a budget beyond the float range
        with pytest.raises(InvalidConfigError, match="overflows the float range"):
            waterfill_ergodic(np.ones((2, 2)), 1e306, samples=1_000, seed=0)

    def test_overflowing_draws_rejected(self):
        # a unit draw above 1.8 times a mean of 1e308 leaves the float range
        with pytest.raises(InvalidConfigError, match="mean 1e\\+308 overflow the float range"):
            waterfill_ergodic(np.array([[1e308]]), 1.0, samples=1_000, seed=0)

    def test_draw_cap_rejected_before_drawing(self):
        # 4 x 10**15 draws: the check runs before any array is made
        with pytest.raises(InvalidConfigError, match="trials"):
            waterfill_ergodic(np.ones((2, 2)), 1.0, samples=10**15, seed=0)

    def test_draw_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(waterfill, "MAX_DRAWS", 4 * 1_000)
        mu, _ = waterfill_ergodic(np.ones((2, 2)), 1.0, samples=1_000, seed=0)
        assert math.isfinite(mu)
        with pytest.raises(InvalidConfigError, match="at most 1000 trials"):
            waterfill_ergodic(np.ones((2, 2)), 1.0, samples=1_001, seed=0)

    def test_small_sample_count_rejected(self):
        with pytest.raises(InvalidConfigError):
            waterfill_ergodic(np.array([[10.0]]), 1.0, samples=10, seed=0)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_means_rejected(self, bad):
        with pytest.raises(InvalidConfigError):
            waterfill_ergodic(np.array([[10.0, bad]]), 1.0, samples=2_000, seed=0)

    def test_negative_zero_mean_counts_as_zero(self):
        signed, _ = waterfill_ergodic(np.array([10.0, -0.0]), 1.0, samples=1_000, seed=3)
        unsigned, _ = waterfill_ergodic(np.array([10.0, 0.0]), 1.0, samples=1_000, seed=3)
        assert signed == unsigned

    def test_all_zero_means_rejected(self):
        with pytest.raises(InvalidConfigError):
            waterfill_ergodic(np.zeros((2, 2)), 1.0, samples=2_000, seed=0)


class TestClassifyRegion:
    def test_both_above(self):
        t = 1.0 * LOG2
        assert classify_region(2 * t, 2 * t, 1.0) == "R1"

    def test_one_sided(self):
        t = 1.0 * LOG2
        assert classify_region(2 * t, 0.0, 1.0) == "R2"
        assert classify_region(0.0, 2 * t, 1.0) == "R3"

    def test_outage_corner(self):
        assert classify_region(0.0, 0.0, 1.0) == "R4"

    def test_requires_positive_multiplier(self):
        with pytest.raises(DomainError):
            classify_region(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("args", [
        (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan),
        (-5.0, 1.0, 1.0), (1.0, -5.0, 1.0),
    ], ids=["nan-gamma0", "nan-gamma1", "nan-mu", "negative-gamma0", "negative-gamma1"])
    def test_nan_or_negative_input_rejected(self, args):
        with pytest.raises(DomainError):
            classify_region(*args)

    def test_infinite_multiplier_is_outage(self):
        # the outage policy's mu_star
        assert classify_region(1e300, 1e300, math.inf) == "R4"


class TestSampling:
    def test_substreams_keyed_by_flat_index(self):
        # configs sharing a channel order see identical draws
        a = sample_snr_realizations(np.array([2.0, 2.0, 2.0, 2.0]), 100, seed=7)
        b = sample_snr_realizations(np.array([2.0, 2.0]), 100, seed=7)
        assert np.array_equal(a[:, :2], b)

    def test_zero_mean_channel_stays_silent(self):
        draws = sample_snr_realizations(np.array([1.0, 0.0]), 50, seed=3)
        assert np.all(draws[:, 1] == 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_means_rejected(self, bad):
        with pytest.raises(InvalidConfigError):
            sample_snr_realizations(np.array([1.0, bad]), 3, seed=0)

    def test_overflowing_draws_rejected(self):
        with pytest.raises(InvalidConfigError, match="overflow the float range"):
            sample_snr_realizations(np.array([1.0, 1e308]), 100, seed=0)
