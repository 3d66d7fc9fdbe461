import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oem_mmwave import (
    SnrGrid,
    classify_region,
    instantaneous_se,
    waterfill,
    waterfill_ergodic,
    waterfill_instantaneous,
)
from oem_mmwave.errors import DomainError, InvalidConfigError
from oem_mmwave.waterfill import LN2, _PREFIX_BLOCK, _water_levels, sample_snr_realizations
from oracles import brute_force_oracle, where_allocation
from test_capacity import gained_draws
from test_transceiver import same_bits

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

    @pytest.mark.parametrize("entries", [[4.0, 1.0, 2.0], [[4.0, 1.0], [2.0, 0.5]]])
    @pytest.mark.parametrize("later", [math.nan, -5.0])
    def test_grid_owns_its_values(self, entries, later):
        # the grid kept the caller's array, so a write after the check gave
        # NaN powers or a log2 of a negative number, and no error
        source = np.array(entries)
        grid = SnrGrid(source)
        policy = waterfill_instantaneous(grid, 1.0)
        before = grid.values.tobytes()
        source.flat[1] = later
        assert grid.values.tobytes() == before
        assert not grid.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid.values[0, 0] = 0.0
        again = waterfill_instantaneous(grid, 1.0)
        assert again.allocations.tobytes() == policy.allocations.tobytes()
        assert instantaneous_se(grid, again) == instantaneous_se(grid, policy)
        assert math.isfinite(instantaneous_se(grid, again))

    @pytest.mark.parametrize("entries", [[4.0 + 0j, 1.0], np.array([[4.0, 1.0j]]),
                                         np.ones(2, dtype=np.complex64)])
    def test_complex_grid_rejected(self, entries):
        # the imaginary part was dropped with a ComplexWarning
        with pytest.raises(InvalidConfigError, match="must be real"):
            SnrGrid(entries)
        with pytest.raises(InvalidConfigError, match="must be real"):
            waterfill_instantaneous(entries, 1.0)

    def test_grid_and_policy_compare_and_hash_by_identity(self):
        # equality by fields compared two ndarrays ("truth value ...
        # ambiguous"), and hashing them raised TypeError
        grids = [SnrGrid(np.array([[4.0, 1.0]])) for _ in range(2)]
        policies = [waterfill_instantaneous(grid, 1.0) for grid in grids]
        for a, b in (grids, policies):
            assert a == a
            assert a != b
            assert hash(a) == hash(a)
            assert {a: "a", b: "b"}[a] == "a"

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


@pytest.fixture
def level_searches(monkeypatch):
    """The budgets of every ``_reciprocal_levels`` call during the test, one list per call."""
    calls = []
    reciprocal_levels = waterfill._reciprocal_levels

    def spy(inv, budgets):
        calls.append(list(budgets))
        return reciprocal_levels(inv, budgets)

    monkeypatch.setattr(waterfill, "_reciprocal_levels", spy)
    return calls


class TestSolveMemo:
    """An SnrGrid keeps its last instantaneous solve, as every block of a link
    water-fills the one grid ``zf_detect`` shares at one budget."""

    GAMMA = np.array([[4.0, 1.0], [2.0, 0.1], [0.0, 7.5]])

    def test_same_budget_makes_no_second_level_search(self, level_searches):
        grid = SnrGrid(self.GAMMA)
        first = waterfill_instantaneous(grid, 3.0)
        again = waterfill_instantaneous(grid, 3.0)
        assert level_searches == [[3.0]]
        assert same_bits(again.allocations, first.allocations)
        assert (again.water_level, again.total_power) == (first.water_level, 3.0)
        assert again.allocations.flags.writeable
        for other in (first.allocations, grid.values, grid._solve[2]):
            assert not np.shares_memory(again.allocations, other)
        fresh = waterfill_instantaneous(self.GAMMA, 3.0)
        assert same_bits(again.allocations, fresh.allocations)
        assert again.water_level == fresh.water_level

    @pytest.mark.parametrize("entries", [GAMMA, GAMMA[:, 0]])
    def test_grid_values_cannot_be_made_writable_again(self, entries):
        # a grid written after its solve was kept would hand out a stale
        # one: neither its values nor any array under them (the base of a
        # view owns its data, and could otherwise be re-flagged) is writable
        grid = SnrGrid(entries)
        waterfill_instantaneous(grid, 3.0)
        layer = grid.values
        while isinstance(layer, np.ndarray):
            with pytest.raises(ValueError, match="WRITEABLE"):
                layer.setflags(write=True)
            layer = layer.base
        assert same_bits(grid.values, np.array(entries, dtype=float).reshape(grid.values.shape))

    def test_writing_one_policy_leaves_the_next_alone(self):
        grid = SnrGrid(self.GAMMA)
        first = waterfill_instantaneous(grid, 3.0)
        kept = first.allocations.copy()
        first.allocations[:] = -1.0
        assert same_bits(waterfill_instantaneous(grid, 3.0).allocations, kept)
        with pytest.raises(ValueError, match="read-only"):
            grid._solve[2][0, 0] = -1.0

    def test_another_budget_solves_again(self, level_searches):
        grid = SnrGrid(self.GAMMA)
        budgets = [3.0, 0.5, 0.5, 3.0, 3]
        policies = [waterfill_instantaneous(grid, budget) for budget in budgets]
        # a budget of another type is another budget, though equal in value
        assert level_searches == [[3.0], [0.5], [3.0], [3]]
        assert type(policies[-1].total_power) is int
        for budget, policy in zip(budgets, policies):
            fresh = waterfill_instantaneous(self.GAMMA, budget)
            assert same_bits(policy.allocations, fresh.allocations)
            assert policy.water_level == fresh.water_level

    def test_array_input_keeps_no_solve(self, level_searches):
        for _ in range(2):
            waterfill_instantaneous(self.GAMMA, 3.0)
        assert level_searches == [[3.0], [3.0]]

    def test_budget_and_grid_are_checked_before_the_memo(self):
        grid = SnrGrid(self.GAMMA)
        waterfill_instantaneous(grid, 3.0)
        for budget in (math.nan, math.inf, 0.0):
            with pytest.raises(InvalidConfigError, match="total power"):
                waterfill_instantaneous(grid, budget)

    def test_overflowing_solve_raises_on_every_call(self, level_searches):
        grid = SnrGrid(np.array([1e-308, 2e-308]))
        waterfill_instantaneous(grid, 1.0)
        for _ in range(3):
            with pytest.raises(InvalidConfigError, match="overflows the float range"):
                waterfill_instantaneous(grid, 1.7e308)
        assert grid._solve[0] == 1.0
        assert level_searches == [[1.0]] + [[1.7e308]] * 3

    def test_threads_alternating_budgets_give_the_serial_results(self):
        # four threads switching every microsecond replace one grid's memo
        # between two budgets; each reads a whole solve, never half of one
        grid = SnrGrid(np.random.default_rng(4).exponential(size=(16, 4)))
        budgets = (64.0, 1.0)
        expected = {b: waterfill_instantaneous(grid.values, b)
                    for b in budgets}
        failures = []

        def run(caller):
            for i in range(400):
                budget = budgets[(i + caller) % 2]
                policy = waterfill_instantaneous(grid, budget)
                want = expected[budget]
                if not (same_bits(policy.allocations, want.allocations)
                        and policy.water_level == want.water_level):
                    failures.append((caller, i))
                policy.allocations[:] = math.nan

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
        assert failures == []
        budget, water, allocations = grid._solve
        assert same_bits(allocations, expected[budget].allocations)
        assert water == expected[budget].water_level


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


def fill_budget(gamma, count):
    """A budget that fills exactly the ``count`` best channels of ``gamma``.

    k channels fill once the budget passes k inv_k - C_k over the sorted
    reciprocals; the budget is halfway between that bound for ``count``
    and for ``count + 1``, or twice the last bound when every positive
    channel fills.
    """
    inv = np.sort(1.0 / gamma[gamma > 0.0])
    need = np.arange(1, inv.size + 1) * inv - np.cumsum(inv)
    if count == inv.size:
        return 2.0 * need[-1]
    return float((need[count - 1] + need[count]) / 2.0)


class TestBlockedLevelSearch:
    """The block-edge search lands where the search of every prefix does.

    Sizes around one block B = _PREFIX_BLOCK and over three; budgets whose
    filled prefix ends in the first block, inside a middle one, on a block
    edge and in the tail block.
    """

    B = _PREFIX_BLOCK

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 3 * B + 17])
    def test_matches_the_full_prefix_search_bitwise(self, n):
        B = self.B
        gamma = np.random.default_rng(n).exponential(1.0, n)
        counts = sorted({c for c in (B // 3, B, B + B // 2, 2 * B, 3 * B, 3 * B + 9, n) if c <= n})
        budgets = [fill_budget(gamma, count) for count in counts]
        for count, budget in zip(counts, budgets):
            policy = waterfill_instantaneous(gamma, budget)
            assert np.count_nonzero(policy.allocations) == count
            assert policy.water_level == full_prefix_level(gamma, budget)
        assert _water_levels(gamma.copy(), budgets) == [
            full_prefix_level(gamma, budget) for budget in budgets
        ]

    @pytest.mark.parametrize("positive", [B - 5, 2 * B - 1, 2 * B + 1])
    def test_zero_snr_entries_across_an_edge_stay_off(self, positive):
        # the +inf reciprocals of the zero SNRs start before a block edge
        # and run past it; a budget that fills every positive channel and
        # one that fills half of them
        n = 3 * self.B + 17
        gamma = np.random.default_rng(positive).exponential(1.0, n)
        gamma[np.random.default_rng(1).permutation(n)[positive:]] = 0.0
        for count in (positive // 2, positive):
            budget = fill_budget(gamma, count)
            policy = waterfill_instantaneous(gamma, budget)
            assert np.count_nonzero(policy.allocations) == count
            assert policy.water_level == full_prefix_level(gamma, budget)


def edge_case_grids(count, seed=17):
    """(grid, budget) pairs: SNRs over 600 decades holding 0, -0.0 and 5e-324
    entries, budgets from 1e-300 to 1e300, one grid past a prefix block and
    one whose water level overflows."""
    rng = np.random.default_rng(seed)
    sizes = [int(n) for n in rng.integers(1, 130, count - 1)] + [2 * _PREFIX_BLOCK + 3]
    cases = []
    for n in sizes:
        gamma = rng.exponential(1.0, n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        kind = rng.integers(0, 6, n)
        gamma[kind == 0], gamma[kind == 1], gamma[kind == 2] = 0.0, -0.0, 5e-324
        shape = (n,) if n % 3 else (n // 3, 3)
        cases.append((gamma.reshape(shape), 10.0 ** rng.uniform(-300.0, 300.0)))
    return cases + [(np.array([1e-308, 0.0, 1e-308]), 1e300)]


class TestOneReciprocalPass:
    """The powers max(w - 1/|gamma|, 0) taken in place are the masked ``where`` form."""

    def test_grids_match_the_where_form_bitwise(self):
        cases = edge_case_grids(300)
        assert sum(np.asarray(g).size > _PREFIX_BLOCK for g, _ in cases) == 1
        for gamma, budget in cases:
            values = SnrGrid(gamma).values
            try:
                water = _water_levels(values.copy(), [budget])[0]
            except InvalidConfigError as exc:
                with pytest.raises(InvalidConfigError, match=re.escape(str(exc))):
                    waterfill_instantaneous(gamma, budget)
                continue
            policy = waterfill_instantaneous(gamma, budget)
            want = where_allocation(values, water)
            assert policy.water_level == water
            assert (policy.allocations.dtype, policy.allocations.shape) == (want.dtype, want.shape)
            assert policy.allocations.tobytes() == want.tobytes()

    def test_ergodic_rule_matches_the_where_form_bitwise(self):
        mu_star, rule = waterfill_ergodic(np.array([[1.0, 0.5], [2.0, 0.0]]), 2.0, 2_000, seed=4)
        gamma = np.array([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324,
                          1e-300, 0.1, 1.0, 3.0, 1e300])
        level = 1.0 / (mu_star * LN2)
        assert rule(gamma).tobytes() == where_allocation(gamma, level).tobytes()
        for one in gamma.tolist():
            got, want = rule(one), where_allocation(one, level)
            assert got.shape == want.shape == ()
            assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("seed", range(10))
    def test_rule_fills_to_the_solved_level_bitwise(self, seed):
        # the rule filled to 1/(mu* ln 2), which missed the solved level w
        # by an ulp at seeds 6 and 8
        means = np.array([2.0, 0.5, 0.0, 1.0])
        _, rule = waterfill_ergodic(means, 1.0, samples=1_000, seed=seed)
        water = _water_levels(waterfill._fading_draws(means, 1_000, seed), [1_000.0])[0]
        assert rule(np.array([np.inf]))[0].hex() == water.hex()

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

    @pytest.mark.parametrize("name, value, message", [
        ("stage", -1, "stage must be nonnegative, got -1"),
        ("stage", 1.5, "stage must be an integer, got 1.5"),
        ("stage", True, "stage must be an integer, got True"),
        ("count", 1000.0, "count must be an integer, got 1000.0"),
        ("count", True, "count must be an integer, got True"),
        ("count", -5, "count must be nonnegative, got -5"),
    ])
    def test_bad_count_or_stage_rejected_before_any_seed_word(self, name, value, message,
                                                              monkeypatch):
        # a negative stage never ends the split into 32-bit seed words, so
        # the check must come first; the stub keeps a missing one bounded
        def no_words(*args):
            raise AssertionError("seed words computed")

        monkeypatch.setattr(waterfill, "_seed_words", no_words)
        args = {"count": 5, "stage": 0, name: value}
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
            sample_snr_realizations(np.ones(3), args["count"], 0, stage=args["stage"])

    def test_numpy_integer_count_and_stage_accepted(self):
        draws = sample_snr_realizations(np.ones(3), np.int64(5), 0, stage=np.uint8(1))
        assert np.array_equal(draws, sample_snr_realizations(np.ones(3), 5, 0, stage=1))


class TestKeyedSeeds:
    """Row k of a stage is drawn by numpy's ``default_rng([seed, stage, k])``.

    The rows' PCG64 state words are computed for a block of rows at once;
    numpy's own SeedSequence and ``default_rng`` are the oracles.
    """

    @given(seed=st.integers(0, 2**128 - 1), stage=st.sampled_from([0, 1]),
           start=st.integers(0, 500), size=st.integers(0, 40))
    @example(seed=0, stage=0, start=0, size=3)
    @example(seed=2**32 - 1, stage=1, start=60, size=10)
    @example(seed=2**32, stage=0, start=1, size=5)
    @example(seed=2**64 - 1, stage=1, start=0, size=4)
    @example(seed=2**64, stage=0, start=7, size=4)
    @example(seed=2**96 + 3, stage=1, start=2, size=4)
    @settings(max_examples=80, deadline=None)
    def test_seed_words_are_the_seed_sequence_state(self, seed, stage, start, size):
        keys = range(start, start + size)
        expected = np.array(
            [np.random.SeedSequence([seed, stage, k]).generate_state(4, np.uint64) for k in keys],
            dtype=np.uint64,
        ).reshape(size, 4)
        got = waterfill._seed_words(seed, stage, np.arange(start, start + size))
        assert got.dtype == np.uint64
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("seed", [2**32, 2**64 + 1])
    @pytest.mark.parametrize("stage", [0, 1])
    def test_rows_are_the_default_rng_draws(self, seed, stage):
        gains = np.array([1.0, 0.5, 0.0, 3.0, 1e-300])
        expected = gained_draws(gains, 1_000, seed, stage)
        assert np.array_equal(waterfill._fading_draws(gains, 1_000, seed, stage), expected)
        # a block of rows that starts mid-range draws those rows alone
        out = np.zeros((gains.size, 1_000))
        waterfill._fading_draws(gains, 1_000, seed, stage, out=out, rows=slice(2, 4))
        assert np.array_equal(out[2:4], expected[2:4])
        assert not out[[0, 1, 4]].any()
