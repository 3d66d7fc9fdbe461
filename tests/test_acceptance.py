"""End-to-end acceptance checks for the OEM mmWave toolkit.

Each test covers one headline guarantee of the package and prints a
single ``ACCEPTANCE n <name>: PASS`` / ``FAIL`` line so the whole gate
can be read off the test log at a glance.  Tolerances are pinned here
and should not be loosened without a recorded decision.
"""

import contextlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oem_mmwave import (
    DishDesign,
    PatchSpec,
    build_mode_channels,
    classify_region,
    decompose_modes,
    design_dish,
    design_patch,
    ergodic_se_mimo,
    ergodic_se_oem,
    mode_power_profile,
    propagate,
    waterfill_ergodic,
    waterfill_instantaneous,
    zf_detect,
)
from oem_mmwave.channel import bessel_j
from oem_mmwave.cli import main
from oem_mmwave.waterfill import LN2
from oracles import brute_force_oracle, mode_gain

SEED = 2026
TRIALS = 10_000


@contextlib.contextmanager
def criterion(number, name):
    """Print one verdict line per acceptance criterion."""
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def bessel_series(order, x):
    """Independent power-series oracle for J_order(x).

    Evaluated in exact rational arithmetic; plain floats lose ~7 digits
    to cancellation near |x| = 20.
    """
    half = Fraction(x) / 2
    total = Fraction(0)
    for k in range(60):
        total += (-1) ** k * half ** (2 * k + order) / (
            math.factorial(k) * math.factorial(k + order)
        )
    return float(total)


def test_1_multiplicative_se(base_cfg):
    """SE scales 2x/4x/8x with the orthogonal-channel count.

    Per-channel budget normalization, equal mode gains, 20 dB average
    SNR: the (16, U=4), (32, U=4) and (32, U=8) links carry 2, 4 and 8
    times the channels of the 32x32 single-mode baseline, and their
    ergodic SEs scale accordingly within 3%.
    """
    with criterion(1, "multiplicative-se"):
        start = time.monotonic()
        baseline = ergodic_se_mimo(32, 32, 20.0, 0.2, TRIALS, seed=SEED)
        ratios = {}
        for n, u, expected in ((16, 4, 2.0), (32, 4, 4.0), (32, 8, 8.0)):
            cfg = base_cfg.with_(n_tx=n, m_rx=n, u_elems=u, v_elems=u)
            point = ergodic_se_oem(cfg, np.ones(u), 20.0, 0.2, TRIALS, seed=SEED)
            ratios[(n, u)] = point.se / baseline.se
            assert point.se / baseline.se == pytest.approx(expected, rel=0.03), ratios
        assert time.monotonic() - start < 120.0


def test_2_non_convergent_collapse(base_cfg):
    """With dead higher modes the OEM link reduces to the MIMO baseline.

    At a geometry where the mode-1 power gain is below 1e-3 of mode 0,
    the higher modes never clear the water-filling cutoff, so OEM and
    single-mode SE agree within two standard errors at every SNR point.
    """
    with criterion(2, "non-convergent-collapse"):
        cfg = base_cfg.with_(n_tx=4, m_rx=4, u_elems=2, v_elems=2, r2=1e-5)
        profile = mode_power_profile(cfg, "bessel")
        assert profile[1] / profile[0] < 1e-3
        for snr_db in range(0, 31, 5):
            oem = ergodic_se_oem(cfg, profile, snr_db, 0.2, TRIALS, seed=SEED,
                                 normalization="total")
            mimo = ergodic_se_mimo(
                4, 4, snr_db, 0.2, TRIALS, seed=SEED, normalization="total"
            )
            spread = 2.0 * math.hypot(oem.stderr, mimo.stderr)
            assert abs(oem.se - mimo.se) <= spread, (snr_db, oem.se, mimo.se)


def test_3_waterfill_oracle_equivalence():
    """Sort-based allocation matches exhaustive active-set search.

    100 random instances of up to 6 channels: per-channel powers within
    1e-6 of the budget scale, budget met to 1e-9, and the water-level
    identity holds on every active channel.
    """
    with criterion(3, "waterfill-oracle"):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            gamma = 10.0 ** rng.uniform(-2, 2, size=k)
            budget = float(rng.choice([0.1, 1.0, 10.0]))
            fast = waterfill_instantaneous(gamma, budget)
            slow = brute_force_oracle(gamma, budget)
            assert np.max(np.abs(fast.allocations - slow.allocations)) < 1e-6 * budget
            assert fast.allocations.sum() == pytest.approx(budget, abs=1e-9 * budget)
            flat = gamma.reshape(-1, 1)
            for i, l in fast.active_set:
                assert fast.allocations[i, l] + 1.0 / flat[i, l] == pytest.approx(
                    fast.water_level, rel=1e-9
                )


def test_4_region_partition():
    """Region classifier agrees with the realized power allocation.

    10000 random two-channel SNR points (plus forced dead pairs): the
    classifier's region matches the active-set pattern of the budgeted
    allocation on every point farther than 1e-9 from a boundary.
    """
    with criterion(4, "region-partition"):
        rng = np.random.default_rng(SEED + 4)
        checked = 0
        for j in range(10_000):
            if j % 100 == 0:
                gamma = np.zeros(2)
            else:
                gamma = 10.0 ** rng.uniform(-2, 2, size=2)
            policy = waterfill_instantaneous(gamma, 1.0)
            threshold = policy.mu_star * LN2
            if np.any(np.abs(gamma - threshold) < 1e-9):
                continue
            active = policy.allocations.ravel() > 0
            expected = {
                (True, True): "R1",
                (True, False): "R2",
                (False, True): "R3",
                (False, False): "R4",
            }[(bool(active[0]), bool(active[1]))]
            assert classify_region(gamma[0], gamma[1], policy.mu_star) == expected
            checked += 1
        assert checked > 9_000


def test_5_mode_decomposition_exactness(base_cfg):
    """Noiseless end-to-end symbol recovery across mode counts.

    For element counts up to 16 with alias-free reception, zero-forcing
    recovers random symbols to 1e-9 relative accuracy and cross-mode
    leakage stays below 1e-20 of the signal power.
    """
    with criterion(5, "mode-decomposition"):
        rng = np.random.default_rng(SEED + 5)
        for u, v in ((1, 1), (2, 2), (2, 4), (4, 4), (4, 8), (8, 8), (8, 16), (16, 16)):
            # convergent per-mode gains equalize the mode amplitudes, so
            # no mode sits below the cross-mode numerical noise of the
            # decomposition
            cfg = base_cfg.with_(
                n_tx=2, m_rx=2, u_elems=u, v_elems=v, r2=0.0136, phi_c=base_cfg.phi
            )
            channels = build_mode_channels(cfg, "convergent")
            symbols = rng.standard_normal((2, u)) + 1j * rng.standard_normal((2, u))
            received = propagate(symbols, channels, cfg)
            decomposed = decompose_modes(received, cfg)
            estimates, _ = zf_detect(decomposed, channels)
            assert np.allclose(estimates, symbols, rtol=1e-9, atol=0.0)
            for l in range(u):
                single = np.zeros((2, u), dtype=complex)
                single[:, l] = 1.0
                power = np.abs(
                    decompose_modes(propagate(single, channels, cfg), cfg).values
                ) ** 2
                signal = power[:, l].sum()
                assert power.sum() - signal < 1e-20 * signal


def test_6_bessel_channel_approximation(base_cfg):
    """Closed-form mode gains converge to the literal element sum.

    For modes up to 4 and phase arguments up to 5, the relative error of
    the closed form is below 1% at 64 elements per ring and does not
    grow as the element count doubles 16 -> 32 -> 64 (errors at the
    machine-noise floor are clipped to 1e-13 before the comparison).
    """
    with criterion(6, "bessel-channel"):
        for arg in (0.5, 2.0, 5.0):
            r2 = arg * base_cfg.wavelength / (2.0 * math.pi * math.sin(base_cfg.phi))
            for l in range(5):
                errors = []
                for u in (16, 32, 64):
                    cfg = base_cfg.with_(u_elems=u, v_elems=u, r2=r2, phi_c=0.0)
                    exact = mode_gain(cfg, 0, 0, l, "exact-sum")
                    closed = mode_gain(cfg, 0, 0, l, "bessel")
                    errors.append(max(abs(exact - closed) / abs(closed), 1e-13))
                assert errors[-1] < 0.01, (arg, l, errors)
                assert errors[0] >= errors[1] >= errors[2], (arg, l, errors)


def test_7_bessel_evaluator():
    """Quadrature Bessel values match an independent series oracle.

    Absolute agreement to 1e-10 for orders up to 16 and arguments up to
    20 in magnitude; the first zero of J_0 is located to 1e-5.
    """
    with criterion(7, "bessel-evaluator"):
        for order in range(17):
            for x in np.linspace(-20.0, 20.0, 81):
                assert abs(bessel_j(order, float(x)) - bessel_series(order, float(x))) < 1e-10
        assert abs(bessel_j(0, 2.40483)) < 1e-5


def test_8_antenna_regression():
    """Patch and dish designs reproduce the frozen reference values."""
    with criterion(8, "antenna-regression"):
        wavelength = 299_792_458.0 / 35e9
        patch = design_patch(PatchSpec(wavelength=wavelength, eps_r=2.2, thickness=0.245e-3))
        assert patch.width == pytest.approx(3.386e-3, abs=1e-6)
        assert patch.eps_eff == pytest.approx(2.039, abs=1e-3)
        dish = design_dish(36.0, 0.5, 0.4, wavelength)
        assert isinstance(dish, DishDesign)
        assert dish.diameter == pytest.approx(121.6e-3, abs=0.1e-3)
        assert dish.focal_length == pytest.approx(0.4 * dish.diameter, rel=1e-12)


def test_9_allocation_rule_saturation():
    """The ergodic allocation rule is monotone and saturates.

    Across antenna/mode splits and average SNRs from 0 to 30 dB the rule
    is non-decreasing in the channel SNR and approaches its water-level
    cap; the 32-antenna 2-mode and 16-antenna 4-mode links, which carry
    the same 64 channels, produce bitwise-identical rules.
    """
    with criterion(9, "rule-saturation"):
        probe = np.logspace(-3.0, 8.0, 400)
        solved = {}
        for n, u in ((32, 2), (16, 4), (32, 4), (32, 8)):
            for snr_db in (0.0, 10.0, 20.0, 30.0):
                means = 10.0 ** (snr_db / 10.0) * np.ones((n, u))
                mu, rule = waterfill_ergodic(means, 0.2, samples=5_000, seed=SEED)
                powers = rule(probe)
                cap = 1.0 / (mu * LN2)
                assert np.all(np.diff(powers) >= 0.0)
                assert np.all(powers <= cap + 1e-15)
                assert powers[-1] == pytest.approx(cap, rel=1e-4)
                solved[(n, u, snr_db)] = (mu, powers)
        for snr_db in (0.0, 10.0, 20.0, 30.0):
            mu_a, powers_a = solved[(32, 2, snr_db)]
            mu_b, powers_b = solved[(16, 4, snr_db)]
            assert mu_a == mu_b
            assert np.array_equal(powers_a, powers_b)


def test_10_cli_determinism(base_cfg, tmp_path, capsys):
    """Seeded CLI runs are byte-identical."""
    with criterion(10, "cli-determinism"):
        config_path = tmp_path / "link.json"
        base_cfg.with_(noise_var=1.0).save(config_path)
        outputs = []
        for tag in ("a", "b", "c"):
            out = tmp_path / f"{tag}.csv"
            code = main([
                "simulate", "--config", str(config_path),
                "--snr-db", "0:10:5", "--trials", "1000", "--seed", "7",
                "--out", str(out),
            ])
            capsys.readouterr()
            assert code == 0
            outputs.append(
                (out.read_bytes(), (tmp_path / f"{tag}.csv.manifest.json").read_bytes())
            )
        assert outputs[0][0] == outputs[1][0] == outputs[2][0]
        manifests = [m.replace(b"/a.csv", b"/_.csv").replace(b"/b.csv", b"/_.csv")
                     .replace(b"/c.csv", b"/_.csv") for _, m in outputs]
        assert manifests[0] == manifests[1] == manifests[2]
        for tag in ("h1", "h2"):
            out = tmp_path / f"{tag}.csv"
            assert main(["channel", "--config", str(config_path), "--out", str(out)]) == 0
            capsys.readouterr()
        assert (tmp_path / "h1.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()
