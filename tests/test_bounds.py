"""Tests for the certificate and regret-bound layer."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from banditbounds import (
    Environment,
    bernoulli_kl,
    expsum_ratio,
    gap_driver_report,
    kl_budget,
    pinsker_gap,
    regret_decomposition,
    regret_envelope,
    reward_gap_radius,
    run_game,
    weighted_gap_bound_opt,
)
from banditbounds.bandit import _expected_reward, _gibbs_weights, _schedule_arrays
from banditbounds.bounds import _gap_radius
from reference import kl_certificate, lambda_opt, weighted_gap_bound


def policy_columns(pi_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two columns the driver report reads from a run of policies: the
    smallest entry of each round's policy and its running minimum."""
    k = pi_rows.shape[1]
    pi_min = pi_rows.min(axis=1)
    return pi_min, np.minimum.accumulate(np.minimum(pi_min, 1.0 / k))


class TestKlBudget:
    def test_frozen_value(self):
        assert kl_budget(0.0, 100, 0.05) == pytest.approx(
            0.1684109382407777, rel=1e-13
        )

    def test_shrinks_with_time(self):
        for t in (1, 10, 100, 1000):
            assert kl_budget(0.5, t, 0.05) > kl_budget(0.5, 4 * t, 0.05)

    def test_prior_kl_is_additive(self):
        extra = math.log(7.0)
        base = kl_budget(0.2, 50, 0.1)
        assert kl_budget(0.2 + extra, 50, 0.1) == pytest.approx(
            base + extra / 50, rel=1e-13
        )

    def test_invalid(self):
        with pytest.raises(ValueError):
            kl_budget(-0.1, 10, 0.05)
        with pytest.raises(ValueError):
            kl_budget(0.0, 0, 0.05)
        with pytest.raises(ValueError):
            kl_budget(0.0, 10, 1.0)


class TestRewardGapRadius:
    def test_frozen_value(self):
        assert reward_gap_radius(0.0, 100, 0.05, 0.5) == pytest.approx(
            0.5803635726693702, rel=1e-13
        )

    def test_composition(self):
        for kl, t, delta, lmin in (
            (0.0, 10, 0.1, 1.0),
            (0.7, 500, 0.01, 0.02),
            (math.log(3), 33, 0.5, 0.4),
        ):
            expected = pinsker_gap(kl_budget(kl, t, delta)) / lmin
            assert reward_gap_radius(kl, t, delta, lmin) == pytest.approx(
                expected, rel=1e-14
            )

    def test_smaller_floor_widens(self):
        tight = reward_gap_radius(0.0, 100, 0.05, 0.5)
        loose = reward_gap_radius(0.0, 100, 0.05, 0.05)
        assert loose == pytest.approx(10.0 * tight, rel=1e-12)

    def test_invalid_floor(self):
        with pytest.raises(ValueError):
            reward_gap_radius(0.0, 100, 0.05, 0.0)
        with pytest.raises(ValueError):
            reward_gap_radius(0.0, 100, 0.05, 1.5)

    @given(
        k=st.integers(2, 16),
        delta=st.floats(1e-12, 0.5),
        ts=st.lists(st.integers(1, 10**15), min_size=1, max_size=20),
        pi_lmin=st.floats(1e-300, 1.0, exclude_min=True),
    )
    def test_kernel_entries_equal_scalar_radius(self, k, delta, ts, pi_lmin):
        radii = _gap_radius(math.log(k), np.array(ts, dtype=float), delta, pi_lmin)
        for t, radius in zip(ts, radii):
            assert radius == reward_gap_radius(math.log(k), t, delta, pi_lmin), t

    @given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 300), delta=st.floats(1e-6, 0.5))
    def test_drivers_column_equals_scalar_radius(self, seed, horizon, delta):
        trace = run_game(Environment(means=np.array([0.7, 0.3])), horizon=horizon, seed=seed)
        gaps = gap_driver_report(trace.pi[:-1].min(axis=1), trace.pi_lmin, delta)["kl_route_gap"]
        for t in range(1, horizon + 1):
            assert gaps[t - 1] == reward_gap_radius(0.0, t, delta, trace.pi_lmin[t - 1]), t


class TestKlCertificate:
    def test_exact_estimate_keeps_full_slack(self):
        cert = kl_certificate(0.6, 0.6, 0.5, 0.0, 100, 0.05)
        assert cert.holds
        assert cert.value == 0.0
        assert cert.slack == cert.bound
        assert cert.bound == pytest.approx(kl_budget(0.0, 100, 0.05), rel=1e-15)

    def test_value_is_scaled_kl(self):
        cert = kl_certificate(1.2, 0.8, 0.5, 0.3, 50, 0.1)
        assert cert.value == pytest.approx(bernoulli_kl(0.6, 0.4), rel=1e-14)

    def test_violation_detected(self):
        # A wildly wrong estimate at a late round blows the shrunken budget.
        cert = kl_certificate(0.9, 0.1, 1.0, 0.0, 100_000, 0.05)
        assert not cert.holds
        assert cert.slack < 0.0

    def test_tiny_negative_scaled_value_is_clipped(self):
        cert = kl_certificate(-1e-10, 0.0, 1.0, 0.0, 10, 0.05)
        assert cert.value == 0.0

    def test_scaling_contract_violation(self):
        with pytest.raises(ValueError, match="scaling"):
            kl_certificate(2.5, 0.5, 0.5, 0.0, 10, 0.05)
        with pytest.raises(ValueError, match="scaling"):
            kl_certificate(0.5, -0.2, 0.5, 0.0, 10, 0.05)

    def test_infinite_prior_kl_never_binds(self):
        cert = kl_certificate(0.9, 0.1, 1.0, math.inf, 100_000, 0.05)
        assert cert.holds
        assert cert.bound == math.inf


class TestLambdaOpt:
    def test_frozen_value(self):
        lam = lambda_opt(100, 0.05, np.full(100, 0.5))
        assert lam == pytest.approx(25.415664940934022, rel=1e-13)

    def test_constant_sequence_closed_form(self):
        # All pi_min = p gives lambda = p * sqrt(2 t L).
        t, delta, p = 64, 0.1, 0.2
        big_l = 2.0 * math.log(t + 1) + math.log(2.0 / delta)
        assert lambda_opt(t, delta, np.full(t, p)) == pytest.approx(
            p * math.sqrt(2.0 * t * big_l), rel=1e-13
        )

    def test_scaling(self):
        t = 30
        seq = np.linspace(0.9, 0.2, t)
        assert lambda_opt(t, 0.05, 0.5 * seq) == pytest.approx(
            0.5 * lambda_opt(t, 0.05, seq), rel=1e-13
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_opt(10, 0.05, np.full(9, 0.5))
        with pytest.raises(ValueError):
            lambda_opt(10, 0.05, np.full(10, 0.0))
        with pytest.raises(ValueError):
            lambda_opt(10, 0.05, np.full(10, 1.5))


class TestWeightedGapBound:
    def test_matches_inline_formula(self):
        t, delta, lam, kl = 40, 0.05, 3.0, 0.7
        weights = np.full(t, 1.0 / t)
        seq = np.linspace(0.5, 0.1, t)
        quad = float(np.sum((weights / seq) ** 2))
        expected = (
            kl + 0.5 * lam * lam * quad + 2.0 * math.log(t + 1) + math.log(2.0 / delta)
        ) / lam
        got = weighted_gap_bound(kl, t, delta, lam, weights, seq)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_weight_scale_equivalence(self):
        # Rescaling all weights by c while dividing lambda by c leaves the
        # bound unchanged: only the products lambda * w_s matter.
        t = 25
        seq = np.linspace(0.8, 0.2, t)
        w = np.full(t, 1.0 / t)
        a = weighted_gap_bound(0.4, t, 0.05, 2.0, w, seq)
        b = weighted_gap_bound(0.4, t, 0.05, 2.0 / 5.0, 5.0 * w, seq)
        assert a == pytest.approx(b, rel=1e-13)

    def test_extreme_lambdas_blow_up(self):
        t = 50
        seq = np.full(t, 0.3)
        w = np.full(t, 1.0 / t)
        lam = lambda_opt(t, 0.05, seq)
        at_opt = weighted_gap_bound(0.0, t, 0.05, lam, w, seq)
        assert weighted_gap_bound(0.0, t, 0.05, 1e-6 * lam, w, seq) > 100 * at_opt
        assert weighted_gap_bound(0.0, t, 0.05, 1e6 * lam, w, seq) > 100 * at_opt

    def test_opt_beats_perturbations_for_small_prior_kl(self):
        # lambda_opt minimizes the KL-free part; it still beats doubling
        # whenever KL < L = 2 ln(t+1) + ln(2/delta), and always beats halving.
        t, delta = 100, 0.05
        big_l = 2.0 * math.log(t + 1) + math.log(2.0 / delta)
        seq = np.minimum((2.0 * np.arange(1, t + 1)) ** -0.25, 0.5)
        w = np.full(t, 1.0 / t)
        lam = lambda_opt(t, delta, seq)
        for kl in (0.0, 0.3, math.log(2), 2.0):
            assert kl < big_l
            at_opt = weighted_gap_bound(kl, t, delta, lam, w, seq)
            assert at_opt < weighted_gap_bound(kl, t, delta, 2.0 * lam, w, seq)
            assert at_opt < weighted_gap_bound(kl, t, delta, 0.5 * lam, w, seq)
        # Above L the optimum shifts: doubling wins, halving still loses.
        huge_kl = 2.0 * big_l
        at_opt = weighted_gap_bound(huge_kl, t, delta, lam, w, seq)
        assert weighted_gap_bound(huge_kl, t, delta, 2.0 * lam, w, seq) < at_opt
        assert weighted_gap_bound(huge_kl, t, delta, 0.5 * lam, w, seq) > at_opt

    def test_opt_closed_form_identity(self):
        for t, delta, kl in ((10, 0.1, 0.0), (100, 0.05, 0.7), (500, 0.01, 2.0)):
            seq = np.minimum((3.0 * np.arange(1, t + 1)) ** -0.25, 1 / 3)
            lam = lambda_opt(t, delta, seq)
            w = np.full(t, 1.0 / t)
            direct = weighted_gap_bound(kl, t, delta, lam, w, seq)
            closed = weighted_gap_bound_opt(kl, t, delta, seq)
            assert closed == pytest.approx(direct, rel=1e-9)

    def test_validation(self):
        t = 10
        seq = np.full(t, 0.5)
        with pytest.raises(ValueError):
            weighted_gap_bound(0.0, t, 0.05, 0.0, np.full(t, 0.1), seq)
        with pytest.raises(ValueError):
            weighted_gap_bound(0.0, t, 0.05, 1.0, np.full(t, -0.1), seq)
        with pytest.raises(ValueError):
            weighted_gap_bound(0.0, t, 0.05, 1.0, np.zeros(t), seq)
        with pytest.raises(ValueError):
            weighted_gap_bound(0.0, t, 0.05, 1.0, np.full(t + 1, 0.1), seq)

    def test_nan_inputs_are_rejected(self):
        # A nan bound can never be violated, so each nan input must raise.
        t = 10
        seq = np.full(t, 0.5)
        bad_seq = seq.copy()
        bad_seq[3] = math.nan
        w = np.full(t, 0.1)
        with pytest.raises(ValueError, match="pi_min_seq"):
            lambda_opt(t, 0.05, bad_seq)
        with pytest.raises(ValueError, match="pi_min_seq"):
            weighted_gap_bound(0.0, t, 0.05, 1.0, w, bad_seq)
        with pytest.raises(ValueError, match="pi_min_seq"):
            weighted_gap_bound_opt(0.0, t, 0.05, bad_seq)
        for bad in (math.nan, math.inf):
            bad_w = w.copy()
            bad_w[3] = bad
            with pytest.raises(ValueError, match="weights must be finite"):
                weighted_gap_bound(0.0, t, 0.05, 1.0, bad_w, seq)


class TestGapDriverReport:
    def test_constant_policy_drivers_coincide(self):
        pi = np.full((200, 2), 0.5)
        rep = gap_driver_report(*policy_columns(pi), 0.05)
        assert np.allclose(rep["lmin_driver"], 2.0)
        assert np.allclose(rep["rms_driver"], 2.0)
        assert np.array_equal(rep["t"], np.arange(1, 201))

    def test_single_early_dip_separates_the_routes(self):
        # One round at floor 0.01 poisons the realized-minimum driver
        # forever, while the root-mean-square driver forgives it.
        pi = np.full((400, 2), 0.5)
        pi[0] = (0.99, 0.01)
        rep = gap_driver_report(*policy_columns(pi), 0.05)
        assert rep["lmin_driver"][-1] == pytest.approx(100.0)
        assert rep["rms_driver"][-1] < 10.0
        assert rep["kl_route_gap"][-1] > 5.0 * rep["weighted_route_gap"][-1]

    def test_schedule_trace_keeps_drivers_comparable(self):
        env = Environment(means=np.array([0.7, 0.3]))
        trace = run_game(env, horizon=300, seed=11)
        rep = gap_driver_report(trace.pi[:-1].min(axis=1), trace.pi_lmin, 0.05)
        ratio = rep["lmin_driver"][49:] / rep["rms_driver"][49:]
        assert np.all(ratio >= 1.0)
        assert np.all(ratio <= 1.5)


class TestRegretEnvelope:
    def test_frozen_value(self):
        assert regret_envelope(2, 16, 0.05) == pytest.approx(
            4.920490954931783, rel=1e-13
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            regret_envelope(2, 7, 0.05)
        with pytest.raises(ValueError):
            regret_envelope(1, 100, 0.05)
        regret_envelope(3, 27, 0.05)  # boundary t = K^3 is legal

    def test_decay(self):
        grid = (16, 20, 30, 50, 100, 316, 1000, 3162, 10000)
        vals = [regret_envelope(2, t, 0.05) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # Decade-over-decade decay tracks t^(-1/4) times a slow log factor.
        ratio = vals[-1] / vals[-3]
        assert 0.1**0.25 < ratio < 0.70

    def test_tighter_for_larger_delta(self):
        assert regret_envelope(2, 100, 0.01) > regret_envelope(2, 100, 0.1)


class TestRegretDecomposition:
    def test_telescoping_and_term_bounds(self):
        env = Environment(means=np.array([0.8, 0.4]))
        trace = run_game(env, horizon=120, seed=3)
        decomp = regret_decomposition(trace, env)
        assert np.array_equal(decomp.rounds, np.arange(8, 121))
        assert decomp.total() == pytest.approx(decomp.regret, abs=1e-12)
        assert np.all(decomp.regret >= -1e-12)
        assert np.all(decomp.gibbs_shift <= decomp.gibbs_shift_bound + 1e-12)
        assert np.all(decomp.smoothing_loss <= decomp.smoothing_bound + 1e-12)

    def test_bound_columns_are_the_schedules(self):
        env = Environment(means=np.array([0.8, 0.4]))
        trace = run_game(env, horizon=60, seed=3)
        decomp = regret_decomposition(trace, env)
        k = env.n_arms
        for i, t in enumerate(decomp.rounds.tolist()):
            (gamma,), _ = _schedule_arrays(k, (t,))
            _, (eps_next,) = _schedule_arrays(k, (t + 1,))
            assert decomp.gibbs_shift_bound[i] == pytest.approx(k / gamma, rel=1e-14)
            assert decomp.smoothing_bound[i] == pytest.approx(k * min(eps_next, 1.0), rel=1e-14)

    def test_smoothing_bound_holds_through_a_long_warmup(self):
        # Past K^3 a long warmup still smooths by 1/K, not epsilon_{t+1}:
        # the bound reads each played policy's floor.  K*epsilon_{t+1} would
        # fall below the smoothing loss on 168 rounds of this game.
        env = Environment(means=np.array([0.8, 0.3]))
        warmup, horizon = 2500, 3000
        trace = run_game(env, horizon, seed=3, warmup_length=warmup)
        decomp = regret_decomposition(trace, env)
        assert not np.any(decomp.smoothing_loss > decomp.smoothing_bound)
        _, epsilon = _schedule_arrays(2, range(warmup, horizon + 2))
        assert np.all(decomp.smoothing_bound[: warmup - 9] == 2 * 0.5)  # rounds t + 1 < warmup
        assert np.array_equal(decomp.smoothing_bound[warmup - 9 :], 2 * epsilon)

    def test_validation(self):
        env = Environment(means=np.array([0.8, 0.4]))
        trace = run_game(env, horizon=30, seed=0)
        with pytest.raises(ValueError):
            regret_decomposition(trace, Environment(means=np.array([0.8, 0.4, 0.1])))
        short = run_game(env, horizon=7, seed=0)
        with pytest.raises(ValueError):
            regret_decomposition(short, env)


class TestExpsumRatio:
    def test_frozen_value(self):
        assert expsum_ratio((0.0, 1.0, 2.0), 1.0) == pytest.approx(
            0.42478961739555854, rel=1e-13
        )

    def test_all_zero_entries(self):
        assert expsum_ratio(np.zeros(5), 2.0) == 0.0

    def test_cap(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            x = np.concatenate([[0.0], rng.normal(0.0, 3.0, n - 1)])
            alpha = float(10.0 ** rng.uniform(-2, 2))
            assert expsum_ratio(x, alpha) <= n / alpha + 1e-12

    def test_large_alpha_concentrates_on_minimum(self):
        x = np.array([0.0, -2.0, 5.0])
        assert expsum_ratio(x, 200.0) == pytest.approx(-2.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="first entry"):
            expsum_ratio((1.0, 2.0), 1.0)
        with pytest.raises(ValueError):
            expsum_ratio((0.0,), 1.0)
        with pytest.raises(ValueError):
            expsum_ratio((0.0, np.inf), 1.0)
        with pytest.raises(ValueError):
            expsum_ratio((0.0, 1.0), 0.0)

    def test_block_rows_match_vector_calls(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5, 8, 13):
            x = rng.normal(0.0, 30.0, size=(500, n))
            x[:, 0] = 0.0
            alpha = 10.0 ** rng.uniform(-2.0, 2.0, size=500)
            ratios = expsum_ratio(x, alpha)
            assert ratios.shape == (500,)
            singles = np.array([expsum_ratio(row, a) for row, a in zip(x, alpha)])
            assert np.all(np.abs(ratios - singles) <= 4 * np.spacing(np.abs(singles)))

    def test_blocks_are_the_kernel_on_the_transposed_block(self):
        # The kernel reads an arms-first copy; the bytes are those of the
        # kernel on the transposed (strided) view.
        rng = np.random.default_rng(2)
        for n in range(2, 14):
            for rows in (1, 7, 1024):
                x = rng.normal(0.0, 3.0, size=(rows, n))
                x[rng.random(rows) < 0.1] *= 10.0
                x[:, 0] = 0.0
                alpha = 10.0 ** rng.uniform(-2.0, 2.0, size=rows)
                expected = _expected_reward(_gibbs_weights(x.T, -alpha), x.T)
                assert expsum_ratio(x, alpha).tobytes() == expected.tobytes(), (n, rows)

    def test_block_validation(self):
        x = np.array([[0.0, 1.0, 2.0], [0.0, -1.0, 3.0]])
        alpha = np.array([1.0, 2.0])
        for bad_x, bad_alpha in [
            (x + np.array([[0.0], [1.0]]), alpha),  # second row starts at 1
            (np.where(x == 3.0, np.inf, x), alpha),
            (np.where(x == 3.0, np.nan, x), alpha),
            (x, np.array([1.0, 0.0])),
            (x, np.array([-1.0, 1.0])),
            (x, np.array([1.0, np.nan])),
            (x, np.array([1.0, 2.0, 3.0])),  # one alpha per row
            (x, 1.0),
            (x[:, :1], alpha),
            (x[None], alpha),
        ]:
            with pytest.raises(ValueError):
                expsum_ratio(bad_x, bad_alpha)
