"""Tests for the smoothed Gibbs bandit strategy and its trace machinery."""

import csv
import functools
import math
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditbounds import Environment, run_game, write_trace_csv
from banditbounds import bandit
from banditbounds.bandit import (
    BETA_LEVELS,
    _arm_sum,
    _choose_arms,
    _expected_reward,
    _gibbs_weights,
    _join,
    _payouts,
    _play_windows,
    _schedule_arrays,
    _smooth_weights,
)
import reference
from reference import (
    PolicyState,
    SimplexVector,
    gibbs_posterior,
    smooth_policy,
    update_estimates,
)


class TestSchedules:
    def test_frozen_values(self):
        (gamma,), (epsilon,) = _schedule_arrays(2, (16,))
        # (K t)^(1/4) with K t = 32, i.e. 2^(5/4).
        assert gamma == pytest.approx(2.378414230005442, rel=1e-15)
        assert epsilon == pytest.approx(0.42044820762685725, rel=1e-15)
        assert gamma * epsilon == pytest.approx(1.0, rel=1e-14)

    def test_smoothing_fits_simplex_from_warmup_end(self):
        # At t = K^3 the exploration mass K * epsilon hits exactly 1 and
        # shrinks afterwards, so the smoothed policy stays on the simplex.
        for k in (2, 3, 5):
            _, (at_handoff, *later) = _schedule_arrays(k, (k**3, k**3 + 1, 4 * k**3, 100 * k**3))
            assert k * at_handoff == pytest.approx(1.0, rel=1e-12)
            for epsilon in later:
                assert k * epsilon < 1.0 + 1e-12

    def test_monotone(self):
        gammas, epsilons = (a.tolist() for a in _schedule_arrays(3, range(1, 50)))
        assert gammas == sorted(gammas)
        assert epsilons == sorted(epsilons, reverse=True)


class TestGibbsPosterior:
    def test_uniform_cases(self):
        assert np.allclose(gibbs_posterior(np.zeros(4), 3.0).weights, 0.25)
        assert np.allclose(gibbs_posterior(np.array([0.3, 0.7]), 0.0).weights, 0.5)
        assert np.allclose(gibbs_posterior(np.full(3, 0.9), 10.0).weights, 1 / 3)

    def test_two_arm_example(self):
        # exp(ln 3) : exp(0) = 3 : 1.
        rho = gibbs_posterior(np.array([1.0, 0.0]), math.log(3.0))
        assert rho.weights == pytest.approx([0.75, 0.25], rel=1e-14)

    def test_shift_invariance(self):
        r = np.array([0.2, 0.8, 0.5])
        a = gibbs_posterior(r, 4.0).weights
        b = gibbs_posterior(r + 123.0, 4.0).weights
        assert a == pytest.approx(b, rel=1e-13)

    def test_monotone_in_estimates(self):
        rho = gibbs_posterior(np.array([0.1, 0.5, 0.9]), 2.0).weights
        assert rho[0] < rho[1] < rho[2]

    def test_extreme_gamma_is_stable(self):
        # The max-shift keeps exp() in range for huge gamma: the best arm
        # takes essentially all the mass, with no overflow.
        rho = gibbs_posterior(np.array([0.0, 1.0]), 1e6).weights
        assert rho[1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(rho))


class TestSmoothing:
    def test_example(self):
        rho = SimplexVector(np.array([0.75, 0.25]))
        pi = smooth_policy(rho, 0.1)
        assert pi.weights == pytest.approx([0.7, 0.3], rel=1e-14)

    def test_full_smoothing_is_uniform(self):
        rho = SimplexVector(np.array([1.0, 0.0]))
        pi = smooth_policy(rho, 0.5)
        assert pi.weights == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_floor(self):
        rho = SimplexVector(np.array([0.9, 0.1, 0.0]))
        pi = smooth_policy(rho, 0.05)
        assert np.all(pi.weights >= 0.05 - 1e-15)

    def test_epsilon_zero_is_identity(self):
        rho = SimplexVector(np.array([0.6, 0.4]))
        assert smooth_policy(rho, 0.0).weights == pytest.approx(rho.weights)


class TestKernels:
    """An arms-first (K, T) call with a (T,) parameter equals the per-column 1-d calls bit for bit."""

    @given(
        k=st.integers(2, 8),
        horizon=st.integers(1, 500),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matrix_rows_equal_row_calls(self, k, horizon, seed):
        rng = np.random.default_rng(seed)
        # Importance-weighted estimates are nonnegative and can reach 1/pi_min;
        # every third row repeats one value to exercise ties.
        rhat = rng.uniform(0.0, 2.0 * k, (horizon, k))
        rhat[::3, :] = rhat[::3, :1]
        gamma = rng.uniform(0.0, 60.0, (horizon, 1))
        epsilon = rng.uniform(0.0, 1.0 / k, (horizon, 1))

        rho = _gibbs_weights(rhat.T, gamma[:, 0]).T
        pi = _smooth_weights(rho.T, epsilon[:, 0]).T
        for t in range(horizon):
            row_rho = _gibbs_weights(rhat[t], float(gamma[t, 0]))
            assert np.array_equal(rho[t], row_rho), t
            assert np.array_equal(pi[t], _smooth_weights(row_rho, float(epsilon[t, 0]))), t

    @given(k=st.integers(2, 8), size=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_out_gives_the_same_bytes(self, k, size, seed):
        # A 1-d row, a (K, B) block, and a transposed view of a (B, K) buffer.
        rng = np.random.default_rng(seed)
        rhat = rng.uniform(0.0, 2.0 * k, (k, size))
        gamma, epsilon = rng.uniform(0.0, 60.0), rng.uniform(0.0, 1.0 / k)
        for r_hat, out in ((rhat[:, 0], np.empty(k)), (rhat, np.empty((k, size))), (rhat, np.empty((size, k)).T)):
            rho = _gibbs_weights(r_hat, gamma)
            assert _gibbs_weights(r_hat, gamma, out=out).tobytes() == out.tobytes() == rho.tobytes()
            pi = _smooth_weights(rho, epsilon)
            assert _smooth_weights(rho, epsilon, out=out).tobytes() == out.tobytes() == pi.tobytes()

    @given(k=st.integers(2, 8), horizon=st.integers(1, 500))
    def test_schedule_arrays_are_scalar_pow(self, k, horizon):
        # numpy's vectorized pow differs from libm's in the last ulp on some
        # rounds; the schedules must stay the scalar values the game plays.
        gamma, epsilon = _schedule_arrays(k, range(1, horizon + 1))
        for t in range(1, horizon + 1):
            kt = float(k * t)
            assert gamma[t - 1] == kt**0.25 and epsilon[t - 1] == kt**-0.25, t


def _scan_arm(weights, u):
    """Sequential-scan reference: the first j with u < w_0 + ... + w_j, else the last arm."""
    acc = 0.0
    for j in range(len(weights) - 1):
        acc += weights[j]
        if u < acc:
            return j
    return len(weights) - 1


def _mask_arms(pi, u):
    """The arms ``_choose_arms``'s mask of each (K, B) column block of ``pi``
    gives, framed and read as the engine reads it: the played mask and the
    count of true rows."""
    k = len(pi)
    frame = np.empty((k + 1, *u.shape), dtype=bool)
    frame[0], frame[k] = True, False
    _choose_arms(pi, u, out=frame[1:k])
    return frame[1:k].sum(axis=0), frame[:-1] > frame[1:]


class TestChooseArms:
    @given(
        k=st.integers(2, 8),
        rows=st.integers(1, 6),
        zeros=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sequential_scan(self, k, rows, zeros, seed):
        rng = np.random.default_rng(seed)
        pi = rng.dirichlet(np.ones(k), rows)
        if zeros:  # underflowed arms give repeated partial sums
            pi[:, rng.integers(0, k)] = 0.0
        # Every row meets uniforms exactly on, just below and just above each
        # partial sum, the extremes of [0, 1) and one random draw.
        for row in pi:
            partial = np.cumsum(row[:-1])
            us = np.concatenate((
                partial, np.nextafter(partial, 0.0), np.nextafter(partial, 1.0),
                [0.0, 1.0 - 2.0**-53, rng.random()],
            ))
            arms, played = _mask_arms(np.tile(row, (us.size, 1)).T, us)
            expected = [_scan_arm(row.tolist(), u) for u in us.tolist()]
            assert arms.tolist() == expected
            assert np.array_equal(played, np.arange(k)[:, None] == expected)

    @given(
        k=st.sampled_from([2, 3, 8]),
        size=st.sampled_from([1, 6, 50]),
        rounds=st.integers(1, 12),
        zeros=st.integers(0, 3),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_window_masks_match_the_scan_reference(self, k, size, rounds, zeros, ties, seed):
        # A window's (R, K+1, B) masks, written round by round as the engine
        # writes them, against the per-arm scan: the count of true rows is
        # the scan's arm and the played mask is its one-hot column, bit for
        # bit.  Policies have zero entries and tied entries; a third of the
        # uniforms lie exactly on a partial sum.
        rng = np.random.default_rng(seed)
        pi = rng.dirichlet(np.ones(k), (rounds, size)).transpose(0, 2, 1).copy()
        for r, j in zip(rng.integers(0, rounds, zeros * size), rng.integers(0, size, zeros * size)):
            pi[r, rng.integers(0, k), j] = 0.0
        if ties:
            pi[:, : k // 2 + 1] = pi[:, :1]
        partial = np.add.accumulate(pi[:, :-1], axis=1)
        u = rng.random((rounds, size))
        on = rng.random((rounds, size)) < 1 / 3
        edge = np.take_along_axis(partial, rng.integers(0, k - 1, (rounds, 1, size)), axis=1)[:, 0]
        u[on] = np.minimum(edge[on], 1.0 - 2.0**-53)
        passed = np.empty((rounds, k + 1, size), dtype=bool)
        passed[:, 0], passed[:, k] = True, False
        for pi_t, u_t, rows in zip(pi, u, passed[:, 1:k]):
            _choose_arms(pi_t, u_t, out=rows)
        actions = passed[:, 1:k].sum(axis=1)
        played = passed[:, :-1] > passed[:, 1:]
        expected = np.array([reference.choose_arms(pi_t, u_t) for pi_t, u_t in zip(pi, u)])
        assert actions.dtype == np.int64 and actions.tobytes() == expected.tobytes()
        assert np.array_equal(played, np.arange(k)[:, None] == expected[:, None, :])
        for r in range(rounds):
            for j in range(size):
                assert expected[r, j] == _scan_arm(pi[r, :, j].tolist(), u[r, j])

    @given(k=st.integers(2, 8), size=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_out_gives_the_same_bytes(self, k, size, seed):
        # One column, a (K, B) block, and a policy and mask buffer that are
        # strided views.
        rng = np.random.default_rng(seed)
        pi = rng.dirichlet(np.ones(k), size).T
        u = rng.random(size)
        buffer = np.empty((size, k)).T
        buffer[...] = pi
        for rows, us, out in (
            (pi[:, :1], u[:1], np.empty((k - 1, 1), dtype=bool)),
            (pi, u, np.empty((k - 1, size), dtype=bool)),
            (buffer, u, np.empty((size, k + 1), dtype=bool).T[1:k]),
        ):
            mask = _choose_arms(rows, us)
            assert _choose_arms(rows, us, out=out) is out
            assert out.tobytes() == mask.tobytes()

    def test_boundary_and_last_partial_sum(self):
        # u on a partial sum is past it: 0.25 picks arm 1, not arm 0.
        pi = np.array([[0.25, 0.25, 0.5]]).T
        assert _mask_arms(pi, np.array([0.25]))[0].tolist() == [1]
        # Ten weights of 0.1 add up to 1 - 2^-53 in order, which the largest
        # uniform reaches: it passes every partial sum and must pick the
        # last arm, not an eleventh.
        pi = np.full((10, 1), 0.1)
        u = 1.0 - 2.0**-53
        assert sum([0.1] * 10) == u
        arms, played = _mask_arms(pi, np.array([u]))
        assert arms.tolist() == [9] == [_scan_arm([0.1] * 10, u)]
        assert played[:, 0].tolist() == [False] * 9 + [True]


class TestWindowBudget:
    @pytest.mark.parametrize(
        "k, size, rounds",
        [
            (2, 1, 1024),  # K B = 2: 3 200 rounds, capped
            (3, 6, 355),   # K B = 18, the simulate-k3 workload
            (2, 50, 64),   # K B = 100, the verify-k2 workload
            (2, 256, 64),  # K B = 512, a verify-bounds block
        ],
    )
    def test_window_follows_the_entry_budget(self, k, size, rounds):
        # R = min(1 024, max(64, floor(6 400 / (K B)))), and the engine's
        # windows start every R rounds.
        assert bandit._window_rounds(k, size) == rounds == min(1024, max(64, 6400 // (k * size)))
        horizon = 2 * rounds + 5
        env = Environment(means=np.linspace(0.9, 0.1, k))
        windows = list(_play_windows(env, horizon, list(range(size))))
        assert [w.start for w in windows] == list(range(0, horizon, rounds))
        assert [w.actions.shape for w in windows] == [(size, rounds)] * 2 + [(size, 5)]


def _left_fold(x):
    """Each column of an arms-first array summed left to right in Python floats."""
    columns = x.reshape(len(x), -1).T.tolist()
    return np.array([functools.reduce(operator.add, c) for c in columns]).reshape(x.shape[1:])


def _layouts(x):
    """An arms-first array as C-ordered, F-ordered, and an arms-last buffer's transposed view."""
    return np.ascontiguousarray(x), np.asfortranarray(x), x.T.copy().T


class TestLayouts:
    """The folds over arms are left folds: a column's bits do not depend on
    the memory layout or on the block it sits in."""

    # A column, where numpy's sum would drop the unit axis, a block, and a
    # block with two trajectory axes, as the sweep's (K, R, B) windows have.
    _SHAPES = ((1,), (6,), (37, 29))

    @given(k=st.sampled_from([2, 3, 7, 8, 9, 16, 33]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_same_bytes_in_every_layout_and_block(self, k, seed):
        rng = np.random.default_rng(seed)
        means = rng.uniform(0.0, 1.0, k)
        for shape in self._SHAPES:
            rhat = rng.uniform(0.0, 2.0 * k, (k, *shape))
            gamma = rng.uniform(0.0, 60.0, shape)
            rho = _gibbs_weights(rhat, gamma)
            column = means.reshape(-1, *[1] * len(shape))
            reward = _left_fold(rho * column)
            for x, w in zip(_layouts(rhat), _layouts(rho)):
                assert _arm_sum(x).tobytes() == _left_fold(rhat).tobytes()
                assert _gibbs_weights(x, gamma).tobytes() == rho.tobytes()
                assert _expected_reward(w, means).tobytes() == reward.tobytes()
                assert _expected_reward(w, np.broadcast_to(column, w.shape)).tobytes() == reward.tobytes()
            columns, gammas = rhat.reshape(k, -1).T, gamma.reshape(-1)
            for j in rng.integers(0, len(gammas), 5):
                alone = _gibbs_weights(columns[j], gammas[j])
                assert alone.tobytes() == rho.reshape(k, -1)[:, j].tobytes()
                assert _expected_reward(alone, means) == reward.reshape(-1)[j]

    @given(k=st.sampled_from([2, 3, 7, 8, 9, 16, 33]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_choose_arms_in_every_layout_and_block(self, k, seed):
        rng = np.random.default_rng(seed)
        pi = rng.dirichlet(np.ones(k), 37 * 29).T
        u = rng.random(pi.shape[1])
        mask = _choose_arms(pi, u)
        for x in _layouts(pi):
            assert np.array_equal(_choose_arms(x, u), mask)
        arms = mask.sum(axis=0)
        assert arms.tolist() == [_scan_arm(c, v) for c, v in zip(pi.T.tolist(), u.tolist())]
        for j in rng.integers(0, len(u), 20):
            assert np.array_equal(_choose_arms(pi[:, j : j + 1], u[j : j + 1]), mask[:, j : j + 1])


class TestEstimates:
    def test_single_update(self):
        state = PolicyState.initial(2)
        pi = SimplexVector(np.array([0.5, 0.5]))
        after = update_estimates(state, pi, arm=0, reward=1.0)
        assert after.t == 1
        assert after.weighted_sums == pytest.approx([2.0, 0.0])
        assert after.rhat == pytest.approx([2.0, 0.0])
        assert after.pi_lmin == 0.5

    def test_lmin_tracks_minimum(self):
        state = PolicyState.initial(2)
        pi = SimplexVector(np.array([0.9, 0.1]))
        after = update_estimates(state, pi, arm=0, reward=0.0)
        assert after.pi_lmin == pytest.approx(0.1)
        # A later, more balanced policy cannot raise the running minimum.
        later = update_estimates(after, SimplexVector(np.array([0.5, 0.5])), 1, 1.0)
        assert later.pi_lmin == pytest.approx(0.1)

    def test_one_round_unbiasedness_by_enumeration(self):
        # E[rhat_a after one round] = mean_a: sum the four (arm, reward)
        # outcomes of Bernoulli rewards under a fixed policy.
        pi = SimplexVector(np.array([0.3, 0.7]))
        means = (0.8, 0.4)
        expected = np.zeros(2)
        for arm in (0, 1):
            for reward in (0.0, 1.0):
                prob = pi.weights[arm] * (
                    means[arm] if reward == 1.0 else 1.0 - means[arm]
                )
                state = update_estimates(PolicyState.initial(2), pi, arm, reward)
                expected += prob * state.rhat
        assert expected == pytest.approx(means, abs=1e-14)

    def test_initial_state(self):
        state = PolicyState.initial(3)
        assert state.t == 0
        assert state.pi_lmin == pytest.approx(1 / 3)
        assert state.rhat == pytest.approx([0.0, 0.0, 0.0])


class TestEnvironment:
    def test_basic_properties(self):
        env = Environment(means=np.array([0.2, 0.9, 0.9]))
        assert env.n_arms == 3
        assert env.best_arm == 1  # first maximizer wins ties
        assert env.best_mean == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            Environment(means=np.array([0.5, 1.2]))
        with pytest.raises(ValueError):
            Environment(means=np.array([[0.5, 0.4]]))
        with pytest.raises(ValueError):
            Environment(means=np.array([0.5, 0.4]), reward_kind="gaussian")

    def test_beta_rewards_live_on_grid(self):
        env = Environment(means=np.array([0.35, 0.0, 1.0]), reward_kind="beta")
        step = 1.0 / (BETA_LEVELS - 1)
        table = _payouts(env, 500, [np.random.default_rng(1)], [np.random.default_rng(2)])[0]
        assert table.shape == (500, 3)
        draws = table[:, 0]
        assert np.all((draws >= 0.0) & (draws <= 1.0))
        assert np.allclose(draws / step, np.round(draws / step), atol=1e-9)
        # Stochastic rounding preserves the mean; 500 draws put the sample
        # mean within a few standard errors (deterministic given the seed).
        assert abs(draws.mean() - 0.35) < 0.05
        # An arm whose mean is 0 or 1 always pays its mean.
        assert np.all(table[:, 1] == 0.0) and np.all(table[:, 2] == 1.0)


class TestRunGame:
    def test_warmup_only(self):
        env = Environment(means=np.array([0.9, 0.1]))
        trace = run_game(env, horizon=7, seed=0)  # default warmup 2^3 = 8
        assert trace.pi.shape == (8, 2)
        assert np.allclose(trace.pi, 0.5)

    def test_deterministic(self):
        env = Environment(means=np.array([0.8, 0.4, 0.2]))
        a = run_game(env, horizon=60, seed=123)
        b = run_game(env, horizon=60, seed=123)
        for field in ("pi", "actions", "rewards", "rhat", "pi_lmin"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        c = run_game(env, horizon=60, seed=124)
        assert not np.array_equal(a.actions, c.actions)

    def test_seed_kinds_agree(self):
        env = Environment(means=np.array([0.8, 0.4]))
        a = run_game(env, horizon=30, seed=7)
        b = run_game(env, horizon=30, seed=np.random.SeedSequence(7))
        c = run_game(env, horizon=30, seed=np.random.default_rng(7))
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.actions, c.actions)

    def test_policy_recomputation(self):
        # Round t >= warmup plays smooth(gibbs(rhat_{t-1}, gamma_{t-1}), eps_t)
        # with eps_t capped at 1/K; recompute every row from the stored
        # estimates and match bit-for-bit misfit-free.
        env = Environment(means=np.array([0.75, 0.25]))
        trace = run_game(env, horizon=40, seed=5, warmup_length=2)
        k = env.n_arms
        gamma, epsilon = _schedule_arrays(k, range(1, len(trace.actions) + 1))
        for t in range(2, len(trace.actions) + 1):
            if t == 1:
                rho_w = np.full(k, 1.0 / k)
            else:
                gamma_prev = gamma[t - 2]
                rho_w = _gibbs_weights(trace.rhat[t - 2], gamma_prev)
            eps_t = min(epsilon[t - 1], 1.0 / k)
            expected = _smooth_weights(rho_w, eps_t)
            assert trace.pi[t - 1] == pytest.approx(expected, abs=1e-13), t

    def test_exploration_floor(self):
        env = Environment(means=np.array([0.9, 0.1]))
        trace = run_game(env, horizon=100, seed=3)
        k = env.n_arms
        _, epsilon = _schedule_arrays(k, range(1, 101))
        for t in range(1, 101):
            row = trace.pi[t - 1]
            if t < k**3:
                assert np.allclose(row, 0.5)
            else:
                eps_t = min(epsilon[t - 1], 1.0 / k)
                assert row.min() >= eps_t - 1e-12
        # The policies sum to one every round.
        assert np.allclose(trace.pi.sum(axis=1), 1.0, atol=1e-12)

    def test_short_warmup_keeps_simplex(self):
        # warmup_length=1 makes round 1 a smoothed round where the raw
        # epsilon exceeds 1/K; the floor caps it at 1/K, which keeps the
        # policy on the simplex and makes it exactly uniform.
        env = Environment(means=np.array([0.6, 0.3]))
        trace = run_game(env, horizon=10, seed=1, warmup_length=1)
        assert np.allclose(trace.pi.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(trace.pi[0], 0.5)  # capped eps = 1/K, uniform rho

    @pytest.mark.parametrize("k", [49, 50, 64])
    def test_round_one_smooths_by_the_first_floor(self, k):
        # Round 1 plays the uniform policy smoothed by its floor, 1/K.  At
        # K = 49, K * (1/K) rounds below 1, so that policy is not exactly
        # uniform.
        env = Environment(means=np.linspace(0.9, 0.1, k))
        trace = run_game(env, horizon=1, seed=k, warmup_length=1)
        expected = _smooth_weights(np.full(k, 1.0 / k), min(float(k) ** -0.25, 1.0 / k))
        assert trace.pi[0].tobytes() == expected.tobytes()
        assert np.array_equal(expected, np.full(k, 1.0 / k)) == (k != 49)

    @pytest.mark.parametrize("kind", ["bernoulli", "point", "beta"])
    @pytest.mark.parametrize("k", [2, 3, 49, 98])
    def test_warmup_up_to_k_cubed_plays_the_default_game(self, k, kind):
        # Before round K^3 the floor is 1/K whatever the warmup, so every
        # such round smooths its Gibbs policy the same way; at K = 49 and 98,
        # where K * (1/K) != 1, that policy is uniform only to within an ulp.
        env = Environment(means=np.linspace(0.8, 0.2, k), reward_kind=kind)
        horizon = 60
        default = run_game(env, horizon, seed=k)
        for warmup in (1, k**3 - 1):
            short = run_game(env, horizon, seed=k, warmup_length=warmup)
            for field in ("pi", "actions", "rewards", "rhat", "rho", "pi_lmin", "floor"):
                same = np.array_equal(getattr(short, field), getattr(default, field))
                assert same, (warmup, field)

    @pytest.mark.parametrize("k", [2, 3])
    def test_long_warmup_smooths_by_one_over_k(self, k):
        # A warmup past K^3 holds the floor at 1/K, where the schedule's
        # floor has already dropped below it; every policy keeps its floor,
        # round T+1's included.
        env = Environment(means=np.linspace(0.8, 0.2, k))
        warmup, horizon = k**3 + 20, k**3 + 40
        trace = run_game(env, horizon, seed=k, warmup_length=warmup)
        _, epsilon = _schedule_arrays(k, range(1, horizon + 2))
        assert np.all(trace.floor[: warmup - 1] == 1.0 / k)
        assert np.array_equal(trace.floor[warmup - 1 :], np.minimum(epsilon, 1.0 / k)[warmup - 1 :])
        assert np.all(trace.pi >= trace.floor[:, None])

    def test_running_lmin(self):
        env = Environment(means=np.array([0.9, 0.5, 0.1]))
        trace = run_game(env, horizon=120, seed=8)
        expected = np.minimum.accumulate(
            np.minimum(trace.pi[:-1].min(axis=1), 1.0 / env.n_arms)
        )
        assert trace.pi_lmin == pytest.approx(expected, abs=0.0)

    def test_estimates_match_importance_weighting(self):
        env = Environment(means=np.array([0.7, 0.2]))
        trace = run_game(env, horizon=50, seed=21)
        sums = np.zeros(env.n_arms)
        for t in range(len(trace.actions)):
            a = int(trace.actions[t])
            w = trace.rewards[t] / trace.pi[t, a]
            sums[a] += w
            assert trace.rhat[t] == pytest.approx(sums / (t + 1), rel=1e-12)
            # Importance weights never exceed the inverse running floor.
            assert w <= 1.0 / trace.pi_lmin[t] + 1e-9

    @pytest.mark.parametrize("kind, copies", [("point", 0), ("bernoulli", 3), ("beta", 6)])
    def test_only_drawn_payouts_copy_the_stream(self, kind, copies):
        # Point payouts are the means and read no payout stream, so a point
        # game copies no bit generator; the others copy one or two per seed.
        calls = []
        real_copy = bandit.copy.copy

        def counting_copy(x):
            calls.append(x)
            return real_copy(x)

        env = Environment(means=np.array([0.65, 0.35]), reward_kind=kind)
        with mock.patch.object(bandit.copy, "copy", counting_copy):
            list(_play_windows(env, 10, [0, 1, 2]))
        assert len(calls) == copies

    def test_reward_kinds(self):
        means = np.array([0.65, 0.35])
        point = run_game(Environment(means=means, reward_kind="point"), 20, seed=2)
        for t in range(20):
            assert point.rewards[t] == means[int(point.actions[t])]
        bern = run_game(Environment(means=means, reward_kind="bernoulli"), 20, seed=2)
        assert set(np.unique(bern.rewards)) <= {0.0, 1.0}
        beta = run_game(Environment(means=means, reward_kind="beta"), 20, seed=2)
        assert np.all((beta.rewards >= 0.0) & (beta.rewards <= 1.0))

    @given(
        k=st.integers(2, 8),
        horizon=st.integers(1, 300),
        kind=st.sampled_from(["bernoulli", "point", "beta"]),
        warmup_length=st.none() | st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        position=st.integers(1, 7),
        window=st.integers(1, 40),
    )
    def test_step_api_replays_the_game(
        self, k, horizon, kind, warmup_length, seed, position, window
    ):
        # The step API is the engine's per-round reference: replaying the
        # trace's arms and rewards through it must give every policy,
        # estimate and running floor bit for bit, and the round-T+1 policy.
        # The trace is row ``position`` of a lockstep block of eight, played
        # ``window`` rounds at a time.
        rng = np.random.default_rng(seed)
        env = Environment(means=rng.uniform(0.0, 1.0, k), reward_kind=kind)
        seeds = [seed + 1 + j for j in range(8)]
        seeds[position] = seed
        warmup = k**3 if warmup_length is None else warmup_length
        with mock.patch.multiple(bandit, _WINDOW=window, _WINDOW_ENTRIES=0):
            windows = list(_play_windows(env, horizon, seeds, warmup))
        trace = _join(windows, position)

        gamma, epsilon = _schedule_arrays(k, range(1, horizon + 2))  # rounds 1..T+1

        def policy(t, state):
            if t < warmup:
                return SimplexVector.uniform(k)
            if t == 1:
                rho = SimplexVector.uniform(k)
            else:
                rho = gibbs_posterior(state.rhat, gamma[t - 2])
            return smooth_policy(rho, min(epsilon[t - 1], 1.0 / k))

        state = PolicyState.initial(k)
        for t in range(1, horizon + 1):
            pi = policy(t, state)
            assert np.array_equal(pi.weights, trace.pi[t - 1]), t
            arm, reward = int(trace.actions[t - 1]), float(trace.rewards[t - 1])
            state = update_estimates(state, pi, arm, reward)
            assert np.array_equal(state.rhat, trace.rhat[t - 1]), t
            assert state.pi_lmin == trace.pi_lmin[t - 1], t
        assert np.array_equal(policy(horizon + 1, state).weights, trace.pi[-1])

    def test_trace_is_read_only(self):
        env = Environment(means=np.array([0.5, 0.4]))
        trace = run_game(env, 10, seed=0)
        with pytest.raises(ValueError):
            trace.pi[0, 0] = 9.0
        with pytest.raises(ValueError):
            trace.rewards[0] = 9.0
        for arr in (trace.rho, trace.floor, trace.pi_lmin):
            with pytest.raises(ValueError):
                arr[0] = 9.0

    def test_validation(self):
        env = Environment(means=np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            run_game(env, horizon=0, seed=0)
        with pytest.raises(ValueError):
            run_game(Environment(means=np.array([0.5])), horizon=5, seed=0)
        with pytest.raises(ValueError):
            run_game(env, horizon=5, seed=0, warmup_length=0)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        env = Environment(means=np.array([0.8, 0.3]))
        trace = run_game(env, horizon=12, seed=4)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "action", "reward", "pi_0", "pi_1", "rhat_0", "rhat_1"]
        assert len(rows) == 13
        for t in range(12):
            rec = rows[t + 1]
            assert int(rec[0]) == t + 1
            assert int(rec[1]) == int(trace.actions[t])
            assert float(rec[2]) == trace.rewards[t]  # repr round-trips exactly
            assert float(rec[3]) == trace.pi[t, 0]
            assert float(rec[6]) == trace.rhat[t, 1]

    def test_each_reward_keeps_its_own_text(self, tmp_path):
        # The writer formats each distinct reward once; -0.0 and 0.0 compare
        # equal but are distinct payouts with distinct texts.
        env = Environment(means=np.array([0.5, -0.0, 0.0]), reward_kind="point")
        trace = run_game(env, horizon=200, seed=1)
        write_trace_csv(trace, tmp_path / "trace.csv")
        with open(tmp_path / "trace.csv", newline="") as fh:
            rewards = [row[2] for row in list(csv.reader(fh))[1:]]
        assert rewards == [repr(float(env.means[a])) for a in trace.actions]
        assert {"-0.0", "0.0", "0.5"} == set(rewards)
