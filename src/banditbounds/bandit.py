"""Importance-weighted bandit game: environments, the smoothed Gibbs
strategy, estimate updates, and full-trace simulation.

Strategy timeline: rounds t < K^3 play the uniform warmup policy; from
round K^3 onward the policy is the Gibbs distribution over running
importance-weighted estimates, smoothed so every arm keeps probability at
least epsilon_t.  At the handoff round K*epsilon_t equals 1, which makes
the first smoothed policy uniform regardless of the estimates, so the two
phases join seamlessly.  Every smoothed round uses the floor
min(epsilon_t, 1/K), which keeps K*epsilon <= 1.  Before round K^3 that cap
is active and smooths any estimates to exactly the uniform policy (for
K < 49, where K*(1/K) rounds to 1), so a configured warmup shorter than K^3
plays the default game bit for bit; only a longer warmup changes the game,
by extending the uniform phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divergences import SimplexVector, _check_pi_lmin, _check_unit

__all__ = [
    "Environment",
    "GameTrace",
    "PolicyState",
    "ScheduleError",
    "ScheduleParams",
    "gibbs_posterior",
    "run_game",
    "schedules",
    "smooth_policy",
    "update_estimates",
]

REWARD_KINDS = ("bernoulli", "point", "beta")
BETA_CONCENTRATION = 4.0  # alpha + beta of the Beta reward distribution
BETA_LEVELS = 21          # grid points the Beta draws are rounded onto


class ScheduleError(ValueError):
    """Raised when a smoothing amount is incompatible with the simplex."""


class ScheduleParams(NamedTuple):
    gamma: float
    epsilon: float


def _schedule_arrays(n_arms: int, ts) -> tuple[np.ndarray, np.ndarray]:
    """gamma_t = (K t)^(1/4) and epsilon_t = (K t)^(-1/4) for every t in ``ts``.

    Each entry is one scalar libm ``pow``, the arithmetic the game plays;
    numpy's vectorized ``pow`` differs from it in the last ulp on some rounds.
    """
    kts = [float(n_arms * t) for t in ts]
    return np.array([kt**0.25 for kt in kts]), np.array([kt**-0.25 for kt in kts])


def _pi_floor(n_arms: int, epsilon):
    """min(epsilon_t, 1/K): the smoothing amount a policy uses and the
    deterministic lower bound on its smallest entry, warmup included."""
    return np.minimum(epsilon, 1.0 / n_arms)


def schedules(t: int, n_arms: int) -> ScheduleParams:
    """Learning-rate and exploration schedules gamma_t = (K t)^(1/4), epsilon_t = (K t)^(-1/4)."""
    t = int(t)
    n_arms = int(n_arms)
    if t < 1:
        raise ValueError("t must be a positive integer")
    if n_arms < 2:
        raise ValueError("need at least two arms")
    gamma, epsilon = _schedule_arrays(n_arms, (t,))
    return ScheduleParams(gamma=float(gamma[0]), epsilon=float(epsilon[0]))


@dataclass(frozen=True, eq=False)
class Environment:
    """K reward distributions on [0,1] with known means.

    ``reward_kind`` selects the shape: "bernoulli", "point" (deterministic),
    or "beta" (a Beta draw with matching mean, stochastically rounded onto a
    uniform grid so the support is finite and the mean is preserved exactly).
    """

    means: np.ndarray
    reward_kind: str = "bernoulli"

    def __post_init__(self) -> None:
        means = np.array(self.means, dtype=float, copy=True)
        if means.ndim != 1 or means.size < 1:
            raise ValueError("means must be a nonempty 1-d vector")
        for m in means:
            _check_unit(float(m), "mean")
        means.setflags(write=False)
        object.__setattr__(self, "means", means)
        if self.reward_kind not in REWARD_KINDS:
            raise ValueError(f"unknown reward_kind {self.reward_kind!r}")

    @property
    def n_arms(self) -> int:
        return int(self.means.size)

    @property
    def best_arm(self) -> int:
        # np.argmax takes the first maximizer, which is the tie rule here.
        return int(np.argmax(self.means))

    @property
    def best_mean(self) -> float:
        return float(self.means[self.best_arm])


@dataclass(frozen=True, eq=False)
class PolicyState:
    """Running estimate state after t rounds.

    ``weighted_sums[a]`` accumulates the importance-weighted samples
    R_s/pi_s(a) of rounds where arm a was played; ``pi_lmin`` is the
    smallest sampling probability assigned to any arm so far (1/K before
    the first round, so the invariant pi_lmin in (0, 1/K] always holds).
    """

    t: int
    weighted_sums: np.ndarray
    pi_lmin: float

    def __post_init__(self) -> None:
        sums = np.array(self.weighted_sums, dtype=float, copy=True)
        if sums.ndim != 1 or sums.size < 1:
            raise ValueError("weighted_sums must be a nonempty 1-d vector")
        if int(self.t) < 0:
            raise ValueError("t must be nonnegative")
        sums.setflags(write=False)
        object.__setattr__(self, "weighted_sums", sums)
        object.__setattr__(self, "t", int(self.t))
        object.__setattr__(self, "pi_lmin", _check_pi_lmin(self.pi_lmin))

    @classmethod
    def initial(cls, n_arms: int) -> "PolicyState":
        if n_arms < 1:
            raise ValueError("need at least one arm")
        return cls(t=0, weighted_sums=np.zeros(n_arms), pi_lmin=1.0 / n_arms)

    @property
    def n_arms(self) -> int:
        return int(self.weighted_sums.size)

    @property
    def rhat(self) -> np.ndarray:
        if self.t == 0:
            return np.zeros(self.n_arms)
        return self.weighted_sums / self.t


def update_estimates(
    state: PolicyState, pi: SimplexVector, arm: int, reward: float
) -> PolicyState:
    """Fold one observed round into the running state."""
    if pi.n_arms != state.n_arms:
        raise ValueError("policy dimension does not match the state")
    if not 0 <= int(arm) < state.n_arms:
        raise ValueError(f"arm {arm} outside 0..{state.n_arms - 1}")
    reward = _check_unit(reward, "reward")
    prob = float(pi.weights[arm])
    if prob <= 0.0:
        raise ValueError("observed an arm the policy assigns zero probability")
    sums = state.weighted_sums.copy()
    sums[int(arm)] += reward / prob
    return PolicyState(
        t=state.t + 1,
        weighted_sums=sums,
        pi_lmin=min(state.pi_lmin, pi.min_weight()),
    )


# The two policy kernels take one row with a float parameter, or a (T, K)
# matrix with a (T, 1) parameter column; every row of a matrix call equals
# the 1-d call on that row bit for bit.


def _gibbs_weights(r_hat: np.ndarray, gamma) -> np.ndarray:
    # Working on the transpose lets the per-row max and sum broadcast back
    # without keepdims, which would add about 1 us to every game round; on
    # a single row .T is a no-op.
    z = (gamma * r_hat).T
    z = z - z.max(axis=0)
    w = np.exp(z)
    return (w / w.sum(axis=0)).T


def gibbs_posterior(r_hat, gamma: float) -> SimplexVector:
    """Distribution proportional to exp(gamma * r_hat), max-shifted for stability."""
    r_hat = np.asarray(r_hat, dtype=float)
    if r_hat.ndim != 1 or r_hat.size < 1:
        raise ValueError("r_hat must be a nonempty 1-d vector")
    if not np.all(np.isfinite(r_hat)):
        raise ValueError("r_hat must be finite")
    gamma = float(gamma)
    if math.isnan(gamma) or gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    return SimplexVector(_gibbs_weights(r_hat, gamma))


def _smooth_weights(rho_w: np.ndarray, epsilon) -> np.ndarray:
    return (1.0 - rho_w.shape[-1] * epsilon) * rho_w + epsilon


def smooth_policy(rho: SimplexVector, epsilon_next: float) -> SimplexVector:
    """Mix toward uniform so every arm keeps probability >= epsilon_next."""
    epsilon_next = float(epsilon_next)
    if math.isnan(epsilon_next) or epsilon_next < 0.0:
        raise ValueError("epsilon_next must be nonnegative")
    if rho.n_arms * epsilon_next > 1.0 + 1e-12:
        raise ScheduleError(
            f"K*epsilon = {rho.n_arms * epsilon_next!r} exceeds 1; "
            "the smoothed policy would leave the simplex"
        )
    return SimplexVector(_smooth_weights(rho.weights, epsilon_next))


@dataclass(frozen=True, eq=False)
class GameTrace:
    """Complete record of one trajectory.

    Row t (0-indexed as t-1) holds the policy played at round t, the arm
    and reward drawn, the estimate vector after the round, and the running
    minimum sampling probability.  ``next_pi`` is the policy the game
    forms for round T+1, which it never plays.
    """

    n_arms: int
    horizon: int
    warmup_length: int
    pi: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    rhat: np.ndarray
    pi_lmin: np.ndarray
    next_pi: np.ndarray


def _payouts(env: Environment, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """(T, K) table whose entry [t, a] is what arm a pays if played in round t+1.

    Bernoulli rewards compare one uniform per round with every mean; point
    rewards are the means themselves (a read-only view).  Beta rewards take
    one Beta draw per arm per round, then one uniform per arm per round that
    rounds it stochastically onto the BETA_LEVELS-point grid of [0, 1],
    which keeps the mean exact; an arm whose mean is 0 or 1 pays its mean.
    """
    means = env.means
    if env.reward_kind == "bernoulli":
        return (rng.random(horizon)[:, None] < means).astype(float)
    if env.reward_kind == "point":
        return np.broadcast_to(means, (horizon, means.size))
    inner = (means > 0.0) & (means < 1.0)
    m = np.where(inner, means, 0.5)  # any valid shape; those draws go unused
    x = rng.beta(BETA_CONCENTRATION * m, BETA_CONCENTRATION * (1.0 - m), size=(horizon, m.size))
    step = 1.0 / (BETA_LEVELS - 1)
    g = np.minimum(np.floor(x / step), BETA_LEVELS - 2) * step
    up = rng.random((horizon, m.size)) < (x - g) / step
    return np.where(inner, g + step * up, means)


def _sample_index(weights: np.ndarray, u: float) -> int:
    acc = 0.0
    last = weights.size - 1
    for j in range(last):
        acc += weights[j]
        if u < acc:
            return j
    return last


def run_game(
    env: Environment,
    horizon: int,
    seed,
    *,
    warmup_length: int | None = None,
) -> GameTrace:
    """Play the smoothed Gibbs strategy for ``horizon`` rounds.

    The uniform warmup lasts ``warmup_length`` rounds (default K^3).  Fully
    deterministic given ``seed`` (an int, SeedSequence, or Generator): the
    action uniforms and then the payout table are drawn before the first
    round, so the round loop itself never touches the generator.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError("horizon must be a positive integer")
    k = env.n_arms
    if k < 2:
        raise ValueError("need at least two arms")
    if warmup_length is not None and int(warmup_length) < 1:
        raise ValueError("warmup_length must be a positive integer")
    warmup = int(warmup_length) if warmup_length is not None else k**3
    rng = np.random.default_rng(seed)
    action_uniforms = rng.random(horizon).tolist()
    payouts = _payouts(env, horizon, rng)
    gamma, epsilon = _schedule_arrays(k, range(1, horizon + 2))
    # Python lists keep numpy scalars out of the round loop.
    gammas, floors = gamma.tolist(), _pi_floor(k, epsilon).tolist()

    pi_rows = np.empty((horizon, k))
    actions = np.empty(horizon, dtype=np.int64)
    rhat_rows = np.empty((horizon, k))

    uniform_w = np.full(k, 1.0 / k)
    sums = np.zeros(k)
    inv_k = 1.0 / k

    # Round T+1 only forms its policy, which the trace keeps as next_pi.
    for t in range(1, horizon + 2):
        row = t - 1
        if t < warmup:
            pi_w = uniform_w
        else:
            rho_w = uniform_w if t == 1 else _gibbs_weights(rhat_rows[row - 1], gammas[t - 2])
            # Before K^3 the floor is 1/K and pi_w is uniform whatever rho_w
            # is; from K^3 on it is epsilon_t.
            pi_w = _smooth_weights(rho_w, floors[row])
        if t > horizon:
            break
        arm = _sample_index(pi_w, action_uniforms[row])
        sums[arm] += payouts[row, arm] / pi_w[arm]
        pi_rows[row] = pi_w
        actions[row] = arm
        rhat_rows[row] = sums / t

    rewards = payouts[np.arange(horizon), actions]
    lmin_rows = np.minimum.accumulate(np.minimum(pi_rows.min(axis=1), inv_k))
    next_pi = np.array(pi_w)
    for arr in (pi_rows, actions, rewards, rhat_rows, lmin_rows, next_pi):
        arr.setflags(write=False)
    return GameTrace(
        n_arms=k,
        horizon=horizon,
        warmup_length=warmup,
        pi=pi_rows,
        actions=actions,
        rewards=rewards,
        rhat=rhat_rows,
        pi_lmin=lmin_rows,
        next_pi=next_pi,
    )
