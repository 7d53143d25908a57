"""Scalar references the array kernels are checked against.

* The step API, a per-round reference for the game engine.
  ``PolicyState``, ``update_estimates``, ``gibbs_posterior`` and
  ``smooth_policy`` play one round at a time on validated ``SimplexVector``
  policies.  No campaign uses them; ``test_step_api_replays_the_game``
  checks the lockstep engine against them round by round, and the tests of
  each piece pin the rules they encode.
* Both sides of the domination lemma, one scalar ``f`` call per path: the
  depth-first walk of a chain's prefix tree, the loop over the 2^N bit
  paths, and the convex test family as functions of one path tuple.  The
  path-matrix kernel in ``concentration`` must match them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from banditbounds.bandit import _gibbs_weights, _smooth_weights
from banditbounds.concentration import _EXP_CAP
from banditbounds.divergences import _check_pi_lmin, _check_unit, bernoulli_kl

# Simplex sums within _SUM_TOL of 1 are accepted as-is; deviations up to
# _RENORM_TOL are renormalized; anything larger is rejected as malformed.
_SUM_TOL = 1e-12
_RENORM_TOL = 1e-9


class ScheduleError(ValueError):
    """Raised when a smoothing amount is incompatible with the simplex."""


@dataclass(frozen=True, eq=False)
class SimplexVector:
    """An immutable probability vector.

    Entries must be nonnegative (tiny negative float noise up to 1e-12 is
    clipped to zero) and sum to 1.  A sum deviating from 1 by less than
    1e-9 is renormalized; larger deviations are rejected.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float, copy=True)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0.0):
            if np.any(w < -_SUM_TOL):
                raise ValueError("weights must be nonnegative")
            w[w < 0.0] = 0.0
        s = float(w.sum())
        if abs(s - 1.0) > _RENORM_TOL:
            raise ValueError(f"weights sum to {s!r}, too far from 1 to renormalize")
        if abs(s - 1.0) > _SUM_TOL:
            w = w / s
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n_arms: int) -> "SimplexVector":
        if n_arms < 1:
            raise ValueError("need at least one category")
        return cls(np.full(n_arms, 1.0 / n_arms))

    @property
    def n_arms(self) -> int:
        return int(self.weights.size)

    def min_weight(self) -> float:
        return float(self.weights.min())


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


def tree_walk_expectation(chain, f) -> float:
    """E[f(X_1..X_N)] under the chain, by a depth-first walk of its prefix
    tree; a path whose probability underflows to 0 is dropped, as in the
    bit loop."""
    values = chain.support
    total = 0.0
    stack = [((), 1.0)]
    while stack:
        prefix, prob = stack.pop()
        if len(prefix) == chain.length:
            if prob > 0.0:
                total += prob * float(f(tuple(values[j] for j in prefix)))
            continue
        for j, pr in enumerate(chain.transitions[prefix]):
            if pr > 0.0:
                stack.append((prefix + (j,), prob * pr))
    return total


def bit_loop_expectation(length: int, p: float, f) -> float:
    """E[f(Y_1..Y_N)] for Y_i i.i.d. Bernoulli(p), one bit path at a time."""
    total = 0.0
    for bits in range(2**length):
        path = tuple(float((bits >> i) & 1) for i in range(length))
        ones = sum(1 for x in path if x == 1.0)
        weight = p**ones * (1.0 - p) ** (length - ones)
        if weight > 0.0:
            total += weight * float(f(path))
    return total


def scalar_convex_test_functions(length: int, mean: float):
    """``convex_test_functions`` as functions of one path tuple."""

    def f_max(xs):
        return max(xs)

    def f_square_sum(xs):
        return sum(xs) ** 2

    def f_kl_moment(xs):
        x_bar = min(max(sum(xs) / length, 0.0), 1.0)
        exponent = length * bernoulli_kl(x_bar, mean)
        return math.exp(exponent) if exponent < _EXP_CAP else math.inf

    return (("max", f_max), ("square_sum", f_square_sum), ("kl_moment", f_kl_moment))
