"""Importance-weighted bandit game: environments, the smoothed Gibbs
strategy, estimate updates, and full-trace simulation.

One policy rule: round t plays the Gibbs distribution over the running
importance-weighted estimates (uniform before any estimate), smoothed so
every arm keeps at least the round's floor.  The floor is 1/K in the warmup,
the rounds t < warmup_length (K^3 by default), and min(epsilon_t, 1/K)
after it, which keeps K*floor <= 1.  Smoothing by 1/K gives the uniform
policy whatever the estimates (exactly wherever K*(1/K) rounds to 1, as it
does for every K <= 48), and min(epsilon_t, 1/K) is already 1/K before round
K^3, so any warmup up to K^3 plays the default game bit for bit; a longer
one extends the uniform phase.

Engine: ``_play_windows`` plays a block of B trajectories in lockstep in
arms-first buffers, trajectory index last, and hands them out ``_WINDOW`` = R
rounds at a time, drawing each window's action uniforms and payouts as it
goes.  Every sum over arms is one left fold, so a trajectory's rounds do not
depend on the block or on where the windows break, and a game of any reward
kind holds O(B R K) memory whatever the horizon.  ``run_game`` is the block
of one, its windows joined into one ``Window`` with no block axis.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divergences import _check_count, _check_unit

__all__ = [
    "Environment",
    "Window",
    "run_game",
]

REWARD_KINDS = ("bernoulli", "point", "beta")
BETA_CONCENTRATION = 4.0  # alpha + beta of the Beta reward distribution
BETA_LEVELS = 21          # grid points the Beta draws are rounded onto


def _schedule_arrays(n_arms: int, ts) -> tuple[np.ndarray, np.ndarray]:
    """gamma_t = (K t)^(1/4) and epsilon_t = (K t)^(-1/4) for every t in ``ts``.

    Each entry is one scalar libm ``pow``, the arithmetic the game plays;
    numpy's vectorized ``pow`` differs from it in the last ulp on some rounds.
    """
    kts = [float(n_arms * t) for t in ts]
    return np.array([kt**0.25 for kt in kts]), np.array([kt**-0.25 for kt in kts])


def _pi_floor(n_arms: int, epsilon):
    """min(epsilon_t, 1/K): the floor a round's policy is smoothed by once
    the warmup has ended, and a deterministic lower bound on the smallest
    entry of every round's policy, warmup included."""
    return np.minimum(epsilon, 1.0 / n_arms)


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


# The policy kernels and the folds take the arm axis first: a (K,) row with a
# float parameter, or a (K, B) block with a (B,) one, each column the 1-d
# call's bits in any layout, and the same bytes written into ``out``.
def _arm_sum(x: np.ndarray) -> np.ndarray:
    """x[0] + x[1] + ... over the first axis, the arms, added left to right.
    numpy's sum is pairwise over a contiguous axis of 8 or more terms and
    drops a unit axis, so its bits would depend on the layout and the block."""
    return sum(x[1:], x[0])


def _gibbs_weights(r_hat: np.ndarray, gamma, out: np.ndarray | None = None) -> np.ndarray:
    w = np.multiply(gamma, r_hat, out=out)
    np.exp(np.subtract(w, np.maximum.reduce(w, axis=0), out=w), out=w)
    return np.divide(w, _arm_sum(w), out=w)


def _smooth_weights(rho_w: np.ndarray, epsilon, out: np.ndarray | None = None) -> np.ndarray:
    return np.add(np.multiply(1.0 - len(rho_w) * epsilon, rho_w, out=out), epsilon, out=out)


def _payouts(env: Environment, rounds: int, rngs, rounders=None) -> np.ndarray:
    """(B, R, K) table whose entry [j, r, a] is what arm a pays in round r+1
    of the R rounds ``rngs[j]`` draws.

    Bernoulli rewards compare one uniform per round with every mean; point
    rewards are the means themselves (a read-only view).  Beta rewards take
    one Beta draw per arm per round, and one uniform per arm per round from
    ``rounders[j]`` rounds it stochastically onto the BETA_LEVELS-point grid
    of [0, 1], which keeps the mean exact; a mean of 0 or 1 is paid as is.
    Only Beta rewards read ``rounders``.
    """
    means = env.means
    shape = (len(rngs), rounds, means.size)
    if env.reward_kind == "point":
        return np.broadcast_to(means, shape)
    if env.reward_kind == "bernoulli":
        uniforms = np.empty(shape[:2])
        for rng, row in zip(rngs, uniforms):
            rng.random(out=row)
        return (uniforms[:, :, None] < means).astype(float)
    inner = (means > 0.0) & (means < 1.0)
    m = np.where(inner, means, 0.5)  # any valid shape; those draws go unused
    a, b = BETA_CONCENTRATION * m, BETA_CONCENTRATION * (1.0 - m)
    step = 1.0 / (BETA_LEVELS - 1)
    x, u = np.empty(shape), np.empty(shape)
    for rng, rounder, xj, uj in zip(rngs, rounders, x, u):
        xj[:] = rng.beta(a, b, size=shape[1:])
        rounder.random(out=uj)
    g = np.minimum(np.floor(x / step), BETA_LEVELS - 2) * step
    return np.where(inner, g + step * (u < (x - g) / step), means)


def _choose_arms(pi: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Arm of each (K,) column of ``pi`` for its uniform in ``u``: the first
    j with u < pi_0 + ... + pi_j, or the last arm when u passes every partial
    sum.  The partial sums grow along the arms, so that arm is the number of
    them at or below u."""
    edge = pi[0]
    arm = np.greater_equal(u, edge, out=np.empty(u.shape, np.int64) if out is None else out)
    for p in pi[1:-1]:
        edge = edge + p
        arm += u >= edge
    return arm


def _expected_reward(weights: np.ndarray, means: np.ndarray) -> np.ndarray:
    """sum_a w(a) mu_a over the arm axis, axis 0, by ``_arm_sum``; ``means``
    is a (K,) vector or an array shaped like ``weights``."""
    return _arm_sum((weights.T * means.T).T)


# Rounds per window: the engine's arrays are (R, K, B) whatever the horizon,
# and the sweep's (3, R, B) temporaries stay small at the largest block.
_WINDOW = 64


class Window(NamedTuple):
    """Rounds start+1..start+R of a block of B trajectories, row j for seed j,
    in (B, R, ...) views.  ``pi`` also holds the policy formed for round
    start+R+1; ``rho`` is each round's Gibbs distribution on its estimates,
    before smoothing; ``floor`` the floor each policy in ``pi`` was smoothed
    by: 1/K in the warmup, min(epsilon_t, 1/K) after it.  ``run_game``'s
    record is one trajectory's windows joined, with no block axis: start 0,
    ``pi`` (T+1, K), ``rhat`` and ``rho`` (T, K), ``floor`` (T+1,), the rest (T,)."""

    start: int
    pi: np.ndarray       # (B, R+1, K)
    actions: np.ndarray  # (B, R)
    rewards: np.ndarray  # (B, R)
    rhat: np.ndarray     # (B, R, K)
    rho: np.ndarray      # (B, R, K)
    pi_lmin: np.ndarray  # (B, R)
    floor: np.ndarray    # (R+1,)


def _check_arms(record: Window, env: Environment) -> int:
    """The record's arm count, which must be the environment's."""
    k = record.pi.shape[-1]
    if env.n_arms != k:
        raise ValueError("environment and record disagree on the number of arms")
    return k


def _play_windows(env: Environment, horizon: int, seeds, warmup_length: int | None = None):
    """Play one trajectory per seed, all in lockstep, and yield ``Window``s.

    Each window, seed j's stream draws the R action uniforms, a copy of it
    advanced by T the Bernoulli uniforms or Beta variates, and, in a Beta
    game only, a copy advanced by 2^64 the Beta rounding uniforms.  Each
    copy draws one kind of variate, so every window reads the positions one
    up-front draw would.
    Between windows only (K, B) state is kept.  Each round is played with
    (K, B) operations that act on each column alone, so trajectory j is bit
    for bit what seed j played alone gives, whatever the block and the window.
    """
    k = env.n_arms
    warmup = warmup_length if warmup_length is not None else k**3
    size = len(seeds)
    rngs = [np.random.default_rng(seed) for seed in seeds]

    def copies(delta: int) -> list[np.random.Generator]:
        return [np.random.Generator(copy.copy(rng.bit_generator).advance(delta)) for rng in rngs]

    twins = rngs if env.reward_kind == "point" else copies(horizon)  # point payouts draw nothing
    rounders = copies(2**64) if env.reward_kind == "beta" else None

    # Each window forms its first policy from the last rho of the window
    # before; before any estimate the Gibbs distribution is uniform.
    rho_w = np.full((k, size), 1.0 / k)
    sums = np.zeros((k, size))
    lmin_carry = np.full(size, 1.0 / k)
    arm_ids = np.arange(k)[:, None]
    gain, played = np.empty((k, size)), np.empty((k, size), dtype=bool)
    for start in range(0, horizon, _WINDOW):
        n = min(_WINDOW, horizon - start)
        uniforms = np.empty((size, n))
        for rng, row in zip(rngs, uniforms):
            rng.random(out=row)
        payouts = _payouts(env, n, twins, rounders)
        # gamma_t and the floors of rounds t = start+1..start+n+1; the round
        # loop reads them as Python floats, which keep numpy scalars out.
        ts = range(start + 1, start + n + 2)
        gamma, epsilon = _schedule_arrays(k, ts)
        floor = np.where(np.array(ts) < warmup, 1.0 / k, _pi_floor(k, epsilon))
        # Arms-first (R[+1], K, B) buffers that each round writes in place; views go out.
        pi = np.empty((n + 1, k, size))
        actions = np.empty((n, size), dtype=np.int64)
        rhat = np.empty((n, k, size))
        rho = np.empty((n, k, size))
        _smooth_weights(rho_w, floor[0], out=pi[0])
        for t, gamma_t, floor_t, u, pay, pi_t, pi_next, arm, rhat_t, rho_t in zip(
            ts, gamma[:-1].tolist(), floor[1:].tolist(), uniforms.T,
            payouts.transpose(1, 2, 0), pi, pi[1:], actions, rhat, rho,
        ):
            _choose_arms(pi_t, u, out=arm)
            # Adding 0.0 to the arms not played leaves their sums exact.
            np.multiply(np.divide(pay, pi_t, out=gain), np.equal(arm, arm_ids, out=played), out=gain)
            np.add(sums, gain, out=sums)
            np.divide(sums, t, out=rhat_t)
            _gibbs_weights(rhat_t, gamma_t, out=rho_t)
            _smooth_weights(rho_t, floor_t, out=pi_next)
        rho_w = rho[-1].copy()
        rewards = payouts[np.arange(size)[:, None], np.arange(n), actions.T]
        lmin = np.minimum(np.minimum.reduce(pi[:-1], axis=1), 1.0 / k)
        np.minimum(lmin[0], lmin_carry, out=lmin[0])
        np.minimum.accumulate(lmin, axis=0, out=lmin)
        lmin_carry = lmin[-1].copy()
        pi, rhat, rho = (a.transpose(2, 0, 1) for a in (pi, rhat, rho))
        yield Window(start, pi, actions.T, rewards, rhat, rho, lmin.T, floor)


def _join(windows: list[Window], j: int) -> Window:
    """Row j of a block's windows joined along the rounds axis into one
    read-only record; ``pi`` and ``floor`` end with round T+1's entry."""
    rows = {
        name: np.concatenate([getattr(w, name)[j] for w in windows])
        for name in ("actions", "rewards", "rhat", "rho", "pi_lmin")
    }
    rows["pi"] = np.concatenate([w.pi[j, :-1] for w in windows] + [windows[-1].pi[j, -1:]])
    rows["floor"] = np.concatenate([w.floor[:-1] for w in windows] + [windows[-1].floor[-1:]])
    for arr in rows.values():
        arr.setflags(write=False)
    return Window(start=0, **rows)


def run_game(
    env: Environment,
    horizon: int,
    seed,
    *,
    warmup_length: int | None = None,
) -> Window:
    """Play the smoothed Gibbs strategy for ``horizon`` rounds.

    Rounds before ``warmup_length`` (default K^3) are smoothed by the floor
    1/K and so play the uniform policy.  Fully deterministic given ``seed``
    (an int, a SeedSequence, or a Generator whose bit generator can
    ``advance``, as numpy's default PCG64 can; ``_play_windows`` says which
    stream positions each draw reads).  This is the one-trajectory block of
    the lockstep engine; its record is the windows joined (see ``Window``).
    """
    horizon = _check_count(horizon, "horizon", 1)
    if env.n_arms < 2:
        raise ValueError("need at least two arms")
    if warmup_length is not None:
        warmup_length = _check_count(warmup_length, "warmup_length", 1)
    return _join(list(_play_windows(env, horizon, [seed], warmup_length)), 0)
