"""Scalar references the array kernels are checked against.

* The step API, a per-round reference for the game engine.
  ``PolicyState``, ``update_estimates``, ``gibbs_posterior`` and
  ``smooth_policy`` play one round at a time on ``SimplexVector`` policies,
  and trust their inputs.  No campaign uses them;
  ``test_step_api_replays_the_game`` checks the lockstep engine against
  them round by round, and the tests of each piece pin the rules they
  encode.
* The scalar binary kl ``scalar_bernoulli_kl``, in ``math.log`` with its own
  p = 0 and p = 1 branches, an independent formula that the kernel
  ``bernoulli_kl_vec`` is checked against.
* Both sides of the domination lemma, one scalar ``f`` call per path: the
  depth-first walk of a chain's prefix tree, which asks the chain's own
  conditional for each prefix, the loop over the 2^N bit paths, and the
  convex test family as functions of one path tuple.  The path-matrix
  kernel in ``concentration`` must match them.
* The depth-first construction of a chain, one prefix checked at a time,
  whose path values and probabilities ``DependentChainSpec``'s
  level-by-level walk must match bit for bit.  Both walks read a rank
  table through one lookup at the prefix's rank, ``conditional_of``.
* The scalar bound references no campaign calls: ``kl_certificate`` (with
  ``CertificateResult``), the per-round kl check that ``certificate_sweep``
  must match; ``lambda_opt`` and the general-weight ``weighted_gap_bound``,
  against which criterion 06 checks ``weighted_gap_bound_opt``; and
  ``schedule_pi_min``, the floors of rounds 1..T that those checks feed
  them: 1/K in the warmup, min(epsilon_t, 1/K) after it.
* The csv writer the harness's one joiner replaced: ``csv.writer`` rows of
  ``cell`` strings, and trace files written one call per trajectory per
  window.  Every table and trace file the harness writes must have its bytes.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from banditbounds.bandit import _gibbs_weights, _pi_floor, _schedule_arrays, _smooth_weights
from banditbounds.bounds import _SCALE_TOL, _at, _big_l, _check_pi_min_seq, _check_prior_kl, kl_budget
from banditbounds.concentration import _EXP_CAP
from banditbounds.divergences import _check_count, _check_delta, _check_pi_lmin, _check_unit, bernoulli_kl


@dataclass(frozen=True, eq=False)
class SimplexVector:
    """An immutable probability vector."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float, copy=True)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n_arms: int) -> "SimplexVector":
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
        sums.setflags(write=False)
        object.__setattr__(self, "weighted_sums", sums)

    @classmethod
    def initial(cls, n_arms: int) -> "PolicyState":
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
    prob = float(pi.weights[arm])
    sums = state.weighted_sums.copy()
    sums[int(arm)] += reward / prob
    return PolicyState(
        t=state.t + 1,
        weighted_sums=sums,
        pi_lmin=min(state.pi_lmin, pi.min_weight()),
    )


def gibbs_posterior(r_hat, gamma: float) -> SimplexVector:
    """Distribution proportional to exp(gamma * r_hat), max-shifted for stability."""
    return SimplexVector(_gibbs_weights(np.asarray(r_hat, dtype=float), float(gamma)))


def smooth_policy(rho: SimplexVector, epsilon_next: float) -> SimplexVector:
    """Mix toward uniform so every arm keeps probability >= epsilon_next."""
    return SimplexVector(_smooth_weights(rho.weights, float(epsilon_next)))


def _log_ratio(num: float, den: float) -> float:
    # log(num / den) without the intermediate overflow that a direct
    # division hits when num / den exceeds the float range (subnormal den).
    ratio = num / den
    if math.isinf(ratio):
        return math.log(num) - math.log(den)
    return math.log(ratio)


def scalar_bernoulli_kl(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q), one ``math.log`` at a time.

    Returns ``math.inf`` when ``q`` is 0 or 1 and ``p != q``.
    """
    p = _check_unit(p, "p")
    q = _check_unit(q, "q")
    if p == q:
        return 0.0
    if q <= 0.0 or q >= 1.0:
        return math.inf
    if p == 0.0:
        return -math.log1p(-q)
    if p == 1.0:
        return -math.log(q)
    return p * _log_ratio(p, q) + (1.0 - p) * _log_ratio(1.0 - p, 1.0 - q)


def conditional_of(transitions, m: int):
    """A chain's conditional as a function of the prefix: a function as it
    is, a mapping by key, and a rank table at the prefix's rank in the full
    m-ary tree, where child j of rank r has rank m*r + 1 + j."""
    if isinstance(transitions, np.ndarray):
        return lambda prefix: transitions[functools.reduce(lambda rank, j: m * rank + 1 + j, prefix, 0)]
    return transitions if callable(transitions) else transitions.__getitem__


def tree_walk_expectation(chain, f) -> float:
    """E[f(X_1..X_N)] under the chain, by a depth-first walk of its prefix
    tree that asks the chain's conditional for each prefix it reaches; a path
    whose probability underflows to 0 is dropped, as in the bit loop."""
    conditional = conditional_of(chain.transitions, len(chain.support))
    values = chain.support
    total = 0.0
    stack = [((), 1.0)]
    while stack:
        prefix, prob = stack.pop()
        if len(prefix) == chain.length:
            if prob > 0.0:
                total += prob * float(f(tuple(values[j] for j in prefix)))
            continue
        for j, pr in enumerate(conditional(prefix)):
            if pr > 0.0:
                stack.append((prefix + (j,), prob * pr))
    return total


def depth_first_chain(length: int, support, transitions, mean: float):
    """The path values and path probabilities of a chain, by a depth-first
    walk that checks one conditional at a time and pushes a prefix's children
    in ascending support index."""
    conditional = conditional_of(transitions, len(support))
    values = np.asarray(support, dtype=float)
    paths = []
    stack = [((), 1.0)]
    while stack:
        prefix, mass = stack.pop()
        if len(prefix) == length:
            paths.append((prefix, mass))
            continue
        probs = np.asarray(conditional(prefix), dtype=float)
        assert probs.shape == (len(support),) and (probs >= 0.0).all(), prefix
        assert abs(float(probs.sum()) - 1.0) <= 1e-12, prefix
        assert abs(float(np.dot(probs, values)) - mean) <= 1e-12, prefix
        for j, pr in enumerate(probs.tolist()):
            if pr > 0.0:
                stack.append((prefix + (j,), mass * pr))
    indices, path_probs = zip(*paths)
    return values[np.array(indices)], np.array(path_probs)


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
        exponent = length * scalar_bernoulli_kl(x_bar, mean)
        return math.exp(exponent) if exponent < _EXP_CAP else math.inf

    return (("max", f_max), ("square_sum", f_square_sum), ("kl_moment", f_kl_moment))


def cell(x) -> str:
    """Floats by ``repr``, ints by ``str``, booleans as true/false; nan and None are empty."""
    if isinstance(x, float):
        return float.__repr__(x) if x == x else ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return "" if x is None else str(x)


def write_csv(out, columns: dict, header: bool = True) -> None:
    """One table to an open text file, a row at a time through ``csv.writer``;
    without ``header`` only the rows, to continue a table."""
    writer = csv.writer(out)
    if header:
        writer.writerow(columns)
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    for row in zip(*cells):
        writer.writerow([cell(x) for x in row])


def trace_columns(start: int, actions, rewards, pi, rhat) -> dict:
    """Rounds start+1.. of one trajectory: t, action, reward, policy entries, estimates."""
    ts = np.arange(start + 1, start + len(actions) + 1)
    return {"t": ts, "action": actions, "reward": rewards} | {
        f"{name}_{a}": col[:, a] for name, col in (("pi", pi), ("rhat", rhat)) for a in range(pi.shape[1])
    }


def write_traces(files, windows) -> None:
    """A block's windows added to its trajectories' trace files, row j to
    ``files[j]``: one ``write_csv`` call per trajectory per window."""
    for w in windows:
        for j, fh in enumerate(files):
            columns = trace_columns(w.start, w.actions[j], w.rewards[j], w.pi[j, :-1], w.rhat[j])
            write_csv(fh, columns, header=w.start == 0)


def schedule_pi_min(n_arms: int, horizon: int, warmup_length: int | None = None) -> np.ndarray:
    """The floors of rounds 1..T: 1/K before ``warmup_length`` (default K^3),
    the schedule's min(epsilon_t, 1/K) after it.  Each is a deterministic
    lower bound on min_a pi_t(a); min(epsilon_t, 1/K) is one at every round."""
    _, epsilon = _schedule_arrays(n_arms, range(1, horizon + 1))
    warmup = n_arms**3 if warmup_length is None else warmup_length
    return np.where(np.arange(1, horizon + 1) < warmup, 1.0 / n_arms, _pi_floor(n_arms, epsilon))


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of checking an empirical quantity against a bound.

    ``slack = bound - value``; nonnegative slack means the bound holds.
    """

    holds: bool
    slack: float
    value: float
    bound: float


def _clip_unit(x: float, what: str) -> float:
    if -_SCALE_TOL <= x < 0.0:
        return 0.0
    if 1.0 < x <= 1.0 + _SCALE_TOL:
        return 1.0
    if 0.0 <= x <= 1.0:
        return x
    raise ValueError(
        f"{what} = {x!r} falls outside [0, 1]: the pi_lmin scaling "
        "contract is violated"
    )


def kl_certificate(r_hat_rho, r_rho, pi_lmin, prior_kl, t, delta) -> CertificateResult:
    """The kl-route bound for one comparison distribution at round t.

    ``r_hat_rho`` and ``r_rho`` are the rho-averaged estimate and truth;
    both must land in [0, 1] after scaling by ``pi_lmin``.
    """
    pi_lmin = _check_pi_lmin(pi_lmin)
    scaled_hat = _clip_unit(pi_lmin * float(r_hat_rho), "pi_lmin * r_hat_rho")
    scaled_true = _clip_unit(pi_lmin * float(r_rho), "pi_lmin * r_rho")
    value = bernoulli_kl(scaled_hat, scaled_true)
    bound = kl_budget(prior_kl, t, delta)
    return CertificateResult(holds=value <= bound, slack=bound - value, value=value, bound=bound)


def lambda_opt(t: int, delta: float, pi_min_seq) -> float:
    """sqrt(2 t^2 (2 ln(t+1) + ln(2/delta)) / sum pi_min^-2): the lambda that
    minimizes the KL-free part of the uniform-weight bound."""
    t = _check_count(t, "t", 1)
    delta = _check_delta(delta)
    seq = _check_pi_min_seq(pi_min_seq, t)
    a = float(np.sum(seq**-2.0))
    big_l = float(_big_l(_at(t), delta)[0])
    return math.sqrt(2.0 * t * t * big_l / a)


def weighted_gap_bound(prior_kl, t, delta, lam, weights, pi_min_seq) -> float:
    """The weighted-martingale route bound on |R_hat^w(rho) - R(rho)| at any
    lambda and nonnegative weights."""
    prior_kl = _check_prior_kl(prior_kl)
    t = _check_count(t, "t", 1)
    delta = _check_delta(delta)
    lam = float(lam)
    if not lam > 0.0:
        raise ValueError("lambda must be positive")
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size != t:
        raise ValueError(f"weights must be a vector of length t = {t}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    total_w = float(w.sum())
    if not total_w > 0.0:
        raise ValueError("weights must not all vanish")
    seq = _check_pi_min_seq(pi_min_seq, t)
    quad = float(np.sum((w / seq) ** 2))
    big_l = float(_big_l(_at(t), delta)[0])
    return (prior_kl + 0.5 * lam * lam * quad + big_l) / (lam * total_w)
