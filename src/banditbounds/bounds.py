"""High-probability bounds for importance-weighted bandit estimates.

Two complementary routes are implemented.

* The kl route: for any comparison distribution rho over arms, the kl
  divergence between the scaled estimate pi_lmin * R_hat_t(rho) and the
  scaled truth pi_lmin * R(rho) stays below
  (KL(rho||mu) + 3 ln(t+1) - ln delta) / t simultaneously for all t with
  probability > 1 - delta.  Its L1 relaxation divides the Pinsker radius
  by pi_lmin, the smallest sampling probability seen so far.
* The weighted-martingale route: for nonnegative weights w and a
  data-independent lambda,
  |R_hat - R| <= (KL + (lambda^2/2) sum (w/pi_min)^2 + 2 ln(t+1)
  + ln(2/delta)) / (lambda * sum w).
  ``lambda_opt`` minimizes the KL-free part; ``weighted_gap_bound_opt``
  is the exact closed form of the uniform-weight bound at that lambda.

Both certificates below bound the rho-averaged gap |R_hat_t(rho) - R(rho)|
(the form the proofs actually control); single-arm statements follow by
taking rho to be a point mass.  Infinite prior KL propagates to an
infinite, never-violated bound.

The regret side evaluates the decaying per-round envelope of the smoothed
Gibbs strategy, the exact four-term decomposition of its instantaneous
regret, and the deterministic bounds on the two non-stochastic terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandit import Environment, Window, _expected_reward, _gibbs_weights, _schedule_arrays, _smooth_weights
from .divergences import _check_delta, _check_pi_lmin, bernoulli_kl

__all__ = [
    "CertificateResult",
    "RegretDecomposition",
    "expsum_ratio",
    "gap_driver_report",
    "kl_budget",
    "kl_certificate",
    "lambda_opt",
    "regret_decomposition",
    "regret_envelope",
    "reward_gap_radius",
    "weighted_gap_bound",
    "weighted_gap_bound_opt",
]

_SCALE_TOL = 1e-9   # slack allowed when clipping scaled estimates into [0,1]


# Array kernels over a float vector of rounds ``ts``.  The scalar functions
# below evaluate them on a one-entry vector, so a scalar bound and the
# matching entry of a campaign's sweep are the same float.


def _log_term(ts: np.ndarray, delta: float) -> np.ndarray:
    """3 ln(t+1) - ln delta."""
    return 3.0 * np.log(ts + 1.0) - math.log(delta)


def _big_l(ts: np.ndarray, delta: float) -> np.ndarray:
    """L = 2 ln(t+1) + ln(2/delta)."""
    return 2.0 * np.log(ts + 1.0) + math.log(2.0 / delta)


def _kl_budget(prior_kl, ts: np.ndarray, delta: float) -> np.ndarray:
    return (prior_kl + _log_term(ts, delta)) / ts


def _gap_radius(prior_kl, ts: np.ndarray, delta: float, pi_lmin) -> np.ndarray:
    """Pinsker radius of the kl budget over pi_lmin: the kl route's L1 radius."""
    return np.sqrt(_kl_budget(prior_kl, ts, delta) / 2.0) / pi_lmin


def _weighted_opt(prior_kl, ts: np.ndarray, delta: float, cum_a: np.ndarray) -> np.ndarray:
    """(KL + 2 L) sqrt(A / (2 L)) / t with A the running sum of pi_min^-2."""
    big_l = _big_l(ts, delta)
    return (prior_kl + 2.0 * big_l) * (np.sqrt(cum_a / (2.0 * big_l)) / ts)


def _envelope(n_arms: int, ts: np.ndarray, delta: float) -> np.ndarray:
    log_term = _log_term(ts, delta)
    inner = (
        2.5
        + np.sqrt((math.log(n_arms) + log_term) / (2.0 * n_arms))
        + np.sqrt(log_term / (2.0 * n_arms))
    )
    return n_arms**0.75 / (ts + 1.0) ** 0.25 * inner


def _at(t: int) -> np.ndarray:
    return np.array([float(t)])


def _check_t(t: int) -> int:
    t = int(t)
    if t < 1:
        raise ValueError("t must be a positive integer")
    return t


def _check_prior_kl(prior_kl: float) -> float:
    prior_kl = float(prior_kl)
    if math.isnan(prior_kl) or prior_kl < 0.0:
        raise ValueError("prior KL must be nonnegative")
    return prior_kl


def kl_budget(prior_kl: float, t: int, delta: float) -> float:
    """(KL(rho||mu) + 3 ln(t+1) - ln delta) / t, the kl-route budget at round t."""
    prior_kl = _check_prior_kl(prior_kl)
    t = _check_t(t)
    delta = _check_delta(delta)
    return float(_kl_budget(prior_kl, _at(t), delta)[0])


def reward_gap_radius(prior_kl: float, t: int, delta: float, pi_lmin: float) -> float:
    """L1 relaxation of the kl route: Pinsker radius divided by pi_lmin."""
    pi_lmin = _check_pi_lmin(pi_lmin)
    prior_kl = _check_prior_kl(prior_kl)
    t = _check_t(t)
    delta = _check_delta(delta)
    return float(_gap_radius(prior_kl, _at(t), delta, pi_lmin)[0])


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


def kl_certificate(
    r_hat_rho: float,
    r_rho: float,
    pi_lmin: float,
    prior_kl: float,
    t: int,
    delta: float,
) -> CertificateResult:
    """Check the kl-route bound for one comparison distribution at round t.

    ``r_hat_rho`` and ``r_rho`` are the rho-averaged estimate and truth;
    both must land in [0, 1] after scaling by ``pi_lmin``.
    """
    pi_lmin = _check_pi_lmin(pi_lmin)
    scaled_hat = _clip_unit(pi_lmin * float(r_hat_rho), "pi_lmin * r_hat_rho")
    scaled_true = _clip_unit(pi_lmin * float(r_rho), "pi_lmin * r_rho")
    value = bernoulli_kl(scaled_hat, scaled_true)
    bound = kl_budget(prior_kl, t, delta)
    return CertificateResult(
        holds=value <= bound, slack=bound - value, value=value, bound=bound
    )


def _check_pi_min_seq(pi_min_seq, t: int) -> np.ndarray:
    seq = np.asarray(pi_min_seq, dtype=float)
    if seq.ndim != 1 or seq.size != t:
        raise ValueError(f"pi_min_seq must be a vector of length t = {t}")
    if not np.all((seq > 0.0) & (seq <= 1.0)):
        raise ValueError("pi_min_seq entries must lie in (0, 1]")
    return seq


def lambda_opt(t: int, delta: float, pi_min_seq) -> float:
    """sqrt(2 t^2 (2 ln(t+1) + ln(2/delta)) / sum pi_min^-2).

    Minimizes the KL-free part of the weighted bound with uniform weights;
    feed it a deterministic lower-bound sequence to keep it data-independent.
    """
    t = _check_t(t)
    delta = _check_delta(delta)
    seq = _check_pi_min_seq(pi_min_seq, t)
    a = float(np.sum(seq**-2.0))
    big_l = float(_big_l(_at(t), delta)[0])
    return math.sqrt(2.0 * t * t * big_l / a)


def weighted_gap_bound(
    prior_kl: float, t: int, delta: float, lam: float, weights, pi_min_seq
) -> float:
    """The weighted-martingale route bound on |R_hat^w(rho) - R(rho)|."""
    prior_kl = _check_prior_kl(prior_kl)
    t = _check_t(t)
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


def weighted_gap_bound_opt(prior_kl: float, t: int, delta: float, pi_min_seq) -> float:
    """Uniform-weight bound evaluated exactly at lambda_opt.

    Equals (KL + 2 L) * sqrt(A / (2 L)) / t with
    L = 2 ln(t+1) + ln(2/delta) and A = sum pi_min^-2.
    """
    prior_kl = _check_prior_kl(prior_kl)
    t = _check_t(t)
    delta = _check_delta(delta)
    seq = _check_pi_min_seq(pi_min_seq, t)
    cum_a = np.cumsum(seq**-2.0)[-1:]  # summed in the sweep's order
    return float(_weighted_opt(prior_kl, _at(t), delta, cum_a)[0])


def gap_driver_report(pi_min, pi_lmin, delta: float) -> dict:
    """Per-round comparison of the two routes' gap radii and their drivers
    for one trajectory, from two of its (T,) columns: the smallest entry of
    each round's policy, and the running minimum of those (a record's
    ``pi_lmin``).

    Returns the ``drivers.csv`` columns: the round ``t``; ``lmin_driver``,
    1/pi_lmin (kl route); ``rms_driver``, sqrt((1/t) sum pi_min^-2)
    (weighted route); and the gap radii ``kl_route_gap`` and
    ``weighted_route_gap``, at prior KL = 0 so that the drivers alone
    separate the two routes.
    """
    delta = _check_delta(delta)
    rounds = np.arange(1, len(pi_min) + 1)
    ts = rounds.astype(float)
    cum_inv_sq = np.cumsum(pi_min ** -2.0)
    return {
        "t": rounds,
        "lmin_driver": 1.0 / pi_lmin,
        "rms_driver": np.sqrt(cum_inv_sq / ts),
        "kl_route_gap": _gap_radius(0.0, ts, delta, pi_lmin),
        "weighted_route_gap": _weighted_opt(0.0, ts, delta, cum_inv_sq),
    }


def regret_envelope(n_arms: int, t: int, delta: float) -> float:
    """Per-round regret bound of the smoothed Gibbs strategy at round t >= K^3.

    K^(3/4) (t+1)^(-1/4) B(t) with the bracket

        B(t) = 2.5 + sqrt((ln K + 3 ln(t+1) - ln delta) / (2K))
                   + sqrt((3 ln(t+1) - ln delta) / (2K)),

    whose 3 ln(t+1) terms make the kl certificate hold for all t at once.
    B grows like sqrt(ln t), so a log-log fit of the whole envelope over any
    finite window of t sits above -1/4; only the envelope divided by B(t)
    decays exactly as t^(-1/4).  Vacuous (above 1) at small t; correctness,
    not tightness, is the contract.
    """
    n_arms = int(n_arms)
    if n_arms < 2:
        raise ValueError("need at least two arms")
    t = _check_t(t)
    if t < n_arms**3:
        raise ValueError(f"the envelope needs t >= K^3 = {n_arms**3}, got {t}")
    delta = _check_delta(delta)
    return float(_envelope(n_arms, _at(t), delta)[0])


@dataclass(frozen=True, eq=False)
class RegretDecomposition:
    """Exact four-term split of per-round regret, for rounds t >= K^3.

    At each t: rho is the Gibbs distribution on R_hat_t, rho_tilde its
    smoothed version (the policy for round t+1), and

    regret_t = R(a*) - R(rho_tilde)
             = [R(a*) - R_hat(a*)] + [R_hat(a*) - R_hat(rho)]
             + [R_hat(rho) - R(rho)] + [R(rho) - R(rho_tilde)].

    ``gibbs_shift_bound`` (K/gamma_t) dominates the second term and
    ``smoothing_bound`` (K*epsilon_{t+1}) the fourth, deterministically.
    """

    rounds: np.ndarray
    estimate_gap_best: np.ndarray
    gibbs_shift: np.ndarray
    estimate_gap_gibbs: np.ndarray
    smoothing_loss: np.ndarray
    regret: np.ndarray
    gibbs_shift_bound: np.ndarray
    smoothing_bound: np.ndarray

    def total(self) -> np.ndarray:
        return (
            self.estimate_gap_best
            + self.gibbs_shift
            + self.estimate_gap_gibbs
            + self.smoothing_loss
        )


def regret_decomposition(record: Window, env: Environment) -> RegretDecomposition:
    """The split of ``run_game``'s record, with rho as the game formed it."""
    horizon, k = record.rhat.shape
    if env.n_arms != k:
        raise ValueError("environment and record disagree on the number of arms")
    start = k**3
    if horizon < start:
        raise ValueError(f"record of length {horizon} never reaches round K^3 = {start}")
    ts = np.arange(start, horizon + 1)
    rhat = record.rhat[start - 1 :]
    rho = record.rho[start - 1 :]
    gamma, epsilon = _schedule_arrays(k, range(start, horizon + 2))
    gamma, eps_next = gamma[:-1], epsilon[1:]
    rho_tilde = _smooth_weights(rho, eps_next[:, None])

    means = env.means
    a_star = env.best_arm
    r_star = env.best_mean
    rhat_star = rhat[:, a_star]
    rhat_rho = _expected_reward(rho, rhat)
    r_rho = _expected_reward(rho, means)
    r_rho_tilde = _expected_reward(rho_tilde, means)

    return RegretDecomposition(
        rounds=ts,
        estimate_gap_best=r_star - rhat_star,
        gibbs_shift=rhat_star - rhat_rho,
        estimate_gap_gibbs=rhat_rho - r_rho,
        smoothing_loss=r_rho - r_rho_tilde,
        regret=r_star - r_rho_tilde,
        gibbs_shift_bound=k / gamma,
        smoothing_bound=k * eps_next,
    )


def expsum_ratio(x, alpha: float | np.ndarray) -> float | np.ndarray:
    """sum x_i e^(-alpha x_i) / sum e^(-alpha x_i), requiring x[0] = 0.

    Bounded above by n/alpha.  This is the mean of x under the Gibbs
    weights at -alpha, whose max-shift keeps large negative entries from
    overflowing.  Given an (m, n) block of rows and an (m,) vector of
    alphas it returns the (m,) ratios, each the ratio of its row.
    """
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] < 2 or x.shape[:-1] != alpha.shape:
        raise ValueError("x must be a vector of two or more entries, or an (m, n) block of them, "
                         "with one alpha per vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    if np.any(x[..., 0] != 0.0):
        raise ValueError("the first entry of x must be exactly 0")
    if not np.all(alpha > 0.0):
        raise ValueError("alpha must be positive")
    ratios = np.sum(x * _gibbs_weights(x, -alpha[..., None]), axis=-1)
    return float(ratios) if x.ndim == 1 else ratios
