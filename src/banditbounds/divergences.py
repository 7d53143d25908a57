"""Binary KL divergence and KL inversion.

One formula: :func:`bernoulli_kl_vec`.  The scalar :func:`bernoulli_kl`, both
inverses and the moment oracle in ``concentration`` evaluate it.

Conventions used throughout: ``0 * ln 0 = 0``, and the divergence is an
explicit ``math.inf`` whenever the second argument sits on the boundary
while the first does not.  Infinities are never replaced by large floats;
they propagate so that downstream bounds become "never violated" rather
than silently wrong.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "bernoulli_kl",
    "bernoulli_kl_vec",
    "kl_lower_inverse",
    "kl_upper_inverse",
    "pinsker_gap",
]

# Infeasible bracket ends: below them q rounds onto the simplex boundary
# (exp underflows to 0; 1 - exp rounds to 1) and kl is inf.  Brackets are then
# under 746 wide, so 57 halvings reach 1e-14 in v, and kl (slope <= 1) too.
_LOG_Q_FLOOR = math.log(5e-324) - 1.0
_LOG_1MQ_FLOOR = math.log(2.0**-54) - 1.0
_BISECT_STEPS = 57


def _check_count(x, name: str, minimum: int) -> int:
    """An integer count of at least ``minimum``: any ``numbers.Integral``
    but a bool, never a float that would be truncated."""
    if not isinstance(x, numbers.Integral) or isinstance(x, bool) or x < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {x!r}")
    return int(x)


def _check_unit(x: float, name: str) -> float:
    x = float(x)
    if math.isnan(x) or x < 0.0 or x > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return x


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if math.isnan(delta) or not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return delta


def _check_budget(c: float) -> float:
    c = float(c)
    if math.isnan(c) or c < 0.0:
        raise ValueError(f"kl budget must be nonnegative, got {c!r}")
    return c


def _check_pi_lmin(pi_lmin: float) -> float:
    pi_lmin = float(pi_lmin)
    if not 0.0 < pi_lmin <= 1.0:
        raise ValueError(f"pi_lmin must lie in (0, 1], got {pi_lmin!r}")
    return pi_lmin


def _log_ratio_vec(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """log(num / den), split into two logs only where the ratio overflows (subnormal den)."""
    ratio = num / den
    big = np.isinf(ratio)
    return np.where(big, np.log(num) - np.log(den), np.log(ratio)) if big.any() else np.log(ratio)


def bernoulli_kl_vec(p, q) -> np.ndarray:
    """The binary kl divergence kl(p||q) of Bernoulli(p) from Bernoulli(q),
    entrywise on arrays (broadcasting allowed): the one kl formula.

    Entries are ``inf`` where ``q`` is 0 or 1 and ``p != q``.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for name, arr in (("p", p), ("q", q)):
        # One pass each way, no temporaries: min and max carry a nan through.
        if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=1.0) <= 1.0):
            raise ValueError(f"{name} entries must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        left = np.where(p > 0.0, p * _log_ratio_vec(p, q), 0.0)
        right = np.where(p < 1.0, (1.0 - p) * _log_ratio_vec(1.0 - p, 1.0 - q), 0.0)
    return np.where(p == q, 0.0, left + right)


def bernoulli_kl(p: float, q: float) -> float:
    """kl(p||q) for one pair: an entry of :func:`bernoulli_kl_vec`, inf when q is 0 or 1 and p != q."""
    return float(bernoulli_kl_vec(_check_unit(p, "p"), _check_unit(q, "q")))


def pinsker_gap(c: float) -> float:
    """Largest |p - q| compatible with kl(p||q) <= c, via Pinsker."""
    return math.sqrt(_check_budget(c) / 2.0)


def _bisect_log(p_hat: np.ndarray, c, lo: np.ndarray, hi: np.ndarray, q_of) -> np.ndarray:
    """Bisect log coordinates v in [lo, hi], entrywise, for kl(p_hat||q_of(v)) <= c.

    kl falls as v rises to ``hi``, the feasible end; ``lo`` must be infeasible
    and at most 746 below ``hi``.  Returns q at the feasible end.
    """
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        feasible = bernoulli_kl_vec(p_hat, q_of(mid)) <= c
        lo = np.where(feasible, lo, mid)
        hi = np.where(feasible, mid, hi)
    return q_of(hi)


def _upper_inverse(p_hat: np.ndarray, c) -> np.ndarray:
    """:func:`kl_upper_inverse` entrywise, for p_hat in (0, 1) and finite c > 0."""
    hi = np.log1p(-p_hat)
    # kl >= p ln p + (1-p) ln((1-p)/(1-q)) gives the infeasible bracket end.
    with np.errstate(over="ignore"):
        lo = np.maximum(_LOG_1MQ_FLOOR, hi - (c - p_hat * np.log(p_hat)) / (1.0 - p_hat))
    return np.clip(_bisect_log(p_hat, c, lo, hi, lambda v: 1.0 - np.exp(v)), p_hat, 1.0)


def _lower_inverse(p_hat: np.ndarray, c) -> np.ndarray:
    """:func:`kl_lower_inverse` entrywise, for p_hat in (0, 1) and finite c > 0."""
    hi = np.log(p_hat)
    with np.errstate(over="ignore"):
        lo = np.maximum(_LOG_Q_FLOOR, hi - (c - (1.0 - p_hat) * np.log1p(-p_hat)) / p_hat)
    return np.clip(_bisect_log(p_hat, c, lo, hi, np.exp), 0.0, p_hat)


def kl_upper_inverse(p_hat: float, c: float) -> float:
    """Largest q in [p_hat, 1] with kl(p_hat||q) <= c.

    Bisection on the increasing branch in the coordinate ln(1-q), where the
    kl curve has slope at most 1 all the way to the simplex boundary; this
    resolves the inverse to 1e-14 in ln(1-q) however close to 1 it sits.
    ``c = inf`` returns 1.0.
    """
    p_hat = _check_unit(p_hat, "p_hat")
    c = _check_budget(c)
    if math.isinf(c):
        return 1.0
    if c == 0.0 or p_hat == 1.0:
        return p_hat
    if p_hat == 0.0:
        # kl(0||q) = -ln(1-q) inverts in closed form.
        return -math.expm1(-c)
    return float(_upper_inverse(np.array([p_hat]), c)[0])


def kl_lower_inverse(p_hat: float, c: float) -> float:
    """Smallest q in [0, p_hat] with kl(p_hat||q) <= c.

    Mirror of the upper inverse, bisecting in ln q.
    """
    p_hat = _check_unit(p_hat, "p_hat")
    c = _check_budget(c)
    if math.isinf(c):
        return 0.0
    if c == 0.0 or p_hat == 0.0:
        return p_hat
    if p_hat == 1.0:
        # kl(1||q) = -ln q inverts in closed form.
        return math.exp(-c)
    return float(_lower_inverse(np.array([p_hat]), c)[0])
