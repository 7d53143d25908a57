"""Binary KL divergence and KL inversion.

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

_BISECT_TOL = 1e-12
_BISECT_LOG_TOL = 1e-14
_BISECT_MAX_ITER = 200


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


def _log_ratio(num: float, den: float) -> float:
    # log(num / den) without the intermediate overflow that a direct
    # division hits when num / den exceeds the float range (subnormal den).
    ratio = num / den
    if math.isinf(ratio):
        return math.log(num) - math.log(den)
    return math.log(ratio)


def _log_ratio_vec(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise ``_log_ratio``; the split form is taken only where it is needed."""
    ratio = num / den
    big = np.isinf(ratio)
    return np.where(big, np.log(num) - np.log(den), np.log(ratio)) if big.any() else np.log(ratio)


def bernoulli_kl(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q).

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


def bernoulli_kl_vec(p, q) -> np.ndarray:
    """Elementwise :func:`bernoulli_kl` on arrays (broadcasting allowed)."""
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


def pinsker_gap(c: float) -> float:
    """Largest |p - q| compatible with kl(p||q) <= c, via Pinsker."""
    return math.sqrt(_check_budget(c) / 2.0)


def _bisect_log(p_hat: float, c: float, lo: float, hi: float, q_of) -> float:
    """Bisect a log coordinate v in [lo, hi] for kl(p_hat||q_of(v)) <= c.

    kl falls as v rises to ``hi``, the feasible end; ``lo`` must be
    infeasible.  Stops at both the argument tolerance (1e-14 in v) and the
    same tolerance on the kl value (1e-12), and returns q at the feasible end.
    """
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if bernoulli_kl(p_hat, q_of(mid)) <= c:
            hi = mid
        else:
            lo = mid
        if hi - lo <= _BISECT_LOG_TOL and c - bernoulli_kl(p_hat, q_of(hi)) <= _BISECT_TOL:
            break
    return q_of(hi)


def kl_upper_inverse(p_hat: float, c: float) -> float:
    """Largest q in [p_hat, 1] with kl(p_hat||q) <= c.

    Bisection on the increasing branch in the coordinate ln(1-q), where the
    kl curve has bounded slope all the way to the simplex boundary; this
    reaches both tolerances of ``_bisect_log`` within the iteration cap even
    when the inverse sits extremely close to 1.  ``c = inf`` returns 1.0.
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
    # kl >= p ln p + (1-p) ln((1-p)/(1-q)) gives the infeasible bracket end.
    hi = math.log1p(-p_hat)
    lo = hi - (c - p_hat * math.log(p_hat)) / (1.0 - p_hat)
    return min(1.0, max(p_hat, _bisect_log(p_hat, c, lo, hi, lambda v: 1.0 - math.exp(v))))


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
    hi = math.log(p_hat)
    lo = hi - (c - (1.0 - p_hat) * math.log1p(-p_hat)) / p_hat
    return max(0.0, min(p_hat, _bisect_log(p_hat, c, lo, hi, math.exp)))
