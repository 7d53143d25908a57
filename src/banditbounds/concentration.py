"""Concentration toolkit.

Three layers, all backed by exact finite computations where possible:

* a dominance oracle: dependent [0,1]-valued chains whose conditional mean
  is constant are compared against i.i.d. Bernoulli draws under convex test
  functions, by exhaustive path enumeration.  Both sides are a path matrix
  (one row of values per path) and a weight per path, and one kernel folds
  ``weights @ f(rows)`` over row blocks;
* a moment bound for the exponentiated kl of a Bernoulli sample mean,
  evaluated exactly over the N+1 outcomes;
* two martingale tail bounds — a kl-form bound driven by ln((N+1)/delta)
  and the classical Hoeffding-Azuma bound driven by ln(2/delta) — plus a
  seeded walk simulator used to measure their empirical coverage.

RNG discipline: every seeded stream in the package comes from ``_stream``,
``SeedSequence(seed, spawn_key=(STREAM_TAG, ...))``; the walk simulator
takes one per trajectory, so results do not depend on execution order and
can be reproduced trajectory by trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .divergences import bernoulli_kl, _check_delta, _check_unit

__all__ = [
    "BudgetError",
    "DependentChainSpec",
    "MartingaleRange",
    "azuma_alt_bound",
    "bernoulli_convex_expectation",
    "bernoulli_kl_moment",
    "convex_domination_gap",
    "convex_test_functions",
    "dependent_convex_expectation",
    "hoeffding_azuma_bound",
    "midpoint_convexity_probe",
    "random_constant_mean_chain",
    "simulate_profile_walks",
]

PATH_BUDGET = 1_000_000          # hard cap on |support|**length enumerations
_PATH_BLOCK = 1 << 14            # path rows per f call: blocks stay a few MB
MOMENT_MAX_LENGTH = 25           # bernoulli_kl_moment stays exact-and-cheap
_MEAN_TOL = 1e-12
_SIMPLEX_TOL = 1e-12
_EXP_CAP = 700.0                 # beyond this math.exp overflows a double
_PROBE_TRIALS = 64               # midpoint_convexity_probe: random pairs,
_PROBE_SEED = 0                  # their generator seed,
_PROBE_TOL = 1e-9                # and the slack allowed at a midpoint

_PROFILE_STREAM = 103


class BudgetError(ValueError):
    """Raised when an exact enumeration would exceed the path budget."""


def bernoulli_kl_moment(length: int, p: float) -> float:
    """E[exp(N * kl(S_hat || p))] for S_hat the mean of N i.i.d. Bernoulli(p).

    Computed exactly by summing over the N+1 outcomes of the sample mean
    with binomial weights (each term assembled in log space).  The value is
    bounded by N+1.
    """
    length = int(length)
    if length < 1:
        raise ValueError("length must be a positive integer")
    if length > MOMENT_MAX_LENGTH:
        raise BudgetError(
            f"exact moment enumeration capped at length {MOMENT_MAX_LENGTH}"
        )
    p = _check_unit(p, "p")
    if p == 0.0 or p == 1.0:
        # The sample mean equals p almost surely and the exponent vanishes.
        return 1.0
    log_p = math.log(p)
    log_1p = math.log1p(-p)
    total = 0.0
    for k in range(length + 1):
        log_w = math.log(math.comb(length, k)) + k * log_p + (length - k) * log_1p
        exponent = log_w + length * bernoulli_kl(k / length, p)
        total += math.exp(exponent) if exponent < _EXP_CAP else math.inf
    return total


# ---------------------------------------------------------------------------
# Dependent chains with constant conditional mean
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DependentChainSpec:
    """Finite description of a dependent [0,1]-valued process.

    ``transitions`` gives, for each reachable history prefix — a tuple of
    support indices — the conditional distribution (over ``support``) of
    the next value.  It is either a mapping from prefixes or a function of
    the prefix; after construction it is always a dict holding exactly the
    reachable prefixes.  Construction checks the path budget, then walks
    every reachable prefix depth first (a function is called once per
    prefix, in that order) and rejects the spec unless each conditional is
    a probability vector whose mean equals ``mean`` to within 1e-12: the
    constant-conditional-mean hypothesis is validated up front, not trusted.
    The same walk records every reachable path: ``path_values`` holds one
    row of values per path and ``path_probs`` its probability.
    """

    length: int
    support: tuple[float, ...]
    transitions: (
        Mapping[tuple[int, ...], Sequence[float]]
        | Callable[[tuple[int, ...]], Sequence[float]]
    )
    mean: float
    path_values: np.ndarray = field(init=False, repr=False)
    path_probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if int(self.length) < 1:
            raise ValueError("length must be a positive integer")
        object.__setattr__(self, "length", int(self.length))
        support = tuple(float(v) for v in self.support)
        if not support:
            raise ValueError("support must be nonempty")
        for v in support:
            _check_unit(v, "support value")
        object.__setattr__(self, "support", support)
        mean = _check_unit(self.mean, "mean")
        object.__setattr__(self, "mean", mean)
        if len(support) ** self.length > PATH_BUDGET:
            raise BudgetError(
                f"{len(support)}**{self.length} paths exceed the "
                f"enumeration budget of {PATH_BUDGET}"
            )
        source = self.transitions
        conditional = source if callable(source) else source.__getitem__
        cleaned: dict[tuple[int, ...], tuple[float, ...]] = {}
        paths: list[tuple[tuple[int, ...], float]] = []
        stack: list[tuple[tuple[int, ...], float]] = [((), 1.0)]
        values = np.asarray(support)
        while stack:
            prefix, mass = stack.pop()
            if len(prefix) == self.length:
                paths.append((prefix, mass))
                continue
            try:
                raw = conditional(prefix)
            except KeyError:
                raise ValueError(
                    f"missing conditional distribution for reachable prefix {prefix}"
                ) from None
            probs = np.asarray(raw, dtype=float)
            if probs.shape != (len(support),):
                raise ValueError(
                    f"conditional at prefix {prefix} has wrong length "
                    f"{probs.size}, expected {len(support)}"
                )
            # Each check passes only in range, so a nan entry fails it.
            if not (probs >= 0.0).all():
                raise ValueError(f"negative or nan probability at prefix {prefix}")
            if not abs(float(probs.sum()) - 1.0) <= _SIMPLEX_TOL:
                raise ValueError(
                    f"conditional at prefix {prefix} sums to {probs.sum()!r}"
                )
            cond_mean = float(np.dot(probs, values))
            if not abs(cond_mean - mean) <= _MEAN_TOL:
                raise ValueError(
                    f"conditional mean {cond_mean!r} at prefix {prefix} "
                    f"deviates from {mean!r}: the constant-mean hypothesis fails"
                )
            cleaned[prefix] = tuple(float(x) for x in probs)
            for j, pr in enumerate(cleaned[prefix]):
                if pr > 0.0:
                    stack.append((prefix + (j,), mass * pr))
        object.__setattr__(self, "transitions", cleaned)
        indices, path_probs = zip(*paths)
        for name, arr in (("path_values", values[np.array(indices)]), ("path_probs", np.array(path_probs))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def iid_bernoulli(cls, length: int, p: float) -> "DependentChainSpec":
        p = _check_unit(p, "p")
        probs = (1.0 - p, p)
        return cls(length=length, support=(0.0, 1.0), transitions=lambda _: probs, mean=p)

    @classmethod
    def constant(cls, length: int, value: float) -> "DependentChainSpec":
        value = _check_unit(value, "value")
        return cls(length=length, support=(value,), transitions=lambda _: (1.0,), mean=value)


def _conditional_vertices(support: Sequence[float], mean: float) -> list[np.ndarray]:
    """Vertices of {q >= 0, sum q = 1, sum q*v = mean} for a small support."""
    m = len(support)
    vertices: list[np.ndarray] = []
    for i in range(m):
        if support[i] == mean:
            q = np.zeros(m)
            q[i] = 1.0
            vertices.append(q)
    for i in range(m):
        for j in range(i + 1, m):
            vi, vj = support[i], support[j]
            if vi == vj:
                continue
            qi = (vj - mean) / (vj - vi)
            if 0.0 <= qi <= 1.0:
                q = np.zeros(m)
                q[i] = qi
                q[j] = 1.0 - qi
                vertices.append(q)
    return vertices


def random_constant_mean_chain(length: int, rng: np.random.Generator) -> DependentChainSpec:
    """Draw a random chain satisfying the constant-conditional-mean hypothesis.

    Each reachable prefix gets an independent random point of the feasible
    polytope of conditionals.  With a 2-point support that polytope is a
    single point (the chain degenerates to i.i.d.), so 3-point supports
    dominate the mix.
    """
    u = rng.random()
    if u < 0.1:
        return DependentChainSpec.constant(length, float(rng.random()))
    support_size = 2 if u < 0.3 else 3
    while True:
        support = np.sort(rng.random(support_size))
        if np.min(np.diff(support)) > 0.05:
            break
    spread = support[-1] - support[0]
    mean = float(rng.uniform(support[0] + 0.05 * spread, support[-1] - 0.05 * spread))
    vertices = _conditional_vertices(tuple(support), mean)
    if not vertices:
        raise RuntimeError("no feasible conditional; unreachable by construction")

    def draw(_prefix: tuple[int, ...]) -> tuple[float, ...]:
        if len(vertices) == 1:
            q = vertices[0]
        else:
            a, b = rng.choice(len(vertices), size=2, replace=False)
            t = rng.random()
            q = t * vertices[a] + (1.0 - t) * vertices[b]
        return tuple(float(x) for x in q)

    return DependentChainSpec(
        length=length,
        support=tuple(float(v) for v in support),
        transitions=draw,
        mean=mean,
    )


def _fold_paths(count: int, rows_of, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sum over ``count`` paths of weight * f(path), ``_PATH_BLOCK`` paths at a
    time; ``rows_of(start, stop)`` gives those paths' (B, N) rows and (B,)
    weights.  Paths of zero weight (an underflowed product) are dropped."""
    total = 0.0
    for start in range(0, count, _PATH_BLOCK):
        rows, weights = rows_of(start, min(start + _PATH_BLOCK, count))
        keep = weights > 0.0
        total += float(weights[keep] @ f(rows[keep]))
    return total


def dependent_convex_expectation(chain: DependentChainSpec, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """E[f(X_1..X_N)] under the chain, over its reachable paths."""
    return _fold_paths(len(chain.path_probs), lambda s, e: (chain.path_values[s:e], chain.path_probs[s:e]), f)


def bernoulli_convex_expectation(length: int, p: float, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """E[f(Y_1..Y_N)] for Y_i i.i.d. Bernoulli(p), over the 2^N paths whose
    bits are (b >> i) & 1."""
    length = int(length)
    if length < 1:
        raise ValueError("length must be a positive integer")
    if 2**length > PATH_BUDGET:
        raise BudgetError("path count exceeds the enumeration budget")
    p = _check_unit(p, "p")
    weight_of = np.array([p**k * (1.0 - p) ** (length - k) for k in range(length + 1)])

    def rows_of(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        bits = (np.arange(start, stop)[:, None] >> np.arange(length)) & 1
        return bits.astype(float), weight_of[bits.sum(axis=1)]

    return _fold_paths(2**length, rows_of, f)


def convex_domination_gap(chain: DependentChainSpec, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """E_bernoulli[f] - E_chain[f]; nonnegative for convex f.

    Convexity of ``f`` is the caller's responsibility (see
    :func:`midpoint_convexity_probe` for a stochastic spot check).
    """
    return bernoulli_convex_expectation(chain.length, chain.mean, f) - dependent_convex_expectation(chain, f)


def convex_test_functions(length: int, mean: float) -> tuple[tuple[str, Callable[[np.ndarray], np.ndarray]], ...]:
    """The fixed convex family used by the oracle sweeps, as functions from
    (P, N) path rows to (P,) values.

    max, squared sum, and the exponentiated-kl moment function matched to
    ``mean`` (infinite where the exponent reaches ``_EXP_CAP``); each is
    convex on [0,1]^N.
    """
    mean = _check_unit(mean, "mean")

    def f_max(xs: np.ndarray) -> np.ndarray:
        return xs.max(axis=1)

    def f_square_sum(xs: np.ndarray) -> np.ndarray:
        return xs.sum(axis=1) ** 2

    def f_kl_moment(xs: np.ndarray) -> np.ndarray:
        # One scalar kl per distinct sample mean: rows share few of them.
        x_bar, row_of = np.unique(np.clip(xs.sum(axis=1) / length, 0.0, 1.0), return_inverse=True)
        exponents = [length * bernoulli_kl(x, mean) for x in x_bar.tolist()]
        return np.array([math.exp(e) if e < _EXP_CAP else math.inf for e in exponents])[row_of]

    return (("max", f_max), ("square_sum", f_square_sum), ("kl_moment", f_kl_moment))


def midpoint_convexity_probe(f: Callable[[np.ndarray], np.ndarray], length: int) -> bool:
    """Stochastic midpoint test: f((x+y)/2) <= (f(x)+f(y))/2 on random pairs, one f call per side."""
    x, y = np.random.default_rng(_PROBE_SEED).random((_PROBE_TRIALS, 2, length)).transpose(1, 0, 2)
    return not np.any(f((x + y) / 2.0) > 0.5 * (f(x) + f(y)) + _PROBE_TOL)


# ---------------------------------------------------------------------------
# Martingale tail bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MartingaleRange:
    """Per-step increment ranges [low_i, high_i] with low_i <= 0 <= high_i."""

    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self) -> None:
        lows = np.asarray(self.lows, dtype=float)
        highs = np.asarray(self.highs, dtype=float)
        if lows.ndim != 1 or lows.shape != highs.shape or lows.size == 0:
            raise ValueError("lows and highs must be matching nonempty vectors")
        if not (np.all(np.isfinite(lows)) and np.all(np.isfinite(highs))):
            raise ValueError("ranges must be finite")
        # Zero-width ranges (a_i = b_i = 0) are legal: the step is a.s. 0.
        if np.any(lows > 0.0) or np.any(highs < 0.0):
            raise ValueError("each range must satisfy low <= 0 <= high")
        lows = lows.copy()
        highs = highs.copy()
        lows.setflags(write=False)
        highs.setflags(write=False)
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    @classmethod
    def equal(cls, n_steps: int, low: float, high: float) -> "MartingaleRange":
        return cls(np.full(n_steps, float(low)), np.full(n_steps, float(high)))

    @property
    def n_steps(self) -> int:
        return int(self.lows.size)


def _check_global_range(low: float, high: float) -> tuple[float, float]:
    low = float(low)
    high = float(high)
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError("range endpoints must be finite")
    if high <= low:
        raise ValueError(f"degenerate range [{low!r}, {high!r}]")
    if low > 0.0 or high < 0.0:
        raise ValueError("martingale increments need low <= 0 <= high")
    return low, high


def azuma_alt_bound(n_steps: int, low: float, high: float, delta: float) -> float:
    """kl-form tail radius: (high-low) * sqrt(N * ln((N+1)/delta) / 2)."""
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be a positive integer")
    low, high = _check_global_range(low, high)
    delta = _check_delta(delta)
    return (high - low) * math.sqrt(n_steps * math.log((n_steps + 1) / delta) / 2.0)


def hoeffding_azuma_bound(ranges: MartingaleRange, delta: float) -> float:
    """Classical tail radius: sqrt(0.5 * sum (high_i - low_i)^2 * ln(2/delta))."""
    delta = _check_delta(delta)
    widths = ranges.highs - ranges.lows
    return math.sqrt(0.5 * float(np.sum(widths**2)) * math.log(2.0 / delta))


# ---------------------------------------------------------------------------
# Seeded martingale simulators
# ---------------------------------------------------------------------------


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The generator seeded by ``SeedSequence(seed, spawn_key=key)``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def simulate_profile_walks(profiles, trials: int, seed: int) -> np.ndarray:
    """Final sums of symmetric walks, one row per step-magnitude profile c_j.

    Entry [j, i] is sum_k c_jk s_ik, with the signs s_i of trajectory i drawn
    once at the longest profile's length.  A shorter draw from the same
    stream is a prefix of that one, so row j is what profile j drawn alone
    gives.  Profile j's increment ranges are [-c_jk, c_jk].
    """
    steps = [np.asarray(p, dtype=float) for p in profiles]
    if not steps:
        raise ValueError("profiles must be a nonempty list of step vectors")
    for c in steps:
        if c.ndim != 1 or c.size == 0:
            raise ValueError("each profile must be a nonempty 1-d vector")
        if not np.all(np.isfinite(c)) or np.any(c <= 0.0):
            raise ValueError("step sizes must be positive and finite")
    if int(trials) < 1:
        raise ValueError("trials must be positive")
    longest = max(c.size for c in steps)
    sums = np.empty((len(steps), int(trials)))
    for i in range(int(trials)):
        rng = _stream(seed, _PROFILE_STREAM, i)
        signs = 2.0 * rng.integers(0, 2, size=longest) - 1.0
        for j, c in enumerate(steps):
            sums[j, i] = float(np.dot(c, signs[: c.size]))
    return sums
