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

RNG discipline: every seeded stream in the package is ``_stream``'s
``SeedSequence(seed, spawn_key=(STREAM_TAG, ...))``.  The walk simulator
reads one such stream for all its trials, in trial order, a fixed number of
raw words per trial, so a larger batch keeps every earlier trial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .divergences import _check_count, _check_delta, _check_unit, bernoulli_kl_vec

__all__ = [
    "BudgetError",
    "DependentChainSpec",
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
_WALK_BLOCK = 16                 # walk trials drawn and summed at once: memory stays flat in trials


class BudgetError(ValueError):
    """Raised when an exact enumeration would exceed the path budget."""


def bernoulli_kl_moment(length: int, p):
    """E[exp(N * kl(S_hat || p))] for S_hat the mean of N i.i.d. Bernoulli(p).

    Computed exactly by summing over the N+1 outcomes of the sample mean
    with binomial weights, each term assembled in log space by one kl call
    for every outcome and p.  Bounded by N+1; one value per entry of ``p``.
    """
    length = _check_count(length, "length", 1)
    if length > MOMENT_MAX_LENGTH:
        raise BudgetError(f"exact moment enumeration capped at length {MOMENT_MAX_LENGTH}")
    p = np.asarray(p, dtype=float)
    k = np.arange(length + 1).reshape((-1,) + (1,) * p.ndim)
    kl = bernoulli_kl_vec(k / length, p)
    factorials = np.cumprod(np.arange(length + 1, dtype=object).clip(1))  # 0!, ..., N! as exact ints
    log_comb = np.log((factorials[-1] // (factorials * factorials[::-1])).astype(float)).reshape(k.shape)
    # ln p = -kl(1||p) and ln(1-p) = -kl(0||p), the kernel's own end rows, so
    # the exponent at outcomes 0 and N cancels to 0 exactly (N = 1 gives 2).
    with np.errstate(invalid="ignore"):
        exponent = log_comb - k * kl[-1] - (length - k) * kl[0] + length * kl
    # A left fold in outcome order; at p = 0 or 1 the sample mean equals p
    # almost surely and the exponent vanishes.
    total = np.where((p == 0.0) | (p == 1.0), 1.0, functools.reduce(np.add, _capped_exp(exponent)))
    return float(total) if total.ndim == 0 else total


def _capped_exp(exponent: np.ndarray) -> np.ndarray:
    """exp, infinite where the exponent reaches ``_EXP_CAP``."""
    with np.errstate(over="ignore"):
        return np.where(exponent < _EXP_CAP, np.exp(exponent), math.inf)


# ---------------------------------------------------------------------------
# Dependent chains with constant conditional mean
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DependentChainSpec:
    """Finite description of a dependent [0,1]-valued process.

    ``transitions`` is a rank table: an (n, m) real array, n = sum_{d<N}
    m^d, whose row r is the conditional distribution (over ``support``) of
    the next value after the history prefix of rank r in the full m-ary
    tree, counted level by level (child j of rank r has rank m*r + 1 + j).
    The chain keeps a read-only float copy; rows of unreachable prefixes are
    never read.  Construction checks the path budget and the table's dtype
    and shape, then walks the reachable prefixes level by level, reading each
    level's rows in one lookup at their ranks, and rejects the spec unless
    each row is a probability vector whose mean equals ``mean`` to within
    1e-12: the constant-conditional-mean hypothesis is validated up front,
    not trusted; an error names a level's first prefix that fails.  The
    same walk records every reachable path, in reverse lexicographic order:
    ``path_values`` holds one row per path, ``path_probs`` its probability.
    """

    length: int
    support: tuple[float, ...]
    transitions: np.ndarray
    mean: float
    path_values: np.ndarray = field(init=False, repr=False)
    path_probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", _check_count(self.length, "length", 1))
        support = tuple(float(v) for v in self.support)
        if not support:
            raise ValueError("support must be nonempty")
        for v in support:
            _check_unit(v, "support value")
        object.__setattr__(self, "support", support)
        mean = _check_unit(self.mean, "mean")
        object.__setattr__(self, "mean", mean)
        m, N = len(support), self.length
        _check_budget(m, N)
        table = np.asarray(self.transitions)
        if table.dtype.kind not in "biuf" or table.shape != (sum(m**d for d in range(N)), m):
            raise ValueError(f"rank table is {table.dtype} {table.shape}, expected real (sum_(d<{N}) {m}**d, {m})")
        table = np.array(table, dtype=float)
        values = np.asarray(support)
        prefixes = np.zeros((1, 0), dtype=np.intp)  # the live prefixes of one level, in path order
        ranks = np.zeros(1, dtype=np.intp)
        masses = np.ones(1)
        for _ in range(N):
            probs = table[ranks]
            # Each check passes only in range, so a nan entry fails it.
            _check_rows(probs >= 0.0, prefixes, "negative or nan probability at prefix {}")
            sums = probs.sum(axis=1)
            _check_rows(abs(sums - 1.0) <= _SIMPLEX_TOL, prefixes, "conditional at prefix {} sums to {!r}", sums)
            cond_means = probs @ values
            _check_rows(abs(cond_means - mean) <= _MEAN_TOL, prefixes, "conditional mean {1!r} at prefix {0} "
                        f"deviates from {mean!r}: the constant-mean hypothesis fails", cond_means)
            # Children in descending support index: the leaves come out in the
            # order of a depth-first walk that pushes them in ascending order.
            live, cols = np.nonzero(probs[:, ::-1] > 0.0)
            cols = m - 1 - cols
            masses = masses[live] * probs[live, cols]
            prefixes = np.column_stack((prefixes[live], cols))
            ranks = m * ranks[live] + 1 + cols
        for name, arr in (("transitions", table), ("path_values", values[prefixes]), ("path_probs", masses)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def iid_bernoulli(cls, length: int, p: float) -> "DependentChainSpec":
        length = _check_count(length, "length", 1)
        _check_budget(2, length)  # before its table is built
        p = _check_unit(p, "p")
        table = np.broadcast_to((1.0 - p, p), (2**length - 1, 2))
        return cls(length=length, support=(0.0, 1.0), transitions=table, mean=p)

    @classmethod
    def constant(cls, length: int, value: float) -> "DependentChainSpec":
        length = _check_count(length, "length", 1)  # before its table is built
        value = _check_unit(value, "value")
        return cls(length=length, support=(value,), transitions=np.broadcast_to(1.0, (length, 1)), mean=value)


def _check_budget(m: int, length: int) -> None:
    """Reject m**length paths over ``PATH_BUDGET`` (as m**64 is for m >= 2),
    and a rank table of more rows: one support point gives one path but
    ``length`` rows, and m >= 2 points give fewer rows than paths."""
    if m ** min(length, 64) > PATH_BUDGET:
        raise BudgetError(f"{m}**{length} paths exceed the enumeration budget of {PATH_BUDGET}")
    if length > PATH_BUDGET:
        raise BudgetError(f"a rank table of {length} rows exceeds the enumeration budget of {PATH_BUDGET}")


def _check_rows(ok: np.ndarray, prefixes: np.ndarray, message: str, *columns: np.ndarray) -> None:
    """Reject a level unless ``ok`` holds everywhere, formatting ``message`` at its first failing row."""
    if np.count_nonzero(ok) < ok.size:
        i = int(ok.reshape(len(prefixes), -1).all(axis=1).argmin())
        raise ValueError(message.format(tuple(prefixes[i].tolist()), *(float(c[i]) for c in columns)))


def _conditional_segment(support: Sequence[float], mean: float) -> tuple[np.ndarray, np.ndarray]:
    """The two ends of the feasible conditionals {q >= 0, sum q = 1,
    sum q*v = mean} on m <= 3 sorted, distinct support points with the mean
    in their range; on one point both ends are that unit vector."""
    m = len(support)

    def pair(i: int, j: int) -> np.ndarray:
        q = np.zeros(m)
        q[i] = (support[j] - mean) / (support[j] - support[i])
        q[j] = 1.0 - q[i]
        return q

    if m == 1:
        return np.ones(1), np.ones(1)
    if m == 2:
        return pair(0, 1), pair(0, 1)
    if mean <= support[1]:
        return pair(0, 1), pair(0, 2)
    return pair(0, 2), pair(1, 2)


def random_constant_mean_chain(length: int, rng: np.random.Generator) -> DependentChainSpec:
    """Draw a random chain satisfying the constant-conditional-mean hypothesis.

    Each reachable prefix gets an independent uniform point t*v0 + (1-t)*v1
    of the feasible conditionals, a segment on m <= 3 support points.  With
    2 points it is a single point (the chain degenerates to i.i.d.), so
    3-point supports dominate the mix.  Stream: u picks the kind and a
    constant chain draws its value; else come the sorted support (redrawn
    until its gaps exceed 0.05), the mean, and n = sum_{d<N} m^d uniforms t,
    entry r for the prefix of rank r in the full m-ary tree, level by level.
    """
    length = _check_count(length, "length", 1)
    u = rng.random()
    if u < 0.1:
        return DependentChainSpec.constant(length, float(rng.random()))
    m = 2 if u < 0.3 else 3
    _check_budget(m, length)
    while True:
        support = np.sort(rng.random(m))
        if (support[1:] - support[:-1]).min() > 0.05:
            break
    spread = support[-1] - support[0]
    mean = float(rng.uniform(support[0] + 0.05 * spread, support[-1] - 0.05 * spread))
    v0, v1 = _conditional_segment(support, mean)
    t = rng.random(sum(m**d for d in range(length)))[:, None]
    table = np.where(v0 == v1, v0, t * v0 + (1.0 - t) * v1)  # a point segment stays exact
    return DependentChainSpec(length=length, support=tuple(float(v) for v in support), transitions=table, mean=mean)


def _fold_paths(count: int, rows_of, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sum over ``count`` paths of positive probability of weight * f(path),
    ``_PATH_BLOCK`` paths at a time; ``rows_of(start, stop)`` gives those
    paths' (B, N) rows and (B,) weights.  A weight that underflowed to 0 drops
    its path.  An infinite f raises ValueError before its block is added: f is
    infinite past ``_EXP_CAP``, where the weight has underflowed against it."""
    total = 0.0
    for start in range(0, count, _PATH_BLOCK):
        rows, weights = rows_of(start, min(start + _PATH_BLOCK, count))
        values = f(rows)
        if np.isinf(values).any():
            raise ValueError("f is infinite on a path of positive probability: no float sum is exact")
        keep = weights > 0.0
        total += float(weights[keep] @ values[keep])
    return total


def dependent_convex_expectation(chain: DependentChainSpec, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """E[f(X_1..X_N)] under the chain, over its reachable paths."""
    return _fold_paths(len(chain.path_probs), lambda s, e: (chain.path_values[s:e], chain.path_probs[s:e]), f)


def bernoulli_convex_expectation(length: int, p: float, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """E[f(Y_1..Y_N)] for Y_i i.i.d. Bernoulli(p), over the 2^N paths whose
    bits are (b >> i) & 1 (over the constant path when p is 0 or 1)."""
    length = _check_count(length, "length", 1)
    _check_budget(2, length)
    p = _check_unit(p, "p")
    if p in (0.0, 1.0):  # the one path of positive probability
        return _fold_paths(1, lambda s, e: (np.full((1, length), p), np.ones(1)), f)
    weight_of = np.array([p**k * (1.0 - p) ** (length - k) for k in range(length + 1)])

    def rows_of(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        bits, ones = (_bit_rows if stop - start == 2**length else _bit_rows.__wrapped__)(length, start, stop)
        return bits, weight_of[ones]

    return _fold_paths(2**length, rows_of, f)


@functools.cache
def _bit_rows(length: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Bernoulli paths start..stop-1 as read-only (B, N) float bit rows and
    their one-counts.  Cached only for all 2^N paths in one ``_PATH_BLOCK``
    (N <= 14); ``__wrapped__`` builds a block of a longer length afresh."""
    bits = (np.arange(start, stop)[:, None] >> np.arange(length)) & 1
    rows, ones = bits.astype(float), bits.sum(axis=1)
    rows.setflags(write=False), ones.setflags(write=False)
    return rows, ones


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
    ``mean`` (infinite where the exponent reaches ``_EXP_CAP``, which the
    expectations reject); each is convex on [0,1]^N.
    """
    length = _check_count(length, "length", 1)
    mean = _check_unit(mean, "mean")

    def f_max(xs: np.ndarray) -> np.ndarray:
        return functools.reduce(np.maximum, xs.T)  # exact, so numpy's max(axis=1) bit for bit

    def f_square_sum(xs: np.ndarray) -> np.ndarray:
        return xs.sum(axis=1) ** 2

    def f_kl_moment(xs: np.ndarray) -> np.ndarray:
        return _capped_exp(length * bernoulli_kl_vec(np.clip(xs.sum(axis=1) / length, 0.0, 1.0), mean))

    return (("max", f_max), ("square_sum", f_square_sum), ("kl_moment", f_kl_moment))


def midpoint_convexity_probe(f: Callable[[np.ndarray], np.ndarray], length: int) -> bool:
    """Stochastic midpoint test: f((x+y)/2) <= (f(x)+f(y))/2 on random pairs, one f call per side."""
    length = _check_count(length, "length", 1)
    x, y = np.random.default_rng(_PROBE_SEED).random((_PROBE_TRIALS, 2, length)).transpose(1, 0, 2)
    return not np.any(f((x + y) / 2.0) > 0.5 * (f(x) + f(y)) + _PROBE_TOL)


# ---------------------------------------------------------------------------
# Martingale tail bounds
# ---------------------------------------------------------------------------


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
    n_steps = _check_count(n_steps, "n_steps", 1)
    low, high = _check_global_range(low, high)
    delta = _check_delta(delta)
    return (high - low) * math.sqrt(n_steps * math.log((n_steps + 1) / delta) / 2.0)


def hoeffding_azuma_bound(widths, delta: float) -> float:
    """Classical tail radius sqrt(0.5 * sum w_i^2 * ln(2/delta)) for the
    widths w_i = high_i - low_i of the increment ranges [low_i, high_i].

    A zero width is legal (that step is a.s. 0); an empty, non-1-d,
    non-finite or negative vector is rejected.
    """
    widths = np.asarray(widths, dtype=float)
    if widths.ndim != 1 or widths.size == 0:
        raise ValueError("widths must be a nonempty 1-d vector")
    if not np.all(np.isfinite(widths)) or np.any(widths < 0.0):
        raise ValueError("widths must be finite and nonnegative")
    delta = _check_delta(delta)
    return math.sqrt(0.5 * float(np.sum(widths**2)) * math.log(2.0 / delta))


# ---------------------------------------------------------------------------
# Seeded martingale simulators
# ---------------------------------------------------------------------------


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The generator seeded by ``SeedSequence(seed, spawn_key=key)``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _walk_signs(raw: np.ndarray) -> np.ndarray:
    """(B, 2W) +-1 signs from (B, W) raw PCG64 words: bit 31, then bit 63, of each word, as
    ``integers(0, 2)`` and a "<u4" view read them."""
    bits = raw.astype("<u8", copy=False).view("<u4") >> np.uint32(31)
    return np.subtract(bits + bits, 1.0, dtype=float)


def simulate_profile_walks(profiles, trials: int, seed: int) -> np.ndarray:
    """Final sums of symmetric walks, one row per step-magnitude profile c_j.

    Entry [j, i] is sum_k c_jk s_ik.  With W = ceil(longest profile / 2), the
    signs s_i of trial i are row i of ``2 * _stream(seed, _PROFILE_STREAM)
    .integers(0, 2, size=(trials, 2W)) - 1``: ``_walk_signs`` of the stream's
    raw words [iW, (i+1)W), drawn ``_WALK_BLOCK`` trials at a time.  Profile j
    sums the first c_j.size signs of each row; its sums for a block are one
    stacked matmul of (1, n) by (n,) products, each numpy's dot loop, so each
    equals ``np.dot`` on its row bit for bit.  Profile j's increment ranges
    are [-c_jk, c_jk].
    """
    steps = [np.asarray(p, dtype=float) for p in profiles]
    if not steps:
        raise ValueError("profiles must be a nonempty list of step vectors")
    for c in steps:
        if c.ndim != 1 or c.size == 0:
            raise ValueError("each profile must be a nonempty 1-d vector")
        if not np.all(np.isfinite(c)) or np.any(c <= 0.0):
            raise ValueError("step sizes must be positive and finite")
    trials = _check_count(trials, "trials", 1)
    words = -(-max(c.size for c in steps) // 2)
    bit_generator = _stream(seed, _PROFILE_STREAM).bit_generator
    sums = np.empty((len(steps), trials))
    for start in range(0, trials, _WALK_BLOCK):
        signs = _walk_signs(bit_generator.random_raw((min(_WALK_BLOCK, trials - start), words)))
        for j, c in enumerate(steps):
            sums[j, start : start + len(signs)] = np.matmul(signs[:, None, : c.size], c)[:, 0]
    return sums
