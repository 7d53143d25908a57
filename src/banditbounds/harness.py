"""Experiment harness: seeded Monte Carlo campaigns behind four modes.

* ``simulate`` — play the smoothed Gibbs strategy over many trajectories,
  emit per-round regret quantiles against the theoretical envelope.
* ``verify-bounds`` — check every bound route (``_ROUTES``) at every round
  of every trajectory and report trajectory-level violation rates.  A
  sweep folds a lockstep block, window by window, into one record, a dict
  from route name to ``BoundCoverage``; the campaign's record is the
  blocks' combined by ``_merge``.
* ``oracles`` — run the exact enumeration and algebraic identity suites.
* ``compare-concentration`` — tabulate the kl-form tail bound against the
  classical Hoeffding-Azuma bound across range profiles, with empirical
  coverage.

Both bandit modes split the trajectories once into lockstep blocks, in
index order, and play them in process or in a pool of worker processes.

Reproducibility contract: trajectory ``i`` of a campaign with master seed
``s`` always uses the generator seeded by ``SeedSequence(s,
spawn_key=(0, i))``, so results are independent of execution order and of
the number of workers, and all emitted files are byte-stable for a fixed
configuration.  Manifests record the semantic configuration only (not the
output directory or worker count, which cannot affect results).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bandit import Environment, Window, _expected_reward, _pi_floor, _play_windows, _schedule_arrays
from .bounds import _SCALE_TOL, _envelope, _kl_budget, _weighted_opt, expsum_ratio, gap_driver_report
from .concentration import (
    BudgetError,
    MartingaleRange,
    _stream,
    azuma_alt_bound,
    bernoulli_kl_moment,
    convex_domination_gap,
    convex_test_functions,
    hoeffding_azuma_bound,
    midpoint_convexity_probe,
    random_constant_mean_chain,
    simulate_profile_walks,
)
from .divergences import bernoulli_kl_vec, pinsker_gap

__all__ = [
    "BoundCoverage",
    "ExperimentConfig",
    "OracleCheck",
    "OracleReport",
    "SimulateResult",
    "certificate_sweep",
    "prediction_regret",
    "run_compare_concentration",
    "run_oracles",
    "run_simulate",
    "run_verify_bounds",
    "schedule_pi_min",
    "trajectory_stream",
    "write_trace_csv",
]

MODES = ("simulate", "verify-bounds", "oracles", "compare-concentration")

_TRAJECTORY_STREAM = 0
_CHAIN_STREAM = 3
_PROBE_STREAM = 4

# Cap on the entries of the largest array a campaign allocates (800 MB of
# float64): simulate's (M, T) regret matrix at M = 1000, T = 10^5 just fits.
_MAX_ARRAY_ENTRIES = 10**8
# Most trajectories the engine plays in lockstep, one block per task.  A
# round of a block costs little more than a round of one trajectory, and the
# engine holds (B, R, K) windows (plus a Beta block's (B, T, K) payout table).
_BLOCK = 256
# Table rows converted to text per write.
_CSV_ROWS = 4096
# Exp-sum probes evaluated per kernel call.
_PROBE_BLOCK = 1024

_INT_FIELDS = (
    "n_arms", "horizon", "trajectories", "seed", "warmup_length", "workers",
    "chain_count", "probe_count", "walk_trials", "walk_steps",
)


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def trajectory_stream(seed: int, index: int) -> np.random.Generator:
    """The documented per-trajectory stream: SeedSequence(seed, spawn_key=(0, index))."""
    return _stream(seed, _TRAJECTORY_STREAM, index)


@dataclass(frozen=True)
class ExperimentConfig:
    """One flat configuration shared by all modes; CLI flags map onto fields."""

    mode: str
    n_arms: int = 2
    horizon: int = 1000
    trajectories: int = 50
    delta: float = 0.05
    seed: int = 0
    means: tuple[float, ...] | None = None
    reward_kind: str = "bernoulli"
    warmup_length: int | None = None
    workers: int = 1
    outdir: str = "out"
    store_traces: bool = False
    chain_count: int = 200
    probe_count: int = 100_000
    walk_trials: int = 10_000
    walk_steps: int = 100

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not (_is_int(value) or (value is None and name == "warmup_length")):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not _is_real(self.delta):
            raise ValueError(f"delta must be a number, got {self.delta!r}")
        if self.means is not None and (
            not isinstance(self.means, (tuple, list))
            or not all(_is_real(m) for m in self.means)
        ):
            raise ValueError(f"means must be a sequence of numbers, got {self.means!r}")
        if not isinstance(self.store_traces, bool):
            raise ValueError(f"store_traces must be true or false, got {self.store_traces!r}")
        if not isinstance(self.outdir, str):
            raise ValueError(f"outdir must be a path string, got {self.outdir!r}")
        if self.n_arms < 2:
            raise ValueError("n_arms must be at least 2")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.trajectories < 1:
            raise ValueError("trajectories must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.means is not None and len(self.means) != self.n_arms:
            raise ValueError(
                f"{len(self.means)} means given for {self.n_arms} arms"
            )
        if self.warmup_length is not None and self.warmup_length < 1:
            raise ValueError("warmup_length must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if min(self.chain_count, self.probe_count, self.walk_trials, self.walk_steps) < 1:
            raise ValueError("campaign sizes must be positive")
        # Entries of each large array the campaign allocates, checked before
        # the environment builds its K means.
        sizes = [self.n_arms]
        if self.mode in ("simulate", "verify-bounds"):
            sizes += [self.horizon * self.n_arms, self.trajectories]  # per trajectory; indices
        if self.mode == "simulate":
            sizes.append(self.trajectories * self.horizon)
        if self.mode == "compare-concentration":
            sizes += [16 * self.walk_steps, 8 * self.walk_trials]  # signs; (8, trials) sums
        if max(sizes) > _MAX_ARRAY_ENTRIES:
            raise ValueError(
                f"the campaign would allocate an array of {max(sizes)} entries, "
                f"over the cap of {_MAX_ARRAY_ENTRIES}"
            )
        self.environment()  # validates means against [0, 1] and reward_kind

    def resolved_means(self) -> tuple[float, ...]:
        if self.means is not None:
            return tuple(float(m) for m in self.means)
        return tuple(float(x) for x in np.linspace(0.9, 0.1, self.n_arms))

    def environment(self) -> Environment:
        return Environment(
            means=np.array(self.resolved_means()), reward_kind=self.reward_kind
        )

    def semantic_fields(self) -> dict:
        base = {"mode": self.mode, "seed": self.seed, "delta": self.delta}
        if self.mode in ("simulate", "verify-bounds"):
            base.update(
                n_arms=self.n_arms,
                horizon=self.horizon,
                trajectories=self.trajectories,
                means=list(self.resolved_means()),
                reward_kind=self.reward_kind,
                warmup_length=self.warmup_length,
                store_traces=self.store_traces,
            )
        elif self.mode == "oracles":
            base.update(chain_count=self.chain_count, probe_count=self.probe_count)
        else:
            base.update(walk_trials=self.walk_trials, walk_steps=self.walk_steps)
        return base


def _cell(x) -> str:
    """Floats by ``repr``, ints by ``str``, booleans as true/false; nan and None are empty."""
    if isinstance(x, float):  # float.__repr__ writes a numpy float64 as a plain float too
        return float.__repr__(x) if x == x else ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return "" if x is None else str(x)


def _cells(part):
    """One column part as ``csv`` cells.  ``csv`` writes a float by ``repr`` and an int
    by ``str``, as ``_cell`` does, so int and nan-free float arrays go as they are."""
    if not isinstance(part, np.ndarray):
        return map(_cell, part)
    if part.dtype.kind in "iu" or (part.dtype.kind == "f" and not np.isnan(part).any()):
        return part.tolist()
    return map(_cell, part.tolist())


def _write_csv(out, columns: dict, header: bool = True) -> None:
    """Write one table whose header is the keys of ``columns`` to ``out``, a
    path or an open text file; without ``header``, write only the rows, to
    continue a table.  A column is a numpy array or a list of Python scalars,
    ``_CSV_ROWS`` rows at a time; only nan-bearing float, bool and list columns
    are formatted one cell at a time."""
    if isinstance(out, (str, Path)):
        with open(out, "w", newline="") as fh:
            return _write_csv(fh, columns, header)
    lengths = {len(c) for c in columns.values()}
    if len(lengths) != 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    writer = csv.writer(out)
    if header:
        writer.writerow(columns)
    for start in range(0, lengths.pop(), _CSV_ROWS):
        part = [c[start : start + _CSV_ROWS] for c in columns.values()]
        writer.writerows(zip(*map(_cells, part)))


def _trace_columns(start: int, actions, rewards, pi, rhat) -> dict:
    """Rounds start+1.. of one trajectory: t, action, reward, policy entries, estimates."""
    ts = np.arange(start + 1, start + len(actions) + 1)
    return {"t": ts, "action": actions, "reward": rewards} | {
        f"{name}_{a}": col[:, a] for name, col in (("pi", pi), ("rhat", rhat)) for a in range(pi.shape[1])
    }


def write_trace_csv(record: Window, path) -> None:
    """One row per round of ``run_game``'s record: t, action, reward, policy
    entries, estimate entries."""
    _write_csv(path, _trace_columns(0, record.actions, record.rewards, record.pi[:-1], record.rhat))


def _write_manifest(outdir: Path, cfg: ExperimentConfig, summary: dict) -> Path:
    """Write manifest.json as strict JSON: a non-finite summary value, such
    as a slope fitted to fewer than two rounds, is written as null."""
    payload = {
        "artifact": "banditbounds",
        "version": __version__,
        "config": cfg.semantic_fields(),
        "summary": {
            name: None if isinstance(v, float) and not math.isfinite(v) else v
            for name, v in summary.items()
        },
    }
    path = outdir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def _ensure_outdir(cfg: ExperimentConfig) -> Path:
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def schedule_pi_min(n_arms: int, horizon: int) -> np.ndarray:
    """Deterministic per-round lower bounds on min_a pi_t(a).

    Uniform warmup rounds have minimum exactly 1/K; smoothed rounds keep
    every arm above epsilon_t.  min(epsilon_t, 1/K) lower-bounds both
    phases regardless of the configured warmup length, and being
    data-independent it is a legal choice wherever the bounds require one.
    """
    _, epsilon = _schedule_arrays(n_arms, range(1, horizon + 1))
    return _pi_floor(n_arms, epsilon)


def _block_size(share: int, horizon: int, n_arms: int) -> int:
    """Trajectories per lockstep block: a worker's share up to ``_BLOCK``, and
    few enough that a Beta block's (B, T, K) payout table stays under the cap."""
    return min(_BLOCK, share, _MAX_ARRAY_ENTRIES // (horizon * n_arms))


def _blocks(cfg: ExperimentConfig) -> list[range]:
    """The campaign's trajectories split once into lockstep blocks, in order."""
    size = _block_size(-(-cfg.trajectories // cfg.workers), cfg.horizon, cfg.n_arms)
    return [range(i, min(i + size, cfg.trajectories)) for i in range(0, cfg.trajectories, size)]


def _block_windows(cfg: ExperimentConfig, env: Environment, block: range):
    """The stream of ``Window``s of the trajectories in ``block``, played in lockstep."""
    seeds = [trajectory_stream(cfg.seed, i) for i in block]
    return _play_windows(env, cfg.horizon, seeds, cfg.warmup_length)


def _map_blocks(cfg: ExperimentConfig, worker) -> list:
    """Run ``worker`` on each block, in process at one worker, else in a pool
    of no more processes than blocks; results come back in index order."""
    tasks = [(cfg, block) for block in _blocks(cfg)]
    if cfg.workers == 1:
        return [worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(cfg.workers, len(tasks))) as pool:
        return list(pool.map(worker, tasks))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def prediction_regret(record: Window, env: Environment) -> np.ndarray:
    """Per-round regret of the policy formed after round t (played at t+1),
    for ``run_game``'s record or each row of a block's window."""
    return env.best_mean - _expected_reward(record.pi[..., 1:, :], env.means)


def _envelope_curve(n_arms: int, horizon: int, delta: float) -> np.ndarray:
    env = np.full(horizon, np.nan)
    start = n_arms**3
    env[start - 1 :] = _envelope(n_arms, np.arange(start, horizon + 1, dtype=float), delta)
    return env


def _simulate_block(args) -> np.ndarray:
    """Regret rows of the trajectories in ``block``, filled a window at a
    time; with ``store_traces``, each window is added to its trajectories'
    files, which stay open while the block plays."""
    cfg, block = args
    env = cfg.environment()
    rows = np.empty((len(block), cfg.horizon))
    with contextlib.ExitStack() as stack:
        files = [
            stack.enter_context(open(Path(cfg.outdir) / f"trace_{i:04d}.csv", "w", newline=""))
            for i in block
        ] if cfg.store_traces else []
        for w in _block_windows(cfg, env, block):
            regret = prediction_regret(w, env)
            rows[:, w.start : w.start + regret.shape[1]] = regret
            for j, fh in enumerate(files):
                columns = _trace_columns(w.start, w.actions[j], w.rewards[j], w.pi[j, :-1], w.rhat[j])
                _write_csv(fh, columns, header=w.start == 0)
    return rows


def _loglog_slope(ts: np.ndarray, ys: np.ndarray) -> float:
    mask = np.isfinite(ys) & (ys > 0.0)
    if mask.sum() < 2:
        return math.nan
    return float(np.polyfit(np.log(ts[mask]), np.log(ys[mask]), 1)[0])


@dataclass(frozen=True, eq=False)
class SimulateResult:
    envelope: np.ndarray            # (horizon,) with nan before K^3
    trajectory_covered: np.ndarray  # (trajectories,) bool, all rounds >= K^3
    summary: dict
    outdir: Path


def run_simulate(cfg: ExperimentConfig) -> SimulateResult:
    cfg.validate()
    outdir = _ensure_outdir(cfg)
    k = cfg.n_arms

    # One block's rows are the (M, T) matrix itself; several are joined once.
    parts = _map_blocks(cfg, _simulate_block)
    regret = parts[0] if len(parts) == 1 else np.concatenate(parts)
    del parts

    # Rounds t >= K^3, from column K^3 - 1 on, are the envelope's scope.
    envelope = _envelope_curve(k, cfg.horizon, cfg.delta)
    scoped = slice(k**3 - 1, None)
    inside = regret[:, scoped] <= envelope[scoped]
    covered = inside.all(axis=1)
    within = np.full(cfg.horizon, np.nan)
    within[scoped] = inside.mean(axis=0)

    # The quantiles partition the matrix in place: it is not read again.
    q10, q50, q90 = np.quantile(regret, [0.1, 0.5, 0.9], axis=0, overwrite_input=True)

    ts = np.arange(1, cfg.horizon + 1)
    fit_lo = max(k**3, cfg.horizon // 10)
    fit_mask = ts >= fit_lo
    scoped_rounds = inside.shape[1]
    summary = {
        "median_regret_final": float(q50[-1]),
        "regret_loglog_slope": _loglog_slope(ts[fit_mask], q50[fit_mask]),
        # No scoped round (horizon < K^3) leaves the coverage undefined: null.
        "trajectory_coverage": float(np.mean(covered)) if scoped_rounds else math.nan,
        "scoped_rounds": scoped_rounds,
        "fit_window_start": int(fit_lo),
    }

    _write_csv(outdir / "regret_curve.csv", {
        "t": ts, "regret_q10": q10, "regret_q50": q50, "regret_q90": q90,
        "envelope": envelope, "slack_q50": envelope - q50, "within_fraction": within,
    })
    _write_manifest(outdir, cfg, summary)
    return SimulateResult(envelope=envelope, trajectory_covered=covered, summary=summary, outdir=outdir)


# ---------------------------------------------------------------------------
# verify-bounds
# ---------------------------------------------------------------------------


_ROUTES = ("kl_route", "weighted_route")


@dataclass(frozen=True, eq=False)
class BoundCoverage:
    name: str
    trials: int
    violated: int
    worst_slack: float
    per_round_violations: np.ndarray

    @property
    def rate(self) -> float:
        return self.violated / self.trials


def _merge(a: dict, b: dict) -> dict:
    """Pool the records of two disjoint sets of trajectories: counts and
    per-round profiles add, the worst slack is the smaller one.  Every
    operation is exact, so the result does not depend on the merge order."""
    return {
        name: BoundCoverage(
            name=name,
            trials=x.trials + b[name].trials,
            violated=x.violated + b[name].violated,
            worst_slack=min(x.worst_slack, b[name].worst_slack),
            per_round_violations=x.per_round_violations + b[name].per_round_violations,
        )
        for name, x in a.items()
    }


def _coverage(windows, env: Environment, delta: float, horizon: int) -> dict:
    """Evaluate every bound route at every round of one block of trajectories.

    ``windows`` is the block's stream of ``Window``s; the sweep reads each
    window's rho, rhat and pi_lmin.  Comparison distributions, one row each
    of the stacked (3, B, R) arrays of estimate, truth and prior KL: the
    Gibbs posterior rho on current estimates, the point mass on the best
    arm, and uniform — all against the uniform prior.  The kl route uses
    the realized running-minimum probability (the tightest legal pi_lmin);
    the weighted route uses the deterministic schedule lower bounds so that
    lambda stays data-independent.  Windows fold in exactly: a trajectory's
    flag is the OR of its windows', per-round counts add, and the worst
    bound-minus-value slack is the minimum.  Returns the block's record, a
    dict from route name to ``BoundCoverage``.
    """
    log_k = math.log(env.n_arms)
    means = env.means
    hits = {}
    worst = dict.fromkeys(_ROUTES, math.inf)
    counts = {name: np.zeros(horizon, dtype=np.int64) for name in _ROUTES}
    carry = 0.0
    for w in windows:
        rho, rhat, lmin = w.rho, w.rhat, w.pi_lmin
        shape = lmin.shape
        rounds = slice(w.start, w.start + shape[1])
        ts = np.arange(rounds.start + 1, rounds.stop + 1, dtype=float)
        # The running sum of the schedule floors' pi_min^-2, continued from
        # the last window: adding the carry to the first entry before the
        # cumsum keeps the float order sequential.
        inv_sq = w.floor ** -2.0
        inv_sq[0] += carry
        cum_a = np.cumsum(inv_sq)
        carry = cum_a[-1]
        # Arms the softmax underflowed to 0 contribute 0 to sum rho ln rho.
        safe_rho = np.where(rho > 0.0, rho, 1.0)
        r_hat_rho = np.stack((_expected_reward(rho, rhat), rhat[..., env.best_arm], rhat.mean(axis=-1)))
        r_rho = np.stack(
            (_expected_reward(rho, means), np.full(shape, env.best_mean), np.full(shape, means.mean()))
        )
        prior_kl = np.stack(
            (log_k + np.sum(rho * np.log(safe_rho), axis=-1), np.full(shape, log_k), np.zeros(shape))
        )

        scaled_hat = lmin * r_hat_rho
        if scaled_hat.max() > 1.0 + _SCALE_TOL:
            raise ValueError("pi_lmin scaling contract violated on the trace")
        scaled_hat = np.clip(scaled_hat, 0.0, 1.0)
        scaled_true = np.clip(lmin * r_rho, 0.0, 1.0)

        for name, value, bound in (
            ("kl_route", bernoulli_kl_vec(scaled_hat, scaled_true), _kl_budget(prior_kl, ts, delta)),
            ("weighted_route", np.abs(r_hat_rho - r_rho), _weighted_opt(prior_kl, ts, delta, cum_a)),
        ):
            flags = (value > bound).any(axis=0)
            hits[name] = flags.any(axis=1) | hits.get(name, False)
            counts[name][rounds] += flags.sum(axis=0)
            worst[name] = min(worst[name], float(np.min(bound - value)))
    trials = shape[0]  # the block's trajectories
    return {
        name: BoundCoverage(name, trials, int(hits[name].sum()), worst[name], counts[name])
        for name in _ROUTES
    }


def certificate_sweep(record: Window, env: Environment, delta: float) -> dict:
    """Evaluate every bound route at every round of ``run_game``'s record:
    the one-window call of the sweep.  Returns a one-trajectory record: per
    route, whether any comparator broke its bound at each round, and the
    smallest slack."""
    window = record._replace(rhat=record.rhat[None], rho=record.rho[None], pi_lmin=record.pi_lmin[None])
    return _coverage([window], env, delta, len(record.floor))


def _first_row_columns(windows, pi_min: np.ndarray, pi_lmin: np.ndarray):
    """Pass windows on, copying row 0's smallest policy entry and running
    minimum of each round into the (T,) columns ``pi_min`` and ``pi_lmin``."""
    for w in windows:
        rounds = slice(w.start, w.start + w.pi_lmin.shape[1])
        pi_min[rounds] = w.pi[0, :-1].min(axis=1)
        pi_lmin[rounds] = w.pi_lmin[0]
        yield w


def _verify_block(args):
    """Sweep the trajectories in ``block`` into one record; the block that
    starts at trajectory 0 also returns that trajectory's ``drivers.csv``
    columns, the others return None."""
    cfg, block = args
    env = cfg.environment()
    windows = _block_windows(cfg, env, block)
    if block.start != 0:
        return _coverage(windows, env, cfg.delta, cfg.horizon), None
    columns = np.empty((2, cfg.horizon))
    record = _coverage(_first_row_columns(windows, *columns), env, cfg.delta, cfg.horizon)
    return record, gap_driver_report(*columns, cfg.delta)


def run_verify_bounds(cfg: ExperimentConfig) -> dict:
    """Run the campaign; returns its record, a dict from route name to
    ``BoundCoverage``."""
    cfg.validate()
    outdir = _ensure_outdir(cfg)

    records, drivers = zip(*_map_blocks(cfg, _verify_block))
    report = functools.reduce(_merge, records)
    entries = report.values()

    _write_csv(outdir / "coverage.csv", {
        "bound": [e.name for e in entries], "trajectories": [e.trials for e in entries],
        "violated": [e.violated for e in entries], "empirical_rate": [e.rate for e in entries],
        "nominal_delta": [cfg.delta] * len(entries),
        "worst_slack": [e.worst_slack for e in entries],
    })
    profiles = {n: report[n].per_round_violations for n in _ROUTES}
    _write_csv(outdir / "violation_profile.csv", {"t": np.arange(1, cfg.horizon + 1), **profiles})
    _write_csv(outdir / "drivers.csv", drivers[0])  # the first block starts at trajectory 0
    summary = {}
    for e in entries:
        summary[f"{e.name}_rate"] = e.rate
        summary[f"{e.name}_worst_slack"] = e.worst_slack
    _write_manifest(outdir, cfg, summary)
    return report


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleCheck:
    name: str
    status: str   # pass | fail | skip | report
    detail: str


@dataclass(frozen=True)
class OracleReport:
    checks: tuple[OracleCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


def _moment_checks() -> list[OracleCheck]:
    checks = []
    max_ratio = 0.0
    window_hits = 0
    window_total = 0
    p_grid = np.arange(0.01, 1.0, 0.01)
    for n in range(1, 21):
        for p in p_grid:
            moment = bernoulli_kl_moment(n, float(p))
            max_ratio = max(max_ratio, moment / (n + 1))
            if n >= 8:
                window_total += 1
                if math.sqrt(n) <= moment <= 2.0 * math.sqrt(n):
                    window_hits += 1
    ok = max_ratio <= 1.0 + 1e-12
    checks.append(
        OracleCheck(
            "kl_moment_cap",
            "pass" if ok else "fail",
            f"max E/(N+1) = {max_ratio:.15f} over N in 1..20, p grid 0.01..0.99",
        )
    )
    checks.append(
        OracleCheck(
            "kl_moment_sqrt_window",
            "report",
            f"sqrt(N) <= E <= 2 sqrt(N) holds on {window_hits}/{window_total} "
            "grid cells with N >= 8 (informational, not asserted)",
        )
    )
    return checks


def _domination_checks(cfg: ExperimentConfig) -> list[OracleCheck]:
    rng = _stream(cfg.seed, _CHAIN_STREAM)
    min_gap = math.inf
    count = 0
    try:
        for _ in range(cfg.chain_count):
            length = int(rng.integers(2, 7))
            chain = random_constant_mean_chain(length, rng)
            for _, f in convex_test_functions(chain.length, chain.mean):
                min_gap = min(min_gap, convex_domination_gap(chain, f))
                count += 1
    except BudgetError as exc:
        return [OracleCheck("constant_mean_domination", "skip", str(exc))]
    ok = min_gap >= -1e-12
    probe_ok = all(
        midpoint_convexity_probe(f, 4)
        for _, f in convex_test_functions(4, 0.37)
    )
    return [
        OracleCheck(
            "constant_mean_domination",
            "pass" if ok else "fail",
            f"min gap {min_gap:.3e} over {count} (chain, f) pairs",
        ),
        OracleCheck(
            "convexity_probe",
            "pass" if probe_ok else "fail",
            "midpoint spot checks on the fixed convex family",
        ),
    ]


def _expsum_checks(cfg: ExperimentConfig) -> list[OracleCheck]:
    rng = _stream(cfg.seed, _PROBE_STREAM)
    sizes = (2, 3, 5, 8)
    per_size, remainder = divmod(cfg.probe_count, len(sizes))
    cap_violations = 0
    log_violations = 0
    for pos, n in enumerate(sizes):
        count = per_size + (1 if pos < remainder else 0)
        for start in range(0, count, _PROBE_BLOCK):
            rows = min(_PROBE_BLOCK, count - start)
            # Three draws per block: normal entries, the 10x heavy rows and
            # log10 alpha; together they stress both signs and extremes of alpha.
            xs = rng.normal(0.0, 3.0, size=(rows, n))
            xs[rng.random(rows) < 0.1] *= 10.0
            xs[:, 0] = 0.0
            alpha = 10.0 ** rng.uniform(-2.0, 2.0, size=rows)
            ratios = expsum_ratio(xs, alpha)
            cap_violations += int(np.count_nonzero(ratios > n / alpha))
            log_violations += int(np.count_nonzero(ratios > math.log(n) / alpha))
    return [
        OracleCheck(
            "expsum_ratio_cap",
            "pass" if cap_violations == 0 else "fail",
            f"{cap_violations} violations of n/alpha over {cfg.probe_count} probes",
        ),
        OracleCheck(
            "expsum_ratio_log_conjecture",
            "report",
            f"{log_violations} exceedances of ln(n)/alpha over {cfg.probe_count} probes "
            "(conjectured cap, never asserted)",
        ),
    ]


def _identity_checks() -> list[OracleCheck]:
    max_err = 0.0
    for n in (1, 2, 5, 10, 31, 100, 500, 3162, 10**6):
        for delta in (0.3, 0.1, 0.05, 0.01, 1e-4):
            for low, high in ((-1.0, 1.0), (-0.25, 0.75), (-2.0, 0.5)):
                direct = azuma_alt_bound(n, low, high, delta)
                budget = math.log((n + 1) / delta) / n
                factored = (high - low) * n * pinsker_gap(budget)
                max_err = max(max_err, abs(direct - factored) / direct)
    ok = max_err <= 1e-13
    return [
        OracleCheck(
            "tail_bound_identity",
            "pass" if ok else "fail",
            f"max relative error {max_err:.3e} between the tail radius and "
            "its Pinsker factorization",
        )
    ]


def run_oracles(cfg: ExperimentConfig) -> OracleReport:
    cfg.validate()
    outdir = _ensure_outdir(cfg)
    checks: list[OracleCheck] = []
    checks.extend(_moment_checks())
    checks.extend(_domination_checks(cfg))
    checks.extend(_expsum_checks(cfg))
    checks.extend(_identity_checks())
    report = OracleReport(checks=tuple(checks))
    _write_csv(outdir / "oracles.csv", {
        "check": [c.name for c in checks], "status": [c.status for c in checks],
        "detail": [c.detail for c in checks],
    })
    _write_manifest(outdir, cfg, {"passed": report.passed})
    for c in checks:
        print(f"oracle {c.name}: {c.status.upper()} ({c.detail})")
    return report


# ---------------------------------------------------------------------------
# compare-concentration
# ---------------------------------------------------------------------------


def run_compare_concentration(cfg: ExperimentConfig) -> list[dict]:
    cfg.validate()
    outdir = _ensure_outdir(cfg)
    base = max(2, cfg.walk_steps)
    n_grid = [max(2, base // 4), base, 4 * base, 16 * base]
    deltas = sorted({0.1, 0.05, 0.01} | {cfg.delta}, reverse=True)
    cells = []
    for profile in ("equal", "one_spike"):
        for n in n_grid:
            steps = np.ones(n)
            if profile == "one_spike":
                steps[0] = 5.0
            cells.append((profile, n, steps))
    all_sums = simulate_profile_walks([steps for _, _, steps in cells], cfg.walk_trials, cfg.seed)
    rows: list[dict] = []
    for (profile, n, steps), sums in zip(cells, all_sums):
        ranges = MartingaleRange(-steps, steps)
        low = float(-steps.max())
        high = float(steps.max())
        abs_sums = np.abs(sums)
        q50, q95 = (float(q) for q in np.quantile(abs_sums, [0.5, 0.95]))
        for delta in deltas:
            alt = azuma_alt_bound(n, low, high, delta)
            classical = hoeffding_azuma_bound(ranges, delta)
            equal_ratio = (
                math.sqrt(math.log((n + 1) / delta) / math.log(2.0 / delta))
                if profile == "equal"
                else math.nan
            )
            rows.append(
                {
                    "profile": profile,
                    "n_steps": n,
                    "delta": delta,
                    "azuma_alt": alt,
                    "hoeffding_azuma": classical,
                    "alt_over_classical": alt / classical,
                    "equal_range_ratio": equal_ratio,
                    "abs_sum_q50": q50,
                    "abs_sum_q95": q95,
                    "abs_sum_max": float(abs_sums.max()),
                    "coverage_alt": float(np.mean(abs_sums <= alt)),
                    "coverage_classical": float(np.mean(abs_sums <= classical)),
                }
            )
    columns = {name: [row[name] for row in rows] for name in rows[0]}
    _write_csv(outdir / "compare_concentration.csv", columns)
    _write_manifest(outdir, cfg, {"rows": len(rows)})
    return rows
