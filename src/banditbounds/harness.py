"""Experiment harness: seeded Monte Carlo campaigns behind four modes.

* ``simulate`` — play the smoothed Gibbs strategy over many trajectories,
  emit per-round regret quantiles against the theoretical envelope.
* ``verify-bounds`` — check every bound route (``_ROUTES``) at every round
  of every trajectory and report trajectory-level violation rates.  A
  sweep, a worker's chunk and the whole campaign all return one
  ``CoverageReport``; chunk and campaign records are sweeps combined by
  ``_merge``.
* ``oracles`` — run the exact enumeration and algebraic identity suites.
* ``compare-concentration`` — tabulate the kl-form tail bound against the
  classical Hoeffding-Azuma bound across range profiles, with empirical
  coverage.

Reproducibility contract: trajectory ``i`` of a campaign with master seed
``s`` always uses the generator seeded by ``SeedSequence(s,
spawn_key=(0, i))``, so results are independent of execution order and of
the number of workers, and all emitted files are byte-stable for a fixed
configuration.  Manifests record the semantic configuration only (not the
output directory or worker count, which cannot affect results).
"""

from __future__ import annotations

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
from .bandit import Environment, GameTrace, _gibbs_weights, _pi_floor, _schedule_arrays, run_game
from .bounds import _SCALE_TOL, _envelope, _kl_budget, _weighted_opt, expsum_ratio, gap_driver_report
from .concentration import (
    BudgetError,
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
    "CoverageReport",
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
            sizes += [self.horizon * self.n_arms, self.trajectories]  # per game; indices
        if self.mode == "simulate":
            sizes.append(self.trajectories * self.horizon)
        if self.mode == "compare-concentration":
            sizes += [16 * self.walk_steps, self.walk_trials]
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


def _write_csv(path: Path, columns: dict) -> None:
    """Write one table whose header is the keys of ``columns``.  A column is
    a numpy array, read through ``tolist()``, or a list of Python scalars."""
    cells = [map(_cell, c.tolist() if isinstance(c, np.ndarray) else c) for c in columns.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells, strict=True))


def write_trace_csv(trace: GameTrace, path) -> None:
    """One row per round: t, action, reward, policy entries, estimate entries."""
    arms = range(trace.n_arms)
    _write_csv(
        path,
        {"t": np.arange(1, trace.horizon + 1), "action": trace.actions, "reward": trace.rewards}
        | {f"pi_{a}": trace.pi[:, a] for a in arms}
        | {f"rhat_{a}": trace.rhat[:, a] for a in arms},
    )


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


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def prediction_regret(trace: GameTrace, env: Environment) -> np.ndarray:
    """Per-round regret of the policy formed after round t (played at t+1)."""
    # One (T, K) product, the shape the curve has always used: BLAS may
    # round a row differently inside a matrix of another shape.
    return env.best_mean - np.vstack((trace.pi[1:], trace.next_pi)) @ env.means


def _envelope_curve(n_arms: int, horizon: int, delta: float) -> np.ndarray:
    env = np.full(horizon, np.nan)
    start = n_arms**3
    env[start - 1 :] = _envelope(n_arms, np.arange(start, horizon + 1, dtype=float), delta)
    return env


def _simulate_chunk(args) -> np.ndarray:
    cfg, indices = args
    env = cfg.environment()
    rows = np.empty((len(indices), cfg.horizon))
    for j, i in enumerate(indices):
        trace = run_game(
            env, cfg.horizon, trajectory_stream(cfg.seed, int(i)), warmup_length=cfg.warmup_length
        )
        rows[j] = prediction_regret(trace, env)
        if cfg.store_traces:
            write_trace_csv(trace, Path(cfg.outdir) / f"trace_{int(i):04d}.csv")
    return rows


def _run_chunked(cfg: ExperimentConfig, worker) -> list:
    """Run ``worker`` on contiguous index chunks; results come back in index order."""
    indices = np.arange(cfg.trajectories)
    if cfg.workers == 1:
        return [worker((cfg, indices))]
    chunks = [c for c in np.array_split(indices, cfg.workers) if c.size]
    # The pool starts all its workers at the first submit: one per chunk.
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return list(pool.map(worker, [(cfg, c) for c in chunks]))


def _loglog_slope(ts: np.ndarray, ys: np.ndarray) -> float:
    mask = np.isfinite(ys) & (ys > 0.0)
    if mask.sum() < 2:
        return math.nan
    return float(np.polyfit(np.log(ts[mask]), np.log(ys[mask]), 1)[0])


@dataclass(frozen=True, eq=False)
class SimulateResult:
    regret: np.ndarray              # (trajectories, horizon)
    envelope: np.ndarray            # (horizon,) with nan before K^3
    trajectory_covered: np.ndarray  # (trajectories,) bool, all rounds >= K^3
    summary: dict
    outdir: Path


def run_simulate(cfg: ExperimentConfig) -> SimulateResult:
    cfg.validate()
    outdir = _ensure_outdir(cfg)
    env = cfg.environment()
    k = env.n_arms

    regret = np.concatenate(_run_chunked(cfg, _simulate_chunk))

    envelope = _envelope_curve(k, cfg.horizon, cfg.delta)
    scoped = np.isfinite(envelope)
    inside = regret[:, scoped] <= envelope[scoped]
    covered = inside.all(axis=1)

    q10, q50, q90 = np.quantile(regret, [0.1, 0.5, 0.9], axis=0)
    within = np.full(cfg.horizon, np.nan)
    within[scoped] = inside.mean(axis=0)

    ts = np.arange(1, cfg.horizon + 1)
    fit_lo = max(k**3, cfg.horizon // 10)
    fit_mask = ts >= fit_lo
    summary = {
        "median_regret_final": float(q50[-1]),
        "regret_loglog_slope": _loglog_slope(ts[fit_mask], q50[fit_mask]),
        # No scoped round (horizon < K^3) leaves the coverage undefined: null.
        "trajectory_coverage": float(np.mean(covered)) if scoped.any() else math.nan,
        "scoped_rounds": int(scoped.sum()),
        "fit_window_start": int(fit_lo),
    }

    _write_csv(outdir / "regret_curve.csv", {
        "t": ts, "regret_q10": q10, "regret_q50": q50, "regret_q90": q90,
        "envelope": envelope, "slack_q50": envelope - q50, "within_fraction": within,
    })
    _write_manifest(outdir, cfg, summary)
    return SimulateResult(
        regret=regret,
        envelope=envelope,
        trajectory_covered=covered,
        summary=summary,
        outdir=outdir,
    )


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


@dataclass(frozen=True, eq=False)
class CoverageReport:
    entries: dict

    def rate(self, name: str) -> float:
        return self.entries[name].rate


def _merge(a: CoverageReport, b: CoverageReport) -> CoverageReport:
    """Pool two disjoint sets of trajectories: counts and per-round profiles
    add, the worst slack is the smaller one.  Every operation is exact, so
    the result does not depend on the merge order."""
    entries = {}
    for name, x in a.entries.items():
        y = b.entries[name]
        entries[name] = BoundCoverage(
            name=name,
            trials=x.trials + y.trials,
            violated=x.violated + y.violated,
            worst_slack=min(x.worst_slack, y.worst_slack),
            per_round_violations=x.per_round_violations + y.per_round_violations,
        )
    return CoverageReport(entries=entries)


def certificate_sweep(trace: GameTrace, env: Environment, delta: float) -> CoverageReport:
    """Evaluate every bound route at every round of one trajectory.

    Comparison distributions, one row each of the stacked (3, T) arrays of
    estimate, truth and prior KL: the Gibbs posterior on current estimates,
    the point mass on the best arm, and uniform — all against the uniform
    prior.  The kl route uses the realized running-minimum probability (the
    tightest legal pi_lmin); the weighted route uses the deterministic
    schedule lower bounds so that lambda stays data-independent.  Returns a
    one-trajectory report: per route, whether any comparator broke its
    bound at each round, and the smallest bound-minus-value slack.
    """
    k = trace.n_arms
    horizon = trace.horizon
    ts = np.arange(1, horizon + 1, dtype=float)
    means = env.means
    rhat = trace.rhat
    lmin = trace.pi_lmin

    gamma, epsilon = _schedule_arrays(k, range(1, horizon + 1))
    rho = _gibbs_weights(rhat, gamma[:, None])

    log_k = math.log(k)
    # Arms the softmax underflowed to 0 contribute 0 to sum rho ln rho.
    safe_rho = np.where(rho > 0.0, rho, 1.0)
    r_hat_rho = np.stack((np.sum(rho * rhat, axis=1), rhat[:, env.best_arm], rhat.mean(axis=1)))
    r_rho = np.stack((rho @ means, np.full(horizon, env.best_mean), np.full(horizon, means.mean())))
    prior_kl = np.stack(
        (log_k + np.sum(rho * np.log(safe_rho), axis=1), np.full(horizon, log_k), np.zeros(horizon))
    )

    scaled_hat = lmin * r_hat_rho
    if scaled_hat.max() > 1.0 + _SCALE_TOL:
        raise ValueError("pi_lmin scaling contract violated on the trace")
    scaled_hat = np.clip(scaled_hat, 0.0, 1.0)
    scaled_true = np.clip(lmin * r_rho, 0.0, 1.0)
    cum_a = np.cumsum(_pi_floor(k, epsilon) ** -2.0)

    entries = {}
    for name, value, bound in (
        ("kl_route", bernoulli_kl_vec(scaled_hat, scaled_true), _kl_budget(prior_kl, ts, delta)),
        ("weighted_route", np.abs(r_hat_rho - r_rho), _weighted_opt(prior_kl, ts, delta, cum_a)),
    ):
        violations = (value > bound).any(axis=0)
        entries[name] = BoundCoverage(
            name=name,
            trials=1,
            violated=int(violations.any()),
            worst_slack=float(np.min(bound - value)),
            per_round_violations=violations.astype(np.int64),
        )
    return CoverageReport(entries=entries)


def _verify_chunk(args):
    """Sweep trajectories ``indices`` into one report; the chunk holding
    trajectory 0 also returns that trajectory's gap-driver report, the
    others return None."""
    cfg, indices = args
    env = cfg.environment()
    record = drivers = None
    for i in indices:
        trace = run_game(
            env, cfg.horizon, trajectory_stream(cfg.seed, int(i)), warmup_length=cfg.warmup_length
        )
        if i == 0:
            drivers = gap_driver_report(trace, cfg.delta)
        sweep = certificate_sweep(trace, env, cfg.delta)
        record = sweep if record is None else _merge(record, sweep)
    return record, drivers


def run_verify_bounds(cfg: ExperimentConfig) -> CoverageReport:
    cfg.validate()
    outdir = _ensure_outdir(cfg)

    records, driver_reports = zip(*_run_chunked(cfg, _verify_chunk))
    report = functools.reduce(_merge, records)
    drivers = driver_reports[0]  # the first chunk starts at trajectory 0
    entries = report.entries.values()

    _write_csv(outdir / "coverage.csv", {
        "bound": [e.name for e in entries], "trajectories": [e.trials for e in entries],
        "violated": [e.violated for e in entries], "empirical_rate": [e.rate for e in entries],
        "nominal_delta": [cfg.delta] * len(entries),
        "worst_slack": [e.worst_slack for e in entries],
    })
    profiles = {n: report.entries[n].per_round_violations for n in _ROUTES}
    _write_csv(outdir / "violation_profile.csv", {"t": np.arange(1, cfg.horizon + 1), **profiles})
    _write_csv(outdir / "drivers.csv", {
        "t": drivers.rounds, "lmin_driver": drivers.lmin_driver, "rms_driver": drivers.rms_driver,
        "kl_route_gap": drivers.kl_route_gap, "weighted_route_gap": drivers.weighted_route_gap,
    })
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
    total = 0
    for pos, n in enumerate(sizes):
        # Normal entries with occasional 10x heavy draws stress both signs
        # and both extremes of the alpha range.
        for _ in range(per_size + (1 if pos < remainder else 0)):
            x = rng.normal(0.0, 3.0, size=n)
            if rng.random() < 0.1:
                x *= 10.0
            x[0] = 0.0
            alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
            ratio = expsum_ratio(x, alpha)
            total += 1
            if ratio > n / alpha:
                cap_violations += 1
            if ratio > math.log(n) / alpha:
                log_violations += 1
    return [
        OracleCheck(
            "expsum_ratio_cap",
            "pass" if cap_violations == 0 else "fail",
            f"{cap_violations} violations of n/alpha over {total} probes",
        ),
        OracleCheck(
            "expsum_ratio_log_conjecture",
            "report",
            f"{log_violations} exceedances of ln(n)/alpha over {total} probes "
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
    rows: list[dict] = []
    for profile in ("equal", "one_spike"):
        for n in n_grid:
            steps = np.ones(n)
            if profile == "one_spike":
                steps[0] = 5.0
            sums, ranges = simulate_profile_walks(steps, cfg.walk_trials, cfg.seed)
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
