"""Acceptance suite: one check per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every verdict line;
without ``-s`` pytest shows the lines for failing checks only.  Each check
states its tolerance inline and asserts exactly what the printed line
reports, so a red line and a red test always agree.
"""

import math
import time

import numpy as np

from banditbounds import (
    ExperimentConfig,
    MartingaleRange,
    azuma_alt_bound,
    bernoulli_kl_moment,
    convex_domination_gap,
    convex_test_functions,
    hoeffding_azuma_bound,
    lambda_opt,
    pinsker_gap,
    random_constant_mean_chain,
    regret_decomposition,
    regret_envelope,
    reward_gap_radius,
    run_game,
    run_simulate,
    run_verify_bounds,
    schedule_pi_min,
    schedules,
    simulate_profile_walks,
    weighted_gap_bound,
    weighted_gap_bound_opt,
)
from banditbounds.harness import _expsum_checks


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} ({label}): {status} ({detail})")


def test_criterion_01_kl_moment_cap():
    t0 = time.perf_counter()
    worst = 0.0
    violations = 0
    for n in range(1, 21):
        for p in np.arange(0.01, 1.0, 0.01):
            ratio = bernoulli_kl_moment(n, float(p)) / (n + 1)
            worst = max(worst, ratio)
            if ratio > 1.0:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    _report(1, "kl moment cap", ok,
            f"{violations} violations over 1980 grid points, "
            f"max moment/(N+1) = {worst:.6f}, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_02_dependent_chain_domination():
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(2026, spawn_key=(7,)))
    checks = 0
    min_gap = math.inf
    for _ in range(200):
        length = int(rng.integers(2, 7))
        chain = random_constant_mean_chain(length, rng)
        for _, f in convex_test_functions(chain.length, chain.mean):
            min_gap = min(min_gap, convex_domination_gap(chain, f))
            checks += 1
    elapsed = time.perf_counter() - t0
    ok = min_gap >= -1e-12 and elapsed < 60.0
    _report(2, "dependent chain domination", ok,
            f"{checks} chain/function pairs, min (iid - chain) gap = "
            f"{min_gap:.3e} >= -1e-12, {elapsed:.1f}s")
    assert min_gap >= -1e-12
    assert elapsed < 60.0


def test_criterion_03_martingale_tail_coverage():
    t0 = time.perf_counter()
    n_steps, trials, delta = 100, 10_000, 0.05
    (sums,) = simulate_profile_walks([np.ones(n_steps)], trials, seed=11)
    alt = azuma_alt_bound(n_steps, -1.0, 1.0, delta)
    classical = hoeffding_azuma_bound(MartingaleRange.equal(n_steps, -1.0, 1.0), delta)
    rate_alt = float(np.mean(np.abs(sums) > alt))
    rate_classical = float(np.mean(np.abs(sums) > classical))
    elapsed = time.perf_counter() - t0
    ok = rate_alt <= delta and rate_classical <= delta and elapsed < 30.0
    _report(3, "martingale tail coverage", ok,
            f"{trials} walks of {n_steps} steps: violation rate "
            f"{rate_alt:.4f} (range-scaled) / {rate_classical:.4f} "
            f"(per-step) vs delta={delta}, {elapsed:.1f}s")
    assert rate_alt <= delta
    assert rate_classical <= delta
    assert elapsed < 30.0


def test_criterion_04_tail_bound_identity():
    worst = 0.0
    cells = 0
    for n in (1, 2, 5, 10, 50, 100, 500):
        for low, high in ((-1.0, 1.0), (0.0, 1.0), (-3.0, 5.0), (-0.25, 0.25)):
            for delta in (0.3, 0.05, 0.01, 1e-4):
                direct = azuma_alt_bound(n, low, high, delta)
                via_gap = (high - low) * n * pinsker_gap(math.log((n + 1) / delta) / n)
                worst = max(worst, abs(direct - via_gap) / via_gap)
                cells += 1
    ok = worst <= 1e-13
    _report(4, "tail bound identity", ok,
            f"max relative error {worst:.2e} <= 1e-13 over {cells} cells")
    assert worst <= 1e-13


def test_criterion_05_certificate_coverage(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        mode="verify-bounds",
        n_arms=2,
        horizon=2000,
        trajectories=1000,
        delta=0.05,
        seed=2026,
        outdir=str(tmp_path / "verify"),
    )
    report = run_verify_bounds(cfg)
    kl_rate = report["kl_route"].rate
    w_rate = report["weighted_route"].rate
    elapsed = time.perf_counter() - t0
    ok = kl_rate <= 0.05 and w_rate <= 0.05 and elapsed < 300.0
    _report(5, "certificate coverage", ok,
            f"1000 trajectories, horizon 2000: trajectory violation rate "
            f"{kl_rate:.4f} (kl route) / {w_rate:.4f} (weighted route) "
            f"vs delta=0.05, {elapsed:.0f}s")
    assert kl_rate <= 0.05
    assert w_rate <= 0.05
    assert elapsed < 300.0


def test_criterion_06_weighted_bound_closed_form():
    worst_rel = 0.0
    opt_beats = True
    cells = 0
    kls = (0.0, 0.3, math.log(2.0), 2.0)
    for t in (10, 100, 1000):
        seqs = (
            np.full(t, 0.5),
            np.full(t, 0.2),
            schedule_pi_min(2, t),
            schedule_pi_min(3, t),
        )
        weights = np.full(t, 1.0 / t)
        for delta in (0.1, 0.05, 0.01):
            for seq in seqs:
                lam = lambda_opt(t, delta, seq)
                for prior_kl in kls:
                    at_opt = weighted_gap_bound(prior_kl, t, delta, lam, weights, seq)
                    closed = weighted_gap_bound_opt(prior_kl, t, delta, seq)
                    worst_rel = max(worst_rel, abs(at_opt - closed) / closed)
                    halved = weighted_gap_bound(prior_kl, t, delta, 0.5 * lam, weights, seq)
                    doubled = weighted_gap_bound(prior_kl, t, delta, 2.0 * lam, weights, seq)
                    opt_beats &= at_opt < halved and at_opt < doubled
                    cells += 1
    ok = worst_rel <= 1e-9 and opt_beats
    _report(6, "weighted bound closed form", ok,
            f"max relative error {worst_rel:.2e} <= 1e-9 over {cells} cells; "
            f"lambda_opt beats 0.5x and 2x everywhere: {opt_beats}")
    assert worst_rel <= 1e-9
    assert opt_beats


def test_criterion_07_envelope_coverage_and_slope(tmp_path):
    t0 = time.perf_counter()
    coverage = {}
    core, raw, bracket = {}, {}, {}
    for k in (2, 3):
        cfg = ExperimentConfig(
            mode="simulate",
            n_arms=k,
            horizon=10_000,
            trajectories=100,
            delta=0.05,
            seed=2026,
            outdir=str(tmp_path / f"sim_k{k}"),
        )
        result = run_simulate(cfg)
        coverage[k] = result.summary["trajectory_coverage"]
        ts = np.arange(1, cfg.horizon + 1)
        window = ts >= 1000
        log_t = np.log(ts[window])
        # The bracket B(t) grows like sqrt(ln t), so only envelope / B(t) is a
        # pure power law; B(t) is written out in the regret_envelope docstring.
        log_term = 3.0 * np.log(ts[window] + 1.0) - math.log(cfg.delta)
        b = (
            2.5
            + np.sqrt((math.log(k) + log_term) / (2.0 * k))
            + np.sqrt(log_term / (2.0 * k))
        )
        envelope = result.envelope[window]
        core[k] = float(np.polyfit(log_t, np.log(envelope / b), 1)[0])
        raw[k] = float(np.polyfit(log_t, np.log(envelope), 1)[0])
        bracket[k] = float(np.polyfit(log_t, np.log(b), 1)[0])
    elapsed = time.perf_counter() - t0
    coverage_ok = all(v >= 0.95 for v in coverage.values())
    slope_ok = all(abs(s - (-0.25)) <= 0.02 for s in core.values())
    ok = coverage_ok and slope_ok and elapsed < 300.0
    _report(7, "envelope coverage and decay slope", ok,
            f"coverage K=2: {coverage[2]:.2f}, K=3: {coverage[3]:.2f} "
            f"(need >= 0.95); envelope / B(t) log-log slope over t >= 1000 "
            f"K=2: {core[2]:.4f}, K=3: {core[3]:.4f} (need -0.25 +/- 0.02); "
            + "; ".join(
                f"K={k} raw {raw[k]:.4f} = core {core[k]:.4f} + bracket {bracket[k]:+.4f}"
                for k in (2, 3)
            )
            + f"; {elapsed:.0f}s")
    assert coverage_ok
    assert slope_ok
    assert elapsed < 300.0


def test_criterion_08_regret_decomposition_exact():
    worst_gap = 0.0
    term_violations = 0
    rounds = 0
    for k, means in ((2, (0.9, 0.1)), (3, (0.9, 0.5, 0.1))):
        from banditbounds import Environment

        env = Environment(means=np.array(means))
        for seed in (0, 1, 2):
            trace = run_game(env, horizon=600, seed=seed)
            d = regret_decomposition(trace, env)
            worst_gap = max(worst_gap, float(np.max(np.abs(d.total() - d.regret))))
            term_violations += int(np.sum(d.gibbs_shift > d.gibbs_shift_bound))
            term_violations += int(np.sum(d.smoothing_loss > d.smoothing_bound))
            rounds += d.rounds.size
    ok = worst_gap <= 1e-12 and term_violations == 0
    _report(8, "regret decomposition", ok,
            f"max |four-term sum - regret| = {worst_gap:.2e} <= 1e-12 over "
            f"{rounds} rounds; {term_violations} term-bound violations")
    assert worst_gap <= 1e-12
    assert term_violations == 0


def test_criterion_09_expsum_ratio_cap():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(mode="oracles", probe_count=100_000, seed=2026)
    cap, conjecture = _expsum_checks(cfg)
    elapsed = time.perf_counter() - t0
    ok = cap.status == "pass"
    _report(9, "exp-sum ratio cap", ok,
            f"{cap.detail}; informational log(n)/alpha probe: "
            f"{conjecture.detail}; {elapsed:.0f}s")
    assert cap.status == "pass"


def test_criterion_10_determinism_and_workers(tmp_path):
    sim = dict(mode="simulate", horizon=300, trajectories=12, seed=5)
    run_simulate(ExperimentConfig(outdir=str(tmp_path / "s1"), **sim))
    run_simulate(ExperimentConfig(outdir=str(tmp_path / "s2"), **sim))
    sim_same = all(
        (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes()
        for name in ("regret_curve.csv", "manifest.json")
    )

    ver = dict(mode="verify-bounds", horizon=200, trajectories=12, seed=5)
    run_verify_bounds(ExperimentConfig(outdir=str(tmp_path / "w1"), workers=1, **ver))
    run_verify_bounds(ExperimentConfig(outdir=str(tmp_path / "w4"), workers=4, **ver))
    worker_same = all(
        (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w4" / name).read_bytes()
        for name in ("coverage.csv", "violation_profile.csv", "drivers.csv", "manifest.json")
    )
    ok = sim_same and worker_same
    _report(10, "determinism and worker equivalence", ok,
            f"repeat-run outputs byte-identical: {sim_same}; "
            f"1-worker vs 4-worker outputs byte-identical: {worker_same}")
    assert sim_same
    assert worker_same


def test_criterion_11_envelope_dominates_its_term_bounds():
    # The envelope's derivation, checked pointwise: it must dominate the two
    # deterministic term bounds of the regret decomposition, the Gibbs shift
    # K/gamma_t and the smoothing loss K*epsilon_{t+1}, plus one kl-route
    # radius for each estimate gap (best arm and Gibbs), at the schedule
    # floor min(epsilon_t, 1/K).  Criterion 07's coverage cannot tell the
    # envelope from a faster-decaying one; this check can.
    t0 = time.perf_counter()
    worst_ratio, worst_at = math.inf, None
    points = 0
    for k in range(2, 17):
        ts = np.rint(np.geomspace(k**3, 1e15, 400)).astype(np.int64).tolist()
        for delta in (0.3, 0.05, 1e-4, 1e-12):
            for t in ts:
                now, after = schedules(t, k), schedules(t + 1, k)
                radius = reward_gap_radius(math.log(k), t, delta, min(now.epsilon, 1.0 / k))
                terms = k / now.gamma + k * after.epsilon + 2.0 * radius
                ratio = regret_envelope(k, t, delta) / terms
                if ratio < worst_ratio:
                    worst_ratio, worst_at = ratio, (k, delta, t)
                points += 1
    elapsed = time.perf_counter() - t0
    ok = worst_ratio >= 1.0
    _report(11, "envelope dominates its term bounds", ok,
            f"min envelope / (K/gamma_t + K eps_(t+1) + 2 radius) = "
            f"{worst_ratio:.4f} >= 1 at (K, delta, t) = {worst_at} over "
            f"{points} points, K in 2..16, t in [K^3, 1e15]; {elapsed:.1f}s")
    assert worst_ratio >= 1.0
