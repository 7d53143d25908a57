"""Tests for the experiment harness and CLI.

The slow-loop comparisons re-derive what the vectorized sweep computes,
using the scalar bound functions round by round, so the harness cannot
drift away from the library's own definitions.
"""

import argparse
import concurrent.futures
import copy
import csv
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditbounds import (
    BoundCoverage,
    Environment,
    ExperimentConfig,
    OracleCheck,
    OracleReport,
    certificate_sweep,
    expsum_ratio,
    gap_driver_report,
    prediction_regret,
    regret_decomposition,
    regret_envelope,
    run_compare_concentration,
    run_game,
    run_oracles,
    run_simulate,
    run_verify_bounds,
    trajectory_stream,
    weighted_gap_bound_opt,
)
import banditbounds
import reference
from banditbounds import bandit, harness, write_trace_csv
from banditbounds.cli import build_parser, main
from reference import gibbs_posterior, kl_certificate, schedule_pi_min


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestExperimentConfig:
    def test_defaults_resolve(self):
        cfg = ExperimentConfig(mode="simulate")
        cfg.validate()
        assert cfg.resolved_means() == (0.9, 0.1)
        assert cfg.environment().n_arms == 2

    def test_default_means_spread(self):
        cfg = ExperimentConfig(mode="simulate", n_arms=5)
        means = cfg.resolved_means()
        assert means[0] == 0.9 and means[-1] == pytest.approx(0.1)
        assert all(a > b for a, b in zip(means, means[1:]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "explore"},
            {"mode": "simulate", "n_arms": 1},
            {"mode": "simulate", "horizon": 0},
            {"mode": "simulate", "trajectories": 0},
            {"mode": "simulate", "delta": 0.0},
            {"mode": "simulate", "delta": 1.0},
            {"mode": "simulate", "means": (0.5, 0.4, 0.3)},  # wrong arity
            {"mode": "simulate", "means": (0.5, 1.4)},  # outside [0, 1]
            {"mode": "simulate", "warmup_length": 0},
            {"mode": "simulate", "workers": 0},
            {"mode": "simulate", "reward_kind": "gaussian"},
            {"mode": "oracles", "chain_count": 0},
            {"mode": "compare-concentration", "walk_steps": 0},
            {"mode": "simulate", "horizon": True},
            {"mode": "simulate", "horizon": 10.5},
            {"mode": "simulate", "trajectories": "6"},
            {"mode": "simulate", "warmup_length": 2.0},
            {"mode": "oracles", "probe_count": False},
            {"mode": "simulate", "n_arms": 3, "means": "0.9"},
            {"mode": "simulate", "means": "01"},  # would split into (0.0, 1.0)
            {"mode": "simulate", "means": (0.5, "0.4")},
            {"mode": "simulate", "means": (True, False)},
            {"mode": "simulate", "delta": "0.05"},
            {"mode": "simulate", "store_traces": "yes"},
            {"mode": "simulate", "outdir": 5},
            {"mode": "oracles", "seed": -1},
            {"mode": "verify-bounds", "store_traces": True},  # only simulate writes traces
            {"mode": "oracles", "store_traces": True},
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs).validate()

    def test_semantic_fields_exclude_execution_details(self):
        cfg = ExperimentConfig(mode="simulate", outdir="/some/where", workers=7)
        fields = cfg.semantic_fields()
        assert "outdir" not in fields
        assert "workers" not in fields

    def test_trajectory_stream_contract(self):
        direct = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(0, 3)))
        assert np.array_equal(direct.random(4), trajectory_stream(5, 3).random(4))


class TestSchedulePiMin:
    def test_values(self):
        floor = schedule_pi_min(2, 20)
        assert floor.shape == (20,)
        # Early rounds are capped at 1/K; (2 * 8)^(-1/4) = 1/2 exactly.
        assert floor[0] == 0.5
        assert floor[7] == pytest.approx(0.5, rel=1e-14)
        assert floor[15] == pytest.approx(32.0**-0.25, rel=1e-14)
        assert np.all(floor <= 0.5)
        assert np.all(np.diff(floor) <= 0.0)

    @given(k=st.integers(2, 8), horizon=st.integers(1, 500))
    def test_equals_schedules_entry_by_entry(self, k, horizon):
        floor = schedule_pi_min(k, horizon)
        expected = [min(float(k * t) ** -0.25, 1.0 / k) for t in range(1, horizon + 1)]
        assert np.array_equal(floor, expected)

    def test_lower_bounds_realized_minima(self):
        env = Environment(means=np.array([0.8, 0.4]))
        trace = run_game(env, horizon=150, seed=2)
        floor = schedule_pi_min(2, 150)
        assert np.all(trace.pi[:-1].min(axis=1) >= floor - 1e-12)


_CAP = harness._MAX_ARRAY_ENTRIES


class TestLockstepBlocks:
    @given(
        k=st.integers(2, 8),
        horizon=st.integers(1, 300),
        kind=st.sampled_from(["bernoulli", "point", "beta"]),
        warmup_length=st.none() | st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        trajectories=st.integers(1, 20),
        block=st.integers(1, 8),
        window=st.integers(1, 40),
    )
    @settings(max_examples=50)
    def test_blocks_play_each_seed_as_alone(
        self, k, horizon, kind, warmup_length, seed, trajectories, block, window
    ):
        # Blocks of ``block`` trajectories, played ``window`` rounds at a
        # time, against each seed played alone in windows of the default
        # length.
        cfg = ExperimentConfig(
            mode="simulate", n_arms=k, horizon=horizon, trajectories=trajectories, seed=seed,
            means=tuple(np.random.default_rng(seed).uniform(0.0, 1.0, k)), reward_kind=kind,
            warmup_length=warmup_length,
        )
        env = cfg.environment()
        played, offsets = [], []
        with mock.patch.object(harness, "_BLOCK", block), mock.patch.object(
            bandit, "_WINDOW", window
        ):
            for rows in harness._blocks(cfg):
                windows = list(harness._block_windows(cfg, env, rows))
                assert [w.start for w in windows] == list(range(0, horizon, window))
                offsets.append(rows.start)
                played += [bandit._join(windows, j) for j in range(len(windows[0].actions))]
        assert offsets == list(range(0, trajectories, block))
        assert len(played) == trajectories
        for i, trace in enumerate(played):
            alone = run_game(env, horizon, trajectory_stream(seed, i), warmup_length=warmup_length)
            for name in trace._fields:
                assert np.array_equal(getattr(trace, name), getattr(alone, name)), (i, name)
            assert trace.pi.flags.c_contiguous and trace.rhat.flags.c_contiguous

    @pytest.mark.parametrize(
        "trajectories, workers, starts",
        [
            (600, 1, [0, 256, 512]),  # one worker: blocks of _BLOCK
            (600, 2, [0, 256, 512]),  # a share of 300 is over the cap
            (600, 3, [0, 200, 400]),  # shares of 200
            (50, 2, [0, 25]),
            (7, 3, [0, 3, 6]),  # shares of ceil(7 / 3) = 3; the last block is short
            (2, 3, [0, 1]),
        ],
    )
    def test_one_partition(self, trajectories, workers, starts):
        cfg = ExperimentConfig(mode="verify-bounds", horizon=2000, trajectories=trajectories, workers=workers)
        blocks = harness._blocks(cfg)
        assert [b.start for b in blocks] == starts
        assert [i for b in blocks for i in b] == list(range(trajectories))

    def test_game_reads_the_documented_stream(self):
        # Played a window at a time, a game's actions still read stream
        # positions 0..T-1 and its Bernoulli payouts positions T..2T-1.
        env = Environment(means=np.array([0.7, 0.4, 0.2]))
        horizon = 100
        with mock.patch.object(bandit, "_WINDOW", 7):
            trace = run_game(env, horizon, trajectory_stream(2, 5))
        u = trajectory_stream(2, 5).random(2 * horizon)
        assert np.array_equal(trace.actions, bandit._choose_arms(trace.pi[:-1].T, u[:horizon]))
        assert np.array_equal(trace.rewards, (u[horizon:] < env.means[trace.actions]).astype(float))

    def test_advanced_twin_draws_the_payout_uniforms(self):
        # The engine draws a trajectory's action uniforms a window at a time
        # from its stream, and its payout uniforms from a copy advanced by
        # T.  Both must be the positions a game that drew all 2T uniforms
        # up front would read: numpy promises neither.
        horizon = 300
        for i in range(300):
            up_front = trajectory_stream(5, i).random(2 * horizon)
            rng = trajectory_stream(5, i)
            twin = np.random.Generator(copy.copy(rng.bit_generator))
            twin.bit_generator.advance(horizon)
            sizes = [7] * (horizon // 7) + [horizon % 7]
            actions = np.concatenate([rng.random(n) for n in sizes])
            payouts = np.concatenate([twin.random(n) for n in sizes])
            assert np.array_equal(actions, up_front[:horizon]), i
            assert np.array_equal(payouts, up_front[horizon:]), i

    def test_beta_payouts_read_one_up_front_draw(self):
        # A Beta trajectory draws its variates a window at a time from a copy
        # of its stream advanced by T, and its rounding uniforms from a copy
        # advanced by 2^64.  Each window must read the positions one up-front
        # draw of each kind would: numpy does not promise it for Beta draws.
        env = Environment(means=np.array([0.7, 0.4, 0.2, 0.0]), reward_kind="beta")
        horizon = 300
        sizes = [7] * (horizon // 7) + [horizon % 7]

        def streams(i):
            bits = trajectory_stream(5, i).bit_generator
            return [[np.random.Generator(copy.copy(bits).advance(d))] for d in (horizon, 2**64)]

        for i in range(100):
            up_front = bandit._payouts(env, horizon, *streams(i))[0]
            twin, rounder = streams(i)
            windows = np.concatenate([bandit._payouts(env, n, twin, rounder)[0] for n in sizes])
            assert np.array_equal(windows, up_front), i
            with mock.patch.object(bandit, "_WINDOW", 7):
                trace = run_game(env, horizon, trajectory_stream(5, i))
            assert np.array_equal(trace.rewards, up_front[np.arange(horizon), trace.actions]), i


class TestWindows:
    _VERIFY = dict(mode="verify-bounds", n_arms=3, horizon=45, trajectories=7, seed=3)
    _SIMULATE = dict(
        mode="simulate", n_arms=3, horizon=45, trajectories=5, seed=8, reward_kind="beta",
        store_traces=True,
    )

    def _outputs(self, tmp_path, name, window, block):
        with mock.patch.object(bandit, "_WINDOW", window), mock.patch.object(
            harness, "_BLOCK", block
        ):
            run_verify_bounds(ExperimentConfig(outdir=str(tmp_path / name / "v"), **self._VERIFY))
            run_simulate(ExperimentConfig(outdir=str(tmp_path / name / "s"), **self._SIMULATE))
        root = tmp_path / name
        files = ["v/coverage.csv", "v/violation_profile.csv", "v/drivers.csv",
                 "s/regret_curve.csv"] + [f"s/trace_{i:04d}.csv" for i in range(5)]
        return {f: (root / f).read_bytes() for f in files}

    def test_outputs_do_not_depend_on_the_window(self, tmp_path):
        # Windows of 1, 7, T and T + 5 rounds, in blocks of several sizes,
        # against the default window and block.
        reference = self._outputs(tmp_path, "default", bandit._WINDOW, harness._BLOCK)
        for window, block in ((1, harness._BLOCK), (7, 2), (45, 3), (50, 1)):
            outputs = self._outputs(tmp_path, f"w{window}", window, block)
            for name, data in reference.items():
                assert outputs[name] == data, (window, block, name)
        # drivers.csv is trajectory 0's report.
        trace = run_game(ExperimentConfig(**self._VERIFY).environment(), 45, trajectory_stream(3, 0))
        report = gap_driver_report(trace.pi[:-1].min(axis=1), trace.pi_lmin, 0.05)
        rows = read_csv(tmp_path / "default" / "v" / "drivers.csv")[1:]
        assert [float(r[1]) for r in rows] == report["lmin_driver"].tolist()
        assert [float(r[2]) for r in rows] == report["rms_driver"].tolist()

    def test_verify_matches_one_sweep_per_trajectory(self, tmp_path):
        # The campaign sweeps a block's windows, 7 rounds at a time; here
        # each trajectory's record is played and swept alone.
        cfg = ExperimentConfig(outdir=str(tmp_path), **self._VERIFY)
        with mock.patch.object(bandit, "_WINDOW", 7):
            report = run_verify_bounds(cfg)
        env = cfg.environment()
        sweeps = [
            certificate_sweep(run_game(env, cfg.horizon, trajectory_stream(cfg.seed, i)), env, cfg.delta)
            for i in range(cfg.trajectories)
        ]
        for name, entry in functools.reduce(harness._merge, sweeps).items():
            got = report[name]
            assert (got.trials, got.violated, got.worst_slack) == (entry.trials, entry.violated, entry.worst_slack)
            assert np.array_equal(got.per_round_violations, entry.per_round_violations)

    def test_simulate_rows_are_prediction_regret(self, tmp_path):
        # The quantiles the campaign folds 7 rounds at a time, against the
        # quantiles of each trajectory's record played alone.
        cfg = ExperimentConfig(outdir=str(tmp_path), **self._SIMULATE)
        with mock.patch.object(bandit, "_WINDOW", 7):
            run_simulate(cfg)
        env = cfg.environment()
        regret = [prediction_regret(run_game(env, cfg.horizon, trajectory_stream(cfg.seed, i)), env)
                  for i in range(cfg.trajectories)]
        rows = read_csv(tmp_path / "regret_curve.csv")
        assert rows[0][1:4] == ["regret_q10", "regret_q50", "regret_q90"]
        got = np.array([[float(x) for x in row[1:4]] for row in rows[1:]]).T
        assert np.array_equal(got, np.quantile(regret, [0.1, 0.5, 0.9], axis=0))

    @pytest.mark.parametrize("rows", [10, harness._CSV_ROWS])
    def test_store_traces_writes_once_per_trajectory_per_window(self, tmp_path, rows):
        # A trajectory's window is one write whether the block's text is
        # formatted at once or, with 10 rows per chunk, a trajectory at a time.
        writes = {}

        class CountingFile:
            def __init__(self, path, *args, **kwargs):
                self.name, self.fh = Path(path).name, open(path, *args, **kwargs)

            def write(self, text):
                writes[self.name] = writes.get(self.name, 0) + 1
                return self.fh.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        cfg = ExperimentConfig(outdir=str(tmp_path), **self._SIMULATE)
        with mock.patch.object(bandit, "_WINDOW", 7), mock.patch.object(harness, "_CSV_ROWS", rows), \
                mock.patch.object(harness, "open", CountingFile, create=True):
            run_simulate(cfg)
        traces = {name: n for name, n in writes.items() if name.startswith("trace_")}
        assert traces == {f"trace_{i:04d}.csv": 7 for i in range(cfg.trajectories)}  # 45 rounds, 7 windows

    @pytest.mark.parametrize("kind", ["bernoulli", "point", "beta"])
    def test_chunk_memory_does_not_hold_the_horizon(self, kind):
        # From T = 1 000 to T = 8 000 the per-round outputs (counts, the
        # schedule and trajectory 0's drivers) may grow the peak; a (B, T)
        # or (B, T, K) array left over from the engine or the sweep would
        # grow it by at least one (32, 7 000) float64 array.
        peaks = []
        for horizon in (1000, 8000):
            cfg = ExperimentConfig(
                mode="verify-bounds", horizon=horizon, trajectories=32, reward_kind=kind
            )
            if not peaks:  # a first call also allocates what later calls reuse
                harness._verify_block((dataclasses.replace(cfg, horizon=10), range(32)))
            tracemalloc.start()
            try:
                harness._verify_block((cfg, range(32)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 32 * 7000 * 8, peaks


class TestWideGames:
    """At K >= 8, where numpy's sum over arms would be pairwise, outputs do
    not depend on the block size or the worker count."""

    @pytest.mark.parametrize("k", [8, 16])
    def test_verify_bounds_ignores_blocks_and_workers(self, tmp_path, k):
        files = ("coverage.csv", "violation_profile.csv", "drivers.csv", "manifest.json")
        outputs = {}
        for block, workers in ((harness._BLOCK, 1), (harness._BLOCK, 2), (1, 1), (1, 2), (5, 1), (5, 2)):
            out = tmp_path / f"b{block}w{workers}"
            cfg = ExperimentConfig(mode="verify-bounds", n_arms=k, horizon=150, trajectories=40, seed=4,
                                   workers=workers, outdir=str(out))
            with mock.patch.object(harness, "_BLOCK", block):
                run_verify_bounds(cfg)
            outputs[block, workers] = [(out / f).read_bytes() for f in files]
        for key, data in outputs.items():
            assert data == outputs[harness._BLOCK, 1], key

    @pytest.mark.parametrize("k, horizon", [(8, 600), (16, 150)])
    def test_simulate_traces_match_each_game_alone(self, tmp_path, k, horizon):
        # simulate plays one block of every trajectory, run_game a block of
        # one.  K = 8 leaves the uniform policy after round 8^3 = 512.
        files = ["regret_curve.csv", "manifest.json"] + [f"trace_{i:04d}.csv" for i in range(20)]
        outputs = {}
        for workers in (1, 2):
            out = tmp_path / str(workers)
            cfg = ExperimentConfig(mode="simulate", n_arms=k, horizon=horizon, trajectories=20, seed=4,
                                   store_traces=True, workers=workers, outdir=str(out))
            run_simulate(cfg)
            outputs[workers] = [(out / f).read_bytes() for f in files]
        assert outputs[1] == outputs[2]
        for i in (0, 7, 19):
            write_trace_csv(run_game(cfg.environment(), horizon, trajectory_stream(4, i)), tmp_path / "alone.csv")
            assert (tmp_path / "alone.csv").read_bytes() == outputs[1][2 + i], i


class TestPredictionRegret:
    def test_matches_next_round_policy(self):
        env = Environment(means=np.array([0.8, 0.3]))
        trace = run_game(env, horizon=40, seed=6)
        pr = prediction_regret(trace, env)
        assert pr.shape == (40,)
        # The policy formed after round t is exactly the one the game plays
        # at round t+1; the one formed after round T is the record's last.
        expected = env.best_mean - (trace.pi[1:] * env.means).sum(axis=1)
        assert np.array_equal(pr, expected)

    def test_equal_means_give_zero_regret(self):
        env = Environment(means=np.array([0.5, 0.5]))
        trace = run_game(env, horizon=30, seed=0)
        pr = prediction_regret(trace, env)
        assert np.all(np.abs(pr) <= 1e-15)

    def test_nonnegative(self):
        env = Environment(means=np.array([0.9, 0.5, 0.1]))
        trace = run_game(env, horizon=60, seed=1)
        assert np.all(prediction_regret(trace, env) >= -1e-15)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_equals_decomposition_regret(self, k):
        # The decomposition re-forms each smoothed Gibbs policy from the
        # estimates; the curve reads the ones the game formed.
        env = Environment(means=np.linspace(0.9, 0.1, k))
        trace = run_game(env, horizon=700, seed=k)
        assert np.array_equal(
            regret_decomposition(trace, env).regret, prediction_regret(trace, env)[k**3 - 1 :]
        )

    def test_equals_decomposition_regret_past_a_long_warmup(self):
        # Rounds K^3 to the warmup's end play the uniform policy, not rho
        # smoothed by epsilon: the decomposition splits the policy played.
        env = Environment(means=np.array([0.8, 0.3]))
        trace = run_game(env, horizon=60, seed=3, warmup_length=30)
        decomp = regret_decomposition(trace, env)
        played = prediction_regret(trace, env)[7:]
        assert decomp.regret.tobytes() == played.tobytes()
        assert decomp.total() == pytest.approx(played, abs=1e-12)


def _unit_lists(k):
    return st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)


@st.composite
def _played_and_checked_means(draw):
    """Means that play the game, and means the sweep checks it against:
    the same, or redrawn so that bounds break and the flags are exercised."""
    played = draw(st.integers(2, 4).flatmap(_unit_lists))
    return played, draw(st.one_of(st.just(played), _unit_lists(len(played))))


class TestCertificateSweep:
    @given(
        means=_played_and_checked_means(),
        horizon=st.integers(1, 200),
        reward_kind=st.sampled_from(["bernoulli", "point", "beta"]),
        warmup_length=st.one_of(st.none(), st.integers(1, 12)),
        seed=st.integers(0, 2**16),
    )
    @example(
        means=([0.75, 0.25], [0.75, 0.25]),
        horizon=25,
        reward_kind="bernoulli",
        warmup_length=None,
        seed=9,
    )
    @example(
        means=([0.75, 0.25], [0.75, 0.25]),
        horizon=25,
        reward_kind="bernoulli",
        warmup_length=12,
        seed=9,
    )
    def test_matches_scalar_bounds_round_by_round(
        self, means, horizon, reward_kind, warmup_length, seed
    ):
        # Flags must match exactly; slacks within 1e-10.
        played, checked = means
        game = Environment(means=np.array(played), reward_kind=reward_kind)
        trace = run_game(game, horizon, seed=seed, warmup_length=warmup_length)
        env = Environment(means=np.array(checked), reward_kind=reward_kind)
        delta = 0.05
        det = schedule_pi_min(env.n_arms, horizon, warmup_length)
        sweep = certificate_sweep(trace, env, delta)

        k = env.n_arms
        gamma, _ = bandit._schedule_arrays(k, range(1, horizon + 1))
        log_k = math.log(k)
        kl_viol = np.zeros(horizon, dtype=bool)
        w_viol = np.zeros(horizon, dtype=bool)
        kl_slack = math.inf
        w_slack = math.inf
        for t in range(1, horizon + 1):
            rhat = trace.rhat[t - 1]
            lmin = float(trace.pi_lmin[t - 1])
            rho = gibbs_posterior(rhat, gamma[t - 1]).weights
            kl_rho = log_k + float(
                np.sum(np.where(rho > 0.0, rho * np.log(np.where(rho > 0.0, rho, 1.0)), 0.0))
            )
            # A uniform rho can round this to -1e-16, which the scalar API
            # rejects; either sign adds the same float to a budget of ln terms.
            kl_rho = max(kl_rho, 0.0)
            comparators = (
                (float(np.sum(rho * rhat)), float(np.sum(rho * env.means)), kl_rho),
                (float(rhat[env.best_arm]), env.best_mean, log_k),
                (float(rhat.mean()), float(env.means.mean()), 0.0),
            )
            for r_hat_rho, r_rho, prior_kl in comparators:
                cert = kl_certificate(r_hat_rho, r_rho, lmin, prior_kl, t, delta)
                kl_viol[t - 1] |= not cert.holds
                kl_slack = min(kl_slack, cert.slack)
                w_bound = weighted_gap_bound_opt(prior_kl, t, delta, det[:t])
                w_gap = abs(r_hat_rho - r_rho)
                w_viol[t - 1] |= w_gap > w_bound
                w_slack = min(w_slack, w_bound - w_gap)

        kl_route = sweep["kl_route"]
        weighted_route = sweep["weighted_route"]
        assert np.array_equal(kl_route.per_round_violations, kl_viol)
        assert np.array_equal(weighted_route.per_round_violations, w_viol)
        assert kl_route.worst_slack == pytest.approx(kl_slack, abs=1e-10)
        assert weighted_route.worst_slack == pytest.approx(w_slack, abs=1e-10)

    @pytest.mark.parametrize("window", [1, 7, 20])
    def test_windows_fold_like_one_sweep_per_trajectory(self, window):
        # Three trajectories swept as one block cut into windows, against
        # one sweep per trajectory merged.  The sweep checks means redrawn
        # from the played ones, so bounds break in early and late windows
        # and the flags, counts and slacks are all exercised.
        rng = np.random.default_rng(window)
        late_violations = 0
        for case in range(30):
            k, horizon = int(rng.integers(2, 5)), int(rng.integers(1, 121))
            game = Environment(means=rng.uniform(0.0, 1.0, k))
            env = Environment(means=rng.uniform(0.0, 1.0, k))
            traces = [run_game(game, horizon, seed=100 * case + j) for j in range(3)]
            gamma, _ = bandit._schedule_arrays(k, range(1, horizon + 1))
            rho = np.stack([bandit._gibbs_weights(t.rhat.T, gamma).T for t in traces])
            rhat = np.stack([t.rhat for t in traces])
            lmin = np.stack([t.pi_lmin for t in traces])
            windows = []
            for start in range(0, horizon, window):
                cut = slice(start, start + window)
                floor = schedule_pi_min(k, horizon + 1)[start : start + window + 1]
                windows.append(bandit.Window(start, None, None, None, rhat[:, cut], rho[:, cut], lmin[:, cut], floor))
            folded = harness._coverage(windows, env, 0.05, horizon)
            merged = functools.reduce(harness._merge, [certificate_sweep(t, env, 0.05) for t in traces])
            for name, entry in merged.items():
                got = folded[name]
                assert (got.trials, got.violated, got.worst_slack) == (3, entry.violated, entry.worst_slack)
                assert np.array_equal(got.per_round_violations, entry.per_round_violations), case
                late_violations += int(entry.per_round_violations[window:].any())
        assert late_violations >= 3

    @given(k=st.integers(2, 8), horizon=st.integers(1, 500), seed=st.integers(0, 2**16))
    def test_gibbs_comparator_uses_the_schedule(self, k, horizon, seed):
        # The sweep reads rho and the floors from the record: rho must be
        # the Gibbs distribution at gamma_t on every round, warmup included,
        # and the floors the schedule's.
        env = Environment(means=np.linspace(0.9, 0.1, k), reward_kind="point")
        trace = run_game(env, horizon, seed=seed, warmup_length=1)
        gamma, _ = bandit._schedule_arrays(k, range(1, horizon + 1))
        assert np.array_equal(trace.rho, bandit._gibbs_weights(trace.rhat.T, gamma).T)
        assert np.array_equal(trace.floor, schedule_pi_min(k, horizon + 1))

    def test_nan_estimate_raises(self):
        # clip passes a nan through, so the sweep must reject it before the kl route.
        env = Environment(means=np.array([0.7, 0.2]))
        trace = run_game(env, horizon=30, seed=0)
        rhat = trace.rhat.copy()
        rhat[17, 1] = math.nan
        with pytest.raises(ValueError):
            certificate_sweep(trace._replace(rhat=rhat), env, 0.05)

    def test_degenerate_environment_holds_everywhere(self):
        env = Environment(means=np.array([0.5, 0.5]))
        trace = run_game(env, horizon=50, seed=0)
        sweep = certificate_sweep(trace, env, 0.05)
        for entry in sweep.values():
            assert entry.trials == 1
            assert entry.violated == 0
            assert not entry.per_round_violations.any()
            assert entry.worst_slack > 0.0

    @pytest.mark.parametrize("delta", [math.nan, 1.5, 0.0, -0.5])
    def test_rejects_delta_outside_the_unit_interval(self, delta):
        # nan once read as 0 violations and an infinite slack; 0 and -0.5
        # failed in math.log, 1.5 ran to the end.
        env = Environment(means=np.array([0.7, 0.2]))
        with pytest.raises(ValueError, match="delta must lie in"):
            certificate_sweep(run_game(env, horizon=20, seed=0), env, delta)

    @pytest.mark.parametrize("means", [[0.5], [0.5, 0.4, 0.3]])
    @pytest.mark.parametrize(
        "check",
        [prediction_regret, lambda record, env: certificate_sweep(record, env, 0.05)],
        ids=["prediction_regret", "certificate_sweep"],
    )
    def test_rejects_an_environment_of_other_arms(self, check, means):
        # A one-arm environment once broadcast against a two-arm record.
        record = run_game(Environment(means=np.array([0.7, 0.2])), horizon=20, seed=0)
        with pytest.raises(ValueError, match="number of arms"):
            check(record, Environment(means=np.array(means)))


class TestMerge:
    @staticmethod
    def _record(**routes):
        return {
            name: BoundCoverage(
                name=name,
                trials=trials,
                violated=violated,
                worst_slack=slack,
                per_round_violations=np.array(profile, dtype=np.int64),
            )
            for name, (trials, violated, slack, profile) in routes.items()
        }

    def test_counts_add_and_slack_is_the_minimum(self):
        a = self._record(kl_route=(3, 2, -0.25, [1, 2, 1]), weighted_route=(3, 0, 0.5, [0, 0, 0]))
        b = self._record(kl_route=(2, 1, 0.125, [1, 0, 1]), weighted_route=(2, 1, -1.5, [0, 1, 1]))
        for merged in (harness._merge(a, b), harness._merge(b, a)):
            kl_route = merged["kl_route"]
            weighted_route = merged["weighted_route"]
            assert (kl_route.trials, kl_route.violated, kl_route.worst_slack) == (5, 3, -0.25)
            assert (weighted_route.trials, weighted_route.violated, weighted_route.worst_slack) == (
                5, 1, -1.5
            )
            assert kl_route.per_round_violations.tolist() == [2, 2, 2]
            assert weighted_route.per_round_violations.tolist() == [0, 1, 1]
            assert kl_route.per_round_violations.dtype == np.int64
            assert kl_route.rate == 0.6


class TestEnvelopeCurve:
    @given(
        k=st.integers(2, 8),
        horizon=st.integers(1, 500),
        delta=st.floats(1e-6, 0.5),
    )
    def test_entries_equal_scalar_envelope(self, k, horizon, delta):
        curve = harness._envelope_curve(k, horizon, delta)
        assert curve.shape == (horizon,)
        assert np.all(np.isnan(curve[: k**3 - 1]))
        for t in range(k**3, horizon + 1):
            assert curve[t - 1] == regret_envelope(k, t, delta), t


# Text cells built from the characters csv quotes, plus plain ones.
_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", "a", " "]), max_size=4)


class TestWriteCsv:
    def test_columns_become_the_table(self, tmp_path):
        path = tmp_path / "table.csv"
        harness._write_csv(
            path,
            {
                "i": np.array([3, -7, 2**40], dtype=np.int64),
                "x": np.array([0.1, np.nan, -0.0]),
                "flag": np.array([True, False, True]),
                "name": ["kl_route", "", "a,b"],
                "mixed": [None, True, False],
                "n": [0, -1, 12],
                "y": [math.nan, math.inf, -math.inf],
                "z": [-0.0, 0.1, 1e22],
            },
        )
        assert path.read_bytes() == (
            b"i,x,flag,name,mixed,n,y,z\r\n"
            b"3,0.1,true,kl_route,,0,,-0.0\r\n"
            b"-7,,false,,true,-1,inf,0.1\r\n"
            b'1099511627776,-0.0,true,"a,b",false,12,-inf,1e+22\r\n'
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308, 1e16, 1e-5, 0.1])
                | st.floats(),
                st.integers(-(2**63), 2**63 - 1),
                st.integers(0, 2**64 - 1),
            ),
            min_size=1, max_size=40,
        ),
        st.integers(1, 40),
    )
    def test_arrays_write_as_one_cell_at_a_time(self, cells, rows):
        # Int columns and nan-free float columns skip _cell; every column
        # must still give the bytes of a _cell-per-cell writer.
        xs, ints, uints = zip(*cells)
        floats = np.array(xs)
        columns = {
            "x": floats,
            "x_no_nan": np.where(np.isnan(floats), -0.0, floats),
            "i": np.array(ints, dtype=np.int64),
            "u": np.array(uints, dtype=np.uint64),
        }
        out = io.StringIO()
        with mock.patch.object(harness, "_CSV_ROWS", rows):
            harness._write_csv(out, columns)
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(columns)
        writer.writerows(zip(*([harness._cell(x) for x in c.tolist()] for c in columns.values())))
        assert out.getvalue() == expected.getvalue()

    def test_columns_of_unequal_length_are_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            harness._write_csv(tmp_path / "table.csv", {"t": np.arange(3), "x": [0.5, 0.25]})

    def test_rejected_table_neither_creates_nor_truncates_its_file(self, tmp_path):
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError, match="unequal"):
            harness._write_csv(path, {"t": [1, 2], "x": [1]})
        assert not path.exists()
        path.write_bytes(b"kept\r\n")
        with pytest.raises(ValueError, match="unequal"):
            harness._write_csv(str(path), {"t": [1, 2], "x": [1]})
        assert path.read_bytes() == b"kept\r\n"

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                st.lists(_TEXT, min_size=n, max_size=n, unique=True),
                st.lists(st.lists(_TEXT, min_size=n, max_size=n), max_size=6),
            )
        )
    )
    @example((["x"], [[""], ["a"]]))
    @example(([""], []))
    def test_text_cells_are_quoted_as_csv_writes_them(self, table):
        # Cells holding commas, quotes and line breaks, and empty cells,
        # which a one-column table must write as "".
        names, rows = table
        out = io.StringIO()
        harness._write_csv(out, {name: [row[i] for row in rows] for i, name in enumerate(names)})
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(names)
        writer.writerows(rows)
        assert out.getvalue() == expected.getvalue()


class TestReferenceWriter:
    @settings(max_examples=30, deadline=None)
    @given(
        k=st.sampled_from([2, 3, 8]),
        kind=st.sampled_from(["bernoulli", "point", "beta"]),
        horizon=st.integers(1, 200),
        trajectories=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        window=st.sampled_from([1, 7, bandit._WINDOW]),
        rows=st.sampled_from([1, 7, harness._CSV_ROWS]),
    )
    def test_outputs_are_the_reference_writers_bytes(self, k, kind, horizon, trajectories, seed, window, rows):
        # regret_curve.csv, every trace file and write_trace_csv against
        # csv.writer rows written one call per trajectory per window, with
        # text formatted a few rows or a trajectory at a time, or all at once.
        # regret_curve.csv's columns are computed here from each trajectory's
        # record played alone, so the campaign's window fold is checked too.
        cfg = ExperimentConfig(
            mode="simulate", n_arms=k, horizon=horizon, trajectories=trajectories, seed=seed,
            means=tuple(np.random.default_rng(seed).uniform(0.0, 1.0, k)), reward_kind=kind,
            store_traces=True,
        )
        env = cfg.environment()
        regret = np.array([prediction_regret(run_game(env, horizon, trajectory_stream(seed, i)), env)
                           for i in range(trajectories)])
        envelope = harness._envelope_curve(k, horizon, cfg.delta)
        q10, q50, q90 = np.quantile(regret, [0.1, 0.5, 0.9], axis=0)
        scoped = np.arange(1, horizon + 1) >= k**3
        within = np.where(scoped, (regret <= envelope).mean(axis=0), np.nan)
        curve = {"t": np.arange(1, horizon + 1), "regret_q10": q10, "regret_q50": q50, "regret_q90": q90,
                 "envelope": envelope, "slack_q50": envelope - q50, "within_fraction": within}

        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(bandit, "_WINDOW", window), \
                mock.patch.object(harness, "_CSV_ROWS", rows):
            out = Path(tmp)
            run_simulate(dataclasses.replace(cfg, outdir=tmp))
            expected = io.StringIO()
            reference.write_csv(expected, curve)
            assert (out / "regret_curve.csv").read_bytes() == expected.getvalue().encode()
            for i in range(trajectories):
                expected = io.StringIO()
                reference.write_traces([expected], bandit._play_windows(env, horizon, [trajectory_stream(seed, i)]))
                assert (out / f"trace_{i:04d}.csv").read_bytes() == expected.getvalue().encode(), i
                write_trace_csv(run_game(env, horizon, trajectory_stream(seed, i)), out / "alone.csv")
                assert (out / "alone.csv").read_bytes() == expected.getvalue().encode(), i


class TestRunSimulate:
    def test_outputs(self, tmp_path):
        cfg = ExperimentConfig(
            mode="simulate",
            horizon=40,
            trajectories=6,
            seed=1,
            outdir=str(tmp_path / "sim"),
            store_traces=True,
        )
        result = run_simulate(cfg)
        assert result.trajectory_covered.shape == (6,)
        assert np.all(np.isnan(result.envelope[:7]))
        assert np.all(np.isfinite(result.envelope[7:]))
        assert set(result.summary) == {
            "median_regret_final",
            "regret_loglog_slope",
            "trajectory_coverage",
            "scoped_rounds",
            "fit_window_start",
        }

        rows = read_csv(tmp_path / "sim" / "regret_curve.csv")
        assert rows[0] == [
            "t",
            "regret_q10",
            "regret_q50",
            "regret_q90",
            "envelope",
            "slack_q50",
            "within_fraction",
        ]
        assert len(rows) == 41
        # nan columns are empty before K^3 and numeric afterwards; floats
        # round-trip exactly through repr.
        assert rows[1][4] == ""
        assert float(rows[40][4]) == result.envelope[39]
        env = cfg.environment()
        regret = [prediction_regret(run_game(env, 40, trajectory_stream(1, i)), env) for i in range(6)]
        q50 = np.quantile(regret, 0.5, axis=0)
        assert float(rows[40][2]) == q50[39]

        traces = sorted(p.name for p in (tmp_path / "sim").glob("trace_*.csv"))
        assert traces == [f"trace_{i:04d}.csv" for i in range(6)]

        manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
        assert manifest["artifact"] == "banditbounds"
        assert manifest["config"]["mode"] == "simulate"
        assert manifest["summary"]["trajectory_coverage"] == pytest.approx(
            float(np.mean(result.trajectory_covered))
        )
        assert manifest["summary"]["scoped_rounds"] == 40 - 8 + 1  # t = K^3..T

    @pytest.mark.parametrize("kind, trajectories, horizon", [("point", 600, 300), ("bernoulli", 1000, 256)])
    def test_memory_does_not_grow_with_the_horizon(self, tmp_path, kind, trajectories, horizon):
        # The fold keeps (T,) columns and (M,) flags past a window.  From T to
        # 4T the peak may grow by those columns; an (M, T) matrix would grow
        # it by 3 M T float64 entries, 4.3 MB at 600 x 300 on a peak of about 7 MB.
        cfg = ExperimentConfig(mode="simulate", trajectories=trajectories, reward_kind=kind, outdir=str(tmp_path))
        run_simulate(dataclasses.replace(cfg, horizon=10, trajectories=3))  # allocates what later calls reuse
        peaks = []
        for t in (horizon, 4 * horizon):
            tracemalloc.start()
            try:
                run_simulate(dataclasses.replace(cfg, horizon=t))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks

    def test_byte_determinism_across_outdirs(self, tmp_path):
        base = dict(mode="simulate", horizon=30, trajectories=4, seed=7)
        a = ExperimentConfig(outdir=str(tmp_path / "a"), **base)
        b = ExperimentConfig(outdir=str(tmp_path / "b"), **base)
        run_simulate(a)
        run_simulate(b)
        for name in ("regret_curve.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_workers_start_no_pool(self, tmp_path, monkeypatch):
        # simulate plays its trajectories in one process whatever --workers
        # asks for, and writes the same bytes.
        class NoPool:
            def __init__(self, *args, **kwargs):
                pytest.fail("simulate started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        argv = ["simulate", "--horizon", "30", "--trajectories", "300", "--seed", "6"]
        for workers in (1, 3):
            assert main([*argv, "--workers", str(workers), "--outdir", str(tmp_path / f"w{workers}")]) == 0
        for name in ("regret_curve.csv", "manifest.json"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w3" / name).read_bytes(), name

    def test_stored_traces_do_not_depend_on_workers(self, tmp_path):
        for workers in (1, 3):
            code = main(
                [
                    "simulate",
                    "--n-arms",
                    "3",
                    "--reward-kind",
                    "beta",
                    "--horizon",
                    "40",
                    "--trajectories",
                    "5",
                    "--seed",
                    "2",
                    "--store-traces",
                    "--workers",
                    str(workers),
                    "--outdir",
                    str(tmp_path / f"w{workers}"),
                ]
            )
            assert code == 0
        names = ["regret_curve.csv", "manifest.json"] + [f"trace_{i:04d}.csv" for i in range(5)]
        assert sorted(p.name for p in (tmp_path / "w3").iterdir()) == sorted(names)
        for name in names:
            assert (tmp_path / "w1" / name).read_bytes() == (
                tmp_path / "w3" / name
            ).read_bytes(), name


class TestRunVerifyBounds:
    def test_outputs_and_worker_equivalence(self, tmp_path):
        base = dict(mode="verify-bounds", horizon=30, trajectories=8, seed=4)
        serial = ExperimentConfig(outdir=str(tmp_path / "w1"), workers=1, **base)
        parallel = ExperimentConfig(outdir=str(tmp_path / "w2"), workers=3, **base)
        report = run_verify_bounds(serial)
        run_verify_bounds(parallel)

        for name in ("coverage.csv", "violation_profile.csv", "drivers.csv", "manifest.json"):
            assert (tmp_path / "w1" / name).read_bytes() == (
                tmp_path / "w2" / name
            ).read_bytes(), name

        assert set(report) == {"kl_route", "weighted_route"}
        for entry in report.values():
            assert entry.trials == 8
            assert 0 <= entry.violated <= 8
            assert entry.rate == entry.violated / 8
            assert entry.per_round_violations.shape == (30,)

        rows = read_csv(tmp_path / "w1" / "coverage.csv")
        assert rows[0] == [
            "bound",
            "trajectories",
            "violated",
            "empirical_rate",
            "nominal_delta",
            "worst_slack",
        ]
        assert [r[0] for r in rows[1:]] == ["kl_route", "weighted_route"]
        profile = read_csv(tmp_path / "w1" / "violation_profile.csv")
        assert profile[0] == ["t", "kl_route", "weighted_route"]
        assert len(profile) == 31
        drivers = read_csv(tmp_path / "w1" / "drivers.csv")
        assert drivers[0] == [
            "t",
            "lmin_driver",
            "rms_driver",
            "kl_route_gap",
            "weighted_route_gap",
        ]
        assert len(drivers) == 31

    def test_pool_has_no_more_workers_than_chunks(self, tmp_path, monkeypatch):
        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        cfg = ExperimentConfig(
            mode="verify-bounds", horizon=10, trajectories=2, workers=3, outdir=str(tmp_path)
        )
        run_verify_bounds(cfg)
        assert sizes == [2]

    @pytest.mark.parametrize("cpus, expected", [(3, 3), (None, 1)])
    def test_pool_has_no_more_workers_than_cpus(self, tmp_path, monkeypatch, cpus, expected):
        # --workers 10000 asks for 12 blocks of one trajectory; the pool gets
        # one process per CPU (one when the count is unknown).  The executor
        # is faked: it records its size and maps in process, starting none.
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        base = dict(mode="verify-bounds", horizon=10, trajectories=12)
        run_verify_bounds(ExperimentConfig(workers=10_000, outdir=str(tmp_path / "many"), **base))
        assert sizes == [expected]
        run_verify_bounds(ExperimentConfig(workers=1, outdir=str(tmp_path / "one"), **base))
        for name in ("coverage.csv", "violation_profile.csv", "drivers.csv", "manifest.json"):
            assert (tmp_path / "many" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_cli_import_loads_no_process_pool(self):
        # The pool's modules load only when a campaign asks for workers.
        code = "import sys, banditbounds.cli; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
        src = str(Path(banditbounds.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_cli_import_loads_no_numpy_random(self):
        # numpy.random loads on the first draw, not at import: no module
        # reaches into it at import time.
        code = "import sys, banditbounds.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
        src = str(Path(banditbounds.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestRunOracles:
    def test_small_campaign_passes(self, tmp_path, capsys):
        cfg = ExperimentConfig(
            mode="oracles",
            chain_count=5,
            probe_count=200,
            seed=0,
            outdir=str(tmp_path / "orc"),
        )
        report = run_oracles(cfg)
        assert report.passed
        statuses = {c.name: c.status for c in report.checks}
        assert statuses == {
            "kl_moment_cap": "pass",
            "kl_moment_sqrt_window": "report",
            "constant_mean_domination": "pass",
            "convexity_probe": "pass",
            "expsum_ratio_cap": "pass",
            "expsum_ratio_log_conjecture": "report",
            "tail_bound_identity": "pass",
        }
        out = capsys.readouterr().out
        assert "oracle kl_moment_cap: PASS" in out
        assert "oracle expsum_ratio_log_conjecture: REPORT" in out
        rows = read_csv(tmp_path / "orc" / "oracles.csv")
        assert rows[0] == ["check", "status", "detail"]
        assert len(rows) == len(report.checks) + 1


def _expsum_one_probe_at_a_time(cfg):
    """Reference for ``_expsum_checks``: the probes drawn a block of
    ``_PROBE_BLOCK`` rows at a time (normal entries, then the 10x heavy
    rows, then log10 alpha), and one scalar ratio per probe.  Returns the
    probes' rows and alphas, and the two detail strings."""
    rng = harness._stream(cfg.seed, harness._PROBE_STREAM)
    rows, alphas = [], []
    cap = log = 0
    sizes = (2, 3, 5, 8)
    per_size, remainder = divmod(cfg.probe_count, len(sizes))
    for pos, n in enumerate(sizes):
        count = per_size + (1 if pos < remainder else 0)
        for start in range(0, count, harness._PROBE_BLOCK):
            size = min(harness._PROBE_BLOCK, count - start)
            block = rng.normal(0.0, 3.0, size=(size, n))
            heavy = rng.random(size) < 0.1
            block_alphas = 10.0 ** rng.uniform(-2.0, 2.0, size=size)
            for x, is_heavy, alpha in zip(block, heavy, block_alphas.tolist()):
                if is_heavy:
                    x *= 10.0
                x[0] = 0.0
                ratio = expsum_ratio(x, alpha)
                rows.append(x)
                alphas.append(alpha)
                cap += ratio > n / alpha
                log += ratio > math.log(n) / alpha
    total = len(rows)
    return rows, alphas, (
        f"{cap} violations of n/alpha over {total} probes",
        f"{log} exceedances of ln(n)/alpha over {total} probes (conjectured cap, never asserted)",
    )


class TestExpsumChecks:
    @pytest.mark.parametrize("probe_count", [1, 7, 5000])
    def test_blocks_match_one_probe_at_a_time(self, probe_count, monkeypatch):
        blocks = []

        def recording(x, alpha):
            blocks.append((x.copy(), alpha.copy()))
            return expsum_ratio(x, alpha)

        monkeypatch.setattr(harness, "expsum_ratio", recording)
        cfg = ExperimentConfig(mode="oracles", probe_count=probe_count, seed=3)
        details = tuple(c.detail for c in harness._expsum_checks(cfg))
        rows, alphas, expected = _expsum_one_probe_at_a_time(cfg)
        assert details == expected
        # The probes reach the kernel in draw order, bit for bit, at most
        # one block of rows per call.
        assert all(len(a) <= harness._PROBE_BLOCK for _, a in blocks)
        assert [r.tobytes() for x, _ in blocks for r in x] == [r.tobytes() for r in rows]
        assert np.concatenate([a for _, a in blocks]).tobytes() == np.array(alphas).tobytes()


class TestRunCompareConcentration:
    def test_table_properties(self, tmp_path):
        cfg = ExperimentConfig(
            mode="compare-concentration",
            walk_trials=60,
            walk_steps=8,
            seed=2,
            delta=0.05,
            outdir=str(tmp_path / "cmp"),
        )
        rows = run_compare_concentration(cfg)
        # 2 profiles x 4 step counts x 3 deltas (0.05 is already in the set).
        assert len(rows) == 24
        assert {r["profile"] for r in rows} == {"equal", "one_spike"}
        assert sorted({r["n_steps"] for r in rows}) == [2, 8, 32, 128]

        for r in rows:
            if r["profile"] == "equal":
                assert r["alt_over_classical"] == pytest.approx(
                    r["equal_range_ratio"], rel=1e-12
                )
            else:
                assert math.isnan(r["equal_range_ratio"])
            # Both radii cover these short, conservative walks entirely.
            assert r["coverage_alt"] >= 1.0 - r["delta"]
            assert r["coverage_classical"] >= 1.0 - r["delta"]
            assert r["abs_sum_q50"] <= r["abs_sum_q95"] <= r["abs_sum_max"]

        # With one spiked step the global-range bound keeps paying the full
        # width at every step (plus the ln(N+1) union factor), while the
        # per-step-range bound dilutes the spike, so the ratio grows with N.
        spike = {
            r["n_steps"]: r["alt_over_classical"]
            for r in rows
            if r["profile"] == "one_spike" and r["delta"] == 0.05
        }
        assert spike[2] < spike[8] < spike[32] < spike[128]

        table = read_csv(tmp_path / "cmp" / "compare_concentration.csv")
        assert table[0][0:3] == ["profile", "n_steps", "delta"]
        assert len(table) == 25
        # nan renders as the empty string in the CSV.
        one_spike_row = next(r for r in table[1:] if r[0] == "one_spike")
        assert one_spike_row[6] == ""


def _strict_json(text: str):
    """json.loads that rejects NaN and the infinities, as RFC 8259 does."""

    def reject(token):
        raise ValueError(f"{token} is not valid JSON")

    return json.loads(text, parse_constant=reject)


class TestCli:
    def test_simulate_exit_zero(self, tmp_path):
        for horizon in (20, 3):
            outdir = tmp_path / f"cli_sim_{horizon}"
            code = main(
                [
                    "simulate",
                    "--horizon",
                    str(horizon),
                    "--trajectories",
                    "3",
                    "--outdir",
                    str(outdir),
                ]
            )
            assert code == 0
            assert (outdir / "regret_curve.csv").exists()
            summary = _strict_json((outdir / "manifest.json").read_text())["summary"]
        # Horizon 3 ends before K^3 = 8: no round is fitted or scoped, so the
        # slope and the coverage are both undefined and written as null.
        assert summary["regret_loglog_slope"] is None
        assert summary["scoped_rounds"] == 0
        assert summary["trajectory_coverage"] is None

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        code = main(
            ["simulate", "--delta", "1.5", "--outdir", str(tmp_path / "nope")]
        )
        assert code == 2
        assert "invalid config" in capsys.readouterr().err

        config = tmp_path / "fractional.json"
        config.write_text(json.dumps({"horizon": 10.5}))
        code = main(["simulate", "--config", str(config), "--outdir", str(tmp_path / "nope")])
        assert code == 2
        assert "invalid config" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"horizon": 25, "trajectories": 3, "seed": 9, "means": [0.8, 0.2]})
        )
        outdir = tmp_path / "cli_cfg"
        code = main(
            [
                "simulate",
                "--config",
                str(config),
                "--horizon",
                "30",
                "--outdir",
                str(outdir),
            ]
        )
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config"]["horizon"] == 30  # flag beats file
        assert manifest["config"]["seed"] == 9  # file beats default
        assert manifest["config"]["means"] == [0.8, 0.2]

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"horizont": 25}))
        code = main(["simulate", "--config", str(config)])
        assert code == 2
        assert "horizont" in capsys.readouterr().err

        # Fields of another subcommand are unknown to this one.
        config.write_text(json.dumps({"store_traces": True, "walk_trials": 3}))
        outdir = tmp_path / "other_mode"
        code = main(["verify-bounds", "--config", str(config), "--outdir", str(outdir)])
        assert code == 2
        err = capsys.readouterr().err
        assert "store_traces" in err and "walk_trials" in err
        assert not outdir.exists()

        # The subcommand names the mode; a file may not set it.
        for mode in ("oracles", 5):
            config.write_text(json.dumps({"mode": mode}))
            outdir = tmp_path / f"mode_{mode}"
            code = main(["simulate", "--config", str(config), "--outdir", str(outdir)])
            assert code == 2
            assert "mode" in capsys.readouterr().err
            assert not outdir.exists()

    def test_unusable_outdir_exits_two(self, tmp_path, capsys):
        occupied = tmp_path / "a_file"
        occupied.write_text("")
        code = main(["oracles", "--chain-count", "1", "--probe-count", "4", "--outdir", str(occupied)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and "Traceback" not in err

    def test_means_flag_parsing(self, tmp_path):
        outdir = tmp_path / "cli_means"
        code = main(
            [
                "verify-bounds",
                "--means",
                "0.7,0.3",
                "--horizon",
                "15",
                "--trajectories",
                "2",
                "--outdir",
                str(outdir),
            ]
        )
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config"]["means"] == [0.7, 0.3]

    def test_oracle_failure_exits_one(self, tmp_path, monkeypatch):
        import banditbounds.cli as cli_module

        def fake_runner(cfg):
            return OracleReport(
                checks=(OracleCheck("stub", "fail", "forced failure"),)
            )

        monkeypatch.setitem(cli_module._RUNNERS, "oracles", fake_runner)
        code = main(["oracles", "--outdir", str(tmp_path / "orc_fail")])
        assert code == 1


class TestFootprintCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-bounds", "--horizon", str(10**9)],
            ["simulate", "--trajectories", str(10**6), "--horizon", str(10**6)],
            ["compare-concentration", "--walk-steps", str(10**8)],
            ["simulate", "--n-arms", str(10**6)],
            ["verify-bounds", "--n-arms", str(10**6)],
            # the engine's (65, 256, 10^5) policy window at the default T = 1000
            ["verify-bounds", "--n-arms", str(10**5), "--trajectories", "256"],
            # one block of 16 trials' signs at the longest profile, 16 * 6 * 10^6 steps
            ["compare-concentration", "--walk-steps", str(6 * 10**6)],
        ],
    )
    def test_oversized_config_exits_two_before_allocating(self, tmp_path, capsys, monkeypatch, argv):
        # If the cap let one of these through, its campaign would run for
        # hours; the runners fail the test instead.
        import banditbounds.cli as cli_module

        def never_run(cfg):
            pytest.fail(f"a {cfg.mode} campaign ran")

        for mode in harness.MODES:
            monkeypatch.setitem(cli_module._RUNNERS, mode, never_run)
        outdir = tmp_path / "big"
        tracemalloc.start()
        try:
            code = main([*argv, "--outdir", str(outdir)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "invalid config" in capsys.readouterr().err
        assert not outdir.exists()
        # --n-arms 10**6 alone would cost about 30 MB if the means were built.
        assert peak < 5 * 2**20

    @pytest.mark.parametrize(
        "kwargs",
        [
            # both bandit modes at M = 1000, T = 10^5
            {"mode": "simulate", "trajectories": 1000, "horizon": 10**5},
            {"mode": "verify-bounds", "trajectories": 1000, "horizon": 10**5},
            {"mode": "simulate", "n_arms": 3, "trajectories": 1000, "horizon": 10**5},
            # criteria 05 and 07
            {"mode": "verify-bounds", "trajectories": 1000, "horizon": 2000},
            {"mode": "simulate", "n_arms": 3, "trajectories": 100, "horizon": 10**4},
            # the benchmark workloads
            {"mode": "verify-bounds", "trajectories": 50, "horizon": 2000},
            {"mode": "simulate", "n_arms": 3, "reward_kind": "beta", "trajectories": 6,
             "horizon": 10**4, "store_traces": True},
            {"mode": "oracles"},
            {"mode": "compare-concentration"},
            # M T = 2 10^8: simulate holds no (M, T) array
            {"mode": "simulate", "trajectories": 2000, "horizon": 10**5},
        ],
    )
    def test_named_sizes_stay_valid(self, kwargs):
        ExperimentConfig(**kwargs).validate()

    def test_simulate_window_counts_every_trajectory(self):
        # simulate plays its M trajectories as one block: at M = 10^6 the
        # engine's (65, 10^6, 2) policy window is over the cap.
        with pytest.raises(ValueError, match="over the cap"):
            ExperimentConfig(mode="simulate", trajectories=10**6, horizon=100).validate()

    def test_store_traces_fits_the_open_file_limit(self, tmp_path, capsys, monkeypatch):
        # The run holds every trace file open at once; at a soft limit of 64
        # open files, 100 trajectories exit 2 before any file is made.
        import resource

        monkeypatch.setattr(resource, "getrlimit", lambda which: (64, resource.RLIM_INFINITY))
        argv = ["simulate", "--horizon", "10", "--store-traces"]
        assert main([*argv, "--trajectories", "100", "--outdir", str(tmp_path / "many")]) == 2
        assert "open" in capsys.readouterr().err
        assert not (tmp_path / "many").exists()
        assert main([*argv, "--trajectories", "20", "--outdir", str(tmp_path / "few")]) == 0
        assert len(list((tmp_path / "few").glob("trace_*.csv"))) == 20

    def test_sign_block_cap_counts_the_longest_walk(self, tmp_path, monkeypatch):
        # At --walk-steps 1 the grid's base is 2, so the campaign walks up to
        # 32 steps; the cap must count that sign block, not 16 * walk_steps.
        cfg = ExperimentConfig(mode="compare-concentration", walk_steps=1, walk_trials=4, outdir=str(tmp_path))
        longest = max(row["n_steps"] for row in run_compare_concentration(cfg))
        assert longest == 32
        monkeypatch.setattr(harness, "_MAX_ARRAY_ENTRIES", harness._WALK_BLOCK * longest)
        cfg.validate()
        monkeypatch.setattr(harness, "_MAX_ARRAY_ENTRIES", harness._WALK_BLOCK * longest - 1)
        with pytest.raises(ValueError, match="over the cap"):
            cfg.validate()

    def test_walk_trials_boundary(self, tmp_path, capsys, monkeypatch):
        # The largest compare-concentration array is the (8, walk_trials)
        # table of sums.  Only validate these sizes: a campaign at either
        # would take hours, so the runner fails the test if it is reached.
        import banditbounds.cli as cli_module

        def never_run(cfg):
            pytest.fail(f"a campaign ran at walk_trials={cfg.walk_trials}")

        monkeypatch.setitem(cli_module._RUNNERS, "compare-concentration", never_run)
        ExperimentConfig(mode="compare-concentration", walk_trials=_CAP // 8).validate()
        outdir = tmp_path / "big"
        argv = ["compare-concentration", "--walk-trials", str(_CAP // 8 + 1)]
        assert main([*argv, "--outdir", str(outdir)]) == 2
        assert "invalid config" in capsys.readouterr().err
        assert not outdir.exists()


_OVER_CAP = st.integers(harness._MAX_ARRAY_ENTRIES + 1, 10**12)
_INVALID = st.sampled_from([0, -3, math.nan, "4", True, [2]])
_SMALL = {
    "n_arms": st.integers(2, 3),
    "horizon": st.integers(1, 50),
    "trajectories": st.integers(1, 4),
    "chain_count": st.integers(1, 5),
    "probe_count": st.integers(1, 50),
    "walk_trials": st.integers(1, 20),
    "walk_steps": st.integers(1, 10),
    "seed": st.integers(0, 100),
    "delta": st.floats(0.01, 0.5),
    "workers": st.sampled_from([1, 2]),
    "reward_kind": st.sampled_from(["bernoulli", "point", "beta"]),
    "warmup_length": st.integers(1, 10),
    "store_traces": st.booleans(),
}
_SIZES = ("horizon", "trajectories", "chain_count", "probe_count", "walk_trials", "walk_steps")
_CAPPED = ("n_arms", "horizon", "trajectories", "walk_trials", "walk_steps")
_BANDIT_FIELDS = ("n_arms", "horizon", "trajectories", "means", "reward_kind", "warmup_length")
_MODE_FIELDS = {
    "simulate": _BANDIT_FIELDS + ("store_traces",),
    "verify-bounds": _BANDIT_FIELDS,
    "oracles": ("chain_count", "probe_count"),
    "compare-concentration": ("walk_trials", "walk_steps"),
}


@st.composite
def _config_objects(draw, mode: str):
    """A config file for ``mode`` of small valid values with at most one
    fault: an invalid value, a size over the footprint cap, or an unknown
    key.  One fault at a time reaches each rejection on its own, unmasked by
    an earlier check.  Sizes are always set, since their defaults lie
    between the small range and the cap."""
    fields = ("seed", "delta", "workers", *_MODE_FIELDS[mode])
    config = {
        name: draw(_SMALL[name])
        for name in fields
        if name in _SIZES or (name != "means" and draw(st.booleans()))
    }
    if "means" in fields and draw(st.booleans()):
        k = config.get("n_arms", 2)
        config["means"] = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    fault = draw(st.sampled_from([None, "no_such_field", *fields]))
    if fault == "no_such_field":
        config[fault] = 1
    elif fault is not None:
        config[fault] = draw(st.one_of(_INVALID, *([_OVER_CAP] if fault in _CAPPED else [])))
    return config


class TestCliFuzz:
    def test_mode_table_drives_the_flags(self):
        # The literal above pins the harness's table independently; each
        # subcommand takes the common flags, then one flag per field.
        assert _MODE_FIELDS == harness.MODE_FIELDS
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(_MODE_FIELDS)
        for mode, fields in _MODE_FIELDS.items():
            flags = [o for a in sub.choices[mode]._actions for o in a.option_strings if o.startswith("--")]
            common = ["--help", "--config", "--delta", "--seed", "--outdir", "--workers"]
            assert flags == common + ["--" + name.replace("_", "-") for name in fields], mode

    @pytest.mark.parametrize("mode", harness.MODES)
    @settings(max_examples=10)
    @given(data=st.data())
    def test_config_file_exits_zero_or_two(self, mode, data):
        config = data.draw(_config_objects(mode))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            outdir = Path(tmp) / "out"
            code = main([mode, "--config", str(path), "--outdir", str(outdir)])
            assert code in (0, 2), config
            manifests = list(outdir.rglob("manifest.json")) if outdir.exists() else []
            assert len(manifests) == (code == 0), config
            for manifest in manifests:
                _strict_json(manifest.read_text())


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == banditbounds.__version__
