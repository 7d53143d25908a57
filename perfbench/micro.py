"""Microbenchmarks: the public functions the campaigns call, timed directly.

Usage::

    python3 perfbench/micro.py SEED OUT_JSON

Writes one JSON object of per-layer costs, each the median of a few
repeats: the game engine per round for K in {2, 3, 8} and every reward
kind, ``certificate_sweep`` per trace at horizons 2000 and 10000, one
``kl_upper_inverse`` plus ``kl_lower_inverse`` pair, and the spin-up of a
two-worker process pool as the harness creates it.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ENGINE_HORIZON = 2000
ENGINE_REPEATS = 3
SWEEP_REPEATS = {2000: 21, 10000: 11}
KL_PAIRS = 300
KL_REPEATS = 3
POOL_REPEATS = 3


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main(argv: list[str]) -> int:
    seed, out_path = int(argv[0]), argv[1]
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from banditbounds import (
        Environment,
        certificate_sweep,
        kl_lower_inverse,
        kl_upper_inverse,
        run_game,
        trajectory_stream,
    )

    out: dict[str, float] = {}
    for k in (2, 3, 8):
        means = np.linspace(0.9, 0.1, k)
        for kind in ("bernoulli", "point", "beta"):
            env = Environment(means=means, reward_kind=kind)
            seconds = _median_time(
                lambda: run_game(env, ENGINE_HORIZON, trajectory_stream(seed, 0)), ENGINE_REPEATS
            )
            out[f"bandit.run_game.us_per_round.k{k}.{kind}"] = seconds / ENGINE_HORIZON * 1e6

    env = Environment(means=np.array([0.9, 0.1]))
    for horizon, repeats in SWEEP_REPEATS.items():
        trace = run_game(env, horizon, trajectory_stream(seed, 0))
        seconds = _median_time(lambda: certificate_sweep(trace, env, 0.05), repeats)
        out[f"harness.certificate_sweep.ms_per_trace.t{horizon}"] = seconds * 1e3

    # Budgets as the kl route sets them at uniform prior KL ln 2, delta 0.05.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    p_hats = rng.uniform(0.05, 0.95, KL_PAIRS)
    rounds = rng.integers(8, 10_001, KL_PAIRS)
    budgets = [(math.log(2) + 3 * math.log(t + 1) - math.log(0.05)) / t for t in rounds]

    def kl_pairs():
        for p_hat, c in zip(p_hats, budgets):
            kl_upper_inverse(float(p_hat), c)
            kl_lower_inverse(float(p_hat), c)

    out["divergences.kl_inverse_pair_us"] = _median_time(kl_pairs, KL_REPEATS) / KL_PAIRS * 1e6

    def pool_spinup():
        with ProcessPoolExecutor(max_workers=2) as pool:
            list(pool.map(abs, [1, 2]))

    out["harness.pool.spinup_ms"] = _median_time(pool_spinup, POOL_REPEATS) * 1e3

    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
