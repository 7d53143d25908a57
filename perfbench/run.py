"""Campaign benchmark for the banditbounds CLI; see perfbench/README.md.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed sequence of CLI campaigns run as a single-process
closed loop (one campaign at a time, ``--workers 1``, campaign seed N),
repeated until S seconds have passed and at least ``MIN_ITERATIONS`` times.
Every campaign is one attempted operation, gated by ``gate.check``.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json`` as medians
over the iterations.  ``--trace 1`` alternates untraced and traced
iterations, checks ``verify-k2`` at one and two workers for byte equality,
runs ``micro.py`` and prints the per-layer metrics.  The last stdout line is
the result; the line before it holds informational fields.  Scratch output
lives in ``perfbench/_work`` and is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import gate
from child import ROOT_SPAN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

DELTA = 0.05
MIN_ITERATIONS = 3
MIN_TRACE_PAIRS = 2
CHILD_TIMEOUT_S = 150

# Why each workload: see perfbench/README.md.
VERIFY_K2 = (
    "verify-bounds",
    {"n_arms": 2, "horizon": 2000, "trajectories": 50, "means": "0.9,0.1", "reward_kind": "bernoulli"},
)
WORKLOADS = {
    "verify-k2": (VERIFY_K2,),
    "simulate-k3-beta-traces": (
        (
            "simulate",
            {
                "n_arms": 3, "horizon": 10_000, "trajectories": 6, "means": "0.9,0.5,0.1",
                "reward_kind": "beta", "store_traces": True,
            },
        ),
    ),
    "oracles-walks": (
        ("oracles", {"chain_count": 200, "probe_count": 100_000}),
        ("compare-concentration", {"walk_trials": 10_000, "walk_steps": 100}),
    ),
}
BANDIT_MODES = ("simulate", "verify-bounds")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def campaign_args(mode: str, config: dict) -> list[str]:
    """CLI arguments for ``mode`` with ``config``; True flags take no value."""
    args = [mode]
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            args.append(flag)
        else:
            args += [flag, str(value)]
    return args


def _read_spans(path: Path) -> list[tuple[str, int, int, int]]:
    spans = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            name, start, end, parent = line.rstrip("\n").split(",")
            spans.append((name, int(start), int(end), int(parent)))
    return spans


def layer_self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Busy seconds per span name, each span minus its direct children, and call counts."""
    self_ns = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            self_ns[parent] -= end - start
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, *_), ns in zip(spans, self_ns):
        busy[name] += ns / 1e9
        calls[name] += 1
    return busy, calls


class Bench:
    """Launches campaigns, gates their outputs and counts attempted and failed operations."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.references: dict[str, dict[str, str]] = {}
        self.digests: dict[str, dict[str, str]] = {}

    def config(self, base: dict) -> dict:
        return {**base, "seed": self.seed, "delta": DELTA}

    def campaign(self, mode: str, base: dict, *, workers: int = 1, traced: bool = False) -> dict | None:
        """Run one campaign; return its timing report, or None when it failed the gate."""
        config = self.config(base)
        outdir = WORK / "out"
        report_path = WORK / "report.json"
        spans_path = WORK / "spans.csv"
        shutil.rmtree(outdir, ignore_errors=True)
        report_path.unlink(missing_ok=True)
        spans_path.unlink(missing_ok=True)
        cli_args = campaign_args(mode, config) + ["--workers", str(workers), "--outdir", str(outdir)]
        start_ns = time.monotonic_ns()
        cmd = [sys.executable, str(HERE / "child.py"), str(report_path),
               str(spans_path) if traced else "-", str(start_ns), "--", *cli_args]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            returncode, stdout, stderr = None, "", f"timed out after {CHILD_TIMEOUT_S} s"
        else:
            returncode, stdout, stderr = proc.returncode, proc.stdout, proc.stderr

        report = json.loads(report_path.read_text()) if report_path.is_file() else None
        missing = []
        if report is None or report["wall_s"] is None:
            missing.append("no timing report")
        if traced and not spans_path.is_file():
            missing.append("no span file")
        problems = self.judge(mode, config, outdir, returncode, stdout, missing)
        if problems:
            _log(f"FAILED {mode} workers={workers} traced={traced}: {problems}")
            if stderr.strip():
                _log(stderr.strip()[-2000:])
            return None
        report["bytes_written"] = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
        if traced:
            report["spans"] = _read_spans(spans_path)
        return report

    def judge(self, mode: str, config: dict, outdir: Path, returncode, stdout: str, extra=()) -> list[str]:
        """Gate one campaign's outputs and count it as an attempted operation.

        The first passing run of a configuration becomes the byte-identity
        reference for every later run of it in this benchmark run.
        """
        key = json.dumps([mode, config], sort_keys=True)
        problems = gate.check(mode, config, outdir, returncode, stdout, self.references.get(key))
        problems += extra
        self.attempted += 1
        if problems:
            self.failed += 1
        else:
            digests = gate.output_digests(mode, config, outdir)
            self.references.setdefault(key, digests)
            self.digests[mode] = digests
        return problems

    def iteration(self, workload: str, traced: bool = False) -> list[dict] | None:
        reports = [self.campaign(mode, base, traced=traced) for mode, base in WORKLOADS[workload]]
        return None if any(r is None for r in reports) else reports


def _keep_going(started: float, seconds: float, durations: list[float], minimum: int) -> bool:
    if len(durations) < minimum:
        return True
    return time.monotonic() - started + statistics.median(durations) <= seconds


def measure_end_to_end(bench: Bench, workload: str, seconds: float) -> tuple[dict, dict]:
    started = time.monotonic()
    durations, walls, rss, setups = [], [], [], []
    while _keep_going(started, seconds, durations, MIN_ITERATIONS):
        t0 = time.monotonic()
        reports = bench.iteration(workload)
        durations.append(time.monotonic() - t0)
        if reports is not None:
            walls.append(sum(r["wall_s"] for r in reports))
            rss.append(max(r["peak_rss_mb"] for r in reports))
            setups.extend(r["setup_s"] for r in reports)
    if not walls:
        return {}, {}
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
    }
    info = {"iterations": len(walls), "setup_samples": len(setups), "wall_s_samples": walls}
    return metrics, info


def measure_per_layer(bench: Bench, workload: str, seconds: float) -> tuple[dict, dict]:
    started = time.monotonic()
    durations, plain, traced, imports = [], [], [], []
    while _keep_going(started, seconds, durations, MIN_TRACE_PAIRS):
        t0 = time.monotonic()
        for is_traced in (False, True):
            reports = bench.iteration(workload, traced=is_traced)
            if reports is not None:
                (traced if is_traced else plain).append(reports)
                imports.extend(r["import_s"] for r in reports)
        durations.append(time.monotonic() - t0)
    if not plain or not traced:
        return {}, {}

    def wall(reports):
        return sum(r["wall_s"] for r in reports)

    untraced_wall = statistics.median(wall(r) for r in plain)
    traced_wall = statistics.median(wall(r) for r in traced)
    chosen = sorted(traced, key=wall)[(len(traced) - 1) // 2]
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for report in chosen:
        b, c = layer_self_times(report["spans"])
        for name in b:
            busy[name] += b[name]
            calls[name] += c[name]
    needed = sum(
        base["trajectories"] * base["horizon"] for mode, base in WORKLOADS[workload] if mode in BANDIT_MODES
    )
    played = sum(r["rounds_played"] for r in chosen)

    metrics = {
        "bandit.run_game.busy_s": busy["bandit.run_game"],
        "bandit.run_game.calls": calls["bandit.run_game"],
        "bandit.rounds_played_per_needed": played / needed if needed else 0.0,
        "harness.certificate_sweep.busy_s": busy["harness.certificate_sweep"],
        "harness.prediction_regret.busy_s": busy["harness.prediction_regret"],
        "harness.write.busy_s": busy["harness.write"],
        "harness.write.bytes": sum(r["bytes_written"] for r in chosen),
        "harness.self_s": busy[ROOT_SPAN],
        "bounds.regret_envelope.busy_s": busy["bounds.regret_envelope"],
        "bounds.gap_driver_report.busy_s": busy["bounds.gap_driver_report"],
        "bounds.expsum_ratio.busy_s": busy["bounds.expsum_ratio"],
        "bounds.expsum_ratio.calls": calls["bounds.expsum_ratio"],
        "divergences.bernoulli_kl_vec.busy_s": busy["divergences.bernoulli_kl_vec"],
        "concentration.bernoulli_kl_moment.busy_s": busy["concentration.bernoulli_kl_moment"],
        "concentration.convex_domination_gap.busy_s": busy["concentration.convex_domination_gap"],
        "concentration.convex_domination_gap.calls": calls["concentration.convex_domination_gap"],
        "concentration.simulate_profile_walks.busy_s": busy["concentration.simulate_profile_walks"],
        "cli.import_s": statistics.median(imports),
        "trace.overhead_s": traced_wall - untraced_wall,
    }

    # Worker invariance and pool efficiency on the verify-k2 campaign.
    mode, base = VERIFY_K2
    one = bench.campaign(mode, base, workers=1)
    two = bench.campaign(mode, base, workers=2)
    if one is not None and two is not None:
        metrics["harness.pool.efficiency_w2"] = one["wall_s"] / (2.0 * two["wall_s"])

    micro_path = WORK / "micro.json"
    micro_path.unlink(missing_ok=True)
    bench.attempted += 1
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "micro.py"), str(bench.seed), str(micro_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        proc = None
    if proc is None or proc.returncode != 0 or not micro_path.is_file():
        bench.failed += 1
        _log(f"FAILED microbenchmarks: {proc.stderr[-2000:] if proc else 'timed out'}")
    else:
        metrics.update(json.loads(micro_path.read_text()))

    accounted = sum(busy.values())
    info = {
        "untraced_iterations": len(plain),
        "traced_iterations": len(traced),
        "accounting": {
            "busy_plus_self_s": accounted,
            "chosen_traced_wall_s": wall(chosen),
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "overhead_s": traced_wall - untraced_wall,
            "rounds_played": played,
            "rounds_needed": needed,
        },
        "untraced_entry_points": sorted({a for r in chosen for a in r["untraced"]}),
    }
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "banditbounds" / "cli.py").is_file() or not spec_path.is_file():
        _log(f"no banditbounds sources or BENCHMARK.json under {ROOT}; nothing to measure")
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(exist_ok=True)
    try:
        # Untimed warm-up: compiles the package's bytecode and loads numpy from disk.
        warm = subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import banditbounds.cli"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if warm.returncode != 0:
            _log(f"banditbounds does not import:\n{warm.stderr[-2000:]}")
            return 2
        bench = Bench(args.seed)
        measure = measure_per_layer if args.trace else measure_end_to_end
        values, info = measure(bench, args.workload, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        _log(f"no value for {missing}: {bench.failed} of {bench.attempted} operations failed")
        return 1
    info.update(
        workload=args.workload,
        seed=args.seed,
        failed_share=bench.failed / bench.attempted,
        output_sha256=bench.digests,
        nproc=os.cpu_count(),
        python=platform.python_version(),
    )
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
