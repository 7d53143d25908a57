"""Correctness gate for one banditbounds campaign's output directory.

The gate knows the file layout each CLI mode writes and checks it against
the configuration the benchmark requested, independently of the package's
own code: every expected CSV exists with the exact header and row count,
the manifest records the requested configuration, and for
``verify-bounds`` neither route's empirical violation rate exceeds the
nominal delta.  Given reference digests from an earlier run of the same
configuration, it also requires the outputs to be byte-identical.

Files a campaign writes beyond the expected ones (a future ``timings.json``,
say) are neither required nor hashed, so they cannot break byte identity.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

ORACLE_CHECKS = (
    "kl_moment_cap",
    "kl_moment_sqrt_window",
    "constant_mean_domination",
    "convexity_probe",
    "expsum_ratio_cap",
    "expsum_ratio_log_conjecture",
    "tail_bound_identity",
)
_ORACLE_LINE = re.compile(r"^oracle (\S+): ([A-Z]+) ")


def expected_manifest_config(mode: str, config: dict) -> dict:
    """The ``config`` block a manifest must record for the requested run."""
    base = {"mode": mode, "seed": config["seed"], "delta": config["delta"]}
    if mode in ("simulate", "verify-bounds"):
        base.update(
            n_arms=config["n_arms"],
            horizon=config["horizon"],
            trajectories=config["trajectories"],
            means=[float(m) for m in config["means"].split(",")],
            reward_kind=config["reward_kind"],
            warmup_length=None,
            store_traces=bool(config.get("store_traces", False)),
        )
    elif mode == "oracles":
        base.update(chain_count=config["chain_count"], probe_count=config["probe_count"])
    else:
        base.update(walk_trials=config["walk_trials"], walk_steps=config["walk_steps"])
    return base


def expected_tables(mode: str, config: dict) -> dict[str, tuple[list[str], int]]:
    """File name -> (header, data-row count) for every CSV ``mode`` writes."""
    if mode == "verify-bounds":
        t = config["horizon"]
        return {
            "coverage.csv": (
                ["bound", "trajectories", "violated", "empirical_rate", "nominal_delta", "worst_slack"],
                2,
            ),
            "violation_profile.csv": (["t", "kl_route", "weighted_route"], t),
            "drivers.csv": (
                ["t", "lmin_driver", "rms_driver", "kl_route_gap", "weighted_route_gap"],
                t,
            ),
        }
    if mode == "simulate":
        t, k = config["horizon"], config["n_arms"]
        tables = {
            "regret_curve.csv": (
                ["t", "regret_q10", "regret_q50", "regret_q90", "envelope", "slack_q50", "within_fraction"],
                t,
            )
        }
        if config.get("store_traces"):
            header = (
                ["t", "action", "reward"]
                + [f"pi_{a}" for a in range(k)]
                + [f"rhat_{a}" for a in range(k)]
            )
            for i in range(config["trajectories"]):
                tables[f"trace_{i:04d}.csv"] = (header, t)
        return tables
    if mode == "oracles":
        return {"oracles.csv": (["check", "status", "detail"], len(ORACLE_CHECKS))}
    deltas = {0.1, 0.05, 0.01} | {config["delta"]}
    return {
        "compare_concentration.csv": (
            [
                "profile", "n_steps", "delta", "azuma_alt", "hoeffding_azuma",
                "alt_over_classical", "equal_range_ratio", "abs_sum_q50",
                "abs_sum_q95", "abs_sum_max", "coverage_alt", "coverage_classical",
            ],
            2 * 4 * len(deltas),
        )
    }


def output_names(mode: str, config: dict) -> list[str]:
    return sorted(expected_tables(mode, config)) + ["manifest.json"]


def output_digests(mode: str, config: dict, outdir: Path) -> dict[str, str]:
    """SHA-256 of every expected output that exists."""
    digests = {}
    for name in output_names(mode, config):
        path = outdir / name
        if path.is_file():
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check(
    mode: str,
    config: dict,
    outdir: Path,
    returncode: int,
    stdout: str,
    reference: dict[str, str] | None = None,
) -> list[str]:
    """Every way the campaign's outputs are wrong; empty when they are right."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    statuses = {}
    for line in stdout.splitlines():
        match = _ORACLE_LINE.match(line)
        if match:
            statuses[match.group(1)] = match.group(2)
    failed = sorted(name for name, status in statuses.items() if status == "FAIL")
    if failed:
        problems.append(f"oracle FAIL lines: {failed}")
    if mode == "oracles" and sorted(statuses) != sorted(ORACLE_CHECKS):
        problems.append(f"oracle lines {sorted(statuses)} != {sorted(ORACLE_CHECKS)}")

    tables = {}
    for name, (header, n_rows) in expected_tables(mode, config).items():
        path = outdir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        try:
            rows = _read_rows(path)
        except (UnicodeDecodeError, csv.Error) as exc:
            problems.append(f"{name} unreadable: {exc}")
            continue
        if not rows or rows[0] != header:
            problems.append(f"{name} header {rows[0] if rows else None} != {header}")
        elif len(rows) - 1 != n_rows:
            problems.append(f"{name} has {len(rows) - 1} rows, expected {n_rows}")
        elif any(len(r) != len(header) for r in rows):
            problems.append(f"{name} has a row of the wrong width")
        else:
            tables[name] = [dict(zip(header, r)) for r in rows[1:]]

    manifest = outdir / "manifest.json"
    if not manifest.is_file():
        problems.append("manifest.json missing")
    else:
        try:
            recorded = json.loads(manifest.read_text()).get("config")
        except (json.JSONDecodeError, UnicodeDecodeError, AttributeError) as exc:
            problems.append(f"manifest.json unreadable: {exc}")
        else:
            expected = expected_manifest_config(mode, config)
            if recorded != expected:
                problems.append(f"manifest config {recorded} != requested {expected}")

    if "coverage.csv" in tables:
        for row in tables["coverage.csv"]:
            try:
                rate = int(row["violated"]) / int(row["trajectories"])
                nominal = float(row["nominal_delta"])
            except (ValueError, ZeroDivisionError):
                problems.append(f"coverage.csv row unparsable: {row}")
                continue
            if rate > nominal:
                problems.append(f"{row['bound']} violation rate {rate} exceeds delta {nominal}")
    if mode == "oracles" and "oracles.csv" in tables:
        csv_status = {r["check"]: r["status"].upper() for r in tables["oracles.csv"]}
        if csv_status != statuses:
            problems.append(f"oracles.csv statuses {csv_status} != stdout {statuses}")

    if reference is not None:
        digests = output_digests(mode, config, outdir)
        changed = sorted(n for n in reference if digests.get(n) != reference[n])
        if changed:
            problems.append(f"outputs differ from the reference run: {changed}")
    return problems
