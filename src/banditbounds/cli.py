"""Command-line front end: one subcommand per experiment mode.

Flags mirror the config fields one to one; an optional JSON config file
may set the fields of the chosen subcommand, and explicit flags override
it.  Exit status: 0 on success, 1 when the oracle suite reports a
contractual failure, 2 on an invalid configuration or an unusable output
directory.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bandit import REWARD_KINDS
from .harness import (
    MODE_FIELDS,
    ExperimentConfig,
    _ensure_outdir,
    run_compare_concentration,
    run_oracles,
    run_simulate,
    run_verify_bounds,
)

__all__ = ["build_parser", "main"]

_RUNNERS = {
    "simulate": run_simulate,
    "verify-bounds": run_verify_bounds,
    "oracles": run_oracles,
    "compare-concentration": run_compare_concentration,
}


def _parse_means(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"means must be comma-separated numbers, got {text!r}"
        ) from None


# The add_argument keywords of each config field's flag, --n-arms for n_arms.
_FLAGS = {
    "delta": dict(type=float, help="confidence level in (0, 1)"),
    "seed": dict(type=int, help="master seed"),
    "outdir": dict(help="output directory"),
    "workers": dict(type=int, help="worker processes for verify-bounds; other modes run in one process"),
    "n_arms": dict(type=int, help="number of arms K"),
    "horizon": dict(type=int, help="rounds per trajectory"),
    "trajectories": dict(type=int, help="number of trajectories M"),
    "means": dict(type=_parse_means, help='comma-separated arm means, e.g. "0.9,0.1" (default: evenly spread)'),
    "reward_kind": dict(choices=REWARD_KINDS),
    "warmup_length": dict(type=int, help="uniform warmup rounds (default K^3); any value up to K^3 "
                          "plays the default game, a longer one extends the warmup"),
    "store_traces": dict(action="store_true", default=None, help="dump one CSV per trajectory"),
    "chain_count": dict(type=int, help="random dependent chains to enumerate"),
    "probe_count": dict(type=int, help="random probes for the ratio check"),
    "walk_trials": dict(type=int, help="simulated walks per profile"),
    "walk_steps": dict(type=int, help="base step count (the grid scales it 1/4x to 16x)"),
}
_HELP = {
    "simulate": "play the smoothed Gibbs strategy; emit regret quantiles vs the envelope",
    "verify-bounds": "check both bound routes at every round; report trajectory coverage",
    "oracles": "exact enumeration and identity suites",
    "compare-concentration": "tabulate the two martingale tail bounds across range profiles",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banditbounds",
        description="Seeded experiment runner for the bandit bound toolkit.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, fields in MODE_FIELDS.items():
        p = sub.add_parser(mode, help=_HELP[mode])
        p.add_argument("--config", help="JSON file of config fields; explicit flags override it")
        for name in ("delta", "seed", "outdir", "workers", *fields):
            p.add_argument("--" + name.replace("_", "-"), **_FLAGS[name])
    return parser


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    # The namespace holds the mode and exactly the subcommand's fields, each
    # None unless given on the command line; a file may set only the fields.
    flags = {name: value for name, value in vars(args).items() if name != "config"}
    values: dict = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(loaded) - (set(flags) - {"mode"})
        if unknown:
            raise ValueError(f"unknown config keys for {args.mode}: {sorted(unknown)}")
        values.update(loaded)
    values.update((name, value) for name, value in flags.items() if value is not None)
    if isinstance(values.get("means"), list):
        values["means"] = tuple(values["means"])  # validate() checks the entries
    return ExperimentConfig(**values)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        cfg.validate()
        _ensure_outdir(cfg)
    except (TypeError, ValueError, OSError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    result = _RUNNERS[cfg.mode](cfg)
    if cfg.mode == "oracles" and not result.passed:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
