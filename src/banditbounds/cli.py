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

from .harness import (
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", help="JSON file of config fields; explicit flags override it"
    )
    parser.add_argument("--delta", type=float, help="confidence level in (0, 1)")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--outdir", help="output directory")
    parser.add_argument(
        "--workers", type=int, help="worker processes for trajectory sweeps"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banditbounds",
        description="Seeded experiment runner for the bandit bound toolkit.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    sim = sub.add_parser(
        "simulate",
        help="play the smoothed Gibbs strategy; emit regret quantiles vs the envelope",
    )
    ver = sub.add_parser(
        "verify-bounds",
        help="check both bound routes at every round; report trajectory coverage",
    )
    for p in (sim, ver):
        _add_common(p)
        p.add_argument("--n-arms", type=int, help="number of arms K")
        p.add_argument("--horizon", type=int, help="rounds per trajectory")
        p.add_argument("--trajectories", type=int, help="number of trajectories M")
        p.add_argument(
            "--means",
            type=_parse_means,
            help='comma-separated arm means, e.g. "0.9,0.1" (default: evenly spread)',
        )
        p.add_argument("--reward-kind", choices=("bernoulli", "point", "beta"))
        p.add_argument(
            "--warmup-length",
            type=int,
            help="uniform warmup rounds (default K^3); any value up to K^3 "
            "plays the default game, a longer one extends the warmup",
        )
    sim.add_argument(
        "--store-traces",
        action="store_true",
        default=None,
        help="dump one CSV per trajectory",
    )

    orc = sub.add_parser("oracles", help="exact enumeration and identity suites")
    _add_common(orc)
    orc.add_argument(
        "--chain-count", type=int, help="random dependent chains to enumerate"
    )
    orc.add_argument(
        "--probe-count", type=int, help="random probes for the ratio check"
    )

    cmp_ = sub.add_parser(
        "compare-concentration",
        help="tabulate the two martingale tail bounds across range profiles",
    )
    _add_common(cmp_)
    cmp_.add_argument("--walk-trials", type=int, help="simulated walks per profile")
    cmp_.add_argument(
        "--walk-steps", type=int, help="base step count (the grid scales it 1/4x to 16x)"
    )
    return parser


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    # The namespace holds exactly the subcommand's fields, each None unless
    # given on the command line (the mode is always given).
    flags = {name: value for name, value in vars(args).items() if name != "config"}
    values: dict = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(loaded) - set(flags)
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
