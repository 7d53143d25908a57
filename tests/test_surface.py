"""The public surface against what reads it: the benchmark's imports and
traced entry points, and the README's Layout table; and the one count rule
every entry point applies.

The benchmark files are only read here, never changed or run.
"""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import banditbounds
from banditbounds import (
    DependentChainSpec,
    Environment,
    ExperimentConfig,
    azuma_alt_bound,
    bernoulli_convex_expectation,
    bernoulli_kl_moment,
    convex_test_functions,
    harness,
    kl_budget,
    midpoint_convexity_probe,
    random_constant_mean_chain,
    regret_envelope,
    reward_gap_radius,
    run_game,
    simulate_profile_walks,
    weighted_gap_bound_opt,
)

ROOT = Path(__file__).resolve().parent.parent

# Traced names the harness already lacks: their spans read 0 and the
# benchmark lists them as untraced entry points.
_UNTRACED = {"run_game", "regret_envelope"}


def _parse(relative: str) -> ast.Module:
    return ast.parse((ROOT / relative).read_text())


def test_benchmark_imports_exist():
    names = {
        alias.name
        for node in ast.walk(_parse("perfbench/micro.py"))
        if isinstance(node, ast.ImportFrom) and node.module == "banditbounds"
        for alias in node.names
    }
    assert names >= {
        "Environment", "certificate_sweep", "kl_lower_inverse", "kl_upper_inverse", "run_game",
        "trajectory_stream",
    }
    assert sorted(n for n in names if not hasattr(banditbounds, n)) == []


def test_traced_entry_points_stay_on_the_harness():
    (traced,) = (
        ast.literal_eval(node.value)
        for node in _parse("perfbench/child.py").body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    )
    assert ("certificate_sweep", "harness.certificate_sweep") in traced
    missing = {attr for attr, _ in traced if not hasattr(harness, attr)}
    assert missing <= _UNTRACED


def _layout_names() -> dict[str, set[str]]:
    """Module name -> the identifiers its Layout row names in backticks."""
    section = (ROOT / "README.md").read_text().split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        row = re.fullmatch(r"\| `banditbounds\.(\w+)` \| (.*) \|", line)
        if row:
            rows[row[1]] = {s for s in re.findall(r"`([^`]+)`", row[2]) if s.isidentifier()}
    return rows


def test_readme_layout_names_the_public_surface():
    rows = _layout_names()
    assert set(rows) == {"divergences", "concentration", "bandit", "bounds", "harness", "cli"}
    for module, names in rows.items():
        assert names == set(importlib.import_module(f"banditbounds.{module}").__all__), module
    exported = set().union(*(names for module, names in rows.items() if module != "cli"))
    assert exported == set(banditbounds.__all__)


_ENV = Environment(means=np.array([0.7, 0.2]))

# Each entry point that takes a count, as a function of that count, and a
# count it accepts.
_COUNTS = {
    "run_game.horizon": (lambda n: run_game(_ENV, n, 0).actions, 5),
    "run_game.warmup_length": (lambda n: run_game(_ENV, 12, 0, warmup_length=n).pi, 10),
    "kl_budget.t": (lambda n: kl_budget(0.0, n, 0.05), 3),
    "reward_gap_radius.t": (lambda n: reward_gap_radius(0.0, n, 0.05, 0.5), 3),
    "weighted_gap_bound_opt.t": (lambda n: weighted_gap_bound_opt(0.0, n, 0.05, np.full(3, 0.5)), 3),
    "regret_envelope.n_arms": (lambda n: regret_envelope(n, 30, 0.05), 3),
    "regret_envelope.t": (lambda n: regret_envelope(2, n, 0.05), 9),
    "bernoulli_kl_moment.length": (lambda n: bernoulli_kl_moment(n, 0.3), 4),
    "bernoulli_convex_expectation.length": (
        lambda n: bernoulli_convex_expectation(n, 0.3, lambda xs: xs.sum(axis=1) ** 2), 4
    ),
    "DependentChainSpec.length": (lambda n: DependentChainSpec.iid_bernoulli(n, 0.3).path_probs, 3),
    "DependentChainSpec.constant.length": (lambda n: DependentChainSpec.constant(n, 0.3).path_values, 3),
    "convex_test_functions.length": (
        lambda n: [f(np.full((2, 3), 0.3)) for _, f in convex_test_functions(n, 0.4)], 3
    ),
    "midpoint_convexity_probe.length": (lambda n: midpoint_convexity_probe(lambda xs: xs.sum(axis=1) ** 2, n), 3),
    "random_constant_mean_chain.length": (
        lambda n: random_constant_mean_chain(n, np.random.default_rng(4)).path_probs, 3
    ),
    "azuma_alt_bound.n_steps": (lambda n: azuma_alt_bound(n, -1.0, 1.0, 0.05), 7),
    "simulate_profile_walks.trials": (lambda n: simulate_profile_walks([[1.0, 2.0]], n, 0), 3),
    "ExperimentConfig.horizon": (lambda n: ExperimentConfig(mode="simulate", horizon=n).validate(), 5),
}


@pytest.mark.parametrize("entry", sorted(_COUNTS))
def test_counts_are_integers_never_truncated(entry):
    call, good = _COUNTS[entry]
    for bad in (2.5, True):
        with pytest.raises(ValueError):
            call(bad)
    assert np.array_equal(call(np.int64(good)), call(good))
