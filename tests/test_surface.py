"""The public surface against what reads it: the benchmark's imports and
traced entry points, and the README's Layout table.

The benchmark files are only read here, never changed or run.
"""

import ast
import importlib
import re
from pathlib import Path

import banditbounds
from banditbounds import harness

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
