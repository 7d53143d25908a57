"""One small campaign of each benchmark workload, judged by the benchmark's
own correctness gate, so that a change that breaks a header, a row count, a
manifest key or an ``oracle`` line fails here and not only in the benchmark.

The benchmark's files are only imported here, never changed.
"""

import sys
from pathlib import Path

import pytest

from banditbounds.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gate  # noqa: E402
import run  # noqa: E402

# The workloads' sizes cut down; K, the means, the reward kind and
# --store-traces stay as the workloads set them.
_SMALL = {
    "horizon": 60, "trajectories": 3, "chain_count": 5, "probe_count": 200, "walk_trials": 100, "walk_steps": 8,
}

_CAMPAIGNS = [(name, mode, base) for name, steps in run.WORKLOADS.items() for mode, base in steps]


@pytest.mark.parametrize(
    "workload, mode, base", _CAMPAIGNS, ids=[f"{name}-{mode}" for name, mode, _ in _CAMPAIGNS]
)
def test_small_campaign_passes_the_gate(workload, mode, base, tmp_path, capsys):
    small = {key: _SMALL.get(key, value) for key, value in base.items()}
    assert small.keys() == base.keys() and small != base
    config = run.Bench(seed=0).config(small)
    code = main(run.campaign_args(mode, config) + ["--outdir", str(tmp_path)])
    assert gate.check(mode, config, tmp_path, code, capsys.readouterr().out) == []
