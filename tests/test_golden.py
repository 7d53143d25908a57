"""The golden set: SHA-256 of every file a fixed set of small campaigns
writes, pinned in ``golden.json``.

A change that must keep the campaigns' bytes keeps these digests.  A change
that moves bytes on purpose edits ``golden.json`` in the same commit.  Each
manifest is hashed with its ``version`` line masked, so a version bump moves
no digest.  The digests depend on numpy's generators and float formatting.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from banditbounds.cli import main

# Each campaign's CLI arguments, and the worker counts it runs at: every one
# must write the same files.
CAMPAIGNS = {
    "simulate-k3-beta-traces": (
        ["simulate", "--n-arms", "3", "--reward-kind", "beta", "--trajectories", "6",
         "--horizon", "2000", "--store-traces"],
        (1,),
    ),
    "simulate-k2-point-warmup": (
        ["simulate", "--reward-kind", "point", "--trajectories", "20", "--horizon", "500",
         "--warmup-length", "100"],
        (1,),
    ),
    "simulate-k8-bernoulli-traces": (
        ["simulate", "--n-arms", "8", "--trajectories", "5", "--horizon", "600", "--store-traces"],
        (1,),
    ),
    "verify-bounds-k2-bernoulli": (
        ["verify-bounds", "--trajectories", "50", "--horizon", "2000"],
        (1, 2),
    ),
    "verify-bounds-k3-beta": (
        ["verify-bounds", "--n-arms", "3", "--reward-kind", "beta", "--trajectories", "40",
         "--horizon", "1500"],
        (1,),
    ),
}

GOLDEN = Path(__file__).with_name("golden.json")


def digests(outdir: Path) -> dict:
    """SHA-256 of every file in ``outdir`` by name, manifest.json's version masked."""
    out = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = re.sub(rb'"version": "[^"]*"', b'"version": ""', data)
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out


def campaign_digests(name: str, workers: int, outdir: Path) -> dict:
    argv, _ = CAMPAIGNS[name]
    assert main([*argv, "--workers", str(workers), "--outdir", str(outdir)]) == 0
    return digests(outdir)


@pytest.mark.parametrize(
    "name, workers", [(name, w) for name, (_, workers) in CAMPAIGNS.items() for w in workers]
)
def test_campaign_keeps_its_bytes(tmp_path, name, workers):
    expected = json.loads(GOLDEN.read_text())[name]
    got = campaign_digests(name, workers, tmp_path)
    assert sorted(got) == sorted(expected), name
    for file, digest in expected.items():
        assert got[file] == digest, (name, workers, file)


if __name__ == "__main__":
    # Print the golden set of this tree, in golden.json's form.
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {name: campaign_digests(name, 1, Path(tmp) / name) for name in CAMPAIGNS}
    print(json.dumps(table, indent=2, sort_keys=True))
