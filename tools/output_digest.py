"""Digest the output files of the benchmark's workloads.

    python3 tools/output_digest.py [--workloads NAME ...] [--seeds N ...]

Runs from the root of a checkout. Each run is one
``perfbench.workloads.settings`` config through
``fedmvc.cli.run_experiment`` in a temporary directory, with BLAS pinned to
one thread as the benchmark pins it. Prints one line per run: the sha256 of
``metrics.csv``, of ``model.ckpt`` and of the ``rounds`` of
``summary.json`` (the rest of the summary holds the wall time). Two
checkouts that print the same lines wrote byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import PINNED_ENV  # noqa: E402  (imports no numpy)
from perfbench.workloads import WORKLOADS, settings  # noqa: E402

os.environ.update(PINNED_ENV)  # before numpy is first imported


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(overrides: dict) -> str:
    """Run one config and return ``metrics.csv``, ``model.ckpt`` and
    ``summary.json`` rounds digests as one line."""
    from fedmvc.cli import run_experiment
    from fedmvc.config import ExperimentConfig

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        run_experiment(ExperimentConfig(**{**overrides, "output_dir": str(out)}))
        rounds = json.loads((out / "summary.json").read_text(encoding="utf-8"))["rounds"]
        return (f"metrics.csv={sha256((out / 'metrics.csv').read_bytes())} "
                f"model.ckpt={sha256((out / 'model.ckpt').read_bytes())} "
                f"rounds={sha256(json.dumps(rounds, sort_keys=True).encode())}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 7])
    args = parser.parse_args(argv)
    for workload in args.workloads:
        for seed in args.seeds:
            line = digest(settings(workload, seed, output_dir=""))
            print(f"{workload} seed={seed} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
