"""Digest the output files of the benchmark's workloads.

    python3 tools/output_digest.py [--workloads NAME ...] [--seeds N ...]
                                   [--expect FILE]

Runs from the root of a checkout. Each run is one
``perfbench.workloads.settings`` config through
``fedmvc.cli.run_experiment`` in a temporary directory, with BLAS pinned to
one thread as the benchmark pins it. Prints one line per run: the sha256 of
``metrics.csv``, of ``model.ckpt`` and of the ``rounds`` of
``summary.json`` (the rest of the summary holds the wall time), then of
each round checkpoint a run wrote. Two checkouts that print the same lines
wrote byte-identical output.

With ``--expect FILE`` (the lines another checkout printed, say), the
printed lines are compared with FILE's: the exit code is 1, naming the
first line that differs, or 0 when every line matches.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import PINNED_ENV  # noqa: E402  (imports no numpy)
from perfbench.workloads import WORKLOADS, settings  # noqa: E402


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(overrides: dict) -> str:
    """Run one config and return ``metrics.csv``, ``model.ckpt`` and
    ``summary.json`` rounds digests as one line, followed by one for each
    round checkpoint (``checkpoint_every``) in round order."""
    from fedmvc.cli import run_experiment
    from fedmvc.config import ExperimentConfig

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        run_experiment(ExperimentConfig(**{**overrides, "output_dir": str(out)}))
        rounds = json.loads((out / "summary.json").read_text(encoding="utf-8"))["rounds"]
        fields = [f"metrics.csv={sha256((out / 'metrics.csv').read_bytes())}",
                  f"model.ckpt={sha256((out / 'model.ckpt').read_bytes())}",
                  f"rounds={sha256(json.dumps(rounds, sort_keys=True).encode())}"]
        fields += [f"{ckpt.name}={sha256(ckpt.read_bytes())}"
                   for ckpt in sorted(out.glob("round_*.ckpt"))]
        return " ".join(fields)


def first_difference(printed: Sequence[str], expected: Sequence[str]) -> str | None:
    """The first line where ``printed`` and ``expected`` differ, described,
    or None when they hold the same lines."""
    for n, (got, want) in enumerate(itertools.zip_longest(printed, expected),
                                    start=1):
        if got != want:
            got, want = ("(no line)" if x is None else x for x in (got, want))
            return f"line {n} differs:\n  expected {want}\n  printed  {got}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 7])
    parser.add_argument("--expect", type=Path, metavar="FILE",
                        help="exit 1 unless the printed lines are FILE's")
    args = parser.parse_args(argv)
    expected = (args.expect.read_text(encoding="utf-8").splitlines()
                if args.expect else None)
    os.environ.update(PINNED_ENV)  # before numpy is first imported
    printed = []
    for workload in args.workloads:
        for seed in args.seeds:
            line = digest(settings(workload, seed, output_dir=""))
            printed.append(f"{workload} seed={seed} {line}")
            print(printed[-1], flush=True)
    if expected is None:
        return 0
    difference = first_difference(printed, expected)
    if difference is not None:
        print(f"{args.expect}: {difference}", file=sys.stderr)
        return 1
    print(f"{args.expect}: all {len(printed)} lines match", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
