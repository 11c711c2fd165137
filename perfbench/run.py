"""The fedmvc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout of the repository. Each run starts fresh
child processes (``perfbench/child.py``) of one workload with master seed N,
one after another, until S seconds have passed, and always at least two.
Every child must write a byte-identical ``metrics.csv``. With ``--trace 0``
the last line of standard output is one JSON object with the end-to-end
metrics, each the median over the run's children; with ``--trace 1`` the
children are traced and the object holds the per-layer metrics instead.
``attempted`` counts rounds and evaluations; ``failed`` counts failed
output checks. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# fedmvc trains clients one after another, so a second BLAS thread only
# competes for the other core; with it, run times were measured bimodal.
# The variables must be set before numpy is imported, hence in the child's
# environment.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MIN_CHILDREN = 2
# A run must end within 180 s; no child starts after this many seconds.
LAST_START_S = 120.0
CHILD_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload: str, seed: int, run_dir: Path, spans: Path | None,
              env: dict, timeout: float) -> dict:
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--out", str(run_dir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "fedmvc" / "__init__.py").is_file():
        print(f"no fedmvc sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    env = child_env()
    # Compile and page in fedmvc and its imports once, untimed, so that the
    # first child's set-up does not include writing bytecode.
    subprocess.run([sys.executable, "-c", "import fedmvc.cli"], cwd=ROOT, env=env,
                   check=True, timeout=CHILD_TIMEOUT_S)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_root = OUT / tag
    started = time.monotonic()
    children = []
    try:
        while True:
            elapsed = time.monotonic() - started
            if len(children) >= MIN_CHILDREN and (
                    elapsed >= args.seconds or elapsed >= LAST_START_S):
                break
            k = len(children)
            spans = OUT / f"spans-{tag}-{k}.json" if args.trace else None
            children.append(run_child(args.workload, args.seed, run_root / str(k),
                                      spans, env, CHILD_TIMEOUT_S - elapsed))
        reference = Path(children[0]["csv"]).read_bytes()
        mismatched = [k for k, c in enumerate(children)
                      if Path(c["csv"]).read_bytes() != reference]
    finally:
        shutil.rmtree(run_root, ignore_errors=True)

    attempted = sum(c["attempted"] for c in children)
    failures = [msg for c in children for msg in c["failures"]]
    failures += [f"child {k}: metrics.csv differs from child 0's" for k in mismatched]
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    failed = min(sum(c["failed"] for c in children) + len(mismatched), attempted)

    def median(section: str, name: str) -> float:
        return statistics.median(c[section][name] for c in children)

    # BENCHMARK.json is the one list of metric names and units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section, listed = ("layers", "per_layer") if args.trace else ("metrics", "end_to_end")
    metrics = {m["name"]: {"value": median(section, m["name"]), "unit": m["unit"]}
               for m in spec[listed]}
    if args.trace:
        print(f"traced total_s median {median('metrics', 'total_s')!r} "
              f"over {len(children)} children", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
