"""Alternating before/after pairs of the benchmark, and whether a gain holds.

    python3 tools/bench_pairs.py --parent DIR --change DIR
        --workload NAME [NAME ...] --seeds N [N ...] --seconds S --out FILE

Runs the unchanged ``perfbench/run.py --trace 0`` of two checkouts of the
repository, one pair of runs per workload and seed. The checkout that runs
first alternates from one seed to the next, so a drift in the machine's
speed falls on both sides alike.

FILE gets one JSON object. It records ``cpus``, how many CPUs the runs
could use (this process's affinity, which the runs inherit). For each
workload and each end-to-end metric of
the change's ``BENCHMARK.json``, it holds both sides' median and quartiles,
the change's wins and ties over the pairs (a win is a value better in the
metric's direction), ``holds``: whether the change wins at least 9 of
every 10 pairs and its median is better than the parent's by more than the
parent's interquartile range, and ``regressed``: whether the change's
median is worse than the parent's by more than the metric's ``bound``, as
a share of the parent's median (always true when the change reported no
run). Each workload's metrics are also printed, one line each, to stdout.
Every run is listed as ``perfbench/run.py`` reported it, plus ``loadavg``:
the machine's 1, 5 and 15 minute load averages before and after it. A
run with
``correct: false`` or ``failed > 0`` is kept and also named under
``flagged``; a run that printed no result is named there with its exit
code, and its pair counts as no win.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its JSON result, or
    ``{"exit_code": ...}`` when it printed none, with the load averages
    before and after it under ``loadavg``."""
    before = os.getloadavg()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        result = {"exit_code": proc.returncode}
    result["loadavg"] = {"before": list(before), "after": list(os.getloadavg())}
    return result


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(pairs: list[dict], spec: list[dict]) -> dict:
    """Per metric: each side's quartiles over the runs that reported, the
    change's wins and ties, whether its gain holds over all pairs and
    whether it regressed beyond the metric's bound."""
    out = {}
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs
                        if "metrics" in p[side]] for side in ("parent", "change")}
        entry = {side: dict(zip(("q1", "median", "q3"), quartiles(values)))
                 for side, values in sides.items() if values}
        wins = ties = 0
        for p in pairs:
            if "metrics" in p["parent"] and "metrics" in p["change"]:
                a = p["parent"]["metrics"][name]["value"]
                b = p["change"]["metrics"][name]["value"]
                ties += a == b
                wins += b < a if lower else b > a
        entry.update(unit=metric["unit"], better=metric["better"], pairs=len(pairs),
                     wins=wins, ties=ties, holds=False, regressed="change" not in entry)
        if "parent" in entry and "change" in entry:
            parent, change = entry["parent"], entry["change"]
            gain = (parent["median"] - change["median"]) * (1 if lower else -1)
            entry["holds"] = (wins >= WIN_SHARE * len(pairs)
                              and gain > parent["q3"] - parent["q1"])
            entry["regressed"] = -gain > metric["bound"] * abs(parent["median"])
        out[name] = entry
    return out


def summary_line(workload: str, name: str, entry: dict) -> str:
    """One metric of one workload: both medians, the change in %, wins,
    ``holds`` and ``regressed``."""
    parent, change = (entry.get(side, {}).get("median") for side in ("parent", "change"))
    shown = " -> ".join("none" if m is None else f"{m:.4g}" for m in (parent, change))
    pct = (f"{(change - parent) / abs(parent) * 100:+.1f} %"
           if parent and change is not None else "n/a")
    return (f"{workload} {name}: {shown} {entry['unit']} ({pct}), "
            f"wins {entry['wins']}/{entry['pairs']}, holds {entry['holds']}, "
            f"regressed {entry['regressed']}")


def flagged(pairs: list[dict]) -> list[str]:
    out = []
    for p in pairs:
        for side in ("parent", "change"):
            run = p[side]
            where = f"seed {p['seed']} {side}"
            if "exit_code" in run:
                out.append(f"{where}: no result, exit code {run['exit_code']}")
            elif not run.get("correct") or run.get("failed", 0) > 0:
                out.append(f"{where}: correct={run.get('correct')} "
                           f"failed={run.get('failed')}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = {"seeds": args.seeds, "seconds": args.seconds,
              "cpus": len(os.sched_getaffinity(0)), "workloads": {}}
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(getattr(args, side), workload, seed, args.seconds)
            pairs.append(pair)
            print(f"{workload} seed {seed} done", file=sys.stderr)
        report["workloads"][workload] = {
            "metrics": summarize(pairs, spec["end_to_end"]),
            "flagged": flagged(pairs),
            "pairs": pairs,
        }
        for name, entry in report["workloads"][workload]["metrics"].items():
            print(summary_line(workload, name, entry), flush=True)
        for line in report["workloads"][workload]["flagged"]:
            print(f"FLAGGED {workload} {line}", file=sys.stderr)
        # after each workload, so an interrupted run keeps what it measured
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
