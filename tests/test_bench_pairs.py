"""``tools/bench_pairs.py`` against two stub checkouts whose
``perfbench/run.py`` prints canned results."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

SPEC = {"end_to_end": [
    {"name": "eval_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "acc", "unit": "fraction", "better": "higher", "bound": 0.05},
]}

# eval_s is 2.0 + seed/100 in the parent and `eval_s` + seed/100 in the
# change; acc is the same on both sides. Every run appends its name and seed
# to the log one directory up, so the order of the runs can be read back.
STUB = """
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
here = Path(__file__).resolve().parents[1]
with open(here.parent / "log.txt", "a") as log:
    log.write(f"{here.name} {args['--workload']} {seed} {args['--seconds']}\\n")
if seed in CRASH:
    sys.exit(3)
print("progress line")
print(json.dumps({"correct": seed not in WRONG, "attempted": 4, "failed": 0,
                  "metrics": {"eval_s": {"value": EVAL_S + seed / 100, "unit": "s"},
                              "acc": {"value": 1.0, "unit": "fraction"}}}))
"""


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs_under_test", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root: Path, name: str, eval_s: float, wrong=(), crash=()) -> Path:
    path = root / name
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(
        STUB.replace("EVAL_S", repr(eval_s)).replace("WRONG", repr(tuple(wrong)))
        .replace("CRASH", repr(tuple(crash))))
    (path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return path


def run(tool, tmp_path, parent, change, seeds, workloads=("large-pool",)):
    out = tmp_path / "pairs.json"
    assert tool.main(["--parent", str(parent), "--change", str(change),
                      "--workload", *workloads, "--seeds", *map(str, seeds),
                      "--seconds", "3", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_alternates_which_side_runs_first(tool, tmp_path):
    parent = checkout(tmp_path, "parent", 2.0)
    change = checkout(tmp_path, "change", 1.0)
    run(tool, tmp_path, parent, change, [11, 12, 13], ("acceptance", "large-pool"))
    log = (tmp_path / "log.txt").read_text().split("\n")[:-1]
    assert log == [f"{name} {w} {seed} 3.0" for w in ("acceptance", "large-pool")
                   for seed, pair in zip((11, 12, 13), [("parent", "change"),
                                                        ("change", "parent"),
                                                        ("parent", "change")])
                   for name in pair]


def test_a_clear_gain_holds(tool, tmp_path):
    seeds = list(range(1, 11))
    report = run(tool, tmp_path, checkout(tmp_path, "parent", 2.0),
                 checkout(tmp_path, "change", 1.0), seeds)
    entry = report["workloads"]["large-pool"]["metrics"]["eval_s"]
    assert (entry["wins"], entry["ties"], entry["pairs"]) == (10, 0, 10)
    assert entry["parent"]["median"] == pytest.approx(2.055)
    assert entry["change"]["median"] == pytest.approx(1.055)
    assert entry["parent"]["q3"] - entry["parent"]["q1"] == pytest.approx(0.045)
    assert entry["holds"] is True
    acc = report["workloads"]["large-pool"]["metrics"]["acc"]
    assert (acc["wins"], acc["ties"], acc["holds"]) == (0, 10, False)
    assert report["workloads"]["large-pool"]["flagged"] == []
    assert [p["seed"] for p in report["workloads"]["large-pool"]["pairs"]] == seeds


def test_a_gain_inside_the_spread_does_not_hold(tool, tmp_path):
    # the change is 0.03 faster in every pair, less than the parent's IQR
    report = run(tool, tmp_path, checkout(tmp_path, "parent", 2.0),
                 checkout(tmp_path, "change", 1.97), range(1, 11))
    entry = report["workloads"]["large-pool"]["metrics"]["eval_s"]
    assert entry["wins"] == 10 and entry["holds"] is False


def test_eight_wins_of_ten_do_not_hold(tool, tmp_path):
    # seeds 1 and 2 crash in the change: those pairs are no wins
    report = run(tool, tmp_path, checkout(tmp_path, "parent", 2.0),
                 checkout(tmp_path, "change", 1.0, crash=(1, 2)), range(1, 11))
    workload = report["workloads"]["large-pool"]
    entry = workload["metrics"]["eval_s"]
    assert entry["wins"] == 8 and entry["pairs"] == 10 and entry["holds"] is False
    assert workload["flagged"] == ["seed 1 change: no result, exit code 3",
                                   "seed 2 change: no result, exit code 3"]


def test_incorrect_runs_are_kept_and_flagged(tool, tmp_path):
    report = run(tool, tmp_path, checkout(tmp_path, "parent", 2.0, wrong=(2,)),
                 checkout(tmp_path, "change", 1.0), [1, 2, 3])
    workload = report["workloads"]["large-pool"]
    assert workload["flagged"] == ["seed 2 parent: correct=False failed=0"]
    assert workload["metrics"]["eval_s"]["wins"] == 3
    assert workload["pairs"][1]["parent"]["correct"] is False


def test_a_slowdown_beyond_the_bound_regressed(tool, tmp_path, capsys):
    # 2.055 -> 3.055 s is +48.7 %, over eval_s's 0.25 bound; acc ties
    report = run(tool, tmp_path, checkout(tmp_path, "parent", 2.0),
                 checkout(tmp_path, "change", 3.0), range(1, 11))
    metrics = report["workloads"]["large-pool"]["metrics"]
    assert metrics["eval_s"]["regressed"] is True
    assert metrics["acc"]["regressed"] is False
    assert capsys.readouterr().out.splitlines() == [
        "large-pool eval_s: 2.055 -> 3.055 s (+48.7 %), wins 0/10, "
        "holds False, regressed True",
        "large-pool acc: 1 -> 1 fraction (+0.0 %), wins 0/10, "
        "holds False, regressed False",
    ]


def test_a_slowdown_inside_the_bound_is_clean(tool, tmp_path, capsys):
    # 2.055 -> 2.355 s is +14.6 %, inside the 0.25 bound
    report = run(tool, tmp_path, checkout(tmp_path, "parent", 2.0),
                 checkout(tmp_path, "change", 2.3), range(1, 11))
    metrics = report["workloads"]["large-pool"]["metrics"]
    assert metrics["eval_s"]["regressed"] is False
    assert metrics["acc"]["regressed"] is False
    assert "eval_s: 2.055 -> 2.355 s (+14.6 %)" in capsys.readouterr().out


def test_records_the_usable_cpus_and_the_load_around_each_run(tool, tmp_path):
    report = run(tool, tmp_path, checkout(tmp_path, "parent", 2.0),
                 checkout(tmp_path, "change", 1.0, crash=(2,)), [1, 2])
    assert report["cpus"] == len(os.sched_getaffinity(0))
    runs = [p[side] for p in report["workloads"]["large-pool"]["pairs"]
            for side in ("parent", "change")]
    assert len(runs) == 4 and runs[3] == {"exit_code": 3, "loadavg": runs[3]["loadavg"]}
    for r in runs:
        assert set(r["loadavg"]) == {"before", "after"}
        for when in ("before", "after"):
            assert len(r["loadavg"][when]) == 3
            assert all(isinstance(x, float) and x >= 0 for x in r["loadavg"][when])
