"""``tools/output_digest.py --expect``: the comparison of printed lines with
a file's, without running a workload."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("output_digest_under_test", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LINES = ["acceptance seed=1 metrics.csv=aa model.ckpt=bb rounds=cc",
         "acceptance seed=7 metrics.csv=dd model.ckpt=ee rounds=ff"]


class TestFirstDifference:
    def test_same_lines_match(self, tool):
        assert tool.first_difference(LINES, list(LINES)) is None
        assert tool.first_difference([], []) is None

    def test_names_the_first_differing_line(self, tool):
        changed = [LINES[0].replace("bb", "b0"), LINES[1].replace("ff", "f0")]
        message = tool.first_difference(changed, LINES)
        assert message.startswith("line 1 differs")
        assert LINES[0] in message and changed[0] in message
        assert LINES[1] not in message
        assert tool.first_difference([LINES[0], changed[1]], LINES).startswith("line 2")

    @pytest.mark.parametrize("printed,expected", [(LINES[:1], LINES),
                                                  (LINES, LINES[:1])])
    def test_a_missing_line_differs(self, tool, printed, expected):
        message = tool.first_difference(printed, expected)
        assert message.startswith("line 2 differs") and "(no line)" in message


class TestExpect:
    @pytest.fixture()
    def fake_runs(self, tool, monkeypatch):
        for key, value in tool.PINNED_ENV.items():
            monkeypatch.setenv(key, value)  # restored after the test
        monkeypatch.setattr(tool, "digest", lambda overrides: f"seed={overrides['seed']}")

    def run(self, tool, tmp_path, expected_text):
        expect = tmp_path / "expected.txt"
        expect.write_text(expected_text, encoding="utf-8")
        return tool.main(["--workloads", "acceptance", "--seeds", "1", "7",
                          "--expect", str(expect)])

    def test_exit_0_when_every_line_matches(self, tool, fake_runs, tmp_path, capsys):
        text = "acceptance seed=1 seed=1\nacceptance seed=7 seed=7\n"
        assert self.run(tool, tmp_path, text) == 0
        out = capsys.readouterr()
        assert out.out == text
        assert "all 2 lines match" in out.err

    def test_exit_1_naming_the_line(self, tool, fake_runs, tmp_path, capsys):
        assert self.run(tool, tmp_path,
                        "acceptance seed=1 seed=1\nacceptance seed=7 seed=8\n") == 1
        err = capsys.readouterr().err
        assert "line 2 differs" in err and "seed=8" in err
