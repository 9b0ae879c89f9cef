"""CLI tool tests (argument handling and end-to-end output)."""

import re

import pytest

from repro.backend import pycodegen
from repro.tools import bench as bench_tool
from repro.tools import disasm as disasm_tool
from repro.tools import run as run_tool
from repro.tools import stats as stats_tool
from repro.tools import trace as trace_tool
from repro.tools.common import method_argument

DEMO = """
object Main {
  def helper(x: int): int { return x * 3 + 1; }
  def run(): int {
    var acc: int = 0;
    var i: int = 0;
    while (i < 50) { acc = acc + Main.helper(i); i = i + 1; }
    return acc;
  }
}
"""


ARRAYS = """
object Main {
  def fill(i: int): int {
    var a: int[] = new int[8];
    a[3] = i;
    a[i] = 1;
    return a[3] + a[i];
  }
  def last(n: int): int {
    var a: int[] = new int[n];
    return a[0 - 1];
  }
}
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.minij"
    path.write_text(DEMO)
    return str(path)


class TestRunTool:
    def test_runs_and_prints_result(self, demo_file, capsys):
        assert run_tool.main([demo_file, "--iterations", "6", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "result: %d" % sum(3 * i + 1 for i in range(50)) in out
        assert "steady:" in out

    def test_interpret_only(self, demo_file, capsys):
        assert run_tool.main([demo_file, "--interpret-only", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 methods compiled" in out

    def test_each_inliner_choice(self, demo_file, capsys):
        for name in ("none", "greedy", "c2", "incremental", "shallow"):
            assert run_tool.main([demo_file, "--inliner", name, "--iterations", "4"]) == 0

    def test_bad_entry_format_rejected(self, demo_file):
        with pytest.raises(SystemExit):
            run_tool.main([demo_file, "--entry", "nodots"])


class TestTraceTool:
    def test_trace_output(self, demo_file, capsys):
        assert trace_tool.main([demo_file, "Main.run"]) == 0
        out = capsys.readouterr().out
        assert "round 1" in out
        assert "INLINE" in out
        assert "Main.helper" in out


class TestDisasmTool:
    def test_bytecode_form(self, demo_file, capsys):
        assert disasm_tool.main([demo_file, "--method", "Main.helper"]) == 0
        out = capsys.readouterr().out
        assert "MUL" in out and "RETV" in out

    def test_ir_form(self, demo_file, capsys):
        assert disasm_tool.main(
            [demo_file, "--method", "Main.run", "--form", "ir"]
        ) == 0
        out = capsys.readouterr().out
        assert "graph Main.run" in out and "Invoke" in out

    def test_machine_form(self, demo_file, capsys):
        assert disasm_tool.main(
            [demo_file, "--method", "Main.helper", "--form", "machine"]
        ) == 0
        out = capsys.readouterr().out
        assert "COST" in out

    def test_segments_form(self, demo_file, capsys):
        assert disasm_tool.main(
            [demo_file, "--method", "Main.run", "--form", "segments"]
        ) == 0
        out = capsys.readouterr().out
        segments = re.findall(
            r"^@(\d+) +cost (\d+) +\[(.*)\] (.+?)(?:  \(absorbs (.*)\))?$",
            out, re.M,
        )
        starts = [int(pc) for pc, _, _, _, _ in segments]
        assert starts[0] == 0 and starts == sorted(starts)
        assert any(int(cost) > 0 for _, cost, _, _, _ in segments)
        assert any(tail.startswith("BR ") for _, _, _, tail, _ in segments)
        assert any(tail.startswith("RETV ") for _, _, _, tail, _ in segments)
        # The loop's latch runs on through its back edge into the loop
        # header (a lower pc), and ends at the header's exit test.
        latches = [
            (int(pc), tail) for pc, _, _, tail, absorbs in segments
            if any(int(t[1:]) < int(pc) for t in absorbs.split())
        ]
        assert latches and all(tail.startswith("BR ") for _, tail in latches)
        # Each shape's maker source appears once, for every non-empty body.
        shapes = re.findall(r"^# shape: (.*)$", out, re.M)
        assert len(shapes) == len(set(shapes)) == out.count("def make(")
        assert set(shapes) == {body for _, _, body, _, _ in segments if body}
        assert "def body(regs, vm):" in out
        counts = re.search(
            r"^# (\d+) segments, (\d+) shapes, (\d+) instructions decoded "
            r"of (\d+)$", out, re.M,
        )
        assert counts is not None
        assert int(counts[1]) == len(segments) and int(counts[2]) == len(shapes)
        assert int(counts[3]) >= int(counts[4]) > 0

    def test_py_form(self, demo_file, capsys):
        assert disasm_tool.main(
            [demo_file, "--method", "Main.helper", "--form", "py"]
        ) == 0
        out = capsys.readouterr().out
        assert "def _run(args):" in out
        assert "_wrap(" in out

    def test_py_form_decides_constant_bounds(self, tmp_path, capsys):
        # Constant lengths and indices get no `< 0` test: none when the
        # constant is >= 0, the bare trap when it is negative.
        path = tmp_path / "arrays.minij"
        path.write_text(ARRAYS)
        assert disasm_tool.main(
            [str(path), "--method", "Main.fill", "--form", "py"]
        ) == 0
        out = capsys.readouterr().out
        assert "_allocarr('int', 8)" in out and "_t[3]" in out
        assert not re.search(r"if -?\d+ < 0:", out)
        assert re.search(r"if v\d+ < 0:", out)  # the variable index
        assert disasm_tool.main(
            [str(path), "--method", "Main.last", "--form", "py"]
        ) == 0
        lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
        trap = "raise _BT('%d / %d' % (-1, len(_t)))"
        assert trap in lines
        assert not lines[lines.index(trap) - 1].startswith("if ")

    def test_py_form_bailout(self, demo_file, capsys, monkeypatch):
        monkeypatch.setattr(pycodegen, "MAX_NODES", 0)
        assert disasm_tool.main(
            [demo_file, "--method", "Main.helper", "--form", "py"]
        ) == 1
        captured = capsys.readouterr()
        assert "def _run" not in captured.out
        assert "graph-too-large" in captured.err

    def test_whole_program(self, demo_file, capsys):
        assert disasm_tool.main([demo_file]) == 0
        out = capsys.readouterr().out
        assert "class Main" in out or "Main" in out


def phase_table(out):
    """The rows of a stats report's phase table, split into cells."""
    lines = out.split("== phase totals")[1].split("\n\n")[0].splitlines()
    assert lines[1].split() == ["phase", "calls", "wall", "of", "iterations"]
    return [line.split() for line in lines[2:]]


class TestStatsTool:
    def test_live_report(self, demo_file, capsys):
        assert stats_tool.main([demo_file, "--iterations", "8"]) == 0
        out = capsys.readouterr().out
        assert "== compilations" in out
        assert "Main.helper" in out and "Main.run" in out
        assert "== pass effectiveness" in out
        assert "== inlining rollup" in out
        assert "jit.compile.count" in out

    def test_events_jsonl_and_replay(self, demo_file, tmp_path, capsys):
        events = str(tmp_path / "events.jsonl")
        assert stats_tool.main(
            [demo_file, "--iterations", "8", "--events", events,
             "--no-metrics-section"]
        ) == 0
        live_out = capsys.readouterr().out
        assert stats_tool.main([events]) == 0
        replay_out = capsys.readouterr().out
        # The replayed compile table matches the live one (the hottest
        # section legitimately differs: live reads the profile store).
        live_compiles = live_out.split("== phase totals")[0]
        replay_compiles = replay_out.split("== phase totals")[0]
        assert replay_compiles == live_compiles

    def test_phase_table_live_and_replay(self, demo_file, tmp_path, capsys):
        # One phase table, folded from the event stream: a replay of
        # the log prints what the live run that wrote it printed.
        events = str(tmp_path / "events.jsonl")
        assert stats_tool.main(
            [demo_file, "--iterations", "8", "--events", events]
        ) == 0
        live = phase_table(capsys.readouterr().out)
        assert stats_tool.main([events]) == 0
        replay = phase_table(capsys.readouterr().out)
        assert replay == live
        calls = {row[0]: int(row[1]) for row in live}
        assert list(calls)[:2] == ["iteration", "compile"]
        assert calls["iteration"] == 8
        for phase in ("build", "inline", "optimize", "lower"):
            assert calls[phase] >= calls["compile"] > 0, phase

    def test_metrics_json_artifact(self, demo_file, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert stats_tool.main(
            [demo_file, "--iterations", "6", "--metrics", str(metrics)]
        ) == 0
        import json

        data = json.loads(metrics.read_text())
        assert data["metrics"]["jit.compile.count"]["value"] > 0
        assert len(data["iterations"]) == 6
        assert "installed_size_delta" in data["iterations"][0]

    def test_each_inliner_choice(self, demo_file, capsys):
        for name in ("none", "greedy", "c2", "incremental", "shallow"):
            assert stats_tool.main(
                [demo_file, "--inliner", name, "--iterations", "4"]
            ) == 0


class TestBenchTool:
    def test_list(self, capsys):
        assert bench_tool.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "factorie" in out and "incremental" in out

    def test_small_sweep(self, capsys):
        assert bench_tool.main(
            [
                "--benchmarks", "pmd",
                "--configs", "no-inline", "incremental",
                "--instances", "1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "pmd" in out

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            bench_tool.main(["--configs", "warp-speed"])


class TestCommon:
    def test_method_argument(self):
        assert method_argument("A.b") == ("A", "b")
        assert method_argument("pkg.Class.method") == ("pkg.Class", "method")
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            method_argument("nodot")
