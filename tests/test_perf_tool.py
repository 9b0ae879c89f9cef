"""The wall-clock perf harness and Measurement.wall_seconds."""

import json
import pathlib

from repro.bench.measurement import Measurement, measure_benchmark
from repro.tools import perf
from tests.helpers import shapes_program

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_measurement_has_wall_seconds():
    result = Measurement("b", "c")
    assert result.wall_seconds == 0.0
    assert "wall_seconds" in result.as_dict()


def test_measure_benchmark_records_wall_time():
    result = measure_benchmark(
        shapes_program(),
        inliner_factory=None,
        instances=2,
        iterations=3,
    )
    assert result.wall_seconds > 0.0
    assert result.as_dict()["wall_seconds"] == result.wall_seconds


def test_measure_pair_checks_semantics():
    from repro.jit.config import JitConfig

    program = shapes_program()
    variant = {
        "name": "classic",
        "config": lambda: JitConfig(
            compile_enabled=False, interp_predecode=False
        ),
        "inliner": None,
    }
    fast = dict(variant, name="predecode",
                config=lambda: JitConfig(
                    compile_enabled=False, interp_predecode=True
                ))
    result = perf._measure_pair(
        program, iterations=2, repeats=1,
        base=variant, fast=fast, progress=False,
    )
    assert result["semantics_identical"] is True
    assert result["clock"] == "wall"
    assert result["baseline"]["seconds"] >= 0.0
    assert result["fast"]["seconds"] >= 0.0


def test_cli_quick_writes_json(tmp_path):
    out = tmp_path / "BENCH_wall.json"
    assert perf.main(["--quick", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["quick"] is True
    workloads = payload["workloads"]
    kinds = {w["workload"] for w in workloads}
    assert kinds == {"interpreter-bound", "py-backend", "serve-mixed"}
    # CI gates with perfdiff --require-all: the quick matrix must cover
    # every row of the committed reference.
    reference = json.loads((ROOT / "BENCH_wall.json").read_text())
    rows = {(w["workload"], w["benchmark"]) for w in workloads}
    assert rows == {
        (w["workload"], w["benchmark"]) for w in reference["workloads"]
    }
    for w in workloads:
        assert w["semantics_identical"] is True
        assert w["baseline"]["seconds"] > 0.0
        assert w["fast"]["seconds"] > 0.0


def test_render_results_marks_divergence():
    rows = [
        {
            "workload": "mixed",
            "benchmark": "x",
            "baseline": {"name": "a", "seconds": 1.0},
            "fast": {"name": "b", "seconds": 0.5},
            "speedup": 2.0,
            "semantics_identical": False,
        }
    ]
    rendered = perf.render_results(rows)
    assert "NO" in rendered
