"""Tests of the benchmark itself: ``python -m pytest jitbench``.

They run ``--smoke`` mode (shrunken workloads) and one traced round
in-process; together about half a minute.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import digests  # noqa: E402
import workloads  # noqa: E402
from layers import Tracer  # noqa: E402
from run import WORKLOADS  # noqa: E402
from speed import Speedometer  # noqa: E402

#: serve-fleet compiles on a background thread, so its cycles and code
#: size depend on when installs land; the other three are deterministic.
DETERMINISTIC = ("cold-suite", "steady-py", "generated")


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def run_bench(*args, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, env=env if env is not None else clean_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )


def records(out_dir):
    with open(os.path.join(out_dir, "results.jsonl")) as handle:
        return [json.loads(line) for line in handle]


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two untraced smoke runs (stdout, per-workload records)."""
    runs = []
    for index in range(2):
        out = str(tmp_path_factory.mktemp("smoke%d" % index))
        proc = run_bench("--smoke", "--out", out)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, {r["workload"]: r for r in records(out)}))
    return runs


def test_every_metric_printed_with_its_unit(smoke_runs):
    stdout, by_workload = smoke_runs[0]
    assert set(by_workload) == set(WORKLOADS)
    for name, unit in workloads.UNITS.items():
        printed = re.findall(r"^  %s +\S+  %s$" % (re.escape(name), re.escape(unit)),
                             stdout, re.MULTILINE)
        assert len(printed) == len(WORKLOADS), name
    for metric in benchmark_spec()["end_to_end"]:
        assert workloads.UNITS[metric["name"]] == metric["unit"]
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_no_iteration_fails(smoke_runs):
    for _, by_workload in smoke_runs:
        for record in by_workload.values():
            assert record["failed"] == 0
            assert record["metrics"]["error_rate"]["value"] == 0


def test_model_metrics_repeat_exactly(smoke_runs):
    (_, first), (_, second) = smoke_runs
    for workload in DETERMINISTIC:
        for name in ("steady_cycles", "code_bytes"):
            assert (first[workload]["metrics"][name]
                    == second[workload]["metrics"][name]), (workload, name)


def test_traced_run_accounts_for_wall_time(tmp_path):
    out = str(tmp_path)
    proc = run_bench("--smoke", "--trace", "--out", out)
    assert proc.returncode == 0, proc.stderr
    listed = benchmark_spec()["per_layer"]
    for record in records(out):
        metrics = record["metrics"]
        assert metrics["trace.accounting_error_pct"]["value"] <= 5.0
        assert metrics["engine.unattributed_pct"]["value"] <= 10.0
        assert "trace.overhead_pct" in metrics
        for metric in listed:
            assert metrics[metric["name"]]["unit"] == metric["unit"]
        directory = os.path.join(out, record["workload"])
        assert os.path.getsize(os.path.join(directory, "trace.jsonl")) > 0
        assert os.path.exists(os.path.join(directory, "layers.txt"))
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["metrics"]) == {
        "%s.%s" % (w, m["name"]) for w in WORKLOADS for m in listed
    }


def test_repro_variables_are_refused():
    env = clean_env()
    env["REPRO_BACKEND"] = "machine"
    proc = run_bench("--smoke", env=env)
    assert proc.returncode == 2
    assert "REPRO_BACKEND" in proc.stderr
    assert proc.stdout == ""


def wrapped(value):
    return getattr(value, "__module__", None) in ("layers", "workloads")


def test_traced_round_restores_every_wrapper(monkeypatch):
    engines = []
    real_engine = workloads.Engine

    def recording_engine(*args, **kwargs):
        engine = real_engine(*args, **kwargs)
        engines.append(engine)
        return engine

    monkeypatch.setattr(workloads, "Engine", recording_engine)
    monkeypatch.setattr("repro.serve.service.Engine", recording_engine)
    modules = {
        (workloads.compiler_module, name): getattr(workloads.compiler_module, name)
        for name in ("build_graph", "lower_graph", "generate_py")
    }
    modules[(workloads.engine_module, "resume_frames")] = (
        workloads.engine_module.resume_frames
    )
    table = {"programs": digests.load("programs"),
             "generated": digests.load("generated")}
    tracer = Tracer()
    jobs = (workloads.plan("cold-suite", 3)[:1]
            + workloads.plan("steady-py", 3, smoke=True)[:1]
            + workloads.plan("generated", 3)[:10]
            + workloads.plan("serve-fleet", 3)[:1])
    speed = Speedometer()
    results = workloads.run_round(jobs, table, speed, tracer)
    assert sum(job.failed for job in results) == 0
    for (module, name), original in modules.items():
        assert getattr(module, name) is original
    assert engines
    for engine in engines:
        checks = [
            (engine, "run_iteration"), (engine.interpreter, "execute"),
            (engine.interpreter, "osr_hook"), (engine.executor, "execute"),
            (engine.compiler, "compile"), (engine.compiler, "compile_osr"),
            (engine.compiler.context, "build_callee_graph"),
            (engine.compiler.pipeline, "run"),
            (engine.compiler.pipeline, "simplify_only"),
            (engine.code_cache, "install"), (engine.code_cache, "evict"),
        ]
        if engine.compiler.inliner is not None:
            checks.append((engine.compiler.inliner, "run"))
        for obj, name in checks:
            assert not wrapped(getattr(obj, name, None)), name
        for method in engine.code_cache.installed_methods():
            code = engine.code_cache.get(method)
            assert not wrapped(code.py_factory)
    app_wall = sum(job.app_wall_clock_s(speed) for job in results)
    app_self = sum(r["self_sum_s"] for r in tracer.threads() if r["application"])
    assert abs(app_self - app_wall) <= 0.05 * app_wall
    assert tracer.self_times()["engine.iteration"] <= 0.10 * app_wall


def test_speedometer_scales_intervals_by_nearby_samples():
    speed = Speedometer()
    speed.starts = [1.0, 2.0, 10.0]
    speed.ends = [1.01, 2.01, 10.01]
    speed.slowdowns = [1.0, 2.0, 4.0]
    assert speed.slowdown(1.8, 1.9) == 2.0
    assert speed.seconds(1.8, 1.9) == pytest.approx(0.05)
    assert speed.slowdown(1.2, 1.9) == 1.5  # both samples in the window
    assert speed.slowdown(5.0, 5.5) == 3.0  # none: the nearest each side
    assert speed.slowdown(20.0, 21.0) == 4.0
    # The sample inside an interval does not count as its time.
    assert speed.seconds(9.9, 10.1) == pytest.approx(0.19 / 4.0)
    assert Speedometer().slowdown(0.0, 1.0) == 1.0


def test_percentile_is_harrell_davis():
    values = [float(v) for v in range(1, 102)]
    assert workloads.percentile(values, 0.5) == pytest.approx(51.0)
    # scipy.stats.mstats.hdquantiles gives 96.44998 for this list.
    assert workloads.percentile(values, 0.95) == pytest.approx(96.45, abs=0.001)
    assert workloads.percentile([3.0], 0.95) == 3.0
    assert workloads.percentile([], 0.5) == 0.0


def write_runs(directory, scale, runs=10):
    """*runs* synthetic results, each metric *scale* times better
    (below 1) or worse (above 1) than 10."""
    metrics = benchmark_spec()["end_to_end"]
    with open(os.path.join(str(directory), "results.jsonl"), "w") as handle:
        for index in range(runs):
            values = {
                m["name"]: {
                    "value": (10.0 * scale if m["better"] == "lower"
                              else 10.0 / scale) + 0.01 * index,
                    "unit": m["unit"],
                }
                for m in metrics
            }
            handle.write(json.dumps({
                "workload": "cold-suite", "trace": False, "smoke": False,
                "attempted": 100, "failed": 0, "metrics": values,
            }) + "\n")


def test_compare_verdicts(tmp_path, capsys):
    parent, faster, slower, few = (tmp_path / n for n in "pfsx")
    for directory in (parent, faster, slower, few):
        directory.mkdir()
    write_runs(parent, 1.0)
    write_runs(faster, 0.8)
    write_runs(slower, 1.3)
    write_runs(few, 1.0, runs=3)
    assert compare.main([str(parent), str(faster)]) == 0
    assert "gain" in capsys.readouterr().out
    assert compare.main([str(parent), str(slower)]) == 1
    assert "regression" in capsys.readouterr().out
    assert compare.main([str(parent), str(few)]) == 2
