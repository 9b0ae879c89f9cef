"""Engine-level observability: metrics match engine counters, the event
stream describes compilations, and — critically — instrumentation never
perturbs the deterministic cycle model."""

import pytest

from repro.bench.measurement import measure_benchmark
from repro.bench.suite import get_benchmark
from repro.jit import Engine, JitConfig
from repro.jit.engine import IterationResult
from repro.lang import compile_source
from repro.baselines import GreedyInliner, tuned_inliner
from repro.obs import Observability, build_report, render_report

SOURCE = """
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

EXPECTED = sum(3 * i + 1 for i in range(50))


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE)


def run_engine(program, iterations=8, obs=None, inliner="incremental"):
    policies = {
        "incremental": lambda: tuned_inliner(0.1),
        "greedy": GreedyInliner,
        "none": lambda: None,
    }
    engine = Engine(
        program,
        JitConfig(hot_threshold=20),
        inliner=policies[inliner](),
        obs=obs,
    )
    results = [engine.run_iteration("Main", "run") for _ in range(iterations)]
    return engine, results


class TestCompileSkips:
    def test_skips_are_counted_and_reported(self):
        obs = Observability()
        engine = Engine(
            compile_source(get_benchmark("pmd").source),
            JitConfig(hot_threshold=25),
            inliner=tuned_inliner(0.1),
            obs=obs,
        )
        for _ in range(8):
            engine.run_iteration("Main", "run")
        metrics = obs.metrics
        for name in (
            "opt.passes.skipped",
            "opt.pipeline.post_inline_skipped",
            "inline.callee_graphs.reused",
        ):
            assert metrics.value(name) > 0, name
        assert metrics.value("inline.callee_graphs.reused") == (
            engine.compiler.context.trial_memo.graphs_reused
        )
        passes = build_report(obs.events.records)["pass_stats"]
        assert passes["canonicalize"]["skipped"] > 0
        # Every iteration has one canonicalize and one gvn group, each
        # either run or skipped whole.
        assert (
            passes["canonicalize"]["runs"] + passes["canonicalize"]["skipped"]
            == passes["gvn"]["runs"] + passes["gvn"]["skipped"]
        )
        rendered = render_report(build_report(obs.events.records))
        assert "skipped" in rendered.split("== pass effectiveness")[1]


class TestEngineMetrics:
    def test_compile_count_matches_engine(self, program):
        obs = Observability()
        engine, results = run_engine(program, obs=obs)
        assert engine.compilation_count > 0
        assert (
            obs.metrics.value("jit.compile.count") == engine.compilation_count
        )
        assert obs.metrics.value("jit.compile.cycles") == engine.compile_cycles
        assert results[-1].value == EXPECTED

    def test_codecache_and_interp_metrics(self, program):
        obs = Observability()
        engine, _ = run_engine(program, obs=obs)
        metrics = obs.metrics
        assert metrics.value("codecache.installs") == engine.compilation_count
        assert (
            metrics.value("codecache.installed_bytes")
            == engine.code_cache.total_size
        )
        assert metrics.value("codecache.hits") > 0
        assert metrics.value("codecache.misses") > 0
        assert metrics.value("interp.calls") > 0
        assert metrics.value("interp.ops") == engine.interpreter.ops_executed
        assert metrics.value("engine.iterations") == 8
        assert metrics.value("profile.methods") == len(engine.profiles)

    def test_event_stream_describes_compilations(self, program):
        obs = Observability()
        engine, _ = run_engine(program, obs=obs)
        compile_spans = obs.events.spans_named("compile")
        assert len(compile_spans) == engine.compilation_count
        names = {r["name"] for r in obs.events.records if r["type"] == "begin"}
        assert {"compile", "build", "inline", "optimize", "lower"} <= names
        # Inlining decisions are bridged into the stream.
        inline_events = [
            r for r in obs.events.records
            if r["type"] == "event" and r["name"].startswith("inline.")
        ]
        assert any(r["name"] == "inline.inline" for r in inline_events)
        # Pass events carry node deltas.
        passes = obs.events.of_name("pass")
        assert passes and all(
            "before" in r["attrs"] and "after" in r["attrs"] for r in passes
        )

    def test_report_rolls_up_the_stream(self, program):
        obs = Observability()
        engine, _ = run_engine(program, obs=obs)
        report = build_report(obs.events.records)
        assert len(report["compiles"]) == engine.compilation_count
        entry = report["compiles"][-1]
        assert entry["method"] in ("Main.run", "Main.helper")
        assert entry["nodes"] > 0 and entry["code_size"] > 0
        assert entry["hotness"] >= 20
        assert report["inline_rollup"]["inline"] > 0
        assert report["pass_stats"]
        assert len(report["iterations"]) == 8

    def test_default_engine_records_nothing(self, program):
        engine, _ = run_engine(program)
        assert engine.obs.enabled is False
        assert engine.obs.metrics.snapshot() == {}
        assert len(engine.obs.events) == 0


class TestObservabilityIsNonPerturbing:
    """With observability disabled (the default) nothing changed; with
    it enabled, the deterministic cycle model must be bit-identical."""

    def test_differential_on_bench_workload(self):
        spec = get_benchmark("pmd")
        program = spec.load()
        plain = measure_benchmark(
            program,
            lambda: tuned_inliner(0.1),
            benchmark_name="pmd",
            config_name="plain",
            instances=1,
            iterations=8,
        )
        observed = measure_benchmark(
            program,
            lambda: tuned_inliner(0.1),
            benchmark_name="pmd",
            config_name="observed",
            instances=1,
            iterations=8,
            obs_factory=Observability,
        )
        assert plain.values == observed.values
        assert plain.warmup_curves == observed.warmup_curves
        assert plain.mean_cycles == observed.mean_cycles
        assert plain.installed_size == observed.installed_size
        assert plain.compilations == observed.compilations
        assert plain.metrics == []
        assert len(observed.metrics) == 1
        assert observed.metrics[0]["jit.compile.count"]["value"] > 0

    def test_differential_on_direct_engine(self, program):
        _, baseline = run_engine(program)
        _, observed = run_engine(program, obs=Observability())
        assert [r.total_cycles for r in baseline] == [
            r.total_cycles for r in observed
        ]
        assert [r.as_dict() for r in baseline] == [
            r.as_dict() for r in observed
        ]


class TestIterationResult:
    def test_repr_includes_compilations_and_installed_size(self, program):
        engine, results = run_engine(program, iterations=3)
        compiled = next(r for r in results if r.compilations)
        text = repr(compiled)
        assert "compilations=%d" % compiled.compilations in text
        assert "installed=%d" % compiled.installed_size in text

    def test_as_dict_covers_all_fields(self):
        result = IterationResult(total_cycles=10, compilations=2)
        data = result.as_dict()
        assert set(data) == set(IterationResult.__slots__)
        assert data["total_cycles"] == 10
        assert data["compilations"] == 2

    def test_installed_size_delta(self, program):
        engine, results = run_engine(program, iterations=6)
        # Reconstructing the absolute curve from deltas must match the
        # reported absolute sizes.
        running = 0
        for result in results:
            running += result.installed_size_delta
            assert running == result.installed_size
        assert results[0].installed_size_delta >= 0
        assert results[-1].installed_size == engine.code_cache.total_size
