"""Benchmark infrastructure tests: suite registry, measurement
protocol, harness validation."""

from repro.bench import all_benchmarks, get_benchmark
from repro.bench.configs import CONFIG_FACTORIES
from repro.bench.harness import run_matrix, format_table
from repro.bench.measurement import measure_benchmark, steady_window
from repro.bench.suite import benchmarks_in_suite


class TestSuiteRegistry:
    def test_28_benchmarks_registered(self):
        assert len(all_benchmarks()) == 28

    def test_suite_partition(self):
        assert len(benchmarks_in_suite("dacapo")) == 10
        assert len(benchmarks_in_suite("scala-dacapo")) == 12
        assert len(benchmarks_in_suite("spark-perf")) == 3
        assert len(benchmarks_in_suite("other")) == 3

    def test_all_programs_compile(self):
        for spec in all_benchmarks():
            program = spec.load()
            assert program.lookup_method("Main", "run") is not None
            assert spec.description

    def test_load_is_cached(self):
        spec = get_benchmark("pmd")
        assert spec.load() is spec.load()


class TestMeasurementProtocol:
    def test_steady_window_rule(self):
        """'average of the last 40% (but at most 20) repetitions'."""
        assert steady_window(10) == 4
        assert steady_window(100) == 20
        assert steady_window(1) == 1

    def test_measurement_runs_instances(self):
        spec = get_benchmark("pmd")
        program = spec.load()
        measurement = measure_benchmark(
            program,
            CONFIG_FACTORIES["incremental"],
            benchmark_name="pmd",
            config_name="incremental",
            instances=2,
            iterations=5,
        )
        assert len(measurement.values) == 2
        assert len(measurement.warmup_curves) == 2
        assert all(len(c) == 5 for c in measurement.warmup_curves)
        assert measurement.mean_cycles > 0
        assert measurement.installed_size > 0

    def test_different_seeds_per_instance(self):
        spec = get_benchmark("pmd")
        program = spec.load()
        a = measure_benchmark(
            program, lambda: None, instances=1, iterations=2, base_seed=1
        )
        b = measure_benchmark(
            program, lambda: None, instances=1, iterations=2, base_seed=1
        )
        assert a.values == b.values  # same seed -> same results


class TestHarness:
    def test_matrix_and_validation(self):
        results = run_matrix(
            ["no-inline", "incremental"], benchmarks=["pmd"], instances=1
        )
        assert "pmd" in results
        row = results["pmd"]
        assert row["no-inline"].values == row["incremental"].values

    def test_table_rendering(self):
        results = run_matrix(
            ["no-inline", "incremental"], benchmarks=["pmd"], instances=1
        )
        table = format_table(results, ["no-inline", "incremental"])
        assert "pmd" in table
        speedups = format_table(
            results,
            ["no-inline", "incremental"],
            metric="speedup",
            baseline="no-inline",
        )
        assert "x" in speedups
        code = format_table(results, ["no-inline", "incremental"], metric="code")
        assert code

    def test_config_registry_contents(self):
        for required in [
            "no-inline",
            "incremental",
            "greedy",
            "c2",
            "shallow-trials",
            "te-1000",
            "ti-3000",
            "1by1-0.0001-1440",
            "cluster-0.005-120",
        ]:
            assert required in CONFIG_FACTORIES, required
