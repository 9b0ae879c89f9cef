"""Benchmark × configuration sweeps and table rendering."""

import json
import os
import sys

from repro.bench.configs import CONFIG_FACTORIES
from repro.bench.measurement import measure_benchmark
from repro.bench.suite import all_benchmarks, get_benchmark

#: Representative subset spanning all suites: the default set of
#: ``pytest benchmarks/`` (``REPRO_BENCH_FULL=1`` runs all 28 there).
QUICK_BENCHMARKS = [
    "jython",
    "sunflow",
    "factorie",
    "scalac",
    "scalariform",
    "gauss-mix",
    "stmbench7",
]


def selected_benchmarks(names=None):
    if names is not None:
        return [get_benchmark(name) for name in names]
    return all_benchmarks()


def run_matrix(
    config_names,
    benchmarks=None,
    instances=2,
    progress=None,
    metrics_dir=None,
):
    """Run every benchmark under every configuration.

    Returns ``{benchmark: {config: Measurement}}``. Validates that all
    configurations computed the same result value per instance seed —
    an inliner that changes program semantics fails loudly here.

    With *metrics_dir* set, every (benchmark, configuration) run is
    executed under full observability and a JSON metrics artifact
    (``<benchmark>__<config>.json``, the measurement plus per-instance
    metrics snapshots) is written next to the results.
    """
    obs_factory = None
    if metrics_dir is not None:
        from repro.obs import Observability

        os.makedirs(metrics_dir, exist_ok=True)
        obs_factory = Observability
    results = {}
    for spec in selected_benchmarks(benchmarks):
        program = spec.load()
        row = {}
        for config_name in config_names:
            factory = CONFIG_FACTORIES[config_name]
            measurement = measure_benchmark(
                program,
                factory,
                benchmark_name=spec.name,
                config_name=config_name,
                instances=instances,
                iterations=spec.iterations,
                jit_config_factory=spec.jit_config_factory,
                obs_factory=obs_factory,
            )
            row[config_name] = measurement
            if metrics_dir is not None:
                _write_metrics_artifact(metrics_dir, measurement)
            if progress is not None:
                progress(spec.name, config_name, measurement)
        _validate_values(spec.name, row)
        results[spec.name] = row
    return results


def _write_metrics_artifact(metrics_dir, measurement):
    path = os.path.join(
        metrics_dir,
        "%s__%s.json" % (measurement.benchmark, measurement.config_name),
    )
    with open(path, "w") as handle:
        json.dump(measurement.as_dict(), handle, indent=2, default=str)
        handle.write("\n")
    return path


def _validate_values(benchmark, row):
    reference = None
    for measurement in row.values():
        if reference is None:
            reference = measurement.values
        elif measurement.values != reference:
            raise AssertionError(
                "%s: configurations disagree on results: %r vs %r (%s)"
                % (benchmark, reference, measurement.values, measurement.config_name)
            )


def format_table(results, config_names, metric="time", baseline=None):
    """Render results as an aligned text table.

    metric: "time" (steady cycles), "speedup" (baseline/config time) or
    "code" (installed machine instructions).
    """
    header = ["benchmark"] + list(config_names)
    rows = [header]
    for benchmark in results:
        row = [benchmark]
        measurements = results[benchmark]
        base = measurements.get(baseline) if baseline else None
        for config_name in config_names:
            m = measurements.get(config_name)
            if m is None:
                row.append("-")
            elif metric == "time":
                row.append("%.0f ±%.0f" % (m.mean_cycles, m.std_cycles))
            elif metric == "speedup":
                ref = base.mean_cycles if base else m.mean_cycles
                row.append("%.2fx" % (ref / max(1.0, m.mean_cycles)))
            elif metric == "code":
                row.append("%d" % m.installed_size)
            else:
                raise ValueError("unknown metric %r" % metric)
        rows.append(row)
    widths = [
        max(len(str(row[col])) for row in rows) for col in range(len(header))
    ]
    lines = []
    for row in rows:
        lines.append(
            "  ".join(str(cell).rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def print_table(results, config_names, metric="time", baseline=None, title=None):
    if title:
        print("\n== %s ==" % title)
    print(format_table(results, config_names, metric=metric, baseline=baseline))
    sys.stdout.flush()
