"""Wall-clock performance harness for the fast execution paths.

The cycle model (:mod:`repro.bench`) answers the paper's questions —
it is deterministic and host-independent. This tool answers the other
question a JIT writer has: how much *host* time the VM itself burns,
and how much the fast paths recover. It runs a pinned workload matrix:

- **interpreter-bound**: pure interpretation (compilation disabled),
  classic dispatch loop vs the pre-decoded threaded-code tier
  (``Interpreter(..., predecode=True)``).
- **py-backend**: the pre-decoded interpreter alone vs the tiered JIT
  running compiled roots as generated Python closures.
- **serve-mixed**: a multi-tenant fleet, synchronous vs background
  compilation.

Every variant pair is checked for semantic equivalence (iteration
values, per-iteration cycle sequences, and interpreted op counts must
be bit-identical); the exit status reflects *only* that check, never
timing, so CI can run this as a smoke test without flaking on noisy
hosts. Timings use interleaved repeats and report the median.

Examples::

    python -m repro.tools.perf                  # full matrix
    python -m repro.tools.perf --quick          # CI smoke (~seconds)
    python -m repro.tools.perf -o BENCH_wall.json
"""

import argparse
import json
import statistics
import sys
import time

from repro.baselines import tuned_inliner
from repro.bench.suite import get_benchmark
from repro.jit.config import JitConfig
from repro.jit.engine import Engine

ENTRY = ("Main", "run")
SEED = 0x5EED


# ----------------------------------------------------------------------
# Measurement primitives
# ----------------------------------------------------------------------


class _RunResult:
    __slots__ = ("wall", "values", "cycles", "ops", "output")

    def __init__(self, wall, values, cycles, ops, output):
        self.wall = wall
        self.values = values
        self.cycles = cycles
        self.ops = ops
        self.output = output

    def semantics(self):
        """The parts that must match between variants."""
        return (self.values, self.cycles, self.ops)

    def observable(self):
        """Values + printed output only — the cross-*tier* contract.

        Used when baseline and fast variant legitimately run different
        tiers (interpreter vs compiled code), so per-iteration cycles
        and interpreted op counts are expected to differ.
        """
        return (self.values, self.output)


def _run_once(program, config_factory, inliner_factory, iterations,
              warmup=0):
    """One fresh VM instance; returns a :class:`_RunResult`.

    *warmup* iterations run before the clock starts (steady-state
    timing: compilation settles outside the measured window). Their
    values and cycles still join the semantic comparison — both
    variants warm up identically, only the clock ignores them.
    """
    engine = Engine(
        program,
        config_factory(),
        inliner=inliner_factory() if inliner_factory is not None else None,
        seed=SEED,
    )
    values = []
    cycles = []
    for _ in range(warmup):
        result = engine.run_iteration(*ENTRY)
        values.append(result.value)
        cycles.append(result.total_cycles)
    start = time.perf_counter()
    for _ in range(iterations):
        result = engine.run_iteration(*ENTRY)
        values.append(result.value)
        cycles.append(result.total_cycles)
    wall = time.perf_counter() - start
    return _RunResult(
        wall, values, cycles,
        engine.interpreter.ops_executed,
        list(engine.vm.output),
    )


def _measure_pair(program, iterations, repeats, base, fast, progress):
    """Interleave *repeats* runs of each variant; returns a result dict.

    ``base`` and ``fast`` are dicts with keys ``name``, ``config`` and
    ``inliner``. ``observable_only`` on the base dict relaxes the
    equivalence check to values + printed output, for pairs whose
    variants run different tiers and therefore legitimately differ in
    cycles and op counts; ``warmup`` on it sets the untimed iterations
    both variants run first.
    """
    observable_only = base.get("observable_only", False)
    warmup = base.get("warmup", 0)
    base_runs, fast_runs = [], []
    semantics_identical = True
    for repeat in range(repeats):
        b = _run_once(program, base["config"], base["inliner"], iterations,
                      warmup)
        f = _run_once(program, fast["config"], fast["inliner"], iterations,
                      warmup)
        base_runs.append(b)
        fast_runs.append(f)
        if observable_only:
            if b.observable() != f.observable():
                semantics_identical = False
        elif b.semantics() != f.semantics():
            semantics_identical = False
        if progress:
            sys.stderr.write(".")
            sys.stderr.flush()
    base_t = statistics.median(r.wall for r in base_runs)
    fast_t = statistics.median(r.wall for r in fast_runs)
    return {
        "baseline": {"name": base["name"], "seconds": round(base_t, 6)},
        "fast": {"name": fast["name"], "seconds": round(fast_t, 6)},
        "clock": "wall",
        "speedup": round(base_t / fast_t, 3) if fast_t > 0 else None,
        "reduction_percent": (
            round(100.0 * (1.0 - fast_t / base_t), 1) if base_t > 0 else None
        ),
        "semantics_identical": semantics_identical,
        "repeats": repeats,
        "iterations": iterations,
        "warmup": warmup,
    }


# ----------------------------------------------------------------------
# The pinned workload matrix
# ----------------------------------------------------------------------


def _interp_workload(benchmark, iterations, repeats, progress):
    """Pure interpretation: classic loop vs pre-decoded tier."""
    program = get_benchmark(benchmark).load()
    pair = _measure_pair(
        program, iterations, repeats,
        base={
            "name": "interp-classic",
            "config": lambda: JitConfig(
                compile_enabled=False, interp_predecode=False
            ),
            "inliner": None,
        },
        fast={
            "name": "interp-predecode",
            "config": lambda: JitConfig(
                compile_enabled=False, interp_predecode=True
            ),
            "inliner": None,
        },
        progress=progress,
    )
    pair.update(workload="interpreter-bound", benchmark=benchmark)
    return pair


def _pybackend_workload(benchmark, iterations, repeats, progress):
    """The Python-codegen top tier against the fastest interpreter.

    Baseline is the pre-decoded interpreter alone (the previous raw
    host-speed ceiling); fast is the tiered JIT with ``backend="py"``
    so hot roots run as generated Python closures
    (:mod:`repro.backend.pycodegen`). The variants run different tiers
    by design, so the equivalence check is the cross-tier contract —
    iteration values and printed output — rather than cycle sequences;
    two warmup iterations keep compilation outside the timed window
    (steady-state timing, the standard JIT protocol — warmup iterations
    still join the semantic comparison).
    """
    program = get_benchmark(benchmark).load()
    pair = _measure_pair(
        program, iterations, repeats,
        base={
            "name": "interp-predecode",
            "config": lambda: JitConfig(
                compile_enabled=False, interp_predecode=True
            ),
            "inliner": None,
            "observable_only": True,
            "warmup": 2,
        },
        fast={
            "name": "jit-py",
            "config": lambda: JitConfig(
                hot_threshold=10, interp_predecode=True, backend="py",
            ),
            "inliner": lambda: tuned_inliner(0.1),
        },
        progress=progress,
    )
    pair.update(workload="py-backend", benchmark=benchmark)
    return pair


#: fleet size of the serving workload — ≥4 tenants so the fairness
#: index and queue contention are meaningful.
SERVE_TENANTS = 6


def _serve_once(mode, iterations):
    """One mixed-traffic fleet run; returns (report, per-tenant state)."""
    from repro.serve import ServiceConfig, VMService
    from repro.tools.serve import mixed_specs

    config = ServiceConfig(
        max_tenants=SERVE_TENANTS,
        compile_workers=2,
        compile_mode=mode,
        hot_threshold=10,
    )
    with VMService(config) as service:
        for spec in mixed_specs(SERVE_TENANTS, iterations):
            service.admit(spec)
        report = service.run(concurrent=True)
        state = {
            tenant.name: (list(tenant.outcomes), tenant.output)
            for tenant in service.tenants.values()
        }
    return report, state


def _serve_workload(benchmark, iterations, repeats, progress):
    """Multi-tenant serving: synchronous compilation (tenants stall on
    their own compiles) vs the background pipeline (compiles overlap
    interpretation across the whole fleet).

    Semantics here is per-tenant outcomes + printed output — *not*
    cycles, whose attribution legitimately differs across modes (async
    charges compile cycles to ``background_compile_cycles``). The
    result carries the serving-specific measurements on top of the
    usual pair shape: fleet throughput, Jain fairness, queue stats.
    """
    sync_runs, async_runs = [], []
    semantics_identical = True
    for _ in range(repeats):
        sync_report, sync_state = _serve_once("sync", iterations)
        async_report, async_state = _serve_once("async", iterations)
        sync_runs.append(sync_report)
        async_runs.append(async_report)
        if sync_state != async_state:
            semantics_identical = False
        if progress:
            sys.stderr.write(".")
            sys.stderr.flush()
    sync_t = statistics.median(r.wall_seconds for r in sync_runs)
    async_t = statistics.median(r.wall_seconds for r in async_runs)
    median_async = sorted(
        async_runs, key=lambda r: r.wall_seconds
    )[len(async_runs) // 2]
    return {
        "workload": "serve-mixed",
        "benchmark": benchmark,
        "baseline": {"name": "serve-sync", "seconds": round(sync_t, 6)},
        "fast": {"name": "serve-async", "seconds": round(async_t, 6)},
        "clock": "wall",
        "speedup": round(sync_t / async_t, 3) if async_t > 0 else None,
        "reduction_percent": (
            round(100.0 * (1.0 - async_t / sync_t), 1) if sync_t > 0 else None
        ),
        "semantics_identical": semantics_identical,
        "repeats": repeats,
        "iterations": iterations,
        "tenants": SERVE_TENANTS,
        "throughput": round(median_async.throughput, 3),
        "fairness": round(median_async.fairness, 4),
        "queue": median_async.queue_stats,
    }


# Pinned matrix: (builder, benchmark, full-(iterations, repeats),
# quick-(iterations, repeats)). Benchmarks chosen so each workload is
# actually bound by the phase it claims to measure.
MATRIX = [
    (_interp_workload, "gauss-mix", (2, 5), (1, 1)),
    (_interp_workload, "stmbench7", (2, 5), (1, 1)),
    (_pybackend_workload, "gauss-mix", (2, 5), (1, 1)),
    (_pybackend_workload, "stmbench7", (2, 5), (1, 1)),
    (_serve_workload, "mixed-fleet", (8, 3), (4, 1)),
]


def run_matrix(quick=False, progress=False):
    """Run the pinned workload matrix; returns a list of result dicts."""
    results = []
    for builder, benchmark, full, quick_params in MATRIX:
        iterations, repeats = quick_params if quick else full
        if progress:
            sys.stderr.write(
                "%s/%s " % (builder.__name__.strip("_"), benchmark)
            )
        results.append(builder(benchmark, iterations, repeats, progress))
        if progress:
            sys.stderr.write("\n")
    return results


def render_results(results):
    lines = [
        "%-18s %-12s %-22s %10s %10s %8s %6s"
        % ("workload", "benchmark", "variants", "base(s)", "fast(s)",
           "speedup", "same"),
    ]
    for r in results:
        lines.append(
            "%-18s %-12s %-22s %10.4f %10.4f %7.2fx %6s"
            % (
                r["workload"],
                r["benchmark"],
                "%s->%s" % (r["baseline"]["name"], r["fast"]["name"]),
                r["baseline"]["seconds"],
                r["fast"]["seconds"],
                r["speedup"] or 0.0,
                "yes" if r["semantics_identical"] else "NO",
            )
        )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.tools.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small iteration/repeat counts (CI smoke; noisier timings, "
             "same semantic checks)",
    )
    parser.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="write the result matrix as JSON (e.g. BENCH_wall.json)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print a progress dot per repeat to stderr",
    )
    args = parser.parse_args(argv)

    results = run_matrix(quick=args.quick, progress=args.progress)
    print(render_results(results))

    divergent = [r for r in results if not r["semantics_identical"]]
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(
                {
                    "tool": "repro.tools.perf",
                    "quick": args.quick,
                    "workloads": results,
                },
                handle,
                indent=2,
            )
            handle.write("\n")
        print("wrote %s" % args.output)

    if divergent:
        print(
            "SEMANTIC DIVERGENCE in: %s"
            % ", ".join(
                "%s/%s" % (r["workload"], r["benchmark"]) for r in divergent
            ),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
