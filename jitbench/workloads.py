"""The four workloads, their rounds, and the metrics computed from them.

A workload's *round* is a fixed list of jobs (one VM, or one serve
wave) in an order drawn from ``--seed``, with every VM seed. A run
repeats the same round for about ``--seconds``, at least twice. Every
interval is converted to seconds at the reference machine speed
(:mod:`speed`), and every timing takes each job's median round.

The benchmark reaches the system only through its public entry points:
``repro.lang.compile_source``, ``Engine``/``Engine.run_iteration``,
``VMService``/``ServiceConfig``/``TenantSpec`` and
``repro.fuzz.generator.generate_case``. Layer tracing wraps public
functions from here (see :mod:`layers`).
"""

import math
import random
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from itertools import product
from time import perf_counter

from repro.baselines import tuned_inliner
from repro.bench import all_benchmarks, get_benchmark
from repro.bench.measurement import steady_window
from repro.fuzz.generator import generate_case
from repro.interp.interpreter import OSR_MISS
from repro.jit import compiler as compiler_module
from repro.jit import engine as engine_module
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.lang import compile_source
from repro.serve import ServiceConfig, TenantSpec, VMService
from repro.tools.common import INLINERS
from repro.tools.serve import MIXED_BENCHMARKS, MIXED_INLINERS

import digests
from layers import Patches, Tracer
from speed import Speedometer

#: Suite programs whose py-tier code raises NameError inside the
#: generated closure (README.md lists where); steady-py leaves them out.
PY_EXCLUDED = (
    "batik", "h2", "luindex", "sunflow", "factorie", "scalaxb", "dotty",
    "apparat", "scalac",
)
PROBE_ITERATIONS = 20

STEADY_WARMUP = 30  # every steady-py program's last compile is by iteration 21
STEADY_TIMED = 40
GENERATED_ITERATIONS = 5
#: The generated corpus: ``generate_case(GENERATED_BASE + i)``. It is
#: fixed rather than drawn from ``--seed`` because 300 seed-drawn cases
#: moved wall_s by 12% and code_bytes by 9% between seeds, more than any
#: bound may allow; the seed still picks the order and the VM seeds.
GENERATED_BASE = 1_000_003
GENERATED_CASES = 300
SERVE_ITERATIONS = 6

#: Jobs per round in ``--smoke`` mode (the first ones of the round).
SMOKE_JOBS = {"cold-suite": 4, "steady-py": 3, "generated": 40, "serve-fleet": 2}

#: A run starts another round while the rounds so far, plus one more of
#: their mean length, fit in ``--seconds``, and does at least this many.
MIN_ROUNDS = 2

ENTRY = ("Main", "run")

UNITS = {
    "setup_s": "s", "wall_s": "s", "iters_per_s": "1/s",
    "iter_p50_ms": "ms", "iter_p95_ms": "ms", "compile_s": "s",
    "steady_cycles": "cycles/iter", "code_bytes": "units",
    "error_rate": "fraction", "peak_rss_mb": "MB",
}

#: Layers, named after modules; README.md maps each to the public
#: function its spans time.
LAYERS = (
    "lang", "interp", "backend.machine", "backend.py", "jit.compile",
    "ir.build", "core", "core.expand", "core.analyze", "core.inline",
    "core.trial_opt", "opts", "backend.lower", "backend.pycodegen",
    "deopt", "osr", "jit.codecache", "serve.queue",
)


def cold_config():
    return JitConfig(
        hot_threshold=25, interp_predecode=True, backend="machine",
        compile_mode="sync", speculate=False, typespec=False, osr=False,
    )


def steady_config():
    return JitConfig(
        hot_threshold=25, interp_predecode=True, backend="py",
        compile_mode="sync", speculate=False, typespec=False, osr=False,
    )


def generated_config():
    return JitConfig(
        hot_threshold=2, interp_predecode=True, backend="py",
        compile_mode="sync", speculate=True, typespec=True, osr=True,
        osr_threshold=6,
    )


def serve_config():
    return ServiceConfig(
        max_tenants=2, compile_workers=1, queue_capacity=64,
        cache_budget=900, tenant_quota=None, eviction_policy="lru",
        cache_shards=8, compile_mode="async", share_profiles=None,
        hot_threshold=20, backend="machine",
    )


SERVE_JIT = {
    "interp_predecode": True, "speculate": False, "typespec": False,
    "osr": False,
}


def py_programs():
    return [
        spec.name for spec in all_benchmarks() if spec.name not in PY_EXCLUDED
    ]


# ----------------------------------------------------------------------
# Per-round bookkeeping and instrumentation
# ----------------------------------------------------------------------


class JobStats:
    """What one job (one VM, or one serve wave) measured in one round.

    Times are kept as ``(start, end)`` intervals on the ``perf_counter``
    clock until :meth:`settle` converts them. Latencies and steady-state
    cycles are listed VM by VM, iteration by iteration, so the same
    job's rounds line up entry for entry.
    """

    def __init__(self):
        self.setup = []  # each VM's (or the wave's) set-up
        self.iterations = []  # every iteration
        self.timed = []  # the timed-window iterations
        self.runs = []  # serve-fleet: the wave's ``service.run``
        self.compiles = []  # every compile, on any thread
        self.steady = []  # per-VM steady-state mean cycles, or None
        self.code_bytes = 0
        self.planned = 0
        self.failed = 0
        self.interp_ops = 0
        self.queue_waits_ms = []
        self.fairness = []

    def settle(self, clock):
        """Set the timings, in seconds as *clock* converts intervals:
        ``setup_s``, ``wall_s``, ``timed_s``, ``compile_s``, and the
        per-iteration ``latencies`` and ``compile_durations``. Wall time
        is the iterations' (or, on serve-fleet, the wave's) own time."""
        seconds = clock.seconds
        self.setup_s = sum(seconds(*i) for i in self.setup)
        self.wall_s = sum(seconds(*i) for i in self.runs or self.iterations)
        self.timed_s = sum(seconds(*i) for i in self.runs or self.timed)
        self.compile_durations = [seconds(*i) for i in self.compiles]
        self.compile_s = sum(self.compile_durations)
        self.latencies = [seconds(*i) for i in self.timed]

    def app_wall_clock_s(self, speed):
        """Set-up plus iterations on the wall clock, unconverted: the
        application-thread time the tracer's spans add up to."""
        return sum(
            speed.wall_seconds(*i)
            for i in self.setup + (self.runs or self.iterations)
        )


class CompileClock:
    """The intervals spent inside ``compile``/``compile_osr``, from any
    thread."""

    def __init__(self):
        self.intervals = []

    def wrap(self, fn):
        intervals = self.intervals

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                intervals.append((start, perf_counter()))

        return timed


class VmRecord:
    """Per-iteration interval and cycles of one engine (``None`` cycles
    for an iteration that trapped)."""

    def __init__(self):
        self.intervals = []
        self.cycles = []


class Round:
    """One round's context: the running job's stats and compile clock,
    the run's speedometer, and the tracer when the round is traced."""

    def __init__(self, speed, tracer=None):
        self.speed = speed
        self.tracer = tracer
        self.jobs = []
        self.job = None
        self.clock = None

    def run_job(self, job, table):
        self.job = JobStats()
        self.clock = CompileClock()
        self.speed.sample()
        job.run(self, table)
        self.job.compiles = self.clock.intervals
        self.jobs.append(self.job)

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def instrument(self, engine, patches):
        """Wrap *engine*'s layers; returns its :class:`VmRecord`."""
        record = VmRecord()
        tracer = self.tracer
        compiler = engine.compiler
        for name in ("compile", "compile_osr"):
            patches.wrap(compiler, name, self.clock.wrap)
        run_iteration = engine.run_iteration
        if tracer is not None:
            self._trace_engine(engine, patches)
            run_iteration = tracer.wrap_iteration(run_iteration)
        sample = self.speed.sample

        def timed_iteration(*args, **kwargs):
            sample()
            result = None
            start = perf_counter()
            try:
                result = run_iteration(*args, **kwargs)
                return result
            finally:
                record.intervals.append((start, perf_counter()))
                record.cycles.append(
                    result.total_cycles if result is not None else None
                )

        patches.set(engine, "run_iteration", timed_iteration)
        return record

    def _trace_engine(self, engine, patches):
        tracer = self.tracer
        compiler = engine.compiler

        def span(name):
            return lambda fn: tracer.wrap(name, fn)

        patches.wrap(engine.interpreter, "execute", span("interp"))
        patches.wrap(engine.executor, "execute", span("backend.machine"))
        for name in ("compile", "compile_osr"):
            patches.wrap(compiler, name, self._traced_compile(compiler))
        patches.wrap(compiler.context, "build_callee_graph", span("ir.build"))
        for name in ("run", "simplify_only"):
            patches.wrap(compiler.pipeline, name, tracer.wrap_pipeline)
        inliner = compiler.inliner
        if inliner is not None:
            patches.wrap(inliner, "run", self._traced_inliner)
            if hasattr(inliner, "expansion"):  # the incremental inliner
                for phase, name in (
                    ("expansion", "core.expand"),
                    ("analysis", "core.analyze"),
                    ("inlining", "core.inline"),
                ):
                    patches.wrap(
                        getattr(inliner, phase), "run",
                        lambda fn, name=name: tracer.wrap_core(name, fn),
                    )
        if engine.interpreter.osr_hook is not None:
            patches.wrap(engine.interpreter, "osr_hook", self._traced_osr)
        if hasattr(engine.code_cache, "__dict__"):  # a private CodeCache
            self.trace_cache(engine.code_cache, patches)

    def _traced_compile(self, compiler):
        tracer = self.tracer
        py = compiler.backend == "py"

        def make(fn):
            traced = tracer.wrap("jit.compile", fn)
            if not py:
                return traced

            def compile_py(*args, **kwargs):
                record = traced(*args, **kwargs)
                tracer.count("backend.pycodegen.compiles")
                if record.code.py_factory is None:
                    tracer.count("backend.pycodegen.bailouts")
                return record

            return compile_py

        return make

    def _traced_inliner(self, fn):
        tracer = self.tracer
        traced = tracer.wrap_core("core", fn)

        def run(*args, **kwargs):
            report = traced(*args, **kwargs)
            if report is not None:
                tracer.count("core.expansions", report.expansions)
                tracer.count("core.inlined", report.inline_count)
                tracer.count("core.explored_nodes", report.explored_nodes)
            return report

        return run

    def _traced_osr(self, fn):
        tracer = self.tracer
        traced = tracer.wrap("osr", fn)

        def hook(*args):
            result = traced(*args)
            tracer.count("osr.declines" if result is OSR_MISS else "osr.transfers")
            return result

        return hook

    def trace_cache(self, cache, patches):
        """Time install/evict on *cache*; wrap the py-tier entry closure
        of every code object it installs."""
        tracer = self.tracer

        def wrap_entry(factory):
            def bind(*args):
                return tracer.wrap("backend.py", factory(*args))

            return bind

        def install(fn):
            traced = tracer.wrap("jit.codecache", fn)

            def installed(*args):
                code = args[-1]
                if code.py_factory is not None:
                    patches.wrap(code, "py_factory", wrap_entry)
                tracer.count("jit.codecache.installs")
                return traced(*args)

            return installed

        def evict(fn):
            traced = tracer.wrap("jit.codecache", fn)

            def evicted(*args):
                removed = traced(*args)
                if removed:
                    tracer.count("jit.codecache.evictions")
                return removed

            return evicted

        for name in ("install", "install_osr"):
            patches.wrap(cache, name, install)
        for name in ("evict", "evict_osr"):
            patches.wrap(cache, name, evict)

    def trace_modules(self, patches):
        """Module-level layer functions, wrapped for the whole round."""
        tracer = self.tracer

        def build(fn):
            traced = tracer.wrap("ir.build", fn)

            def built(*args, **kwargs):
                graph = traced(*args, **kwargs)
                tracer.count("ir.build.nodes", graph.node_count())
                return graph

            return built

        patches.wrap(compiler_module, "build_graph", build)
        patches.wrap(
            compiler_module, "lower_graph",
            lambda fn: tracer.wrap("backend.lower", fn),
        )
        patches.wrap(
            compiler_module, "generate_py",
            lambda fn: tracer.wrap("backend.pycodegen", fn),
        )
        patches.wrap(
            engine_module, "resume_frames",
            lambda fn: tracer.wrap("deopt", fn),
        )

    def finish_vm(self, engine, record, outcomes, planned, digest, abandoned,
                  timed_from=0):
        """Fold one finished VM into the running job."""
        stats = self.job
        stats.iterations.extend(record.intervals)
        stats.timed.extend(record.intervals[timed_from:])
        stats.steady.append(steady_mean(record.cycles))
        stats.planned += planned
        stats.failed += digests.count_failures(
            digest, outcomes, engine.vm.output, planned, abandoned
        )
        stats.interp_ops += engine.interpreter.ops_executed


def steady_mean(cycles):
    """Mean cycles of the last 40% (at most 20) iterations — the
    measurement protocol of ``repro.bench.measurement``."""
    tail = [c for c in cycles[-steady_window(len(cycles)):] if c is not None]
    return sum(tail) / len(tail) if tail else None


def run_iterations(engine, entry, count):
    """Run *count* iterations; returns (outcomes, abandoned). A non-VM
    exception abandons the VM."""
    outcomes = []
    try:
        for _ in range(count):
            outcomes.append(digests.observe(
                lambda: engine.run_iteration(*entry).value
            ))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return outcomes, True
    return outcomes, False


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class EngineJob:
    """One program on one fresh engine: a suite program (cold-suite,
    steady-py) or a generated case.

    *build* returns ``(program, entry)`` and is timed as set-up with
    engine construction; *digest* names the expected outcomes as
    ``(table, key)``.
    """

    def __init__(self, build, config, warmup, timed, digest, vm_seed):
        self.build = build
        self.config = config
        self.warmup = warmup
        self.timed = timed
        self.digest = digest
        self.vm_seed = vm_seed

    def run(self, round_, table):
        stats = round_.job
        patches = Patches()
        try:
            start = perf_counter()
            with round_.span("lang"):
                program, entry = self.build()
            engine = Engine(
                program, self.config(), tuned_inliner(0.1), seed=self.vm_seed
            )
            stats.setup.append((start, perf_counter()))
            record = round_.instrument(engine, patches)
            count = self.warmup + self.timed
            outcomes, abandoned = run_iterations(engine, entry, count)
            stats.code_bytes += engine.code_cache.total_size
            name, key = self.digest
            round_.finish_vm(
                engine, record, outcomes, count, table[name][key], abandoned,
                timed_from=self.warmup,
            )
        finally:
            patches.restore()


def suite_program(name):
    """A build function compiling suite program *name* from source,
    uncached."""
    source = get_benchmark(name).source
    return lambda: (compile_source(source), ENTRY)


class WaveJob:
    """One :class:`VMService` hosting two tenants over its background
    compile worker and shared, budgeted code cache.

    The tenants take turns on one application thread
    (``run(concurrent=False)``). With a thread each, GIL hand-offs
    between them moved iter_p50_ms by 11-14% and compile_s by 11% from
    run to run, more than a bound may allow; taking turns measured 3%
    and 5%, and keeps the tenant-to-compile-worker contention.
    """

    def __init__(self, tenants, vm_seeds):
        self.tenants = [
            (benchmark, inliner, get_benchmark(benchmark).source)
            for benchmark, inliner in tenants
        ]
        self.vm_seeds = vm_seeds

    def run(self, round_, table):
        stats = round_.job
        tracer = round_.tracer
        patches = Patches()
        start = perf_counter()
        service = VMService(serve_config())
        try:
            tenants = []
            for index, (benchmark, inliner, source) in enumerate(self.tenants):
                with round_.span("lang"):
                    program = compile_source(source)
                tenant = service.admit(TenantSpec(
                    name="t%d-%s-%s" % (index, benchmark, inliner),
                    program=program, iterations=SERVE_ITERATIONS,
                    inliner=INLINERS[inliner], jit=SERVE_JIT, merge="shared",
                    seed=self.vm_seeds[index],
                ))
                tenants.append((tenant, benchmark))
            stats.setup.append((start, perf_counter()))
            records = [round_.instrument(t.engine, patches) for t, _ in tenants]
            submitted = []
            if tracer is not None:
                round_.trace_cache(service.cache, patches)
                patches.wrap(
                    service.scheduler, "submit",
                    lambda fn: self._traced_submit(tracer, fn, submitted),
                )
            run_start = perf_counter()
            report = service.run(concurrent=False)
            stats.runs.append((run_start, perf_counter()))
            stats.code_bytes += service.cache.total_size
            for (tenant, benchmark), record in zip(tenants, records):
                if tenant.error is not None:
                    print(
                        "tenant %s crashed: %r" % (tenant.name, tenant.error),
                        file=sys.stderr,
                    )
                round_.finish_vm(
                    tenant.engine, record, tenant.outcomes, SERVE_ITERATIONS,
                    table["programs"][benchmark], tenant.state == "failed",
                )
            if tracer is not None:
                self._queue_stats(
                    round_, service, report, [t for t, _ in tenants], submitted
                )
        finally:
            service.shutdown()
            patches.restore()

    @staticmethod
    def _traced_submit(tracer, fn, submitted):
        traced = tracer.wrap("serve.queue", fn)

        def submit(request):
            accepted = traced(request)
            if accepted:
                submitted.append(request)
            return accepted

        return submit

    @staticmethod
    def _queue_stats(round_, service, report, tenants, submitted):
        tracer = round_.tracer
        stats = round_.job
        stats.queue_waits_ms.extend(
            (request.started_at - request.submitted_at) * 1000.0
            for request in submitted
            if request.started_at is not None
        )
        stats.fairness.append(report.fairness)
        queue = service.queue_stats()
        tracer.count("serve.queue.submitted", len(submitted))
        tracer.count(
            "serve.queue.installed",
            sum(1 for request in submitted if request.outcome == "installed"),
        )
        tracer.count("serve.queue.rejected", queue["rejected"])
        tracer.count("serve.queue.cancelled", queue["cancelled"])
        cache = service.cache
        tracer.count("jit.codecache.policy_evictions", cache.eviction_count)
        tracer.count(
            "jit.codecache.reinstalls_after_evict",
            sum(cache.reinstalls_after_evict(t.tenant_id) for t in tenants),
        )


def plan(workload, seed, smoke=False):
    """The jobs of one round of *workload* for *seed*."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "cold-suite":
        names = [spec.name for spec in all_benchmarks()]
        rng.shuffle(names)
        jobs = [
            EngineJob(suite_program(name), cold_config, 0,
                      get_benchmark(name).iterations, ("programs", name),
                      rng.getrandbits(32))
            for name in names
        ]
    elif workload == "steady-py":
        names = py_programs()
        rng.shuffle(names)
        jobs = [
            EngineJob(suite_program(name), steady_config, STEADY_WARMUP,
                      STEADY_TIMED, ("programs", name), rng.getrandbits(32))
            for name in names
        ]
    elif workload == "generated":
        seeds = [GENERATED_BASE + index for index in range(GENERATED_CASES)]
        rng.shuffle(seeds)
        jobs = [
            EngineJob(generate_case(case_seed).build, generated_config, 0,
                      GENERATED_ITERATIONS, ("generated", str(case_seed)),
                      rng.getrandbits(32))
            for case_seed in seeds
        ]
    elif workload == "serve-fleet":
        # Every benchmark x inliner combination once per round. Which
        # two share a wave is fixed (the k-th with the k-th from the
        # end), because it sets how long each tenant runs alone: pairing
        # by seed moved iter_p50_ms by 15% between seeds.
        combos = list(product(MIXED_BENCHMARKS, MIXED_INLINERS))
        waves = [
            [combos[index], combos[-1 - index]]
            for index in range(len(combos) // 2)
        ]
        rng.shuffle(waves)
        jobs = [
            WaveJob(wave, [rng.getrandbits(32), rng.getrandbits(32)])
            for wave in waves
        ]
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return jobs[:SMOKE_JOBS[workload]] if smoke else jobs


# ----------------------------------------------------------------------
# Running and reporting
# ----------------------------------------------------------------------


def run_round(jobs, table, speed, tracer=None):
    """Run every job once; returns their :class:`JobStats` in order,
    not yet settled."""
    round_ = Round(speed, tracer)
    patches = Patches()
    try:
        if tracer is not None:
            round_.trace_modules(patches)
        for job in jobs:
            round_.run_job(job, table)
    finally:
        patches.restore()
    speed.sample()
    return round_.jobs


def run_workload(workload, seed, seconds, trace=False, smoke=False):
    """Run *workload*; returns ``(untraced rounds, traced rounds,
    tracer, speedometer)``, a round being the list of its jobs' settled
    :class:`JobStats`. With *trace*, untraced and traced rounds
    alternate, starting untraced, so the overhead compares like with
    like."""
    table = {"programs": digests.load("programs"),
             "generated": digests.load("generated")}
    jobs = plan(workload, seed, smoke)
    tracer = Tracer() if trace else None
    speed = Speedometer()
    if not smoke:
        # A smoke-sized round first, discarded: the first pass through
        # the code pays one-time costs that no later round sees.
        run_round(jobs[:SMOKE_JOBS[workload]], table, speed)
    untraced, traced = [], []
    start = perf_counter()

    def another_round(done):
        if smoke:
            return done < (2 if trace else 1)
        if done < MIN_ROUNDS:
            return True
        return (perf_counter() - start) * (done + 1) / done <= seconds

    while another_round(len(untraced) + len(traced)):
        if trace and len(untraced) > len(traced):
            traced.append(run_round(jobs, table, speed, tracer))
        else:
            untraced.append(run_round(jobs, table, speed))
    for job in (job for round_jobs in untraced + traced for job in round_jobs):
        job.settle(speed)
    return untraced, traced, tracer, speed


def percentile(sorted_values, fraction, steps=4):
    """The Harrell-Davis estimate of the *fraction* quantile of an
    ascending list: the mean of every value, the i-th of n weighted by
    the Beta((n+1)p, (n+1)(1-p)) density over [(i-1)/n, i/n] (midpoint
    rule, *steps* points each).

    A single order statistic jumps wherever the latency distribution
    thins out: generated's nearest-rank p95 spread 0.17 over ten runs,
    this estimate of it 0.04.
    """
    n = len(sorted_values)
    if n < 2:
        return sorted_values[0] if sorted_values else 0.0
    a = fraction * (n + 1) - 1.0
    b = (1.0 - fraction) * (n + 1) - 1.0
    logs = []
    for index in range(n * steps):
        x = (index + 0.5) / (n * steps)
        logs.append(a * math.log(x) + b * math.log1p(-x))
    peak = max(logs)
    weights = [
        sum(math.exp(v - peak) for v in logs[i * steps:(i + 1) * steps])
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median_sum(rounds, field):
    """Sum over jobs of each job's median *field* across *rounds*."""
    return sum(
        statistics.median(getattr(job, field) for job in runs)
        for runs in zip(*rounds)
    )


def round_total(round_jobs, field):
    return sum(getattr(job, field) for job in round_jobs)


def end_to_end(rounds):
    """The end-to-end metrics of the untraced *rounds*, as
    ``{name: {"value", "unit"}}``, plus the sample and failure counts.

    Times sum each job's median round, and latency percentiles pool,
    for every iteration of every job, its median round.
    """
    per_job = list(zip(*rounds))
    latencies = sorted(
        statistics.median(values)
        for runs in per_job
        for values in zip(*(job.latencies for job in runs))
    )
    steady = []
    for runs in per_job:
        for values in zip(*(job.steady for job in runs)):
            values = [v for v in values if v is not None]
            if values:
                steady.append(statistics.median(values))
    planned = sum(round_total(r, "planned") for r in rounds)
    failed = sum(round_total(r, "failed") for r in rounds)
    values = {
        "setup_s": median_sum(rounds, "setup_s"),
        "wall_s": median_sum(rounds, "wall_s"),
        "iters_per_s": len(latencies) / median_sum(rounds, "timed_s"),
        "iter_p50_ms": 1000.0 * percentile(latencies, 0.50),
        "iter_p95_ms": 1000.0 * percentile(latencies, 0.95),
        "compile_s": median_sum(rounds, "compile_s"),
        "steady_cycles": geomean(steady),
        "code_bytes": median_sum(rounds, "code_bytes"),
        "error_rate": failed / planned if planned else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {
        name: {"value": value, "unit": UNITS[name]}
        for name, value in values.items()
    }
    return metrics, {
        "samples": len(latencies),
        "rounds": len(rounds),
        "planned": planned,
        "failed": failed,
    }


def per_layer(untraced, traced, tracer, speed):
    """Per-layer metrics of the traced rounds, per round, as
    ``{name: {"value", "unit"}}``."""
    n = len(traced)
    self_s = tracer.self_times()
    calls = tracer.calls()
    counters = tracer.counters
    metrics = {}

    def add(name, value, unit="count"):
        metrics[name] = {"value": value, "unit": unit}

    def ratio(a, b):
        return a / b if b else 0.0

    def count(name):
        return counters.get(name, 0) / n

    for layer in LAYERS:
        add(layer + ".self_s", self_s.get(layer, 0.0) / n, "s")
        add(layer + ".calls", calls.get(layer, 0) / n)
    # Compiled-code execution on whichever tier the workload runs: the
    # one execution layer every workload exercises.
    add("exec.self_s", metrics["backend.machine.self_s"]["value"]
        + metrics["backend.py.self_s"]["value"], "s")
    traced_jobs = [job for round_jobs in traced for job in round_jobs]
    interp_ops = round_total(traced_jobs, "interp_ops") / n
    add("interp.ops", interp_ops)
    add("interp.ops_per_s",
        ratio(interp_ops, metrics["interp.self_s"]["value"]), "1/s")
    add("ir.build.nodes", count("ir.build.nodes"))
    add("core.expansions", count("core.expansions"))
    add("core.inlined", count("core.inlined"))
    add("core.inline_ratio", ratio(
        counters.get("core.inlined", 0), counters.get("core.expansions", 0)
    ), "fraction")
    add("core.explored_nodes", count("core.explored_nodes"))
    add("backend.pycodegen.bailout_ratio", ratio(
        counters.get("backend.pycodegen.bailouts", 0),
        counters.get("backend.pycodegen.compiles", 0),
    ), "fraction")
    add("osr.transfers", count("osr.transfers"))
    add("osr.declines", count("osr.declines"))
    add("jit.codecache.installs", count("jit.codecache.installs"))
    add("jit.codecache.evictions", count("jit.codecache.evictions")
        + count("jit.codecache.policy_evictions"))
    add("jit.codecache.reinstalls_after_evict",
        count("jit.codecache.reinstalls_after_evict"))
    add("jit.codecache.bytes", statistics.median(
        round_total(r, "code_bytes") for r in traced
    ), "units")
    compiles = sorted(d for job in traced_jobs for d in job.compile_durations)
    add("jit.compile.ms_p50", 1000.0 * percentile(compiles, 0.50), "ms")
    waits = sorted(w for job in traced_jobs for w in job.queue_waits_ms)
    add("serve.queue.wait_ms_p50", percentile(waits, 0.50), "ms")
    add("serve.queue.wait_ms_p95", percentile(waits, 0.95), "ms")
    add("serve.queue.install_ratio", ratio(
        counters.get("serve.queue.installed", 0),
        counters.get("serve.queue.submitted", 0),
    ), "fraction")
    add("serve.queue.rejected", count("serve.queue.rejected"))
    add("serve.queue.cancelled", count("serve.queue.cancelled"))
    fairness = [f for job in traced_jobs for f in job.fairness]
    add("serve.fairness",
        statistics.mean(fairness) if fairness else 0.0, "index")
    # Application-thread wall by the benchmark's own clocks, not the
    # tracer's: time outside every span (engine construction, the
    # iteration loop, serve's end-of-wave drain) shows as the error.
    app_wall = sum(job.app_wall_clock_s(speed) for job in traced_jobs)
    app_self = sum(t["self_sum_s"] for t in tracer.threads() if t["application"])
    unattributed = self_s.get("engine.iteration", 0.0)
    add("engine.unattributed_s", unattributed / n, "s")
    add("engine.unattributed_pct", 100.0 * ratio(unattributed, app_wall), "%")
    add("trace.wall_s", app_wall / n, "s")
    add("trace.accounting_error_pct",
        100.0 * ratio(abs(app_self - app_wall), app_wall), "%")
    overhead = median_sum(traced, "wall_s") / median_sum(untraced, "wall_s") - 1.0
    add("trace.overhead_pct", 100.0 * overhead, "%")
    add("trace.spans_dropped", tracer.dropped / n)
    return metrics


def regen_expected():
    """Recompute ``expected/`` with the classic interpreter."""
    needs = {}
    for spec in all_benchmarks():
        needs[spec.name] = spec.iterations
    for name in py_programs():
        needs[name] = max(needs[name], STEADY_WARMUP + STEADY_TIMED)
    for name in MIXED_BENCHMARKS:
        needs[name] = max(needs[name], SERVE_ITERATIONS)
    for name in PY_EXCLUDED:
        needs[name] = max(needs[name], PROBE_ITERATIONS)
    programs = {}
    for name, iterations in sorted(needs.items()):
        program = compile_source(get_benchmark(name).source)
        programs[name] = digests.reference_digest(program, ENTRY, iterations)
        print("expected: %s x%d" % (name, iterations), flush=True)
    digests.save("programs", programs)
    generated = {}
    for index in range(GENERATED_CASES):
        case_seed = GENERATED_BASE + index
        program, entry = generate_case(case_seed).build()
        generated[str(case_seed)] = digests.reference_digest(
            program, entry, GENERATED_ITERATIONS
        )
    digests.save("generated", generated)
    print("expected: %d generated cases x%d"
          % (GENERATED_CASES, GENERATED_ITERATIONS))


def probe_excluded():
    """Run each py-excluded program for PROBE_ITERATIONS iterations
    under the steady-py config; informational, not a metric."""
    table = digests.load("programs")
    for name in PY_EXCLUDED:
        program = compile_source(get_benchmark(name).source)
        engine = Engine(program, steady_config(), tuned_inliner(0.1))
        outcomes, abandoned = [], False
        try:
            for _ in range(PROBE_ITERATIONS):
                outcomes.append(digests.observe(
                    lambda: engine.run_iteration(*ENTRY).value
                ))
        except Exception as error:
            abandoned = True
            verdict = "still fails at iteration %d: %s: %s" % (
                len(outcomes) + 1, type(error).__name__, error
            )
        failed = digests.count_failures(
            table[name], outcomes, engine.vm.output, PROBE_ITERATIONS,
            abandoned,
        )
        if not abandoned:
            verdict = (
                "now passes %d iterations" % PROBE_ITERATIONS
                if failed == 0
                else "runs, but %d iterations disagree with the digest" % failed
            )
        print("%-10s %s" % (name, verdict))
