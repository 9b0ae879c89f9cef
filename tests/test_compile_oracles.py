"""The compile fast paths against their oracles.

``Graph.copy`` (slot-based), the expansion phase's ``PriorityCache``
and the per-compilation ``TrialMemo`` are each the only implementation
the VM ships. Their old forms are test-local oracles: the
constructor-based copy (``tests/test_ir_graph_copy.py``), the uncached
Eq. 5–7 priorities (``tests/test_priority_cache.py``) and a compiler
with its memo detached. Each mechanism is checked against its own
oracle in those files; here two programs run through the shipped paths
and again with all three oracles applied together, and iteration
values, per-iteration cycles, interpreted op counts and printed output
must be identical.

The second half checks the compile-time skips the same way. The
pipeline skips passes that are clean, the compiler skips the
post-inline run when the last end-of-round run ended at the fixpoint,
and ``build_callee_graph`` builds each callee graph once per
compilation. Their oracles, :func:`legacy_pipeline_run` and
:func:`uncached_build_callee_graph`, are the code those paths
replaced. Every compile's machine listing, py source, node count and
compile cycles must match, and so must every iteration's value and
cycles and the printed output. The programs are the 28 suite programs
under the cold-suite configuration, generated cases under the
generated one (py tier, speculation, OSR), and the greedy and C2
baselines, which build callee graphs but never run the end-of-round
pipeline.
"""

import collections

import pytest

import repro.core.expansion as expansion_mod
from repro.baselines import C2Inliner, GreedyInliner, tuned_inliner
from repro.bench.suite import all_benchmarks, get_benchmark
from repro.errors import ReproError
from repro.fuzz.generator import generate_case
from repro.ir.builder import build_graph
from repro.ir.frequency import annotate_frequencies
from repro.ir.graph import Graph
from repro.jit.compiler import CompileContext, JitCompiler
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.lang import compile_source
from repro.opts.canonicalize import canonicalize
from repro.opts.dce import merge_blocks, remove_dead_nodes, remove_unreachable_blocks
from repro.opts.gvn import global_value_numbering
from repro.opts.peeling import peel_loops
from repro.opts.pipeline import OptimizationPipeline, PipelineStats
from repro.opts.rwelim import read_write_elimination
from tests.test_ir_graph_copy import _copy_reference
from tests.test_opts_bookkeeping import (
    GENERATED_BASE,
    generated_config,
    suite_config,
)
from tests.test_priority_cache import UncachedPriorities

#: name -> (config factory, iterations).
WORKLOADS = {
    # Compilation-dominated: every method compiles on its second call,
    # and the tuned inliner explores deep call trees.
    "kiama": (
        lambda: JitConfig(hot_threshold=2, interp_predecode=False), 6
    ),
    # The default tiered configuration.
    "jython": (JitConfig, 4),
}


def _run(name, memo=True):
    make_config, iterations = WORKLOADS[name]
    engine = Engine(
        get_benchmark(name).load(),
        make_config(),
        inliner=tuned_inliner(0.1),
        seed=0x5EED,
    )
    if not memo:
        engine.compiler.context.trial_memo = None
    values, cycles = [], []
    for _ in range(iterations):
        result = engine.run_iteration("Main", "run")
        values.append(result.value)
        cycles.append(result.total_cycles)
    observed = (
        values,
        cycles,
        engine.interpreter.ops_executed,
        list(engine.vm.output),
    )
    return observed, engine


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shipped_paths_match_all_oracles(monkeypatch, name):
    shipped, engine = _run(name)
    assert engine.compilation_count > 0
    memo_hits = engine.compiler.context.trial_memo.hits

    calls = collections.Counter()

    def reference_copy(graph):
        calls["copy"] += 1
        return _copy_reference(graph)

    class CountedPriorities(UncachedPriorities):
        def __init__(self, params):
            calls["priorities"] += 1
            super().__init__(params)

    monkeypatch.setattr(Graph, "copy", reference_copy)
    monkeypatch.setattr(expansion_mod, "PriorityCache", CountedPriorities)
    oracle, _ = _run(name, memo=False)
    assert calls["priorities"] > 0
    assert oracle == shipped

    # Only the trial memo calls Graph.copy, so the run above took no
    # copies. With the memo attached, the memo copies through the
    # reference copy instead.
    calls.clear()
    copied, _ = _run(name)
    assert calls["copy"] > 0 or memo_hits == 0
    assert copied == shipped


# ---------------------------------------------------------------------------
# Pass skipping, the post-inline skip and the callee-graph cache
# ---------------------------------------------------------------------------


def legacy_pipeline_run(pipeline, graph, peel=None, rwe=None):
    """Every pass in every iteration. ``at_fixpoint`` stays False, so
    the compiler's post-inline run always runs too."""
    config = pipeline.config
    program = pipeline.program
    devirtualize = config.enable_devirtualization
    do_peel = config.enable_peeling if peel is None else peel
    do_rwe = config.enable_rwe if rwe is None else rwe
    stats = PipelineStats()
    for _ in range(config.iterations_for(graph.node_count())):
        before = graph.node_count()
        stats.merge(canonicalize(graph, program, devirtualize=devirtualize))
        remove_unreachable_blocks(graph)
        global_value_numbering(graph)
        remove_dead_nodes(graph)
        merge_blocks(graph)
        if do_rwe:
            read_write_elimination(graph, program)
            remove_dead_nodes(graph)
        if graph.node_count() == before and stats.rounds > 1:
            break
    if do_peel and peel_loops(graph, program):
        stats.merge(canonicalize(graph, program, devirtualize=devirtualize))
        remove_unreachable_blocks(graph)
        global_value_numbering(graph)
        remove_dead_nodes(graph)
        merge_blocks(graph)
    return stats


def uncached_build_callee_graph(context, method, caller=None):
    """A fresh build on every call."""
    profiles = context.profiles
    if (
        profiles is not None
        and caller is not None
        and getattr(profiles, "context_sensitive", False)
    ):
        profiles = profiles.view_for_caller(caller)
    graph = build_graph(
        method,
        context.program,
        profiles,
        speculate=context.speculate,
        speculation=context.speculation,
    )
    decisions = getattr(graph, "typecheck_decisions", None)
    if decisions:
        context.typecheck_decisions.extend(decisions)
    annotate_frequencies(graph)
    return graph


GENERATED_CASES = 100
#: Baseline runs: programs with deep call trees and polymorphic sites.
BASELINE_PROGRAMS = ("xalan", "pmd", "factorie", "kiama", "scalac")


def suite_job(name, inliner=tuned_inliner):
    spec = get_benchmark(name)
    return (
        lambda: (compile_source(spec.source), ("Main", "run")),
        suite_config, inliner, spec.iterations,
    )


def generated_jobs():
    return [
        (generate_case(GENERATED_BASE + index).build, generated_config,
         tuned_inliner, 5)
        for index in range(GENERATED_CASES)
    ]


def compile_and_run(jobs, oracles):
    """Run *jobs* on fresh engines; returns every compilation's output,
    every iteration's outcome and the printed output, plus counts of
    pipeline runs and callee builds."""
    compiles, outcomes = [], []
    counts = collections.Counter()
    compile_method = JitCompiler._compile
    pipeline_run = (
        legacy_pipeline_run if oracles else OptimizationPipeline.run
    )
    build_callee = (
        uncached_build_callee_graph if oracles
        else CompileContext.build_callee_graph
    )

    def logged(compiler, *args):
        record = compile_method(compiler, *args)
        compiles.append((
            record.method.qualified_name,
            record.code.listing(),
            record.code.py_source,
            record.graph_nodes,
            record.compile_cycles,
        ))
        return record

    def counted_run(pipeline, *args, **kwargs):
        counts["pipeline runs"] += 1
        return pipeline_run(pipeline, *args, **kwargs)

    def counted_build(context, *args, **kwargs):
        counts["callee builds"] += 1
        return build_callee(context, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(JitCompiler, "_compile", logged)
        mp.setattr(OptimizationPipeline, "run", counted_run)
        mp.setattr(CompileContext, "build_callee_graph", counted_build)
        for index, (build, config, inliner, iterations) in enumerate(jobs):
            program, entry = build()
            engine = Engine(program, config(), inliner(), seed=index)
            for _ in range(iterations):
                try:
                    result = engine.run_iteration(*entry)
                except ReproError as error:
                    outcomes.append((type(error).__name__, str(error)))
                else:
                    value = result.value
                    outcomes.append((
                        value if isinstance(value, int) else type(value).__name__,
                        result.total_cycles,
                    ))
            outcomes.append(list(engine.vm.output))
            counts["graphs reused"] += (
                engine.compiler.context.trial_memo.graphs_reused
            )
    return (compiles, outcomes), counts


def assert_matches_oracles(jobs):
    shipped, counts = compile_and_run(jobs, oracles=False)
    oracle, oracle_counts = compile_and_run(jobs, oracles=True)
    assert shipped[0]
    assert shipped == oracle
    assert oracle_counts["graphs reused"] == 0
    assert counts["callee builds"] == oracle_counts["callee builds"]
    return counts, oracle_counts


@pytest.mark.parametrize("name", [spec.name for spec in all_benchmarks()])
def test_cold_suite_matches_oracles(name):
    assert_matches_oracles([suite_job(name)])


def test_generated_cases_match_oracles():
    counts, oracle_counts = assert_matches_oracles(generated_jobs())
    # The shipped paths did skip work on this corpus.
    assert counts["graphs reused"] > 0
    assert counts["pipeline runs"] < oracle_counts["pipeline runs"]


@pytest.mark.parametrize("inliner", [GreedyInliner, C2Inliner])
def test_baselines_match_oracles(inliner):
    counts, oracle_counts = assert_matches_oracles(
        [suite_job(name, inliner) for name in BASELINE_PROGRAMS]
    )
    assert counts["graphs reused"] > 0
    # Neither baseline runs the end-of-round pipeline, so no post-inline
    # run is skipped.
    assert counts["pipeline runs"] == oracle_counts["pipeline runs"]
