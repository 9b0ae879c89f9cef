"""Structural-validity stress: compile every benchmark's hot methods
under the incremental inliner with the IR checker enabled after
inlining and after the final pipeline.

This is the deepest structural net in the suite: every graph the
inliner produces across all 28 workloads must satisfy full SSA
invariants (dominance, edge/phi consistency, use-def symmetry).
"""

import pytest

from repro.baselines import tuned_inliner
from repro.bench.suite import all_benchmarks
from repro.ir.checker import check_graph
from repro.jit import Engine, JitConfig


@pytest.mark.slow
@pytest.mark.parametrize("name", [spec.name for spec in all_benchmarks()])
def test_checked_compilation(name):
    from repro.bench.suite import get_benchmark
    from repro.ir.builder import build_graph
    from repro.ir.frequency import annotate_frequencies

    spec = get_benchmark(name)
    program = spec.load()
    engine = Engine(
        program, JitConfig(hot_threshold=20), inliner=tuned_inliner(0.1)
    )

    compiler = engine.compiler
    original_compile = compiler.compile
    checked = {"count": 0}

    def checked_compile(method):
        # Re-run the compiler's stages with checks interleaved.
        graph = build_graph(method, program, engine.profiles)
        annotate_frequencies(graph)
        compiler.pipeline.run(graph, peel=False, rwe=False)
        check_graph(graph, program)
        compiler.inliner.run(graph, compiler.context)
        check_graph(graph, program)
        annotate_frequencies(graph)
        compiler.pipeline.run(graph)
        check_graph(graph, program)
        checked["count"] += 1
        # Delegate the actual installation to the real compiler (it
        # rebuilds; determinism makes the result equivalent).
        return original_compile(method)

    compiler.compile = checked_compile
    values = set()
    for _ in range(5):
        values.add(engine.run_iteration("Main", "run").value)
    assert checked["count"] > 0, "nothing got hot on %s" % name
    # And the benchmark still computed consistently.
    vm_values = len(values)
    assert vm_values <= 2  # setup iteration may differ; steady must not
