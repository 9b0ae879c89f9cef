"""End-to-end tests of the incremental inliner and its phases."""

import pytest

from repro.bytecode import MethodBuilder
from repro.core import IncrementalInliner, InlinerParams
from repro.core.calltree import NodeKind
from repro.ir import annotate_frequencies, build_graph, check_graph
from repro.ir import nodes as n
from repro.jit.compiler import CompileContext
from repro.opts.pipeline import OptimizationPipeline
from tests.execution import execute_graph
from tests.helpers import SHAPES_RESULT, fresh_program, run_static, shapes_program


def _prepare(program, method=("Main", "run")):
    _, _, interp = run_static(program, "Main", "run")
    graph = build_graph(
        program.lookup_method(*method), program, interp.profiles
    )
    annotate_frequencies(graph)
    context = CompileContext(
        program, interp.profiles, OptimizationPipeline(program), None
    )
    return graph, context


class TestEndToEnd:
    def test_inlines_and_preserves_semantics(self):
        program = shapes_program()
        graph, context = _prepare(program)
        inliner = IncrementalInliner(InlinerParams.scaled(0.1))
        report = inliner.run(graph, context)
        check_graph(graph, program)
        assert report.inline_count > 0
        result, _ = execute_graph(graph, program)
        assert result == SHAPES_RESULT

    def test_typeswitch_emitted_for_polymorphic_callsite(self):
        program = shapes_program()
        graph, context = _prepare(program, method=("Main", "total"))
        inliner = IncrementalInliner(InlinerParams.scaled(0.1))
        report = inliner.run(graph, context)
        check_graph(graph, program)
        assert report.typeswitch_count == 1
        exact_checks = [
            x
            for block in graph.blocks
            for x in block.instrs
            if isinstance(x, n.InstanceOfNode) and x.exact
        ]
        assert exact_checks
        # A virtual fallback call must remain.
        fallbacks = [i for i in graph.invokes() if i.is_dispatched]
        assert fallbacks

    def test_typeswitch_semantics(self):
        from repro.runtime import VMState

        program = shapes_program()
        graph, context = _prepare(program, method=("Main", "total"))
        IncrementalInliner(InlinerParams.scaled(0.1)).run(graph, context)
        vm = VMState(program)
        square = vm.allocate("Square")
        square.fields["side"] = 6
        circle = vm.allocate("Circle")
        circle.fields["r"] = 2
        for receiver, expected in [(square, 72), (circle, 24)]:
            result, _ = execute_graph(graph, program, [receiver, 2], vm=vm)
            assert result == expected

    def test_report_fields(self):
        program = shapes_program()
        graph, context = _prepare(program)
        report = IncrementalInliner(InlinerParams.scaled(0.1)).run(graph, context)
        assert report.rounds >= 1
        assert report.final_root_size == graph.node_count()
        assert report.explored_nodes > 0
        assert "Main.total" in report.inlined_methods

    def test_recursive_method_terminates(self):
        program = fresh_program()
        holder = program.define_class("R", is_abstract=True)
        b = MethodBuilder("fact", ["int"], "int", is_static=True)
        rec = b.new_label()
        b.load(0).const(2).ge().if_true(rec)
        b.const(1).retv()
        b.place(rec).load(0)
        b.load(0).const(1).sub().invokestatic("R", "fact")
        b.mul().retv()
        holder.add_method(b.build())
        b = MethodBuilder("run", [], "int", is_static=True)
        b.const(10).invokestatic("R", "fact").retv()
        holder.add_method(b.build())
        from tests.helpers import run_static as rs

        _, _, interp = rs(program, "R", "run")
        graph = build_graph(program.lookup_method("R", "run"), program, interp.profiles)
        annotate_frequencies(graph)
        context = CompileContext(
            program, interp.profiles, OptimizationPipeline(program), None
        )
        report = IncrementalInliner(InlinerParams.scaled(0.1)).run(graph, context)
        check_graph(graph, program)
        result, _ = execute_graph(graph, program)
        assert result == 3628800
        # Recursion must not explode the graph.
        assert graph.node_count() < 400

    def test_root_size_bailout(self):
        program = shapes_program()
        graph, context = _prepare(program)
        params = InlinerParams.scaled(0.1)
        params.max_root_size = graph.node_count() + 1
        report = IncrementalInliner(params).run(graph, context)
        assert report.final_root_size <= params.max_root_size + 50

    def test_never_inline_respected(self):
        program = shapes_program()
        program.lookup_method("Main", "total").never_inline = True
        try:
            graph, context = _prepare(program)
            report = IncrementalInliner(InlinerParams.scaled(0.1)).run(
                graph, context
            )
            assert "Main.total" not in report.inlined_methods
            remaining = [i for i in graph.invokes() if i.method_name == "total"]
            assert len(remaining) == 2
        finally:
            program.lookup_method("Main", "total").never_inline = False


class TestAblationKnobs:
    def test_fixed_expansion_threshold_limits_tree(self):
        program = shapes_program()
        graph, context = _prepare(program)
        tiny = IncrementalInliner(
            InlinerParams.scaled(0.1), adaptive_expansion=False, fixed_te=1
        )
        report = tiny.run(graph, context)
        assert report.expansions == 0

    def test_fixed_inline_threshold_limits_growth(self):
        program = shapes_program()
        graph, context = _prepare(program)
        before = graph.node_count()
        frozen = IncrementalInliner(
            InlinerParams.scaled(0.1), adaptive_inlining=False, fixed_ti=1
        )
        report = frozen.run(graph, context)
        assert report.inline_count == 0
        assert graph.node_count() == before

    def test_one_by_one_still_correct(self):
        program = shapes_program()
        graph, context = _prepare(program)
        inliner = IncrementalInliner(InlinerParams.scaled(0.1), clustering=False)
        inliner.run(graph, context)
        check_graph(graph, program)
        result, _ = execute_graph(graph, program)
        assert result == SHAPES_RESULT

    def test_shallow_trials_still_correct(self):
        program = shapes_program()
        graph, context = _prepare(program)
        inliner = IncrementalInliner(InlinerParams.scaled(0.1), deep_trials=False)
        inliner.run(graph, context)
        check_graph(graph, program)
        result, _ = execute_graph(graph, program)
        assert result == SHAPES_RESULT


class TestFrequencyRefresh:
    def test_refresh_assigns_root_relative_frequencies(self):
        from repro.core.inliner import refresh_frequencies
        from repro.core.calltree import make_root
        from repro.core.trials import discover_children

        program = shapes_program()
        graph, context = _prepare(program)
        root = make_root(graph)
        discover_children(root, context, InlinerParams())
        refresh_frequencies(root)
        for child in root.children:
            if child.kind != NodeKind.DELETED:
                assert child.frequency == pytest.approx(child.invoke.frequency)
