"""Graph surgery tests: copy and the inline substitution itself."""

from repro.ir import build_graph, check_graph
from repro.ir import nodes as n
from tests.execution import compare_tiers, execute_graph
from tests.helpers import shapes_program, single_method_program


class TestCopy:
    def test_copy_preserves_structure_and_identity(self):
        program = shapes_program()
        graph = build_graph(program.lookup_method("Main", "run"), program)
        clone, node_map = graph.copy()
        check_graph(clone, program)
        assert clone.node_count() == graph.node_count()
        assert len(clone.blocks) == len(graph.blocks)
        # Fully fresh nodes: no object shared.
        originals = {id(x) for x in graph.all_nodes()}
        for node in clone.all_nodes():
            assert id(node) not in originals

    def test_copy_executes_identically(self):
        program = shapes_program()
        graph = build_graph(program.lookup_method("Main", "run"), program)
        clone, _ = graph.copy()
        expected, _ = execute_graph(graph, program)
        actual, _ = execute_graph(clone, program)
        assert expected == actual

    def test_copy_remaps_phis(self):
        def build(b):
            other = b.new_label()
            join = b.new_label()
            b.load(0).if_true(other)
            b.const(1).store(1).goto(join)
            b.place(other).const(2).store(1)
            b.place(join).load(1).retv()

        program = single_method_program(build)
        graph = build_graph(program.lookup_method("T", "f"), program)
        clone, node_map = graph.copy()
        check_graph(clone, program)
        phis = [p for block in clone.blocks for p in block.phis]
        assert len(phis) == 1
        for value in phis[0].inputs:
            assert value.block in clone.blocks or value in clone.params


class TestInlineCall:
    def test_inline_preserves_semantics(self):
        program = shapes_program()
        graph = build_graph(program.lookup_method("Main", "run"), program)
        expected, _ = execute_graph(graph, program)
        target = [i for i in graph.invokes() if i.method_name == "total"][0]
        callee = build_graph(program.lookup_method("Main", "total"), program)
        graph.inline_call(target, callee)
        check_graph(graph, program)
        actual, _ = execute_graph(graph, program)
        assert actual == expected
        # One total callsite remains (the other path), plus area calls.
        remaining = [i for i in graph.invokes() if i.method_name == "total"]
        assert len(remaining) == 1

    def test_inline_void_callee(self):
        from repro.bytecode import MethodBuilder
        from tests.helpers import fresh_program

        program = fresh_program()
        holder = program.define_class("H", is_abstract=True)
        b = MethodBuilder("emit", ["int"], "void", is_static=True)
        b.load(0).invokestatic("Builtins", "print").ret()
        holder.add_method(b.build())
        b = MethodBuilder("f", ["int"], "int", is_static=True)
        b.load(0).invokestatic("H", "emit").load(0).retv()
        holder.add_method(b.build())
        graph = build_graph(program.lookup_method("H", "f"), program)
        (invoke,) = [i for i in graph.invokes() if i.method_name == "emit"]
        callee = build_graph(program.lookup_method("H", "emit"), program)
        graph.inline_call(invoke, callee)
        check_graph(graph, program)
        compare_tiers(program, "H", "f", [5], graph=graph)

    def test_inline_multi_return_callee_merges_with_phi(self):
        from repro.bytecode import MethodBuilder
        from tests.helpers import fresh_program

        program = fresh_program()
        holder = program.define_class("H", is_abstract=True)
        b = MethodBuilder("pick", ["int"], "int", is_static=True)
        neg = b.new_label()
        b.load(0).const(0).lt().if_true(neg)
        b.const(1).retv()
        b.place(neg).const(-1).retv()
        holder.add_method(b.build())
        b = MethodBuilder("f", ["int"], "int", is_static=True)
        b.load(0).invokestatic("H", "pick").const(100).mul().retv()
        holder.add_method(b.build())
        graph = build_graph(program.lookup_method("H", "f"), program)
        (invoke,) = graph.invokes()
        callee = build_graph(program.lookup_method("H", "pick"), program)
        result = graph.inline_call(invoke, callee)
        check_graph(graph, program)
        assert isinstance(result, n.PhiNode)
        compare_tiers(program, "H", "f", [5], graph=graph)
        graph2 = build_graph(program.lookup_method("H", "f"), program)
        (invoke2,) = graph2.invokes()
        callee2 = build_graph(program.lookup_method("H", "pick"), program)
        graph2.inline_call(invoke2, callee2)
        compare_tiers(program, "H", "f", [-5], graph=graph2)

    def test_argument_wiring(self):
        program = shapes_program()
        graph = build_graph(program.lookup_method("Main", "total"), program)
        area_callee = build_graph(program.lookup_method("Square", "area"), program)
        # Inline area directly at the interface callsite (as the inliner
        # would after devirtualization): rebind first.
        (invoke,) = graph.invokes()
        invoke.devirtualize(program.lookup_method("Square", "area"))
        graph.inline_call(invoke, area_callee)
        check_graph(graph, program)
        loads = [
            x
            for block in graph.blocks
            for x in block.instrs
            if isinstance(x, n.LoadFieldNode)
        ]
        # Field loads now read from the original receiver parameter.
        assert loads and all(l.inputs[0] is graph.params[0] for l in loads)

    def test_pipeline_removes_the_continuation_of_a_never_returning_callee(
        self, monkeypatch
    ):
        """``inline_call`` strands the continuation of a callee that
        never returns (``after.preds = []``); the pipeline's
        unreachable-block pass is what removes it, and with it the
        calls it held, which ``graph.invokes()`` would list otherwise."""
        from repro.bytecode import MethodBuilder
        from repro.opts import pipeline
        from repro.opts.pipeline import OptimizationPipeline
        from tests.helpers import fresh_program

        program = fresh_program()
        holder = program.define_class("H", is_abstract=True)
        b = MethodBuilder("spin", ["int"], "void", is_static=True)
        loop = b.new_label()
        b.place(loop).load(0).invokestatic("Builtins", "print").goto(loop)
        holder.add_method(b.build())
        b = MethodBuilder("f", ["int"], "int", is_static=True)
        b.load(0).invokestatic("H", "spin")
        b.load(0).const(1).add().invokestatic("Builtins", "abs").retv()
        holder.add_method(b.build())

        def inlined():
            graph = build_graph(program.lookup_method("H", "f"), program)
            (invoke,) = [i for i in graph.invokes() if i.method_name == "spin"]
            callee = build_graph(program.lookup_method("H", "spin"), program)
            graph.inline_call(invoke, callee)
            (after,) = [
                b for b in graph.blocks if not b.preds and b is not graph.entry
            ]
            return graph, after

        graph, after = inlined()
        assert any(i.method_name == "abs" for i in graph.invokes())
        OptimizationPipeline(program).run(graph)
        check_graph(graph, program)
        assert after not in graph.blocks
        assert [i.method_name for i in graph.invokes()] == ["print"]

        # Without the pass, nothing else removes it.
        monkeypatch.setattr(pipeline, "remove_unreachable_blocks", lambda g: 0)
        graph, after = inlined()
        OptimizationPipeline(program).run(graph)
        assert after in graph.blocks
        assert "abs" in [i.method_name for i in graph.invokes()]
