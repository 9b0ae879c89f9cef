"""Backend tests: lowering (phi moves, stubs), machine execution, cost
model and instruction-cache model."""

import pytest

from repro.backend import CostModel, ICacheModel, lower_graph
from repro.backend import machine as m
from repro.errors import DivisionByZeroTrap
from repro.ir import build_graph
from repro.ir import nodes as n
from tests.execution import compare_tiers, execute_graph
from tests.helpers import shapes_program, single_method_program


class TestLowering:
    def test_block_cost_prefix(self):
        def build(b):
            b.load(0).load(0).mul().retv()

        program = single_method_program(build)
        graph = build_graph(program.lookup_method("T", "f"), program)
        code = lower_graph(graph)
        assert code.instrs[0][0] == m.M_COST
        assert code.instrs[0][1] > 0
        assert code.size == len(code.instrs)

    def test_listing_smoke(self):
        program = shapes_program()
        graph = build_graph(program.lookup_method("Main", "run"), program)
        code = lower_graph(graph)
        listing = code.listing()
        assert "CALL" in listing or "VCALL" in listing

    def test_phi_moves_on_edges(self):
        def build(b):
            other = b.new_label()
            join = b.new_label()
            b.load(0).if_true(other)
            b.const(10).store(1).goto(join)
            b.place(other).const(20).store(1)
            b.place(join).load(1).retv()

        program = single_method_program(build)
        for arg, expected in [(0, 10), (1, 20)]:
            compare_tiers(program, "T", "f", [arg])

    def test_swap_cycle_parallel_copy(self):
        # A loop that swaps two phis each iteration: requires the
        # cycle-breaking scratch register to lower correctly.
        def build(b):
            loop = b.new_label()
            done = b.new_label()
            a = b.alloc_local()
            c = b.alloc_local()
            i = b.alloc_local()
            b.const(1).store(a).const(2).store(c).const(0).store(i)
            b.place(loop).load(i).load(0).ge().if_true(done)
            # swap a and c via a temp local, creating phi cycles
            tmp = b.alloc_local()
            b.load(a).store(tmp)
            b.load(c).store(a)
            b.load(tmp).store(c)
            b.load(i).const(1).add().store(i)
            b.goto(loop)
            b.place(done).load(a).const(10).mul().load(c).add().retv()

        program = single_method_program(build)
        for count, expected in [(0, 12), (1, 21), (2, 12), (5, 21)]:
            result = compare_tiers(program, "T", "f", [count])
            assert result == expected

    def test_loop_execution(self):
        def build(b):
            loop = b.new_label()
            done = b.new_label()
            acc = b.alloc_local()
            b.const(0).store(acc)
            b.place(loop).load(0).const(0).le().if_true(done)
            b.load(acc).load(0).add().store(acc)
            b.load(0).const(1).sub().store(0)
            b.goto(loop)
            b.place(done).load(acc).retv()

        program = single_method_program(build)
        assert compare_tiers(program, "T", "f", [10]) == 55


class TestMachineSemantics:
    def test_whole_shapes_program(self):
        from tests.helpers import SHAPES_RESULT

        program = shapes_program()
        graph = build_graph(program.lookup_method("Main", "run"), program)
        result, _ = execute_graph(graph, program)
        assert result == SHAPES_RESULT

    def test_division_trap(self):
        def build(b):
            b.load(0).load(1).div().retv()

        program = single_method_program(build, params=("int", "int"))
        graph = build_graph(program.lookup_method("T", "f"), program)
        with pytest.raises(DivisionByZeroTrap):
            execute_graph(graph, program, [1, 0])

    def test_cycle_accounting(self):
        def build(b):
            b.load(0).load(0).mul().retv()

        program = single_method_program(build)
        graph = build_graph(program.lookup_method("T", "f"), program)
        from tests.execution import _NullSink
        from repro.backend.machine import MachineExecutor
        from repro.interp import Interpreter
        from repro.runtime import VMState

        vm = VMState(program)
        sink = _NullSink()
        executor = MachineExecutor(vm, Interpreter(vm).execute, sink)
        code = lower_graph(graph)
        executor.execute(code, [3])
        assert sink.compiled_cycles >= code.entry_cost

    def test_intrinsic_called_natively(self):
        def build(b):
            b.load(0).invokestatic("Builtins", "abs").retv()

        program = single_method_program(build)
        graph = build_graph(program.lookup_method("T", "f"), program)
        result, _ = execute_graph(graph, program, [-9])
        assert result == 9


class TestCostModel:
    def test_call_kind_ordering(self):
        cost = CostModel()
        assert cost.call_cost("static") < cost.call_cost("virtual")
        assert cost.call_cost("virtual") < cost.call_cost("interface")
        assert cost.call_cost("direct") == cost.call_cost("static")

    def test_node_costs(self):
        cost = CostModel()
        add = n.BinOpNode("ADD", n.ConstIntNode(1), n.ConstIntNode(2))
        assert cost.node_cost(add) == cost.ARITHMETIC
        assert cost.node_cost(n.NewNode("X")) == cost.ALLOC_OBJECT
        assert cost.node_cost(n.ConstIntNode(5)) == 0

    def test_interpreter_gap(self):
        cost = CostModel()
        assert cost.INTERPRETED_OP > 10 * cost.ARITHMETIC

    def test_compile_cost_scales(self):
        cost = CostModel()
        assert cost.compile_cost(100) < cost.compile_cost(1000)


class TestICache:
    def test_no_penalty_under_capacity(self):
        icache = ICacheModel(capacity=1000, penalty=50)
        assert icache.entry_penalty(999) == 0
        assert icache.entry_penalty(1000) == 0

    def test_penalty_grows_with_excess(self):
        icache = ICacheModel(capacity=1000, penalty=50)
        small = icache.entry_penalty(1500)
        large = icache.entry_penalty(3000)
        assert 0 < small < large

    def test_penalty_saturates(self):
        icache = ICacheModel(capacity=1000, penalty=50, max_ratio=2.0)
        assert icache.entry_penalty(10_000) == icache.entry_penalty(100_000)
