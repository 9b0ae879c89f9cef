"""Canonicalization tests: each rewrite family plus the counters
feeding deep inlining trials (N_s)."""

from repro.bytecode import MethodBuilder, Op
from repro.ir import build_graph, check_graph
from repro.ir import nodes as n
from repro.ir import stamps as stm
from repro.opts import canonicalize
from tests.execution import compare_tiers
from tests.helpers import (
    fresh_program,
    run_fresh,
    shapes_program,
    single_method_program,
)


def _canon(program, class_name, method_name, **kwargs):
    graph = build_graph(program.lookup_method(class_name, method_name), program)
    stats = canonicalize(graph, program, **kwargs)
    check_graph(graph, program)
    return graph, stats


class TestConstantFolding:
    def test_arithmetic_chain_folds(self):
        def build(b):
            b.const(6).const(7).mul().const(2).add().retv()

        program = single_method_program(build, params=())
        graph, stats = _canon(program, "T", "f")
        assert stats.constant_folds >= 2
        ret = graph.blocks[-1].terminator
        returns = [
            blk.terminator
            for blk in graph.blocks
            if isinstance(blk.terminator, n.ReturnNode)
        ]
        assert returns[0].value().stamp.constant_value() == 44

    def test_division_by_zero_not_folded(self):
        def build(b):
            b.const(1).const(0).div().retv()

        program = single_method_program(build, params=())
        graph, stats = _canon(program, "T", "f")
        divs = [
            x
            for block in graph.blocks
            for x in block.instrs
            if isinstance(x, n.BinOpNode) and x.op == Op.DIV
        ]
        assert divs  # kept: it must trap at runtime

    def test_compare_folds(self):
        def build(b):
            b.const(3).const(5).lt().retv()

        program = single_method_program(build, params=())
        _, stats = _canon(program, "T", "f")
        assert stats.constant_folds >= 1

    def test_same_node_compare(self):
        def build(b):
            b.load(0).load(0).eq().retv()

        program = single_method_program(build)
        graph, stats = _canon(program, "T", "f")
        returns = [
            blk.terminator
            for blk in graph.blocks
            if isinstance(blk.terminator, n.ReturnNode)
        ]
        assert returns[0].value().stamp.constant_value() == 1


class TestStrengthReduction:
    def _returns_param(self, build):
        program = single_method_program(build)
        graph, stats = _canon(program, "T", "f")
        returns = [
            blk.terminator
            for blk in graph.blocks
            if isinstance(blk.terminator, n.ReturnNode)
        ]
        return returns[0].value(), stats, graph

    def test_add_zero(self):
        value, stats, graph = self._returns_param(
            lambda b: b.load(0).const(0).add().retv()
        )
        assert isinstance(value, n.ParamNode)
        assert stats.strength_reductions == 1

    def test_mul_one_and_zero(self):
        value, stats, _ = self._returns_param(
            lambda b: b.load(0).const(1).mul().retv()
        )
        assert isinstance(value, n.ParamNode)
        value, _, _ = self._returns_param(
            lambda b: b.load(0).const(0).mul().retv()
        )
        assert value.stamp.constant_value() == 0

    def test_mul_power_of_two_becomes_shift(self):
        value, stats, _ = self._returns_param(
            lambda b: b.load(0).const(8).mul().retv()
        )
        assert isinstance(value, n.BinOpNode) and value.op == Op.SHL
        assert value.inputs[1].stamp.constant_value() == 3

    def test_sub_self(self):
        value, _, _ = self._returns_param(lambda b: b.load(0).load(0).sub().retv())
        assert value.stamp.constant_value() == 0

    def test_xor_self_and_identities(self):
        value, _, _ = self._returns_param(lambda b: b.load(0).load(0).xor().retv())
        assert value.stamp.constant_value() == 0
        value, _, _ = self._returns_param(lambda b: b.load(0).const(0).or_().retv())
        assert isinstance(value, n.ParamNode)
        value, _, _ = self._returns_param(lambda b: b.load(0).const(0).shl().retv())
        assert isinstance(value, n.ParamNode)

    def test_double_negation(self):
        value, _, _ = self._returns_param(lambda b: b.load(0).neg().neg().retv())
        assert isinstance(value, n.ParamNode)

    def test_semantics_preserved(self):
        def build(b):
            b.load(0).const(8).mul().load(0).const(0).add().add().retv()

        program = single_method_program(build)
        graph = build_graph(program.lookup_method("T", "f"), program)
        canonicalize(graph, program)
        compare_tiers(program, "T", "f", [13], graph=graph)


class TestBranchPruning:
    def test_constant_condition_prunes(self):
        def build(b):
            dead = b.new_label()
            b.const(0).if_true(dead)
            b.const(1).retv()
            b.place(dead).const(2).retv()

        program = single_method_program(build, params=())
        graph, stats = _canon(program, "T", "f")
        assert stats.branch_prunings == 1
        ifs = [
            blk.terminator
            for blk in graph.blocks
            if isinstance(blk.terminator, n.IfNode)
        ]
        assert not ifs

    def test_pruning_fixes_phis(self):
        def build(b):
            other = b.new_label()
            join = b.new_label()
            b.const(1).if_true(other)
            b.const(10).store(1).goto(join)
            b.place(other).const(20).store(1)
            b.place(join).load(1).retv()

        program = single_method_program(build, params=())
        graph, stats = _canon(program, "T", "f")
        returns = [
            blk.terminator
            for blk in graph.blocks
            if isinstance(blk.terminator, n.ReturnNode)
        ]
        assert returns[0].value().stamp.constant_value() == 20
        compare_tiers(program, "T", "f", [], graph=graph)


class TestTypeSystemFolds:
    def test_instanceof_folds_on_exact_stamp(self):
        program = shapes_program()
        b = MethodBuilder("t", [], "int", is_static=True)
        b.new("Square").instanceof("Shape").retv()
        program.klass("Main").add_method(b.build())
        graph, stats = _canon(program, "Main", "t")
        assert stats.type_check_folds >= 1
        returns = [
            blk.terminator
            for blk in graph.blocks
            if isinstance(blk.terminator, n.ReturnNode)
        ]
        assert returns[0].value().stamp.constant_value() == 1

    def test_instanceof_null_is_false(self):
        program = shapes_program()
        b = MethodBuilder("t", [], "int", is_static=True)
        b.null().instanceof("Shape").retv()
        program.klass("Main").add_method(b.build())
        graph, _ = _canon(program, "Main", "t")
        returns = [
            blk.terminator
            for blk in graph.blocks
            if isinstance(blk.terminator, n.ReturnNode)
        ]
        assert returns[0].value().stamp.constant_value() == 0

    def test_instanceof_nullable_match_folds_to_null_test(self):
        # The operand's type provably matches but the value may be
        # null: the subtype test must still fold — to a null test
        # (null→0, else 1) — instead of being given up on.
        program = shapes_program()
        b = MethodBuilder("t", ["int"], "int", is_static=True)
        other = b.new_label()
        join = b.new_label()
        slot = b.alloc_local()
        b.load(0).if_true(other)
        b.null().store(slot).goto(join)
        b.place(other).new("Square").store(slot)
        b.place(join).load(slot).instanceof("Square").retv()
        program.klass("Main").add_method(b.build())
        graph, stats = _canon(program, "Main", "t")
        assert stats.type_check_folds >= 1
        checks = [
            x
            for block in graph.blocks
            for x in block.instrs
            if isinstance(x, n.InstanceOfNode)
        ]
        assert not checks
        tests = [
            x
            for block in graph.blocks
            for x in block.instrs
            if isinstance(x, n.CompareNode) and x.op == Op.REF_NE
        ]
        assert tests
        assert compare_tiers(program, "Main", "t", [0]) == 0
        assert compare_tiers(program, "Main", "t", [1]) == 1

    def test_checkcast_fold_keeps_narrowed_stamp(self):
        # A provably-passing cast folds away, but facts the cast node
        # carries beyond the input's current stamp (here: exactness
        # learned while the input was known more precisely) must
        # survive as a Pi — the dominated devirtualization below
        # depends on them.
        program = shapes_program()
        sub = program.define_class("FancySquare", superclass="Square")
        b = MethodBuilder("area", [], "int")
        b.const(99).retv()
        sub.add_method(b.build())
        b = MethodBuilder("t", ["Shape"], "int", is_static=True)
        b.load(0).checkcast("Square")
        b.invokeinterface("Shape", "area").retv()
        program.klass("Main").add_method(b.build())
        graph = build_graph(program.lookup_method("Main", "t"), program)
        (cast,) = [
            x
            for block in graph.blocks
            for x in block.instrs
            if isinstance(x, n.CheckCastNode)
        ]
        # Stale-but-sound input stamp: the cast node accumulated an
        # exact non-null stamp from an earlier, more precise stamp of
        # the same value; the value itself now reads wider.
        cast.stamp = stm.ref_stamp("Square", exact=True, non_null=True)
        graph.params[0].stamp = stm.ref_stamp("Square")
        stats = canonicalize(graph, program)
        check_graph(graph, program)
        casts = [
            x
            for block in graph.blocks
            for x in block.instrs
            if isinstance(x, n.CheckCastNode)
        ]
        assert not casts
        assert stats.type_check_folds >= 1
        pis = [
            x
            for block in graph.blocks
            for x in block.instrs
            if isinstance(x, n.PiNode)
        ]
        assert pis and pis[0].stamp.exact and pis[0].stamp.non_null
        # Without the Pi the receiver reads as inexact Square, CHA
        # sees {Square, FancySquare} and the call stays virtual.
        (invoke,) = graph.invokes()
        assert invoke.kind == "direct"
        assert invoke.target.qualified_name == "Square.area"

    def test_checkcast_elided_when_proven(self):
        program = shapes_program()
        b = MethodBuilder("t", [], "int", is_static=True)
        b.new("Square").checkcast("Shape").instanceof("Square").retv()
        program.klass("Main").add_method(b.build())
        graph, stats = _canon(program, "Main", "t")
        casts = [
            x
            for block in graph.blocks
            for x in block.instrs
            if isinstance(x, n.CheckCastNode)
        ]
        assert not casts


class TestDevirtualization:
    def test_exact_stamp_devirtualizes(self):
        program = shapes_program()
        b = MethodBuilder("t", [], "int", is_static=True)
        b.new("Square").dup().const(4).putfield("Square", "side")
        slot = b.alloc_local()
        b.store(slot)
        b.load(slot).invokeinterface("Shape", "area").retv()
        program.klass("Main").add_method(b.build())
        graph, stats = _canon(program, "Main", "t")
        assert stats.devirtualizations == 1
        (invoke,) = graph.invokes()
        assert invoke.kind == "direct"
        assert invoke.target.qualified_name == "Square.area"

    def test_cha_devirtualizes_single_implementor(self):
        program = fresh_program()
        from repro.bytecode.method import Method

        iface = program.define_class("I", is_interface=True)
        iface.add_method(Method("m", [], "int", is_abstract=True))
        only = program.define_class("Only", interfaces=["I"])
        b = MethodBuilder("m", [], "int")
        b.const(5).retv()
        only.add_method(b.build())
        holder = program.define_class("H", is_abstract=True)
        b = MethodBuilder("f", ["I"], "int", is_static=True)
        b.load(0).invokeinterface("I", "m").retv()
        holder.add_method(b.build())
        graph, stats = _canon(program, "H", "f")
        assert stats.devirtualizations == 1

    def test_two_implementors_stay_virtual(self):
        program = shapes_program()
        graph, stats = _canon(program, "Main", "total")
        (invoke,) = graph.invokes()
        assert invoke.kind == "interface"
        assert stats.devirtualizations == 0

    def test_devirtualization_can_be_disabled(self):
        program = shapes_program()
        graph = build_graph(program.lookup_method("Main", "total"), program)
        graph.params[0].stamp = stm.ref_stamp("Square", exact=True, non_null=True)
        stats = canonicalize(graph, program, devirtualize=False)
        (invoke,) = graph.invokes()
        assert invoke.kind == "interface"


class TestCounters:
    def test_simple_counts_exclude_devirt(self):
        from repro.opts import CanonStats

        stats = CanonStats()
        stats.constant_folds = 2
        stats.strength_reductions = 1
        stats.branch_prunings = 1
        stats.type_check_folds = 3
        stats.devirtualizations = 5
        assert stats.simple() == 7
        assert stats.total() == 12

    def test_merge(self):
        from repro.opts import CanonStats

        a, b = CanonStats(), CanonStats()
        a.constant_folds = 1
        b.constant_folds = 2
        b.devirtualizations = 1
        a.merge(b)
        assert a.constant_folds == 3 and a.devirtualizations == 1
        assert not a.changed
        b.changed = True
        assert a.merge(b).changed


#: Compiles the generated cases whose py source once followed object
#: addresses, and prints every compile's source as JSON.
_PY_SOURCES = """
import json
from repro.baselines import tuned_inliner
from repro.errors import ReproError
from repro.fuzz.generator import generate_case
from repro.jit.config import JitConfig
from repro.jit.engine import Engine

sources = []
for index in (6, 12, 134, 261):
    program, entry = generate_case(1_000_003 + index).build()
    engine = Engine(program, JitConfig(
        hot_threshold=2, interp_predecode=True, backend="py",
        compile_mode="sync", speculate=True, typespec=True, osr=True,
        osr_threshold=6,
    ), tuned_inliner(0.1), seed=index)
    for _ in range(5):
        try:
            engine.run_iteration(*entry)
        except ReproError:
            pass
    sources.append([r.code.py_source for r in engine.compiler.records])
print(json.dumps(sources))
"""


class TestUseOrder:
    def test_py_source_repeats_across_processes(self):
        """A replaced node's users are enqueued in id order. In set
        order, which follows object addresses, the ids of the nodes
        later rewrites create, and with them the py tier's local names,
        changed from one process to the next on these cases."""
        first = run_fresh(_PY_SOURCES)
        assert all(first)
        assert run_fresh(_PY_SOURCES) == first
