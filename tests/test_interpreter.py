"""Interpreter semantics: arithmetic, control flow, objects, traps,
profiling. Includes hypothesis property tests pinning the 64-bit
integer semantics against a Python model.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode import MethodBuilder, Op
from repro.errors import (
    BoundsTrap,
    CastTrap,
    DivisionByZeroTrap,
    NullPointerTrap,
)
from repro.runtime.int64 import int_div, int_rem, wrap64
from tests.helpers import (
    SHAPES_RESULT,
    fresh_program,
    run_static,
    shapes_program,
    single_method_program,
)

int64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)


class TestIntSemantics:
    @given(int64, int64)
    def test_wrap64_matches_twos_complement(self, a, b):
        value = wrap64(a + b)
        assert -(2 ** 63) <= value < 2 ** 63
        assert (value - (a + b)) % (2 ** 64) == 0

    @given(int64, int64.filter(lambda x: x != 0))
    def test_div_truncates_toward_zero(self, a, b):
        q = int_div(a, b)
        assert q == int(a / b) if abs(a) < 2 ** 52 else True
        # Division identity holds exactly:
        assert int_rem(a, b) == a - q * b

    @given(int64, int64.filter(lambda x: x != 0))
    def test_rem_sign_follows_dividend(self, a, b):
        r = int_rem(a, b)
        assert r == 0 or (r > 0) == (a > 0)
        assert abs(r) < abs(b)

    def test_div_by_zero_traps(self):
        with pytest.raises(DivisionByZeroTrap):
            int_div(1, 0)
        with pytest.raises(DivisionByZeroTrap):
            int_rem(1, 0)

    def test_known_values(self):
        assert int_div(-7, 2) == -3
        assert int_rem(-7, 2) == -1
        assert int_div(7, -2) == -3
        assert int_rem(7, -2) == 1


def _binop_program(op):
    def build(b):
        b.load(0).load(1).emit(op).retv()

    return single_method_program(build, params=("int", "int"))


class TestInterpretedArithmetic:
    small = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)

    @settings(max_examples=30, deadline=None)
    @given(small, small)
    def test_add_sub_mul(self, a, b):
        for op, model in [
            (Op.ADD, lambda: wrap64(a + b)),
            (Op.SUB, lambda: wrap64(a - b)),
            (Op.MUL, lambda: wrap64(a * b)),
            (Op.AND, lambda: a & b),
            (Op.OR, lambda: a | b),
            (Op.XOR, lambda: a ^ b),
        ]:
            program = _binop_program(op)
            result, _, _ = run_static(program, "T", "f", [a, b])
            assert result == model(), op

    @settings(max_examples=20, deadline=None)
    @given(small, st.integers(min_value=0, max_value=63))
    def test_shifts(self, a, s):
        result, _, _ = run_static(_binop_program(Op.SHL), "T", "f", [a, s])
        assert result == wrap64(a << s)
        result, _, _ = run_static(_binop_program(Op.SHR), "T", "f", [a, s])
        assert result == a >> s

    @settings(max_examples=20, deadline=None)
    @given(small, small)
    def test_comparisons(self, a, b):
        for op, model in [
            (Op.EQ, a == b),
            (Op.NE, a != b),
            (Op.LT, a < b),
            (Op.LE, a <= b),
            (Op.GT, a > b),
            (Op.GE, a >= b),
        ]:
            result, _, _ = run_static(_binop_program(op), "T", "f", [a, b])
            assert result == (1 if model else 0), op


class TestControlFlowAndObjects:
    def test_shapes_program_result(self):
        result, _, _ = run_static(shapes_program(), "Main", "run")
        assert result == SHAPES_RESULT

    def test_recursion(self):
        program = fresh_program()
        holder = program.define_class("R", is_abstract=True)
        b = MethodBuilder("fib", ["int"], "int", is_static=True)
        recurse = b.new_label()
        b.load(0).const(2).ge().if_true(recurse)
        b.load(0).retv()
        b.place(recurse)
        b.load(0).const(1).sub().invokestatic("R", "fib")
        b.load(0).const(2).sub().invokestatic("R", "fib")
        b.add().retv()
        holder.add_method(b.build())
        result, _, _ = run_static(program, "R", "fib", [15])
        assert result == 610

    def test_array_roundtrip(self):
        def build(b):
            b.const(5).newarray("int")
            arr = b.alloc_local()
            b.store(arr)
            b.load(arr).const(2).load(0).astore()
            b.load(arr).const(2).aload().load(arr).arraylen().add().retv()

        result, _, _ = run_static(single_method_program(build), "T", "f", [37])
        assert result == 42

    def test_instanceof_and_checkcast(self):
        program = shapes_program()
        main = program.klass("Main")
        b = MethodBuilder("check", [], "int", is_static=True)
        yes = b.new_label()
        b.new("Square").instanceof("Shape").if_true(yes)
        b.const(0).retv()
        b.place(yes).new("Circle").checkcast("Shape").instanceof("Square").retv()
        main.add_method(b.build())
        result, _, _ = run_static(program, "Main", "check")
        assert result == 0  # a Circle is a Shape but not a Square


class TestTraps:
    def test_null_field_access(self):
        program = shapes_program()
        b = MethodBuilder("boom", [], "int", is_static=True)
        b.null().getfield("Square", "side").retv()
        program.klass("Main").add_method(b.build())
        with pytest.raises(NullPointerTrap):
            run_static(program, "Main", "boom")

    def test_bounds(self):
        def build(b):
            b.const(2).newarray("int").const(5).aload().retv()

        with pytest.raises(BoundsTrap):
            run_static(single_method_program(build, params=()), "T", "f")

    def test_negative_array_length(self):
        def build(b):
            b.const(-1).newarray("int").arraylen().retv()

        with pytest.raises(BoundsTrap):
            run_static(single_method_program(build, params=()), "T", "f")

    def test_bad_cast(self):
        program = shapes_program()
        b = MethodBuilder("boom", [], "int", is_static=True)
        b.new("Circle").checkcast("Square").getfield("Square", "side").retv()
        program.klass("Main").add_method(b.build())
        with pytest.raises(CastTrap):
            run_static(program, "Main", "boom")


class TestProfiling:
    def test_invocation_counts(self):
        program = shapes_program()
        _, _, interp = run_static(program, "Main", "run")
        total = program.lookup_method("Main", "total")
        assert interp.profiles.of(total).invocations == 120

    def test_branch_probabilities(self):
        program = shapes_program()
        _, _, interp = run_static(program, "Main", "run")
        run = program.lookup_method("Main", "run")
        profile = interp.profiles.of(run)
        # The loop-exit branch is taken once out of 121 evaluations.
        exit_branch = [p for p in profile.branches.values() if p.total == 121]
        assert exit_branch and abs(exit_branch[0].probability() - 1 / 121) < 1e-9

    def test_receiver_profile_distribution(self):
        program = shapes_program()
        _, _, interp = run_static(program, "Main", "run")
        total = program.lookup_method("Main", "total")
        profile = interp.profiles.of(total)
        (receiver,) = profile.receivers.values()
        types = dict(receiver.observed_types())
        assert abs(types["Square"] - 0.75) < 1e-9
        assert abs(types["Circle"] - 0.25) < 1e-9
        assert not receiver.is_megamorphic

    def test_megamorphic_saturation(self):
        from repro.interp.profiles import MAX_RECORDED_TYPES, ReceiverProfile

        profile = ReceiverProfile()
        for i in range(MAX_RECORDED_TYPES + 3):
            profile.record("C%d" % i)
        assert profile.is_megamorphic
        assert len(profile.counts) == MAX_RECORDED_TYPES

    def test_backedge_counters_feed_hotness(self):
        program = shapes_program()
        _, _, interp = run_static(program, "Main", "run")
        run = program.lookup_method("Main", "run")
        assert interp.profiles.of(run).backedge_total() == 120
        assert interp.profiles.hotness(run) >= 120 // 8
