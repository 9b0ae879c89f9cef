"""Per-opcode machine executor tests via hand-assembled machine code.

The lowering tests already cover the common paths; these pin the exact
semantics of each machine instruction in isolation, and the cycle
flush points, control-flow shapes and sharing the executor's segment
decoding must preserve. The last class checks the generated segment
bodies (superinstructions) against the per-instruction handler
closures they replaced, and the process-wide maker table behind them.
"""

import sys
import threading
import types
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import machine as m
from repro.backend.machine import MachineCode, MachineExecutor
from repro.deopt import DeoptSignal, FrameTemplate
from repro.errors import BoundsTrap, CastTrap, NullPointerTrap, VMError
from repro.interp import Interpreter
from repro.runtime import VMState
from repro.runtime.int64 import INT64_MAX, INT64_MIN
from repro.runtime.intrinsics import INTRINSIC_TABLE
from repro.runtime.values import NULL, ObjRef
from tests import machine_oracle
from tests.helpers import (
    fresh_program,
    shapes_program,
    single_method_program,
)


class _Sink:
    def __init__(self):
        self.cycles = 0
        self.flushes = []

    def add_compiled_cycles(self, cycles):
        self.cycles += cycles
        self.flushes.append(cycles)


def _execute(instrs, args=(), program=None, num_regs=16, sink=None):
    program = program or fresh_program()
    vm = VMState(program)
    interp = Interpreter(vm)
    sink = sink or _Sink()
    executor = MachineExecutor(vm, interp.execute, sink)
    method = None
    code = MachineCode(method, list(instrs), num_regs, entry_cost=0)
    return executor.execute(code, list(args)), vm, sink


class TestArithmetic:
    def test_add_wraps(self):
        result, _, _ = _execute(
            [
                (m.M_MOVI, 0, 2 ** 63 - 1),
                (m.M_MOVI, 1, 1),
                (m.M_ADD, 2, 0, 1),
                (m.M_RETV, 2),
            ]
        )
        assert result == -(2 ** 63)

    def test_div_rem_jvm_semantics(self):
        result, _, _ = _execute(
            [
                (m.M_MOVI, 0, -7),
                (m.M_MOVI, 1, 2),
                (m.M_DIV, 2, 0, 1),
                (m.M_REM, 3, 0, 1),
                (m.M_MOVI, 4, 10),
                (m.M_MUL, 5, 2, 4),
                (m.M_ADD, 6, 5, 3),
                (m.M_RETV, 6),
            ]
        )
        assert result == -31  # (-3)*10 + (-1)

    def test_shifts_mask_count(self):
        result, _, _ = _execute(
            [
                (m.M_MOVI, 0, 1),
                (m.M_MOVI, 1, 65),  # 65 & 63 == 1
                (m.M_SHL, 2, 0, 1),
                (m.M_RETV, 2),
            ]
        )
        assert result == 2


class TestControl:
    def test_jmp_and_br(self):
        result, _, _ = _execute(
            [
                (m.M_MOVI, 0, 1),
                (m.M_BR, 0, 3),
                (m.M_RETV, 0),  # skipped
                (m.M_MOVI, 1, 42),
                (m.M_RETV, 1),
            ]
        )
        assert result == 42

    def test_cost_accumulates_on_ret(self):
        _, _, sink = _execute([(m.M_COST, 7), (m.M_COST, 5), (m.M_RET,)])
        assert sink.cycles == 12

    def test_bad_opcode(self):
        with pytest.raises(VMError, match="^bad machine opcode 999$"):
            _execute([(m.M_COST, 3), (m.M_MOVI, 0, 1), (999,), (m.M_RET,)])

    def test_unreached_bad_opcode_is_harmless(self):
        result, _, _ = _execute(
            [
                (m.M_MOVI, 0, 1),
                (m.M_BR, 0, 3),
                (999,),  # fall-through never taken
                (m.M_RETV, 0),
                (998,),  # after the return
            ]
        )
        assert result == 1

    def test_branch_into_middle_of_cost_block(self):
        code = [
            (m.M_COST, 10),
            (m.M_MOVI, 1, 1),
            (m.M_BR, 0, 5),
            (m.M_COST, 100),
            (m.M_MOVI, 1, 7),
            (m.M_ADD, 2, 1, 1),  # branch target, after the block's COST
            (m.M_RETV, 2),
        ]
        taken, _, sink = _execute(code, args=[1])
        assert (taken, sink.flushes) == (2, [10])
        fell, _, sink = _execute(code, args=[0])
        assert (fell, sink.flushes) == (14, [110])

    def test_jmp_into_middle_of_cost_block(self):
        result, _, sink = _execute(
            [
                (m.M_COST, 1),
                (m.M_MOVI, 0, 0),
                (m.M_MOVI, 1, 3),
                (m.M_MOVI, 2, 1),
                (m.M_JMP, 6),
                (m.M_RET,),  # skipped
                (m.M_COST, 10),
                (m.M_ADD, 0, 0, 2),  # loop target, after the COST
                (m.M_LT, 3, 0, 1),
                (m.M_BR, 3, 7),
                (m.M_RETV, 0),
            ]
        )
        assert result == 3
        # The block price is paid once, on entry through its COST;
        # back edges jump past it.
        assert sink.flushes == [11]


def _callee_program():
    """``T.f(x) = x + 1``: a non-native call target."""
    return single_method_program(
        lambda b: b.load(0).const(1).add().retv()
    )


class TestCycleFlushes:
    def test_trap_after_call_keeps_only_flushed_cycles(self):
        program = _callee_program()
        callee = program.lookup_method("T", "f")
        sink = _Sink()
        with pytest.raises(NullPointerTrap):
            _execute(
                [
                    (m.M_COST, 7),
                    (m.M_MOVI, 0, 4),
                    (m.M_CALL, 1, callee, (0,)),
                    (m.M_COST, 5),
                    (m.M_MOVNULL, 2),
                    (m.M_ALEN, 3, 2),
                    (m.M_RETV, 3),
                ],
                program=program,
                sink=sink,
            )
        assert sink.flushes == [7]

    def test_call_flushes_before_dispatch(self):
        program = _callee_program()
        callee = program.lookup_method("T", "f")
        result, _, sink = _execute(
            [
                (m.M_COST, 7),
                (m.M_MOVI, 0, 4),
                (m.M_CALL, 1, callee, (0,)),
                (m.M_COST, 5),
                (m.M_RETV, 1),
            ],
            program=program,
        )
        assert (result, sink.flushes) == (5, [7, 5])

    def test_native_call_does_not_flush(self):
        program = fresh_program()
        imax = program.lookup_method("Builtins", "imax")
        result, _, sink = _execute(
            [
                (m.M_COST, 7),
                (m.M_MOVI, 0, 3),
                (m.M_MOVI, 1, 9),
                (m.M_CALL, 2, imax, (0, 1)),
                (m.M_COST, 5),
                (m.M_RETV, 2),
            ],
            program=program,
        )
        assert (result, sink.flushes) == (9, [12])
        sink = _Sink()
        with pytest.raises(NullPointerTrap):
            _execute(
                [
                    (m.M_COST, 7),
                    (m.M_MOVI, 0, 3),
                    (m.M_CALL, 1, imax, (0, 0)),
                    (m.M_MOVNULL, 2),
                    (m.M_ALEN, 3, 2),
                    (m.M_RETV, 3),
                ],
                program=program,
                sink=sink,
            )
        assert sink.flushes == []

    def _guarded(self, condition):
        program = _callee_program()
        method = program.lookup_method("T", "f")
        code = MachineCode(
            method,
            [
                (m.M_COST, 3),
                (m.M_MOVI, 0, 1),
                (m.M_GUARD, 0, 0, "first"),  # always passes
                (m.M_COST, 4),
                (m.M_MOVI, 1, condition),
                (m.M_GUARD, 1, 0, "second"),
                (m.M_COST, 5),
                (m.M_MOVNULL, 2),
                (m.M_ALEN, 3, 2),  # traps when the guards pass
                (m.M_RETV, 3),
            ],
            4,
            entry_cost=2,
            deopt_table=[(FrameTemplate(method, 0, [(0, 0)], [1], 0, False),)],
        )
        vm = VMState(program)
        sink = _Sink()
        executor = MachineExecutor(vm, Interpreter(vm).execute, sink)
        return executor, code, sink

    def test_failing_guard_flushes_cycles_before_it(self):
        executor, code, sink = self._guarded(0)
        with pytest.raises(DeoptSignal) as info:
            executor.execute(code, [])
        assert sink.flushes == [2 + 3 + 4]
        assert info.value.reason == "second"
        frame = info.value.frames[0]
        assert (frame.locals[0], frame.stack) == (1, [0])

    def test_passing_guard_flushes_nothing(self):
        executor, code, sink = self._guarded(1)
        with pytest.raises(NullPointerTrap):
            executor.execute(code, [])
        assert sink.flushes == []


class TestMemory:
    def test_arrays(self):
        result, _, _ = _execute(
            [
                (m.M_MOVI, 0, 4),
                (m.M_NEWARR, 1, 0, "int"),
                (m.M_MOVI, 2, 2),
                (m.M_MOVI, 3, 99),
                (m.M_ASTORE, 1, 2, 3),
                (m.M_ALOAD, 4, 1, 2),
                (m.M_ALEN, 5, 1),
                (m.M_ADD, 6, 4, 5),
                (m.M_RETV, 6),
            ]
        )
        assert result == 103

    def test_array_bounds_trap(self):
        with pytest.raises(BoundsTrap):
            _execute(
                [
                    (m.M_MOVI, 0, 2),
                    (m.M_NEWARR, 1, 0, "int"),
                    (m.M_MOVI, 2, 5),
                    (m.M_ALOAD, 3, 1, 2),
                    (m.M_RETV, 3),
                ]
            )

    def test_fields_and_null_trap(self):
        program = shapes_program()
        result, _, _ = _execute(
            [
                (m.M_NEW, 0, "Square"),
                (m.M_MOVI, 1, 6),
                (m.M_PUTF, 0, "side", 1),
                (m.M_GETF, 2, 0, "side"),
                (m.M_RETV, 2),
            ],
            program=program,
        )
        assert result == 6
        with pytest.raises(NullPointerTrap):
            _execute(
                [(m.M_MOVNULL, 0), (m.M_GETF, 1, 0, "side"), (m.M_RETV, 1)],
                program=program,
            )

    def test_statics(self):
        from repro.bytecode.klass import FieldDef

        program = fresh_program()
        holder = program.define_class("G")
        holder.add_field(FieldDef("c", "int", is_static=True))
        result, _, _ = _execute(
            [
                (m.M_MOVI, 0, 5),
                (m.M_PUTS, "G", "c", 0),
                (m.M_GETS, 1, "G", "c"),
                (m.M_RETV, 1),
            ],
            program=program,
        )
        assert result == 5


class TestTypeOps:
    def test_isinst_and_isexact(self):
        program = shapes_program()
        result, _, _ = _execute(
            [
                (m.M_NEW, 0, "Square"),
                (m.M_ISINST, 1, 0, "Shape"),
                (m.M_ISEXACT, 2, 0, "Square"),
                (m.M_ISEXACT, 3, 0, "Shape"),  # exact check: not Shape
                (m.M_MOVI, 4, 100),
                (m.M_MUL, 5, 1, 4),
                (m.M_MOVI, 6, 10),
                (m.M_MUL, 7, 2, 6),
                (m.M_ADD, 8, 5, 7),
                (m.M_ADD, 9, 8, 3),
                (m.M_RETV, 9),
            ],
            program=program,
        )
        assert result == 110

    def test_cast_trap(self):
        program = shapes_program()
        with pytest.raises(CastTrap):
            _execute(
                [
                    (m.M_NEW, 0, "Circle"),
                    (m.M_CAST, 1, 0, "Square"),
                    (m.M_RETV, 1),
                ],
                program=program,
            )

    def test_null_passes_cast_and_fails_isinst(self):
        program = shapes_program()
        result, _, _ = _execute(
            [
                (m.M_MOVNULL, 0),
                (m.M_CAST, 1, 0, "Square"),
                (m.M_ISINST, 2, 0, "Square"),
                (m.M_RETV, 2),
            ],
            program=program,
        )
        assert result == 0


class TestCalls:
    def test_call_dispatches_to_interpreter(self):
        program = shapes_program()
        target = program.lookup_method("Main", "total")
        vm = VMState(program)
        square = vm.allocate("Square")
        square.fields["side"] = 3
        interp = Interpreter(vm)
        sink = _Sink()
        executor = MachineExecutor(vm, interp.execute, sink)
        code = MachineCode(
            None,
            [
                (m.M_MOVI, 1, 2),
                (m.M_CALL, 2, target, (0, 1)),
                (m.M_RETV, 2),
            ],
            8,
            entry_cost=0,
        )
        assert executor.execute(code, [square]) == 18

    def test_vcall_resolves_by_receiver(self):
        program = shapes_program()
        vm = VMState(program)
        circle = vm.allocate("Circle")
        circle.fields["r"] = 2
        interp = Interpreter(vm)
        executor = MachineExecutor(vm, interp.execute, _Sink())
        code = MachineCode(
            None, [(m.M_VCALL, 1, "area", (0,)), (m.M_RETV, 1)], 4, entry_cost=0
        )
        assert executor.execute(code, [circle]) == 12

    def test_vcall_null_receiver_traps(self):
        program = shapes_program()
        vm = VMState(program)
        interp = Interpreter(vm)
        executor = MachineExecutor(vm, interp.execute, _Sink())
        code = MachineCode(
            None,
            [(m.M_MOVNULL, 0), (m.M_VCALL, 1, "area", (0,)), (m.M_RETV, 1)],
            4,
            entry_cost=0,
        )
        with pytest.raises(NullPointerTrap):
            executor.execute(code, [])

    def test_native_call_inline(self):
        program = fresh_program()
        target = program.lookup_method("Builtins", "imax")
        vm = VMState(program)
        interp = Interpreter(vm)
        executor = MachineExecutor(vm, interp.execute, _Sink())
        code = MachineCode(
            None,
            [
                (m.M_MOVI, 0, 3),
                (m.M_MOVI, 1, 9),
                (m.M_CALL, 2, target, (0, 1)),
                (m.M_RETV, 2),
            ],
            4,
            entry_cost=0,
        )
        assert executor.execute(code, []) == 9


class TestSharedCode:
    """The serve shape: tenants share installed code objects, each
    running them with its own VM state, dispatch and cycle sink."""

    def _setup(self):
        from repro.bytecode.klass import FieldDef

        program = fresh_program()
        holder = program.define_class("G")
        holder.add_field(FieldDef("c", "int", is_static=True))
        printer = program.lookup_method("Builtins", "print")
        code = MachineCode(
            None,
            [
                (m.M_COST, 6),
                (m.M_GETS, 1, "G", "c"),  # per-VM static
                (m.M_MUL, 2, 1, 0),
                (m.M_CALL, -1, printer, (2,)),  # per-VM output
                (m.M_NEWARR, 3, 1, "int"),  # per-VM allocation
                (m.M_ALEN, 4, 3),
                (m.M_ADD, 5, 2, 4),
                (m.M_RETV, 5),
            ],
            8,
            entry_cost=1,
        )
        tenants = []
        for c in (3, 5):
            vm = VMState(program)
            vm.put_static("G", "c", c)
            sink = _Sink()
            tenants.append(
                (MachineExecutor(vm, Interpreter(vm).execute, sink), vm, sink)
            )
        return code, tenants

    def test_two_executors_one_code(self):
        code, ((a, vm_a, sink_a), (b, vm_b, sink_b)) = self._setup()
        assert a.execute(code, [2]) == 9
        assert b.execute(code, [2]) == 15
        assert a.execute(code, [4]) == 15
        assert (list(vm_a.output), list(vm_b.output)) == ([6, 12], [10])
        assert (vm_a.allocation_count, vm_b.allocation_count) == (2, 1)
        assert (sink_a.flushes, sink_b.flushes) == ([7, 7], [7])

    def test_two_threads_one_code(self):
        import sys
        import threading

        code, tenants = self._setup()
        results = [[], []]

        def run(slot):
            executor = tenants[slot][0]
            for arg in range(60):
                results[slot].append(executor.execute(code, [arg]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (_, vm, sink), c, values in zip(tenants, (3, 5), results):
            assert values == [c * arg + c for arg in range(60)]
            assert list(vm.output) == [c * arg for arg in range(60)]
            assert sink.cycles == 7 * 60


# -- superinstructions ----------------------------------------------------------
#
# Each segment body runs as one generated function. The per-instruction
# handler closures it replaced are the oracle (tests/machine_oracle.py).

INT_VALUES = (
    0, 1, -1, 2, 3, 7, 63, 64, 65, 2 ** 32, -(2 ** 32),
    INT64_MAX, INT64_MIN, INT64_MAX - 1, INT64_MIN + 1,
)
#: Registers 0..10 take any value; register 11 holds a small length
#: for NEWARR and is never written, so no body allocates a huge array.
NUM_REGS = 12
LENGTH_REG = 11
WRITABLE = range(LENGTH_REG)
MIX3 = types.SimpleNamespace(name="mix3", is_native=True)

#: Native calls by argument count: ticks, abs/print/rand/seed, imin/imax,
#: and a test-only three-argument intrinsic.
NATIVES = {0: ("ticks",), 1: ("abs", "print", "rand", "seed"), 2: ("imin", "imax")}

ARITH = (m.M_ADD, m.M_SUB, m.M_MUL, m.M_DIV, m.M_REM, m.M_AND, m.M_OR,
         m.M_XOR, m.M_SHL, m.M_SHR, m.M_EQ, m.M_NE, m.M_LT, m.M_LE, m.M_GT,
         m.M_GE)
BODY_OPS = ARITH + (
    m.M_MOVI, m.M_MOV, m.M_MOVNULL, m.M_NEG, m.M_REFEQ, m.M_REFNE, m.M_NEW,
    m.M_NEWARR, m.M_ALOAD, m.M_ASTORE, m.M_ALEN, m.M_GETF, m.M_PUTF,
    m.M_GETS, m.M_PUTS, m.M_ISINST, m.M_ISEXACT, m.M_CAST, m.M_CALL,
)


def _mix3(vm, a, b, c):
    return (a ^ b) - c


def _differential_program():
    from repro.bytecode.klass import FieldDef

    program = shapes_program()
    holder = program.define_class("G")
    holder.add_field(FieldDef("c", "int", is_static=True))
    return program


PROGRAM = _differential_program()


@st.composite
def _register_file(draw):
    """A recipe per register: an int, NULL, an object or an array."""
    value = st.one_of(
        st.tuples(st.just("int"), st.sampled_from(INT_VALUES)),
        st.just(("null",)),
        st.tuples(st.just("obj"), st.sampled_from(["Square", "Circle"])),
        st.tuples(
            st.just("arr"),
            st.sampled_from(["int", "Shape"]),
            st.integers(0, 4),
        ),
    )
    recipe = draw(st.lists(value, min_size=LENGTH_REG, max_size=LENGTH_REG))
    return recipe + [("int", draw(st.sampled_from([-1, 0, 1, 3])))]


def _materialize(recipe, vm):
    regs = []
    for entry in recipe:
        if entry[0] == "int":
            regs.append(entry[1])
        elif entry[0] == "null":
            regs.append(NULL)
        elif entry[0] == "obj":
            obj = vm.allocate(entry[1])
            obj.fields["side" if entry[1] == "Square" else "r"] = 5
            regs.append(obj)
        else:
            array = vm.allocate_array(entry[1], entry[2])
            if entry[1] == "int":
                array.data[:] = INT_VALUES[: entry[2]]
            regs.append(array)
    return regs


@st.composite
def _body(draw, recipe):
    """1-12 body instructions whose operands mostly have the kind the
    opcode expects (tracked as the body writes registers), so bodies
    run deep as well as trap."""
    kinds = [entry[0] for entry in recipe]

    def reg(*wanted):
        matching = [r for r, kind in enumerate(kinds) if kind in wanted]
        if matching and draw(st.integers(0, 15)) < 15:
            return draw(st.sampled_from(matching))
        return draw(st.integers(0, NUM_REGS - 1))

    def dest(kind):
        d = draw(st.sampled_from(WRITABLE))
        kinds[d] = kind
        return d

    instrs = []
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(BODY_OPS))
        if draw(st.integers(0, 4)) == 0:
            instrs.append((m.M_COST, draw(st.integers(1, 9))))
        if op in ARITH:
            a, b = reg("int"), reg("int")
            instr = (op, dest("int"), a, b)
        elif op == m.M_MOVI:
            instr = (op, dest("int"), draw(st.sampled_from(INT_VALUES)))
        elif op == m.M_MOV:
            s = reg("int", "null", "obj", "arr", "any")
            instr = (op, dest(kinds[s]), s)
        elif op == m.M_MOVNULL:
            instr = (op, dest("null"))
        elif op == m.M_NEG:
            s = reg("int")
            instr = (op, dest("int"), s)
        elif op in (m.M_REFEQ, m.M_REFNE):
            a, b = reg("null", "obj", "arr"), reg("null", "obj", "arr")
            instr = (op, dest("int"), a, b)
        elif op == m.M_NEW:
            instr = (op, dest("obj"), draw(st.sampled_from(["Square", "Circle"])))
        elif op == m.M_NEWARR:
            elem = draw(st.sampled_from(["int", "Shape"]))
            instr = (op, dest("arr"), LENGTH_REG, elem)
        elif op == m.M_ALOAD:
            a, i = reg("arr"), reg("int")
            instr = (op, dest("any"), a, i)
        elif op == m.M_ASTORE:
            instr = (op, reg("arr"), reg("int"), reg("int", "null", "obj"))
        elif op == m.M_ALEN:
            a = reg("arr")
            instr = (op, dest("int"), a)
        elif op == m.M_GETF:
            o = reg("obj")
            instr = (op, dest("any"), o, draw(st.sampled_from(["side", "r"])))
        elif op == m.M_PUTF:
            instr = (op, reg("obj"), draw(st.sampled_from(["side", "r"])),
                     reg("int", "obj", "null"))
        elif op == m.M_GETS:
            instr = (op, dest("any"), "G", "c")
        elif op == m.M_PUTS:
            instr = (op, "G", "c", reg("int", "obj", "null"))
        elif op in (m.M_ISINST, m.M_ISEXACT, m.M_CAST):
            s = reg("obj", "arr", "null")
            name = draw(st.sampled_from(["Shape", "Square", "Circle", "int[]"]))
            kind = kinds[s] if op == m.M_CAST else "int"
            instr = (op, dest(kind), s, name)
        else:
            count = draw(st.integers(0, 3))
            args = tuple(reg("int") for _ in range(count))
            name = "mix3" if count == 3 else draw(st.sampled_from(NATIVES[count]))
            target = MIX3 if count == 3 else PROGRAM.lookup_method("Builtins", name)
            d = dest("int") if draw(st.booleans()) else -1
            instr = (op, d, target, args)
        instrs.append(instr)
    return instrs


def _snapshot(regs, vm, error):
    """Everything a body can change, with references numbered in
    first-seen order so two VMs' heaps compare by shape."""
    numbers = {}
    heap = []

    def ref(value):
        if value is NULL or isinstance(value, int):
            return value
        if id(value) not in numbers:
            numbers[id(value)] = len(heap)
            heap.append(value)
        return ("ref", numbers[id(value)])

    registers = [ref(value) for value in regs]
    static = ref(vm.get_static("G", "c"))
    output = [ref(value) for value in vm.output]  # print takes any register
    rendered = []
    for value in heap:  # grows while it is walked
        if isinstance(value, ObjRef):
            fields = [(k, ref(value.fields[k])) for k in sorted(value.fields)]
            rendered.append(("obj", value.class_name, fields))
        else:
            rendered.append(("arr", value.elem_type, [ref(v) for v in value.data]))
    trap = None if error is None else (type(error), str(error))
    return (trap, registers, static, rendered, vm.allocation_count,
            output, vm.tick_counter)


def _straight_code(instrs):
    return MachineCode(None, list(instrs) + [(m.M_RET,)], NUM_REGS, 0)


def _run_generated(instrs, recipe):
    vm = VMState(PROGRAM)
    regs = _materialize(recipe, vm)
    error = None
    try:
        body = m.decode(_straight_code(instrs))[1]
        body(regs, vm)
    except Exception as caught:  # host errors must match too
        error = caught
    return _snapshot(regs, vm, error)


def _run_oracle(instrs, recipe):
    vm = VMState(PROGRAM)
    regs = _materialize(recipe, vm)
    error = None
    try:
        machine_oracle.run_body(instrs, regs, vm)
    except Exception as caught:
        error = caught
    return _snapshot(regs, vm, error)


@st.composite
def _case(draw):
    recipe = draw(_register_file())
    return recipe, draw(_body(recipe))


def _int_recipe(*values):
    values = list(values) + [0] * (NUM_REGS - len(values))
    return [("int", value) for value in values]


class TestSuperinstructions:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(_case())
    def test_body_matches_handler_closures(self, case):
        recipe, instrs = case
        with mock.patch.dict(INTRINSIC_TABLE, {"mix3": ([], "int", _mix3)}):
            assert _run_generated(instrs, recipe) == _run_oracle(instrs, recipe)

    def test_wrap_at_both_ends(self):
        # The differential test's most likely catch, pinned directly.
        instrs = [
            (m.M_ADD, 2, 0, 1),
            (m.M_SUB, 3, 4, 1),
            (m.M_MUL, 5, 0, 0),
            (m.M_NEG, 6, 4),
            (m.M_SHL, 7, 0, 1),
        ]
        recipe = _int_recipe(INT64_MAX, 1, 0, 0, INT64_MIN)
        generated = _run_generated(instrs, recipe)
        assert generated == _run_oracle(instrs, recipe)
        assert generated[1][2:8] == [INT64_MIN, INT64_MAX, INT64_MIN, 1,
                                     INT64_MIN, -2]

    def test_pc_outside_the_code(self):
        with pytest.raises(VMError, match="^pc 2 outside the code$"):
            _execute([(m.M_MOVI, 0, 1), (m.M_COST, 3)])

    def test_same_shape_shares_one_maker(self, monkeypatch):
        monkeypatch.setattr(m, "_MAKERS", {})
        first = _straight_code([(m.M_MOVI, 1, 5), (m.M_ADD, 2, 0, 1)])
        second = _straight_code([(m.M_MOVI, 3, 9), (m.M_ADD, 4, 3, 0)])
        one, two = m.decode(first)[1], m.decode(second)[1]
        assert list(m._MAKERS) == [(m.M_MOVI, m.M_ADD)]
        assert one is not two and one.__code__ is two.__code__
        regs = _materialize(_int_recipe(2), VMState(PROGRAM))
        one(regs, None)
        two(regs, None)
        assert regs[1:5] == [5, 7, 9, 11]

    def test_bound_drops_the_oldest_makers(self, monkeypatch):
        monkeypatch.setattr(m, "_MAKERS", {})
        monkeypatch.setattr(m, "MAX_MAKERS", 3)
        recipe = _int_recipe(INT64_MAX, 3)

        def code(count):  # one shape per count: MOVI^count ADD
            return [(m.M_MOVI, 2 + k, k) for k in range(count)] + [
                (m.M_ADD, 9, 0, 1)
            ]

        bodies = []
        for count in range(1, 7):
            bodies.append((count, m.decode(_straight_code(code(count)))[1]))
            assert len(m._MAKERS) == min(count, 3)
        shapes = [(m.M_MOVI,) * count + (m.M_ADD,) for count in (4, 5, 6)]
        assert list(m._MAKERS) == shapes
        # The first shape again: made anew, evicting the oldest left.
        bodies.append((1, m.decode(_straight_code(code(1)))[1]))
        assert list(m._MAKERS) == shapes[1:] + [(m.M_MOVI, m.M_ADD)]
        for count, body in bodies:
            vm = VMState(PROGRAM)
            regs = _materialize(recipe, vm)
            body(regs, vm)
            assert _snapshot(regs, vm, None) == _run_oracle(code(count), recipe)

    def test_concurrent_decode_of_new_shapes(self, monkeypatch):
        monkeypatch.setattr(m, "_MAKERS", {})
        shapes = [
            [m.M_MOVI, m.M_ADD], [m.M_MOVI, m.M_MUL, m.M_NEG],
            [m.M_MOVI, m.M_SHL, m.M_ALOAD], [m.M_MOVI, m.M_SUB, m.M_SUB],
        ]
        recipe = _int_recipe(INT64_MAX, 0, *range(2, NUM_REGS))
        recipe[1] = ("arr", "int", 4)

        def code(shape, thread, variant):
            # Distinct operands per thread and variant, one shape.
            base = 2 + (thread + variant) % 5
            instrs = [(m.M_MOVI, base, thread * 10 + variant)]
            for op in shape[1:]:
                if op == m.M_NEG:
                    instrs.append((op, 9, base))
                elif op == m.M_ALOAD:
                    instrs.append((op, 10, 1, 3))
                else:
                    instrs.append((op, 8, 0, base))
            return instrs

        jobs = [
            [(shape, thread, variant) for variant in range(5) for shape in shapes]
            for thread in range(4)
        ]
        results = [None] * len(jobs)

        def run(slot):
            out = []
            for shape, thread, variant in jobs[slot]:
                out.append(_run_generated(code(shape, thread, variant), recipe))
            results[slot] = out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(slot,))
                for slot in range(len(jobs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(m._MAKERS) == sorted(tuple(shape) for shape in shapes)
        for slot, job in enumerate(jobs):
            assert results[slot] == [
                _run_oracle(code(*item), recipe) for item in job
            ]
