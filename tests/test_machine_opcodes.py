"""Per-opcode machine executor tests via hand-assembled machine code.

The lowering tests already cover the common paths; these pin the exact
semantics of each machine instruction in isolation, and the cycle
flush points, control-flow shapes and sharing the executor's segment
decoding must preserve.
"""

import pytest

from repro.backend import machine as m
from repro.backend.machine import MachineCode, MachineExecutor
from repro.deopt import DeoptSignal, FrameTemplate
from repro.errors import BoundsTrap, CastTrap, NullPointerTrap, VMError
from repro.interp import Interpreter
from repro.runtime import VMState
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
