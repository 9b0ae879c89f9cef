"""Extended segments against the decoder of one segment per block.

``machine.decode`` runs a segment on through jumps: at a ``JMP``, or
at the implicit jump before a jump target, it absorbs the target's
``COST`` and instructions, and stops at a target already in the segment
or once the body has ``MAX_ABSORBED_BODY`` instructions. The decoder it
replaced (``tests/machine_oracle.py``) ended a segment at every jump.
Both tables run on the shipped executor here, over hand-assembled
control flow, Hypothesis-generated machine code and the installed code
of every suite program. The return value, the trap class and message,
the sequence of sink flushes, every dispatched call, the registers at a
deopt, the allocation count and the output must be the same.
"""

import types
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import machine as m
from repro.backend.machine import MachineCode, MachineExecutor
from repro.baselines import tuned_inliner
from repro.bench.suite import all_benchmarks, get_benchmark
from repro.deopt import DeoptSignal, FrameTemplate
from repro.errors import NullPointerTrap, ReproError, VMError
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.runtime import VMState
from repro.runtime.intrinsics import INTRINSIC_TABLE
from repro.runtime.values import NULL, ArrayRef, ObjRef
from tests import machine_oracle
from tests.test_machine_opcodes import (
    INT_VALUES,
    NUM_REGS,
    PROGRAM,
    _body,
    _materialize,
    _mix3,
    _register_file,
)

#: Registers past the body generator's: a Square and a Circle, never
#: written, so a ``VCALL`` of ``area`` on them resolves.
SQUARE, CIRCLE = NUM_REGS, NUM_REGS + 1
ENTRY_COST = 4
#: ``fuel`` calls a run may make; the next one traps. Every generated
#: loop passes through one, so every run ends.
FUEL_CALLS = 40
FUEL = types.SimpleNamespace(name="fuel", is_native=True)
CALLEE = types.SimpleNamespace(
    name="callee", is_native=False, qualified_name="T.callee"
)
FRAME_METHOD = types.SimpleNamespace(max_locals=3, qualified_name="T.m")
DEOPT_TABLE = (
    (FrameTemplate(FRAME_METHOD, 3, ((0, 0), (1, 1), (2, 2)), (3,), 0, False),),
    (
        FrameTemplate(FRAME_METHOD, 7, ((0, 4), (2, -1)), (5, 6), 0, False),
        FrameTemplate(FRAME_METHOD, 9, ((1, 7),), (), 1, True),
    ),
)


def _fuel(vm):
    vm.fuel -= 1
    if vm.fuel < 0:
        raise VMError("out of fuel")


@pytest.fixture(autouse=True)
def _intrinsics():
    extra = {"fuel": ([], "void", _fuel), "mix3": ([], "int", _mix3)}
    with mock.patch.dict(INTRINSIC_TABLE, extra):
        yield


class _Sink:
    """A cycle sink that records each flush: ``compiled_cycles`` reads
    the running total, and each ``+=`` hands its setter one flush."""

    def __init__(self):
        self.flushes = []
        self.total = 0

    @property
    def compiled_cycles(self):
        return self.total

    @compiled_cycles.setter
    def compiled_cycles(self, total):
        self.flushes.append(total - self.total)
        self.total = total


class _Heap:
    """Numbers references in first-seen order, so two VMs' heaps
    compare by shape."""

    def __init__(self):
        self.numbers = {}
        self.seen = []

    def ref(self, value):
        if not isinstance(value, (ObjRef, ArrayRef)):
            return value
        if id(value) not in self.numbers:
            self.numbers[id(value)] = len(self.seen)
            self.seen.append(value)
        return ("ref", self.numbers[id(value)])

    def refs(self, values):
        return [self.ref(value) for value in values]

    def render(self):
        rendered = []
        for value in self.seen:  # grows while it is walked
            if isinstance(value, ObjRef):
                fields = [(k, self.ref(value.fields[k])) for k in sorted(value.fields)]
                rendered.append(("obj", value.class_name, fields))
            else:
                rendered.append(("arr", value.elem_type, self.refs(value.data)))
        return rendered


def block_segments(code):
    code.segments = machine_oracle.decode(code)
    return code.segments


def run(instrs, decoder, recipe=None):
    """Everything a run of *instrs* shows, its table made by *decoder*:
    the outcome (value, deopt frames or trap), the sink's flushes, the
    dispatched calls with the flush count before each, and the VM."""
    vm = VMState(PROGRAM)
    vm.fuel = FUEL_CALLS
    heap = _Heap()
    if recipe is None:
        recipe = [("int", 0)] * NUM_REGS
    args = _materialize(recipe, vm)
    for class_name, field in (("Square", "side"), ("Circle", "r")):
        receiver = vm.allocate(class_name)
        receiver.fields[field] = 3
        args.append(receiver)
    heap.refs(args)
    sink = _Sink()
    calls = []

    def dispatch(method, call_args):
        calls.append(
            (method.qualified_name, heap.refs(call_args), len(sink.flushes))
        )
        return len(calls)

    code = MachineCode(
        FRAME_METHOD, list(instrs), len(args), ENTRY_COST, DEOPT_TABLE
    )
    code.segments = decoder(code)
    executor = MachineExecutor(vm, dispatch, sink)
    try:
        outcome = ("value", heap.ref(executor.execute(code, args)))
    except DeoptSignal as signal:
        frames = [
            (frame.bci, heap.refs(frame.locals), heap.refs(frame.stack))
            for frame in signal.frames
        ]
        outcome = ("deopt", signal.reason, signal.site, frames)
    except Exception as error:  # host errors must match too
        outcome = ("trap", type(error), str(error))
    static = heap.ref(vm.get_static("G", "c"))
    output = heap.refs(vm.output)  # a body may print a reference
    return (outcome, sink.flushes, calls, static, heap.render(),
            vm.allocation_count, output, vm.tick_counter)


def table(instrs):
    """The shipped decoder's segments of *instrs*: ``start pc ->
    (segment, shape, absorbed, decoded)``, checked for the rules that
    bound absorption."""
    code = MachineCode(None, list(instrs), NUM_REGS + 2, ENTRY_COST, DEOPT_TABLE)
    shapes = {}
    m.decode(code, shapes)
    starts = {id(entry[0]): pc for pc, entry in shapes.items()}
    for start, (segment, shape, absorbed, _) in shapes.items():
        trace = (start,) + absorbed
        assert len(set(trace)) == len(trace), "a target absorbed twice"
        follow = segment[6]
        if segment[2] == m.M_JMP and follow is not None:
            # A segment ends at a jump only at a target it already
            # holds, or with a full body.
            assert (
                starts[id(follow)] in trace
                or len(shape) >= m.MAX_ABSORBED_BODY
            )
    return shapes


def assert_same(instrs, recipe=None):
    """*instrs* runs alike on both tables; returns the shipped run."""
    table(instrs)
    ran = run(instrs, m.decode, recipe)
    assert ran == run(instrs, block_segments, recipe)
    return ran


# ---------------------------------------------------------------------------
# Hand-assembled control flow
# ---------------------------------------------------------------------------


def fuel():
    return (m.M_CALL, -1, FUEL, ())


class TestAbsorption:
    def test_jmp_chain_is_one_segment(self):
        instrs = [
            (m.M_COST, 1),
            (m.M_MOVI, 0, 5),
            (m.M_JMP, 6),
            (m.M_COST, 50),  # unreached
            (m.M_RETV, 1),
            (m.M_COST, 50),  # unreached
            (m.M_COST, 2),
            (m.M_ADD, 1, 0, 0),
            (m.M_JMP, 11),
            (m.M_RET,),  # unreached
            (m.M_RET,),  # unreached
            (m.M_COST, 3),
            (m.M_RETV, 1),
        ]
        ran = assert_same(instrs)
        assert ran[0] == ("value", 10)
        assert ran[1] == [ENTRY_COST + 1 + 2 + 3]
        shapes = table(instrs)
        assert list(shapes) == [0]
        _, shape, absorbed, decoded = shapes[0]
        assert (shape, absorbed, decoded) == ((m.M_MOVI, m.M_ADD), (6, 11), 8)

    def test_fall_through_into_a_target_absorbs_it(self):
        instrs = [
            (m.M_COST, 2),
            (m.M_MOVI, 0, 1),
            (m.M_BR, 0, 4),  # taken: @4
            (m.M_COST, 7),  # the fall-through runs on into @4
            (m.M_COST, 3),
            (m.M_CALL, -1, CALLEE, (0,)),
            (m.M_RETV, 0),
        ]
        ran = assert_same(instrs)
        assert ran[1] == [ENTRY_COST + 2 + 3, 0]
        shapes = table(instrs)
        assert shapes[3][2] == (4,) and shapes[3][0][0] == 10
        assert 4 in shapes  # the taken edge still enters @4 itself

    def test_self_jump_keeps_its_back_edge(self):
        printer = PROGRAM.lookup_method("Builtins", "print")
        instrs = [
            (m.M_COST, 1),
            (m.M_JMP, 2),
            (m.M_COST, 2),
            fuel(),
            (m.M_ADD, 0, 0, 1),
            (m.M_CALL, -1, printer, (0,)),
            (m.M_JMP, 2),
        ]
        recipe = [("int", 0), ("int", 1)] + [("int", 0)] * (NUM_REGS - 2)
        ran = assert_same(instrs, recipe)
        assert ran[0] == ("trap", VMError, "out of fuel")
        assert ran[6] == list(range(1, FUEL_CALLS + 1))
        shapes = table(instrs)
        # @0 absorbs the loop once; the loop's own segment jumps to
        # itself, so each iteration is one segment.
        assert list(shapes) == [0, 2]
        assert shapes[0][2] == (2,)
        loop = shapes[2][0]
        assert shapes[2][2] == () and loop[2] == m.M_JMP and loop[6] is loop

    def test_jump_into_a_loop_header(self):
        # i = 0; n = 5; goto header; latch: i += 1; header: if i < n
        # goto latch; return i.
        instrs = [
            (m.M_COST, 3),
            (m.M_MOVI, 0, 0),
            (m.M_MOVI, 1, 5),
            (m.M_MOVI, 2, 1),
            (m.M_JMP, 9),
            (m.M_COST, 2),  # latch
            (m.M_ADD, 0, 0, 2),
            (m.M_CALL, -1, CALLEE, (0,)),
            (m.M_JMP, 9),
            (m.M_COST, 1),  # header
            fuel(),
            (m.M_LT, 3, 0, 1),
            (m.M_BR, 3, 5),
            (m.M_COST, 4),
            (m.M_RETV, 0),
        ]
        ran = assert_same(instrs)
        assert ran[0] == ("value", 5)
        assert ran[1] == [ENTRY_COST + 3 + 1 + 2] + [1 + 2] * 4 + [1 + 4]
        shapes = table(instrs)
        assert shapes[0][2] == (9,) and shapes[8][2] == (9,)
        assert 9 not in shapes  # the header only runs absorbed

    def test_chain_longer_than_the_bound(self):
        blocks = 12
        instrs = []
        for block in range(blocks):
            start = len(instrs)
            instrs.append((m.M_COST, block + 1))
            instrs.extend((m.M_ADD, 0, 0, 1) for _ in range(9))
            instrs.append((m.M_JMP, start + 11))
        instrs.append((m.M_RETV, 0))
        recipe = [("int", 0), ("int", 1)] + [("int", 0)] * (NUM_REGS - 2)
        ran = assert_same(instrs, recipe)
        assert ran[0] == ("value", 9 * blocks)
        assert ran[1] == [ENTRY_COST + sum(range(1, blocks + 1))]
        shapes = table(instrs)
        # The first segment stops absorbing once its body is full.
        full = -(-m.MAX_ABSORBED_BODY // 9)
        assert sorted(shapes) == [0, 11 * full]
        segment, shape, absorbed, _ = shapes[0]
        assert len(shape) == 9 * full and len(absorbed) == full - 1
        assert segment[2] == m.M_JMP

    def test_trap_after_an_absorbed_jump(self):
        instrs = [
            (m.M_COST, 5),
            (m.M_CALL, -1, CALLEE, ()),
            (m.M_COST, 1),
            (m.M_MOVNULL, 2),
            (m.M_JMP, 6),
            (m.M_RET,),  # unreached
            (m.M_COST, 3),
            (m.M_ALOAD, 3, 2, 0),  # NULL array
            (m.M_RETV, 3),
        ]
        ran = assert_same(instrs)
        assert ran[0] == ("trap", NullPointerTrap, "NullPointer: ALOAD")
        # Only the call flushed; the trap flushes nothing.
        assert ran[1] == [ENTRY_COST + 5]

    @pytest.mark.parametrize("fail", [False, True])
    def test_guard_and_deopt_through_absorbed_jumps(self, fail):
        instrs = [
            (m.M_COST, 2),
            (m.M_MOVI, 0, 0 if fail else 1),
            (m.M_MOVI, 4, 7),
            (m.M_JMP, 5),
            (m.M_RET,),  # unreached
            (m.M_COST, 3),
            (m.M_GUARD, 0, 0, "guarded"),
            (m.M_COST, 4),
            (m.M_MOVI, 7, 9),
            (m.M_JMP, 11),
            (m.M_RET,),  # unreached
            (m.M_COST, 6),
            (m.M_DEOPT, 1, "deopt"),
        ]
        ran = assert_same(instrs)
        if fail:
            assert ran[0][:3] == ("deopt", "guarded", ("T.m", 3))
            assert ran[1] == [ENTRY_COST + 2 + 3]
        else:
            assert ran[0][:3] == ("deopt", "deopt", ("T.m", 7))
            assert ran[0][3][0][1] == [7, NULL, NULL]
            assert ran[0][3][1][1] == [NULL, 9, NULL]
            # A passing guard flushes nothing.
            assert ran[1] == [ENTRY_COST + 2 + 3 + 4 + 6]

    def test_native_calls_in_absorbed_bodies(self):
        printer = PROGRAM.lookup_method("Builtins", "print")
        instrs = [
            (m.M_COST, 1),
            (m.M_MOVI, 0, 3),
            (m.M_CALL, -1, printer, (0,)),
            (m.M_JMP, 5),
            (m.M_RET,),  # unreached
            (m.M_COST, 2),
            (m.M_CALL, 1, PROGRAM.lookup_method("Builtins", "rand"), (0,)),
            (m.M_CALL, -1, printer, (1,)),
            (m.M_RETV, 1),
        ]
        ran = assert_same(instrs)
        assert len(ran[6]) == 2 and ran[6][0] == 3
        assert ran[1] == [ENTRY_COST + 1 + 2]
        assert table(instrs)[0][2] == (5,)

    def test_jump_outside_the_code(self):
        instrs = [(m.M_COST, 1), (m.M_MOVI, 0, 1), (m.M_JMP, 9)]
        ran = assert_same(instrs)
        assert ran[0] == ("trap", VMError, "pc 9 outside the code")
        assert ran[1] == []


# ---------------------------------------------------------------------------
# Generated machine code
# ---------------------------------------------------------------------------

#: Block terminators, weighted toward control flow.
TERMINATORS = (
    "jmp", "jmp", "jmp", "br", "br", "fall", "fall", "retv", "ret",
    "call", "vcall", "guard", "deopt",
)
#: Body opcodes that cannot trap on int operands.
SAFE_OPS = (
    m.M_ADD, m.M_SUB, m.M_MUL, m.M_AND, m.M_OR, m.M_XOR, m.M_SHL, m.M_SHR,
    m.M_EQ, m.M_NE, m.M_LT, m.M_LE, m.M_GT, m.M_GE,
)
#: Registers 0..9 hold ints in a run's int register file; register 10
#: takes the objects a safe body allocates.
INTS = st.integers(0, 9)


@st.composite
def _safe_body(draw):
    """0-5 instructions that run without trapping on an int register
    file: arithmetic, constants, native calls and allocations."""
    printer = PROGRAM.lookup_method("Builtins", "print")
    absolute = PROGRAM.lookup_method("Builtins", "abs")
    instrs = []
    for _ in range(draw(st.integers(0, 5))):
        choice = draw(st.integers(0, 9))
        if choice < 6:
            op = draw(st.sampled_from(SAFE_OPS))
            instrs.append((op, draw(INTS), draw(INTS), draw(INTS)))
        elif choice < 8:
            instrs.append((m.M_MOVI, draw(INTS), draw(st.sampled_from(INT_VALUES))))
        elif choice == 8:
            if draw(st.booleans()):
                instrs.append((m.M_CALL, -1, printer, (draw(INTS),)))
            else:
                instrs.append((m.M_CALL, draw(INTS), absolute, (draw(INTS),)))
        else:
            instrs.append((m.M_NEW, 10, draw(st.sampled_from(["Square", "Circle"]))))
        if draw(st.integers(0, 3)) == 0:
            instrs.append((m.M_COST, draw(st.integers(1, 9))))
    return instrs


@st.composite
def _code(draw):
    """Machine code of 2-8 blocks, each ending in a jump, a branch, a
    fall-through, a return, a call, a virtual call, a guard or a deopt.
    Most runs start from int registers and most bodies cannot trap; the
    rest come from the body generator, traps and all. Every block a
    backward jump or branch targets starts with a ``fuel`` call, so
    every loop ends."""
    if draw(st.integers(0, 3)):
        values = st.sampled_from(INT_VALUES)
        recipe = [("int", draw(values)) for _ in range(NUM_REGS - 1)]
        recipe.append(("int", draw(st.sampled_from([0, 1, 3]))))
    else:
        recipe = draw(_register_file())
    count = draw(st.integers(2, 8))
    reg = st.integers(0, NUM_REGS - 1)
    blocks = []
    for index in range(count):
        cost = draw(st.integers(0, 9))
        if draw(st.integers(0, 4)):
            body = draw(_safe_body())
        else:
            body = draw(_body(recipe))
        kind = draw(st.sampled_from(TERMINATORS))
        target = draw(st.integers(0, count - 1))
        if kind == "jmp":
            end = ("jmp", target)
        elif kind == "br":
            end = ("br", draw(INTS), target)
        elif kind in ("call", "vcall"):
            dest = draw(st.sampled_from([-1, draw(INTS)]))
            args = tuple(draw(st.lists(reg, max_size=2)))
            receiver = draw(st.sampled_from([SQUARE, CIRCLE, SQUARE, draw(reg)]))
            end = (kind, dest, (receiver,) + args if kind == "vcall" else args)
        elif kind == "guard":
            end = ("guard", draw(INTS), draw(st.integers(0, 1)))
        elif kind == "deopt":
            end = ("deopt", draw(st.integers(0, 1)))
        elif kind == "retv":
            end = ("retv", draw(reg))
        else:
            end = (kind,)
        blocks.append([cost, body, end, False])
    for index, (_, _, end, _) in enumerate(blocks):
        if end[0] in ("jmp", "br") and end[-1] <= index:
            blocks[end[-1]][3] = True
    starts, pc = [], 0
    for cost, body, end, fueled in blocks:
        starts.append(pc)
        pc += bool(cost) + fueled + len(body) + (end[0] != "fall")
    instrs = []
    for cost, body, end, fueled in blocks:
        if cost:
            instrs.append((m.M_COST, cost))
        if fueled:
            instrs.append(fuel())
        instrs.extend(body)
        kind = end[0]
        if kind == "jmp":
            instrs.append((m.M_JMP, starts[end[1]]))
        elif kind == "br":
            instrs.append((m.M_BR, end[1], starts[end[2]]))
        elif kind == "call":
            instrs.append((m.M_CALL, end[1], CALLEE, end[2]))
        elif kind == "vcall":
            instrs.append((m.M_VCALL, end[1], "area", end[2]))
        elif kind == "guard":
            instrs.append((m.M_GUARD, end[1], end[2], "guard%d" % end[2]))
        elif kind == "deopt":
            instrs.append((m.M_DEOPT, end[1], "deopt"))
        elif kind == "retv":
            instrs.append((m.M_RETV, end[1]))
        elif kind == "ret":
            instrs.append((m.M_RET,))
    return recipe, instrs


class TestGenerated:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(_code())
    def test_extended_segments_match_block_segments(self, case):
        recipe, instrs = case
        assert_same(instrs, recipe)


# ---------------------------------------------------------------------------
# The installed code of the suite programs
# ---------------------------------------------------------------------------


def cold_config():
    return JitConfig(
        hot_threshold=25, interp_predecode=True, backend="machine",
        compile_mode="sync", speculate=False, typespec=False, osr=False,
    )


def run_suite_program(name):
    spec = get_benchmark(name)
    engine = Engine(spec.load(), cold_config(), tuned_inliner(0.1))
    outcomes = []
    for _ in range(spec.iterations):
        try:
            result = engine.run_iteration("Main")
        except ReproError as error:
            outcomes.append((type(error).__name__, str(error)))
        else:
            outcomes.append((
                result.value if isinstance(result.value, int) else None,
                result.total_cycles, result.compiled_cycles,
                result.icache_cycles,
            ))
    assert engine.compilation_count > 0
    return outcomes, list(engine.vm.output)


@pytest.mark.parametrize("name", [spec.name for spec in all_benchmarks()])
def test_suite_program_matches_block_segments(monkeypatch, name):
    extended = run_suite_program(name)
    monkeypatch.setattr(m, "decode", block_segments)
    assert run_suite_program(name) == extended
