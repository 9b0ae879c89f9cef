"""The linear machine: instruction set, code container, executor.

Lowered code is a list of tuples ``(opcode, a, b, c)`` over virtual
registers. Cycle accounting is block-granular: lowering prefixes each
basic block with a ``COST`` pseudo-instruction carrying the block's
precomputed cycle price.

The executor does not walk those tuples one at a time. The first
execution of a :class:`MachineCode` decodes it into straight-line
*segments* and caches them on the code object (:func:`decode`):

- a segment ends at its *tail*: the first ``JMP``, ``BR``, ``RET``/
  ``RETV``, non-native ``CALL``, ``VCALL``, ``GUARD`` or ``DEOPT``, or
  an implicit jump just before any jump target;
- its ``COST`` instructions fold into one add at segment entry;
- every other instruction, native ``CALL`` included, becomes a
  pre-bound handler closure ``h(regs, vm)`` whose operands are fixed at
  decode time.

Invariant: no cycle flush happens inside a segment. Accumulated cycles
reach the sink only in tails (before a non-native call, at a return,
before a deopt) and never on a trap, so charging all of a segment's
``COST`` at its entry is exact: each flush sees precisely the ``COST``
instructions that precede it in instruction order.

Decoding binds nothing engine-specific (the VM state is an argument of
every handler), so every executor, tenant and thread running one code
object shares one decoded table.
"""

from repro.deopt import DeoptSignal, materialize_frames
from repro.errors import (
    BoundsTrap,
    CastTrap,
    NullPointerTrap,
    VMError,
)
from repro.runtime import int64
from repro.runtime.int64 import int_div, int_rem, wrap64
from repro.runtime.values import ArrayRef, ObjRef, NULL
from repro.runtime.intrinsics import intrinsic_function

# Machine opcodes (ints for fast comparison).
M_COST = 0
M_MOVI = 1
M_MOV = 2
M_MOVNULL = 3
M_ADD = 4
M_SUB = 5
M_MUL = 6
M_DIV = 7
M_REM = 8
M_NEG = 9
M_AND = 10
M_OR = 11
M_XOR = 12
M_SHL = 13
M_SHR = 14
M_EQ = 15
M_NE = 16
M_LT = 17
M_LE = 18
M_GT = 19
M_GE = 20
M_REFEQ = 21
M_REFNE = 22
M_JMP = 23
M_BR = 24
M_RET = 25
M_RETV = 26
M_NEW = 27
M_NEWARR = 28
M_ALOAD = 29
M_ASTORE = 30
M_ALEN = 31
M_GETF = 32
M_PUTF = 33
M_GETS = 34
M_PUTS = 35
M_ISINST = 36
M_ISEXACT = 37
M_CAST = 38
M_CALL = 39
M_VCALL = 40
M_GUARD = 41
M_DEOPT = 42

_NAMES = {
    value: name[2:]
    for name, value in list(globals().items())
    if name.startswith("M_")
}


class MachineCode:
    """Compiled machine code for one root method.

    Attributes:
        method: the root :class:`~repro.bytecode.method.Method`.
        instrs: list of instruction tuples.
        num_regs: virtual register count.
        entry_cost: prologue cycles charged on entry.
        size: installed-code size (number of machine instructions) —
            the unit reported in the paper's Figure 10 / Table I.
        deopt_table: per-deopt-point frame layouts — a tuple of
            :class:`~repro.deopt.FrameTemplate` tuples, indexed by the
            operand of ``GUARD``/``DEOPT`` instructions. Empty for
            non-speculative code.
        segments: the entry segment of the decoded form the executor
            runs (:func:`decode`), built on first execution; ``None``
            until then. ``instrs`` stays the source of truth.
        py_factory / py_source: the Python execution tier riding along
            (:mod:`repro.backend.pycodegen`): ``py_factory(vm,
            dispatch, sink)`` returns the closure the engine runs
            instead of the machine executor when the ``py`` backend is
            selected; ``py_source`` is the generated source (debugging
            and tests). ``None`` when the machine backend is selected
            or the generator bailed out. ``size`` stays the machine
            instruction count either way, so code-cache accounting,
            quotas and the icache model are backend-independent.
    """

    __slots__ = (
        "method",
        "instrs",
        "num_regs",
        "entry_cost",
        "size",
        "deopt_table",
        "segments",
        "py_factory",
        "py_source",
    )

    def __init__(self, method, instrs, num_regs, entry_cost, deopt_table=()):
        self.method = method
        self.instrs = instrs
        self.num_regs = num_regs
        self.entry_cost = entry_cost
        self.size = len(instrs)
        self.deopt_table = tuple(deopt_table)
        self.segments = None
        self.py_factory = None
        self.py_source = None

    def listing(self):
        """Human-readable disassembly (for tests and debugging)."""
        lines = []
        for index, instr in enumerate(self.instrs):
            op = instr[0]
            args = ", ".join(str(a) for a in instr[1:] if a is not None)
            lines.append("%4d: %-8s %s" % (index, _NAMES.get(op, "?"), args))
        return "\n".join(lines)


# -- decoding -----------------------------------------------------------------

#: Opcodes that always end a segment. A ``CALL`` ends one only when its
#: target is not native: intrinsics run in-line and never flush.
_TAILS = frozenset((M_JMP, M_BR, M_RET, M_RETV, M_VCALL, M_GUARD, M_DEOPT))


def decode(code):
    """Decode *code* into segments; cache and return the entry segment.

    A segment is a list ``[cost, body, tail, a, b, c, next]``: the
    folded ``COST`` total, the tuple of handler closures, the tail
    opcode with the tail instruction's operands, and the segment that
    runs after the tail. For ``JMP`` (and the implicit jump before a
    jump target) ``next`` is the target; for ``BR`` it is the
    fall-through and ``b`` the taken segment; ``CALL``, ``VCALL`` and
    ``GUARD`` continue at the next instruction; returns and ``DEOPT``
    have none.

    Only code reachable from the entry is decoded. An unknown opcode
    becomes a handler that raises ``VMError`` when executed and ends
    its segment, so unreached garbage never raises. Two threads may
    decode the same code concurrently; both tables are equivalent and
    the last one stored wins.
    """
    instrs = code.instrs
    targets = set()
    for instr in instrs:
        if instr[0] == M_JMP:
            targets.add(instr[1])
        elif instr[0] == M_BR:
            targets.add(instr[2])
    segments = {}
    pending = []

    def segment_at(pc):
        segment = segments.get(pc)
        if segment is None:
            segment = segments[pc] = [0, (), M_JMP, None, None, None, None]
            pending.append(pc)
        return segment

    entry = segment_at(0)
    while pending:
        start = pc = pending.pop()
        segment = segments[start]
        cost = 0
        body = []
        while True:
            if pc != start and pc in targets:
                segment[6] = segment_at(pc)
                break
            if not 0 <= pc < len(instrs):
                body.append(_fault("pc %d outside the code" % pc))
                break
            instr = instrs[pc]
            op = instr[0]
            if op in _TAILS or (op == M_CALL and not instr[2].is_native):
                a, b, c = (instr[1:] + (None, None, None))[:3]
                if op == M_JMP:
                    follow = segment_at(a)
                elif op in (M_RET, M_RETV, M_DEOPT):
                    follow = None
                else:
                    follow = segment_at(pc + 1)
                    if op == M_BR:
                        b = segment_at(b)
                segment[2:] = [op, a, b, c, follow]
                break
            if op == M_COST:
                cost += instr[1]
            else:
                make = _HANDLERS.get(op)
                if make is None:
                    body.append(_fault("bad machine opcode %d" % op))
                    break
                body.append(make(*instr[1:]))
            pc += 1
        segment[0] = cost
        segment[1] = tuple(body)
    code.segments = entry
    return entry


def _deoptimize(code, index, reason, regs):
    frames = materialize_frames(code.deopt_table[index], regs)
    raise DeoptSignal(
        code.method,
        reason,
        (frames[0].method.qualified_name, frames[0].bci),
        frames,
    )


# -- handlers -------------------------------------------------------------------
#
# One maker per body opcode: ``make(*instr[1:])`` returns the handler
# ``h(regs, vm)``. ADD/SUB/MUL/NEG/SHL inline wrap64 as
# ``(x + _SIGN & _MASK) - _SIGN`` (the same formula pycodegen emits);
# the constants come from the single int64 definition.

_SIGN = int64._SIGN
_MASK = int64._WRAP - 1


def _fault(message):
    def h(regs, vm):
        raise VMError(message)

    return h


def _movi(d, value):
    def h(regs, vm):
        regs[d] = value

    return h


def _mov(d, s):
    def h(regs, vm):
        regs[d] = regs[s]

    return h


def _movnull(d):
    def h(regs, vm):
        regs[d] = NULL

    return h


def _add(d, a, b):
    def h(regs, vm):
        regs[d] = (regs[a] + regs[b] + _SIGN & _MASK) - _SIGN

    return h


def _sub(d, a, b):
    def h(regs, vm):
        regs[d] = (regs[a] - regs[b] + _SIGN & _MASK) - _SIGN

    return h


def _mul(d, a, b):
    def h(regs, vm):
        regs[d] = (regs[a] * regs[b] + _SIGN & _MASK) - _SIGN

    return h


def _div(d, a, b):
    def h(regs, vm):
        regs[d] = wrap64(int_div(regs[a], regs[b]))

    return h


def _rem(d, a, b):
    def h(regs, vm):
        regs[d] = wrap64(int_rem(regs[a], regs[b]))

    return h


def _neg(d, s):
    def h(regs, vm):
        regs[d] = (-regs[s] + _SIGN & _MASK) - _SIGN

    return h


def _and(d, a, b):
    def h(regs, vm):
        regs[d] = regs[a] & regs[b]

    return h


def _or(d, a, b):
    def h(regs, vm):
        regs[d] = regs[a] | regs[b]

    return h


def _xor(d, a, b):
    def h(regs, vm):
        regs[d] = regs[a] ^ regs[b]

    return h


def _shl(d, a, b):
    def h(regs, vm):
        regs[d] = ((regs[a] << (regs[b] & 63)) + _SIGN & _MASK) - _SIGN

    return h


def _shr(d, a, b):
    def h(regs, vm):
        regs[d] = regs[a] >> (regs[b] & 63)

    return h


def _eq(d, a, b):
    def h(regs, vm):
        regs[d] = 1 if regs[a] == regs[b] else 0

    return h


def _ne(d, a, b):
    def h(regs, vm):
        regs[d] = 1 if regs[a] != regs[b] else 0

    return h


def _lt(d, a, b):
    def h(regs, vm):
        regs[d] = 1 if regs[a] < regs[b] else 0

    return h


def _le(d, a, b):
    def h(regs, vm):
        regs[d] = 1 if regs[a] <= regs[b] else 0

    return h


def _gt(d, a, b):
    def h(regs, vm):
        regs[d] = 1 if regs[a] > regs[b] else 0

    return h


def _ge(d, a, b):
    def h(regs, vm):
        regs[d] = 1 if regs[a] >= regs[b] else 0

    return h


def _refeq(d, a, b):
    def h(regs, vm):
        regs[d] = 1 if regs[a] is regs[b] else 0

    return h


def _refne(d, a, b):
    def h(regs, vm):
        regs[d] = 1 if regs[a] is not regs[b] else 0

    return h


def _new(d, class_name):
    def h(regs, vm):
        regs[d] = vm.allocate(class_name)

    return h


def _newarr(d, n, elem_type):
    def h(regs, vm):
        length = regs[n]
        if length < 0:
            raise BoundsTrap("negative array length %d" % length)
        regs[d] = vm.allocate_array(elem_type, length)

    return h


def _aload(d, a, i):
    def h(regs, vm):
        array = regs[a]
        index = regs[i]
        if array is NULL:
            raise NullPointerTrap("ALOAD")
        data = array.data
        if not (0 <= index < len(data)):
            raise BoundsTrap("%d / %d" % (index, len(data)))
        regs[d] = data[index]

    return h


def _astore(a, i, s):
    def h(regs, vm):
        array = regs[a]
        index = regs[i]
        if array is NULL:
            raise NullPointerTrap("ASTORE")
        data = array.data
        if not (0 <= index < len(data)):
            raise BoundsTrap("%d / %d" % (index, len(data)))
        data[index] = regs[s]

    return h


def _alen(d, a):
    def h(regs, vm):
        array = regs[a]
        if array is NULL:
            raise NullPointerTrap("ARRAYLEN")
        regs[d] = len(array.data)

    return h


def _getf(d, o, field):
    message = "GETFIELD %s" % field

    def h(regs, vm):
        obj = regs[o]
        if obj is NULL:
            raise NullPointerTrap(message)
        regs[d] = obj.fields[field]

    return h


def _putf(o, field, s):
    message = "PUTFIELD %s" % field

    def h(regs, vm):
        obj = regs[o]
        if obj is NULL:
            raise NullPointerTrap(message)
        obj.fields[field] = regs[s]

    return h


def _gets(d, class_name, field):
    def h(regs, vm):
        regs[d] = vm.get_static(class_name, field)

    return h


def _puts(class_name, field, s):
    def h(regs, vm):
        vm.put_static(class_name, field, regs[s])

    return h


def _isinst(d, s, type_name):
    def h(regs, vm):
        value = regs[s]
        if value is NULL:
            regs[d] = 0
        else:
            actual = (
                value.class_name if isinstance(value, ObjRef) else value.type_name
            )
            regs[d] = 1 if vm.program.is_subtype(actual, type_name) else 0

    return h


def _isexact(d, s, class_name):
    def h(regs, vm):
        value = regs[s]
        regs[d] = (
            1
            if isinstance(value, ObjRef) and value.class_name == class_name
            else 0
        )

    return h


def _cast(d, s, type_name):
    def h(regs, vm):
        value = regs[s]
        if value is not NULL:
            actual = (
                value.class_name if isinstance(value, ObjRef) else value.type_name
            )
            if not vm.program.is_subtype(actual, type_name):
                raise CastTrap("%s -> %s" % (actual, type_name))
        regs[d] = value

    return h


def _native_call(d, target, arg_regs):
    function = intrinsic_function(target.name)

    def h(regs, vm):
        value = function(vm, *[regs[r] for r in arg_regs])
        if d >= 0:
            regs[d] = value

    return h


_HANDLERS = {
    M_MOVI: _movi,
    M_MOV: _mov,
    M_MOVNULL: _movnull,
    M_ADD: _add,
    M_SUB: _sub,
    M_MUL: _mul,
    M_DIV: _div,
    M_REM: _rem,
    M_NEG: _neg,
    M_AND: _and,
    M_OR: _or,
    M_XOR: _xor,
    M_SHL: _shl,
    M_SHR: _shr,
    M_EQ: _eq,
    M_NE: _ne,
    M_LT: _lt,
    M_LE: _le,
    M_GT: _gt,
    M_GE: _ge,
    M_REFEQ: _refeq,
    M_REFNE: _refne,
    M_NEW: _new,
    M_NEWARR: _newarr,
    M_ALOAD: _aload,
    M_ASTORE: _astore,
    M_ALEN: _alen,
    M_GETF: _getf,
    M_PUTF: _putf,
    M_GETS: _gets,
    M_PUTS: _puts,
    M_ISINST: _isinst,
    M_ISEXACT: _isexact,
    M_CAST: _cast,
    M_CALL: _native_call,
}


class MachineExecutor:
    """Executes :class:`MachineCode` against a VM state.

    :meth:`execute` runs the code's decoded segments (built by
    :func:`decode` on first execution and shared by every executor):
    add the segment's folded ``COST``, run its handlers, then act on
    its tail — follow a jump or branch, flush and dispatch a call,
    check a guard, flush and return, or flush and deoptimize. Nothing
    inside a segment flushes cycles, and nothing flushes on a trap.

    The executor is deliberately free of policy: tier transfer decisions
    live in the dispatch callable (the JIT engine), which is invoked for
    every non-native CALL and every VCALL.
    """

    def __init__(self, vm, dispatch, cycle_sink):
        """
        Args:
            vm: the :class:`~repro.runtime.vmstate.VMState`.
            dispatch: ``(method, args) -> value`` used for all calls.
            cycle_sink: object with an ``add_compiled_cycles(n)`` method.
        """
        self.vm = vm
        self.dispatch = dispatch
        self.cycle_sink = cycle_sink

    def execute(self, code, args):
        """Run *code* with *args* in registers 0..n-1; return its
        result (NULL for a void return)."""
        segment = code.segments
        if segment is None:
            segment = decode(code)
        vm = self.vm
        sink = self.cycle_sink
        regs = [NULL] * code.num_regs
        regs[: len(args)] = args
        cycles = code.entry_cost
        while True:
            cost, body, tail, a, b, c, follow = segment
            cycles += cost
            for h in body:
                h(regs, vm)
            if tail == M_JMP:
                segment = follow
            elif tail == M_BR:
                segment = b if regs[a] != 0 else follow
            elif tail == M_CALL:
                # (result_reg, target_method, arg_regs)
                sink.add_compiled_cycles(cycles)
                cycles = 0
                value = self.dispatch(b, [regs[r] for r in c])
                if a >= 0:
                    regs[a] = value
                segment = follow
            elif tail == M_VCALL:
                # (result_reg, method_name, arg_regs)
                call_args = [regs[r] for r in c]
                receiver = call_args[0]
                if receiver is NULL:
                    raise NullPointerTrap("call %s" % b)
                if isinstance(receiver, ArrayRef):
                    raise VMError("virtual call on array receiver")
                target = vm.program.resolve_method(receiver.class_name, b)
                sink.add_compiled_cycles(cycles)
                cycles = 0
                value = self.dispatch(target, call_args)
                if a >= 0:
                    regs[a] = value
                segment = follow
            elif tail == M_RETV:
                sink.add_compiled_cycles(cycles)
                return regs[a]
            elif tail == M_RET:
                sink.add_compiled_cycles(cycles)
                return NULL
            elif tail == M_GUARD:
                # (condition_reg, deopt_table_index, reason)
                if regs[a] == 0:
                    sink.add_compiled_cycles(cycles)
                    _deoptimize(code, b, c, regs)
                segment = follow
            else:
                # DEOPT: (deopt_table_index, reason)
                sink.add_compiled_cycles(cycles)
                _deoptimize(code, a, b, regs)
