"""Test oracles for the machine executor's decoded form.

Two pieces of earlier executors live on here, so that tests can check
what replaced them:

- The per-instruction handler closures. Until segment bodies became
  superinstructions, ``machine.decode`` built one pre-bound closure
  ``h(regs, vm)`` per body instruction with the makers below. They are
  kept verbatim so that tests can run a body instruction by
  instruction and compare registers, traps, allocations, statics and
  output with the generated function that replaced them
  (``tests/test_machine_opcodes.py``).
- :func:`decode`, the decoder of one segment per block. It ended a
  segment at every ``JMP`` and just before every jump target, where
  ``machine.decode`` now runs on into the target. Its table runs on
  the shipped executor, so tests can compare every observable of
  extended segments with it (``tests/test_machine_segments.py``).
"""

from repro.errors import (
    BoundsTrap,
    CastTrap,
    NullPointerTrap,
    VMError,
)
from repro.runtime import int64
from repro.runtime.int64 import div64, rem64
from repro.runtime.values import ObjRef, NULL
from repro.runtime.intrinsics import intrinsic_function
from repro.backend import machine
from repro.backend.machine import (
    M_ADD, M_ALEN, M_ALOAD, M_AND, M_ASTORE, M_BR, M_CALL, M_CAST, M_COST,
    M_DEOPT, M_DIV, M_EQ, M_GE, M_GETF, M_GETS, M_GT, M_GUARD, M_ISEXACT,
    M_ISINST, M_JMP, M_LE, M_LT, M_MOV, M_MOVI, M_MOVNULL, M_MUL, M_NE, M_NEG,
    M_NEW, M_NEWARR, M_OR, M_PUTF, M_PUTS, M_REFEQ, M_REFNE, M_REM, M_RET,
    M_RETV, M_SHL, M_SHR, M_SUB, M_VCALL, M_XOR,
)


# -- handlers -------------------------------------------------------------------
#
# One maker per body opcode: ``make(*instr[1:])`` returns the handler
# ``h(regs, vm)``. ADD/SUB/MUL/NEG/SHL inline wrap64 branch-free as
# ``(x + _SIGN & _MASK) - _SIGN``, with the constants of the single
# int64 definition (pycodegen instead range-tests the exact result and
# calls wrap64 only outside the range; this form stays its oracle).
# DIV/REM call its div64/rem64, as every other executor does.

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
        regs[d] = div64(regs[a], regs[b])

    return h


def _rem(d, a, b):
    def h(regs, vm):
        regs[d] = rem64(regs[a], regs[b])

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


def run_body(instrs, regs, vm):
    """Run the straight-line body *instrs* as the executor did: make
    every handler first (``COST`` folds away), then call each in turn."""
    handlers = [
        _HANDLERS[instr[0]](*instr[1:]) for instr in instrs if instr[0] != M_COST
    ]
    for h in handlers:
        h(regs, vm)


# -- one segment per block ------------------------------------------------------

#: Opcodes that always ended a segment.
_TAILS = frozenset((M_JMP, M_BR, M_RET, M_RETV, M_VCALL, M_GUARD, M_DEOPT))


def decode(code):
    """Decode *code* as ``machine.decode`` did before segments ran
    through jumps; return the entry segment without caching it.

    The segment format, bodies and makers are the shipped ones. A
    segment ended at every ``JMP`` and just before every jump target
    (an implicit jump), so each block was its own segment.
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
            segment = segments[pc] = [0, None, M_JMP, None, None, None, None]
            pending.append(pc)
        return segment

    entry = segment_at(0)
    while pending:
        start = pc = pending.pop()
        segment = segments[start]
        cost = 0
        kinds = []
        operands = []
        while True:
            if pc != start and pc in targets:
                segment[6] = segment_at(pc)
                break
            if not 0 <= pc < len(instrs):
                kinds.append(machine._FAULT)
                operands.append("pc %d outside the code" % pc)
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
            elif op == M_CALL:
                d, target, arg_regs = instr[1:]
                kinds.append((M_CALL, len(arg_regs), d >= 0))
                operands.append(intrinsic_function(target.name))
                if d >= 0:
                    operands.append(d)
                operands.extend(arg_regs)
            elif op in machine._TEMPLATES:
                kinds.append(op)
                operands.extend(instr[1:])
                if op == M_GETF:
                    operands.append("GETFIELD %s" % instr[3])
                elif op == M_PUTF:
                    operands.append("PUTFIELD %s" % instr[2])
            else:
                kinds.append(machine._FAULT)
                operands.append("bad machine opcode %d" % op)
                break
            pc += 1
        segment[0] = cost
        shape = tuple(kinds)
        if shape:
            segment[1] = machine._maker(shape)[0](*operands)
    return entry
