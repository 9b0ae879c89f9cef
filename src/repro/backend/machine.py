"""The linear machine: instruction set, code container, executor.

Lowered code is a list of tuples ``(opcode, a, b, c)`` over virtual
registers. Cycle accounting is block-granular: lowering prefixes each
basic block with a ``COST`` pseudo-instruction carrying the block's
precomputed cycle price.

The executor does not walk those tuples one at a time. The first
execution of a :class:`MachineCode` decodes it into straight-line
*segments* and caches them on the code object (:func:`decode`):

- a segment ends at its *tail*: the first ``BR``, ``RET``/``RETV``,
  non-native ``CALL``, ``VCALL``, ``GUARD`` or ``DEOPT``;
- it runs through jumps: at a ``JMP``, or at the implicit jump where
  straight-line code reaches a jump target, decoding continues in the
  target. Only a target already in the segment (a loop's back edge) or
  a full body (:data:`MAX_ABSORBED_BODY`) ends it, in a ``JMP`` tail;
- its ``COST`` instructions, those of the targets it absorbed
  included, fold into one add at segment entry;
- every other instruction, native ``CALL`` included, belongs to the
  segment's *body*, which runs as one generated function
  ``body(regs, vm)`` (a superinstruction). Its maker is compiled once
  per process for each body *shape*, the sequence of its opcodes, and
  the instructions' operands become the body's closure cells.

Invariant: no cycle flush happens inside a segment. Accumulated cycles
reach the sink only in tails (before a non-native call, at a return,
before a deopt) and never on a trap, so charging all of a segment's
``COST`` at its entry is exact: each flush sees precisely the ``COST``
instructions executed before it, a jump target's among them once
control has jumped there. A body never flushes, and a trap inside it
flushes nothing and discards the register file, so running a body in
one call cannot move a cycle.

Decoding binds nothing engine-specific (the VM state is an argument of
every body), so every executor, tenant and thread running one code
object shares one decoded table.
"""

import re
import threading

from repro.deopt import DeoptSignal, materialize_frames
from repro.errors import (
    BoundsTrap,
    CastTrap,
    NullPointerTrap,
    VMError,
)
from repro.runtime import int64
from repro.runtime.int64 import div64, rem64
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
            links, sink)`` returns the closure the engine runs
            instead of the machine executor when the ``py`` backend is
            selected, with its static fields, type tests and virtual
            call names linked against *vm* and its direct callees'
            link cells fetched from *links*; ``py_source`` is the
            generated source (debugging and tests). ``None`` when the
            machine backend is selected or the generator bailed out.
            An engine calls the factory once, when its cache installs
            the code, and drops the closure when the code leaves the
            cache (``Engine._code_changed``). ``size`` stays the
            machine instruction count either way, so code-cache
            accounting, quotas and the icache model are
            backend-independent.
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
#: target is not native: intrinsics run in-line and never flush. A
#: ``JMP`` ends one only where :func:`decode` does not absorb its target.
_TAILS = frozenset((M_BR, M_RET, M_RETV, M_VCALL, M_GUARD, M_DEOPT))

#: A segment absorbs a jump target only while its body has fewer
#: instructions than this. Without a bound, a chain of jumps would make
#: one body (and one maker shape) of every block it passes through, and
#: each predecessor of a block would carry its own copy.
MAX_ABSORBED_BODY = 64


def decode(code, shapes=None):
    """Decode *code* into segments; cache and return the entry segment.

    A segment is a list ``[cost, body, tail, a, b, c, next]``: the
    folded ``COST`` total, the generated body function (``None`` for
    an empty body), the tail opcode with the tail instruction's
    operands, and the segment that runs after the tail. For ``BR``
    ``next`` is the fall-through and ``b`` the taken segment; for
    ``JMP`` ``next`` is the target; ``CALL``, ``VCALL`` and ``GUARD``
    continue at the next instruction; returns and ``DEOPT`` have none.

    A segment runs through jumps: at a ``JMP``, or at the implicit jump
    where straight-line code reaches a jump target, decoding continues
    at the target, whose ``COST`` folds into the segment's and whose
    instructions join its body. It stops with a ``JMP`` tail instead
    when the target is already in the segment (so a loop keeps its back
    edge) or the body has reached :data:`MAX_ABSORBED_BODY`
    instructions. A target may so be decoded into several segments.

    A body ``body(regs, vm)`` runs the segment's instructions in one
    call. It is made by the maker of the body's *shape* (see
    :data:`MAX_MAKERS`), called with the instructions' operands.

    Only code reachable from the entry is decoded. An unknown opcode
    or a pc outside the code becomes a body entry that raises
    ``VMError`` when executed and ends its segment, so unreached
    garbage never raises. Two threads may decode the same code
    concurrently; both tables are equivalent and the last one stored
    wins. If *shapes* is a dict, it receives ``start pc -> (segment,
    shape, absorbed, decoded)`` for every decoded segment: the jump
    targets it absorbed, in order, and the number of instructions it
    decoded (``disasm --form segments``).
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
        absorbed = []
        decoded = 0
        while True:
            if not 0 <= pc < len(instrs):
                kinds.append(_FAULT)
                operands.append("pc %d outside the code" % pc)
                break
            decoded += 1
            instr = instrs[pc]
            op = instr[0]
            if op == M_JMP:
                jump = instr[1]
            elif op in _TAILS or (op == M_CALL and not instr[2].is_native):
                a, b, c = (instr[1:] + (None, None, None))[:3]
                if op in (M_RET, M_RETV, M_DEOPT):
                    follow = None
                else:
                    follow = segment_at(pc + 1)
                    if op == M_BR:
                        b = segment_at(b)
                segment[2:] = [op, a, b, c, follow]
                break
            elif op == M_COST:
                cost += instr[1]
            elif op == M_CALL:
                d, target, arg_regs = instr[1:]
                kinds.append((M_CALL, len(arg_regs), d >= 0))
                operands.append(intrinsic_function(target.name))
                if d >= 0:
                    operands.append(d)
                operands.extend(arg_regs)
            elif op in _TEMPLATES:
                kinds.append(op)
                operands.extend(instr[1:])
                if op == M_GETF:
                    operands.append("GETFIELD %s" % instr[3])
                elif op == M_PUTF:
                    operands.append("PUTFIELD %s" % instr[2])
            else:
                kinds.append(_FAULT)
                operands.append("bad machine opcode %d" % op)
                break
            if op != M_JMP:
                pc += 1
                if pc not in targets:
                    continue
                jump = pc  # the implicit jump before a jump target
            if (
                jump == start
                or jump in absorbed
                or len(kinds) >= MAX_ABSORBED_BODY
            ):
                segment[2:] = [M_JMP, None, None, None, segment_at(jump)]
                break
            absorbed.append(jump)
            pc = jump
        segment[0] = cost
        shape = tuple(kinds)
        if shape:
            segment[1] = _maker(shape)[0](*operands)
        if shapes is not None:
            shapes[start] = (segment, shape, tuple(absorbed), decoded)
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


# -- superinstructions ----------------------------------------------------------
#
# A body's *shape* is the tuple of its instructions' kinds: the opcode,
# or ``(M_CALL, argument count, stores a result)`` for a native call,
# or ``_FAULT`` for a decode fault. Its maker is generated source of
# the form
#
#     def make(o0, o1, ...):
#         def body(regs, vm):
#             <one template per instruction>
#         return body
#
# whose arguments are the body's operands in instruction order, so they
# become closure cells of the body. Each template does what its
# handler closure in the tests' oracle (tests/machine_oracle.py) does,
# statement for statement: ADD/SUB/MUL/NEG/SHL wrap branch-free as
# ``(x + SIGN & MASK) - SIGN`` with the constants of the single int64
# definition printed in (pycodegen instead range-tests the exact
# result; this form stays its oracle), DIV/REM call div64/rem64, NULL
# is tested by identity, and every trap keeps its class and message.
# GETF/PUTF take their trap message as one more operand.

#: Bound on the process-wide maker table. The table holds one maker
#: per shape a process has decoded. Since segments run through jumps:
#: 824 after a cold-suite round of the 28 suite programs (none new in
#: later rounds), 2,023 after the suite plus the 300-case generated
#: corpus run on the machine backend, 912 after the CI fuzz smoke, at
#: 3.8-3.9 KB each (the longest shape had 72 instructions, the median
#: 7-8). No single process measured exceeds it, and it keeps the table
#: under about 8 MB. When it is full the oldest maker is dropped; bodies
#: already made keep running, since they do not reference the table.
MAX_MAKERS = 2048

_FAULT = -1

_SIGN = int64._SIGN
_MASK = int64._WRAP - 1


def _wrapped(expr):
    return "(%s + %d & %d) - %d" % (expr, _SIGN, _MASK, _SIGN)


_TYPE = "actual = value.class_name if isinstance(value, ObjRef) else value.type_name"

#: Body opcode -> statement template over operands ``{0}``, ``{1}``, ...
#: (the instruction's operands in order; GETF/PUTF add the message).
_TEMPLATES = {
    M_MOVI: "regs[{0}] = {1}",
    M_MOV: "regs[{0}] = regs[{1}]",
    M_MOVNULL: "regs[{0}] = NULL",
    M_ADD: "regs[{0}] = " + _wrapped("regs[{1}] + regs[{2}]"),
    M_SUB: "regs[{0}] = " + _wrapped("regs[{1}] - regs[{2}]"),
    M_MUL: "regs[{0}] = " + _wrapped("regs[{1}] * regs[{2}]"),
    M_DIV: "regs[{0}] = div64(regs[{1}], regs[{2}])",
    M_REM: "regs[{0}] = rem64(regs[{1}], regs[{2}])",
    M_NEG: "regs[{0}] = " + _wrapped("-regs[{1}]"),
    M_AND: "regs[{0}] = regs[{1}] & regs[{2}]",
    M_OR: "regs[{0}] = regs[{1}] | regs[{2}]",
    M_XOR: "regs[{0}] = regs[{1}] ^ regs[{2}]",
    M_SHL: "regs[{0}] = " + _wrapped("(regs[{1}] << (regs[{2}] & 63))"),
    M_SHR: "regs[{0}] = regs[{1}] >> (regs[{2}] & 63)",
    M_EQ: "regs[{0}] = 1 if regs[{1}] == regs[{2}] else 0",
    M_NE: "regs[{0}] = 1 if regs[{1}] != regs[{2}] else 0",
    M_LT: "regs[{0}] = 1 if regs[{1}] < regs[{2}] else 0",
    M_LE: "regs[{0}] = 1 if regs[{1}] <= regs[{2}] else 0",
    M_GT: "regs[{0}] = 1 if regs[{1}] > regs[{2}] else 0",
    M_GE: "regs[{0}] = 1 if regs[{1}] >= regs[{2}] else 0",
    M_REFEQ: "regs[{0}] = 1 if regs[{1}] is regs[{2}] else 0",
    M_REFNE: "regs[{0}] = 1 if regs[{1}] is not regs[{2}] else 0",
    M_NEW: "regs[{0}] = vm.allocate({1})",
    M_NEWARR: """\
length = regs[{1}]
if length < 0:
    raise BoundsTrap("negative array length %d" % length)
regs[{0}] = vm.allocate_array({2}, length)""",
    M_ALOAD: """\
array = regs[{1}]
index = regs[{2}]
if array is NULL:
    raise NullPointerTrap("ALOAD")
data = array.data
if not (0 <= index < len(data)):
    raise BoundsTrap("%d / %d" % (index, len(data)))
regs[{0}] = data[index]""",
    M_ASTORE: """\
array = regs[{0}]
index = regs[{1}]
if array is NULL:
    raise NullPointerTrap("ASTORE")
data = array.data
if not (0 <= index < len(data)):
    raise BoundsTrap("%d / %d" % (index, len(data)))
data[index] = regs[{2}]""",
    M_ALEN: """\
array = regs[{1}]
if array is NULL:
    raise NullPointerTrap("ARRAYLEN")
regs[{0}] = len(array.data)""",
    M_GETF: """\
obj = regs[{1}]
if obj is NULL:
    raise NullPointerTrap({3})
regs[{0}] = obj.fields[{2}]""",
    M_PUTF: """\
obj = regs[{0}]
if obj is NULL:
    raise NullPointerTrap({3})
obj.fields[{1}] = regs[{2}]""",
    M_GETS: "regs[{0}] = vm.get_static({1}, {2})",
    M_PUTS: "vm.put_static({0}, {1}, regs[{2}])",
    M_ISINST: """\
value = regs[{1}]
if value is NULL:
    regs[{0}] = 0
else:
    %s
    regs[{0}] = 1 if vm.program.is_subtype(actual, {2}) else 0""" % _TYPE,
    M_ISEXACT: """\
value = regs[{1}]
regs[{0}] = 1 if isinstance(value, ObjRef) and value.class_name == {2} else 0""",
    M_CAST: """\
value = regs[{1}]
if value is not NULL:
    %s
    if not vm.program.is_subtype(actual, {2}):
        raise CastTrap("%%s -> %%s" %% (actual, {2}))
regs[{0}] = value""" % _TYPE,
}

#: The names a maker's source may use besides its operands.
_GLOBALS = {
    "NULL": NULL,
    "ObjRef": ObjRef,
    "div64": div64,
    "rem64": rem64,
    "BoundsTrap": BoundsTrap,
    "CastTrap": CastTrap,
    "NullPointerTrap": NullPointerTrap,
    "VMError": VMError,
}

#: Shape -> ``(maker, source)``, oldest first; see :data:`MAX_MAKERS`.
_MAKERS: dict = {}
_MAKERS_LOCK = threading.Lock()


def _template(kind):
    """``(template, operand count)`` of one shape entry."""
    if kind == _FAULT:
        return "raise VMError({0})", 1
    if isinstance(kind, tuple):
        _, count, stores = kind
        call = "{0}(vm%s)" % "".join(
            ", regs[{%d}]" % (stores + 1 + k) for k in range(count)
        )
        return ("regs[{1}] = " + call if stores else call), 1 + stores + count
    template = _TEMPLATES[kind]
    return template, len(set(re.findall(r"\{(\d)\}", template)))


def _maker(shape):
    """``(maker, source)`` for *shape*: from the table, or generated,
    compiled and stored (evicting the oldest makers at the bound)."""
    entry = _MAKERS.get(shape)
    if entry is not None:
        return entry
    names = []
    lines = []
    for kind in shape:
        template, count = _template(kind)
        args = ["o%d" % (len(names) + k) for k in range(count)]
        names.extend(args)
        lines.extend(template.format(*args).splitlines())
    source = "def make(%s):\n    def body(regs, vm):\n%s\n    return body\n" % (
        ", ".join(names),
        "\n".join("        " + line for line in lines),
    )
    namespace: dict = {}
    exec(compile(source, "<segment body>", "exec"), _GLOBALS, namespace)
    entry = (namespace["make"], source)
    with _MAKERS_LOCK:
        makers = _MAKERS
        if shape not in makers:
            while len(makers) >= MAX_MAKERS:
                del makers[next(iter(makers))]
        makers[shape] = entry
    return entry


def shape_names(shape):
    """The opcode names of *shape*, one per instruction: a native call
    reads ``CALL/<argument count>``, with ``/void`` when it stores no
    result; a decode fault reads ``FAULT``."""
    names = []
    for kind in shape:
        if kind == _FAULT:
            names.append("FAULT")
        elif isinstance(kind, tuple):
            names.append("CALL/%d%s" % (kind[1], "" if kind[2] else "/void"))
        else:
            names.append(_NAMES[kind])
    return names


def maker_source(shape):
    """The generated source of *shape*'s maker."""
    return _maker(shape)[1]


class MachineExecutor:
    """Executes :class:`MachineCode` against a VM state.

    :meth:`execute` runs the code's decoded segments (built by
    :func:`decode` on first execution and shared by every executor):
    add the segment's folded ``COST``, make one call to its generated
    body (if it has one), then act on its tail — follow a branch (the
    most common tail, tested first) or jump, flush and dispatch a call,
    check a guard, flush and return, or flush and deoptimize. Nothing
    inside a segment flushes cycles, and nothing flushes on a trap.

    The cycle sink is any object with a ``compiled_cycles`` attribute;
    a flush is ``sink.compiled_cycles += cycles``, an attribute add
    rather than a call. The engine is its own sink, and the py tier's
    closures flush to it the same way, so there is one sink protocol
    for both tiers.

    The executor is deliberately free of policy: tier transfer decisions
    live in the dispatch callable (the JIT engine), which is invoked for
    every non-native CALL and every VCALL.
    """

    def __init__(self, vm, dispatch, cycle_sink):
        """
        Args:
            vm: the :class:`~repro.runtime.vmstate.VMState`.
            dispatch: ``(method, args) -> value`` used for all calls.
            cycle_sink: the object whose ``compiled_cycles``
                attribute each flush adds to (the engine; the py
                tier's closures flush to the same attribute).
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
            if body is not None:
                body(regs, vm)
            if tail == M_BR:
                segment = b if regs[a] != 0 else follow
            elif tail == M_JMP:
                segment = follow
            elif tail == M_CALL:
                # (result_reg, target_method, arg_regs)
                sink.compiled_cycles += cycles
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
                sink.compiled_cycles += cycles
                cycles = 0
                value = self.dispatch(target, call_args)
                if a >= 0:
                    regs[a] = value
                segment = follow
            elif tail == M_RETV:
                sink.compiled_cycles += cycles
                return regs[a]
            elif tail == M_RET:
                sink.compiled_cycles += cycles
                return NULL
            elif tail == M_GUARD:
                # (condition_reg, deopt_table_index, reason)
                if regs[a] == 0:
                    sink.compiled_cycles += cycles
                    _deoptimize(code, b, c, regs)
                segment = follow
            else:
                # DEOPT: (deopt_table_index, reason)
                sink.compiled_cycles += cycles
                _deoptimize(code, a, b, regs)
