"""The pre-decoded fast interpreter tier.

:func:`predecode` compiles one method's bytecode — once — into a dense
table of *pre-bound handler closures*, one per instruction index. All
the per-instruction work the classic loop repeats on every execution is
hoisted to decode time:

- immediate operands are unpacked out of ``instr.args`` into closure
  cells (local slot indices, constants, branch targets, type names);
- statically-resolvable callees (INVOKESTATIC / INVOKESPECIAL and the
  *declared* method of virtual calls) are resolved exactly once through
  the program's cached resolvers;
- the per-pc profile cells (``BranchProfile`` / ``ReceiverProfile``)
  and bound profile recorders are materialized per callsite instead of
  being re-fetched through two dict lookups per executed branch/call;
- the backedge test ``target <= pc`` is a decode-time constant.

Each handler has the signature ``handler(stack, locals_) -> next_pc``
and the driver loop in :meth:`~repro.interp.interpreter.Interpreter`
is three bytecodes wide::

    while pc >= 0:
        pc = table[pc](stack, locals_)
        ops += 1

Returns are signalled by the negative sentinels :data:`RET_VOID` /
:data:`RET_VALUE` (the return value stays on the operand stack).

Correctness contract: for any program, executing through the
pre-decoded tier is *bit-identical* to the classic ``if/elif`` loop —
same ``ops_executed``, same traps, same printed output, same recorded
profile contents (profile cells are created lazily on first execution,
exactly like the classic tier), and therefore the same deterministic
engine cycle counts. ``tests/test_interp_predecode.py`` enforces this
differentially and the fuzz oracle matrix carries predecode
configurations.

Cache coherence: handler tables pre-bind resolved methods and profile
objects, so they are keyed on ``program.generation`` (bumped by class
loading) and ``profiles.generation`` (bumped by ``ProfileStore.clear``)
by the interpreter; a stale table is simply re-decoded.
"""

from repro.bytecode import types as bt
from repro.bytecode.opcodes import Op
from repro.errors import (
    BoundsTrap,
    CastTrap,
    LinkError,
    NullPointerTrap,
    VMError,
)
from repro.runtime.int64 import div64, rem64, wrap64
from repro.runtime.values import ArrayRef, NULL, ObjRef

#: Sentinel "next pc" values returned by RET / RETV handlers.
RET_VOID = -1
RET_VALUE = -2

#: Returned by an OSR hook to decline the transfer and keep
#: interpreting (a compiled return value can legitimately be ``None``,
#: so a unique sentinel object marks the miss). Shared by both
#: interpreter tiers; re-exported from :mod:`repro.interp.interpreter`.
OSR_MISS = object()


def predecode(method, profile, interp):
    """Compile *method* into a handler table bound to *profile*.

    Args:
        method: the :class:`~repro.bytecode.method.Method` to decode.
        profile: the profile object the handlers record into (a
            :class:`~repro.interp.profiles.MethodProfile` or a fanout
            proxy in context-sensitive mode).
        interp: the owning interpreter; handlers reach ``interp.vm``
            and ``interp.dispatch`` through it.

    Returns:
        A list of closures, one per instruction index.
    """
    program = interp.program
    vm = interp.vm
    table = []
    for pc, instr in enumerate(method.code):
        table.append(
            _decode_one(instr, pc, method, profile, program, vm, interp)
        )
    return table


def _decode_one(instr, pc, method, profile, program, vm, interp):
    op = instr.op
    next_pc = pc + 1

    # ---- locals, constants, stack shuffling --------------------------
    if op == Op.LOAD:
        index = instr.args[0]

        def h(stack, locals_, _i=index, _n=next_pc):
            stack.append(locals_[_i])
            return _n

        return h
    if op == Op.CONST:
        value = instr.args[0]

        def h(stack, locals_, _v=value, _n=next_pc):
            stack.append(_v)
            return _n

        return h
    if op == Op.STORE:
        index = instr.args[0]

        def h(stack, locals_, _i=index, _n=next_pc):
            locals_[_i] = stack.pop()
            return _n

        return h
    if op == Op.NULL:

        def h(stack, locals_, _null=NULL, _n=next_pc):
            stack.append(_null)
            return _n

        return h
    if op == Op.POP:

        def h(stack, locals_, _n=next_pc):
            stack.pop()
            return _n

        return h
    if op == Op.DUP:

        def h(stack, locals_, _n=next_pc):
            stack.append(stack[-1])
            return _n

        return h

    # ---- integer arithmetic ------------------------------------------
    if op == Op.ADD:

        def h(stack, locals_, _w=wrap64, _n=next_pc):
            b = stack.pop()
            stack[-1] = _w(stack[-1] + b)
            return _n

        return h
    if op == Op.SUB:

        def h(stack, locals_, _w=wrap64, _n=next_pc):
            b = stack.pop()
            stack[-1] = _w(stack[-1] - b)
            return _n

        return h
    if op == Op.MUL:

        def h(stack, locals_, _w=wrap64, _n=next_pc):
            b = stack.pop()
            stack[-1] = _w(stack[-1] * b)
            return _n

        return h
    if op == Op.DIV:

        def h(stack, locals_, _div=div64, _n=next_pc):
            b = stack.pop()
            stack[-1] = _div(stack[-1], b)
            return _n

        return h
    if op == Op.REM:

        def h(stack, locals_, _rem=rem64, _n=next_pc):
            b = stack.pop()
            stack[-1] = _rem(stack[-1], b)
            return _n

        return h
    if op == Op.NEG:

        def h(stack, locals_, _w=wrap64, _n=next_pc):
            stack[-1] = _w(-stack[-1])
            return _n

        return h
    if op == Op.AND:

        def h(stack, locals_, _n=next_pc):
            b = stack.pop()
            stack[-1] = stack[-1] & b
            return _n

        return h
    if op == Op.OR:

        def h(stack, locals_, _n=next_pc):
            b = stack.pop()
            stack[-1] = stack[-1] | b
            return _n

        return h
    if op == Op.XOR:

        def h(stack, locals_, _n=next_pc):
            b = stack.pop()
            stack[-1] = stack[-1] ^ b
            return _n

        return h
    if op == Op.SHL:

        def h(stack, locals_, _w=wrap64, _n=next_pc):
            b = stack.pop() & 63
            stack[-1] = _w(stack[-1] << b)
            return _n

        return h
    if op == Op.SHR:

        def h(stack, locals_, _n=next_pc):
            b = stack.pop() & 63
            stack[-1] = stack[-1] >> b
            return _n

        return h

    # ---- comparisons --------------------------------------------------
    if op == Op.EQ:

        def h(stack, locals_, _n=next_pc):
            b = stack.pop()
            stack[-1] = 1 if stack[-1] == b else 0
            return _n

        return h
    if op == Op.NE:

        def h(stack, locals_, _n=next_pc):
            b = stack.pop()
            stack[-1] = 1 if stack[-1] != b else 0
            return _n

        return h
    if op == Op.LT:

        def h(stack, locals_, _n=next_pc):
            b = stack.pop()
            stack[-1] = 1 if stack[-1] < b else 0
            return _n

        return h
    if op == Op.LE:

        def h(stack, locals_, _n=next_pc):
            b = stack.pop()
            stack[-1] = 1 if stack[-1] <= b else 0
            return _n

        return h
    if op == Op.GT:

        def h(stack, locals_, _n=next_pc):
            b = stack.pop()
            stack[-1] = 1 if stack[-1] > b else 0
            return _n

        return h
    if op == Op.GE:

        def h(stack, locals_, _n=next_pc):
            b = stack.pop()
            stack[-1] = 1 if stack[-1] >= b else 0
            return _n

        return h
    if op == Op.REF_EQ:

        def h(stack, locals_, _n=next_pc):
            b = stack.pop()
            stack[-1] = 1 if stack[-1] is b else 0
            return _n

        return h
    if op == Op.REF_NE:

        def h(stack, locals_, _n=next_pc):
            b = stack.pop()
            stack[-1] = 1 if stack[-1] is not b else 0
            return _n

        return h

    # ---- control flow -------------------------------------------------
    if op == Op.IF:
        return _make_if(instr, pc, next_pc, profile, method, interp)
    if op == Op.GOTO:
        target = instr.target
        if target <= pc:
            record_backedge = profile.record_backedge

            def h(stack, locals_, _t=target, _pc=pc, _rb=record_backedge,
                  _bc=profile.backedge_count, _i=interp, _m=method,
                  _rv=method.returns_value(), _miss=OSR_MISS):
                _rb(_pc)
                # On-stack replacement: same trigger point as the
                # classic tier — right after the backedge is recorded.
                hook = _i.osr_hook
                if hook is not None and _bc(_pc) >= _i.osr_threshold:
                    result = hook(_m, _pc, _t, locals_, stack)
                    if result is not _miss:
                        if _rv:
                            stack.append(result)
                            return RET_VALUE
                        return RET_VOID
                return _t

            return h

        def h(stack, locals_, _t=target):
            return _t

        return h
    if op == Op.RET:

        def h(stack, locals_, _r=RET_VOID):
            return _r

        return h
    if op == Op.RETV:

        def h(stack, locals_, _r=RET_VALUE):
            return _r

        return h

    # ---- objects, arrays, fields --------------------------------------
    if op == Op.NEW:
        allocate = vm.allocate
        class_name = instr.args[0]

        def h(stack, locals_, _alloc=allocate, _c=class_name, _n=next_pc):
            stack.append(_alloc(_c))
            return _n

        return h
    if op == Op.NEWARRAY:
        allocate_array = vm.allocate_array
        elem_type = instr.args[0]

        def h(stack, locals_, _alloc=allocate_array, _e=elem_type, _n=next_pc):
            length = stack[-1]
            if length < 0:
                raise BoundsTrap("negative array length %d" % length)
            stack[-1] = _alloc(_e, length)
            return _n

        return h
    if op == Op.ALOAD:

        def h(stack, locals_, _null=NULL, _n=next_pc):
            index = stack.pop()
            array = stack[-1]
            if array is _null:
                raise NullPointerTrap("ALOAD")
            if not (0 <= index < len(array.data)):
                raise BoundsTrap("%d / %d" % (index, len(array.data)))
            stack[-1] = array.data[index]
            return _n

        return h
    if op == Op.ASTORE:

        def h(stack, locals_, _null=NULL, _n=next_pc):
            value = stack.pop()
            index = stack.pop()
            array = stack.pop()
            if array is _null:
                raise NullPointerTrap("ASTORE")
            if not (0 <= index < len(array.data)):
                raise BoundsTrap("%d / %d" % (index, len(array.data)))
            array.data[index] = value
            return _n

        return h
    if op == Op.ARRAYLEN:

        def h(stack, locals_, _null=NULL, _n=next_pc):
            array = stack[-1]
            if array is _null:
                raise NullPointerTrap("ARRAYLEN")
            stack[-1] = len(array.data)
            return _n

        return h
    if op == Op.GETFIELD:
        field_name = instr.args[1]
        trap_msg = "GETFIELD %s.%s" % (instr.args[0], instr.args[1])

        def h(stack, locals_, _f=field_name, _m=trap_msg, _null=NULL, _n=next_pc):
            obj = stack[-1]
            if obj is _null:
                raise NullPointerTrap(_m)
            stack[-1] = obj.fields[_f]
            return _n

        return h
    if op == Op.PUTFIELD:
        field_name = instr.args[1]
        trap_msg = "PUTFIELD %s.%s" % (instr.args[0], instr.args[1])

        def h(stack, locals_, _f=field_name, _m=trap_msg, _null=NULL, _n=next_pc):
            value = stack.pop()
            obj = stack.pop()
            if obj is _null:
                raise NullPointerTrap(_m)
            obj.fields[_f] = value
            return _n

        return h
    if op == Op.GETSTATIC:
        get_static = vm.get_static
        cname, fname = instr.args

        def h(stack, locals_, _g=get_static, _c=cname, _f=fname, _n=next_pc):
            stack.append(_g(_c, _f))
            return _n

        return h
    if op == Op.PUTSTATIC:
        put_static = vm.put_static
        cname, fname = instr.args

        def h(stack, locals_, _p=put_static, _c=cname, _f=fname, _n=next_pc):
            _p(_c, _f, stack.pop())
            return _n

        return h

    # ---- type tests ---------------------------------------------------
    # Like the receiver histograms below, the type-check histogram is
    # materialized on first execution — never-executed sites must not
    # grow (empty) profile cells that the classic tier would not have.
    if op == Op.INSTANCEOF:
        is_subtype = program.is_subtype
        type_name = instr.args[0]
        holder = []

        def h(stack, locals_, _sub=is_subtype, _t=type_name, _null=NULL,
              _obj=ObjRef, _cell=holder, _profile=profile, _pc=pc,
              _n=next_pc):
            value = stack[-1]
            if _cell:
                cell = _cell[0]
            else:
                cell = _profile.typecheck(_pc)
                _cell.append(cell)
            if value is _null:
                cell.record(None)
                stack[-1] = 0
            else:
                vt = (
                    value.class_name
                    if isinstance(value, _obj)
                    else value.type_name
                )
                cell.record(vt)
                stack[-1] = 1 if _sub(vt, _t) else 0
            return _n

        return h
    if op == Op.CHECKCAST:
        is_subtype = program.is_subtype
        type_name = instr.args[0]
        holder = []

        def h(stack, locals_, _sub=is_subtype, _t=type_name, _null=NULL,
              _obj=ObjRef, _cell=holder, _profile=profile, _pc=pc,
              _n=next_pc):
            value = stack[-1]
            if _cell:
                cell = _cell[0]
            else:
                cell = _profile.typecheck(_pc)
                _cell.append(cell)
            if value is _null:
                cell.record(None)
            else:
                vt = (
                    value.class_name
                    if isinstance(value, _obj)
                    else value.type_name
                )
                cell.record(vt)
                if not _sub(vt, _t):
                    raise CastTrap("%s -> %s" % (vt, _t))
            return _n

        return h

    # ---- calls --------------------------------------------------------
    # The classic tier resolves call targets when the instruction
    # *executes*: an unlinkable invoke in dead code never raises. A
    # decode-time LinkError is therefore deferred into a handler that
    # re-raises it only if the instruction is actually reached.
    if op == Op.INVOKESTATIC:
        cname, mname = instr.args
        try:
            callee = program.lookup_method(cname, mname)
        except LinkError as exc:
            return _deferred_link_error(str(exc))
        argc = len(callee.param_types)
        returns_value = callee.return_type != bt.VOID
        record_callsite = profile.record_callsite

        def h(stack, locals_, _rc=record_callsite, _pc=pc, _callee=callee,
              _argc=argc, _rv=returns_value, _i=interp, _n=next_pc):
            _rc(_pc)
            if _argc:
                split = len(stack) - _argc
                call_args = stack[split:]
                del stack[split:]
            else:
                call_args = []
            result = _i.dispatch(_callee, call_args)
            if _rv:
                stack.append(result)
            return _n

        return h
    if op in (Op.INVOKEVIRTUAL, Op.INVOKEINTERFACE):
        cname, mname = instr.args
        try:
            declared = program.lookup_method(cname, mname)
        except LinkError as exc:
            return _deferred_link_error(str(exc))
        argc = 1 + len(declared.param_types)
        returns_value = declared.return_type != bt.VOID
        trap_msg = "call %s.%s" % (cname, mname)
        record_callsite = profile.record_callsite
        resolve = program.resolve_method
        # The receiver histogram is materialized on first execution,
        # like the classic tier — never-executed callsites must not
        # grow (empty) profile cells.
        holder = []

        def h(stack, locals_, _rc=record_callsite, _pc=pc, _m=mname,
              _argc=argc, _rv=returns_value, _msg=trap_msg, _res=resolve,
              _i=interp, _null=NULL, _obj=ObjRef, _arr=ArrayRef,
              _cell=holder, _profile=profile, _n=next_pc):
            split = len(stack) - _argc
            call_args = stack[split:]
            del stack[split:]
            receiver = call_args[0]
            if receiver is _null:
                raise NullPointerTrap(_msg)
            receiver_type = (
                receiver.class_name
                if isinstance(receiver, _obj)
                else receiver.type_name
            )
            _rc(_pc)
            if _cell:
                _cell[0].record(receiver_type)
            else:
                cell = _profile.receiver(_pc)
                _cell.append(cell)
                cell.record(receiver_type)
            if isinstance(receiver, _arr):
                raise VMError("virtual call on array receiver")
            callee = _res(receiver_type, _m)
            result = _i.dispatch(callee, call_args)
            if _rv:
                stack.append(result)
            return _n

        return h
    if op == Op.INVOKESPECIAL:
        cname, mname = instr.args
        try:
            callee = program.resolve_method(cname, mname)
        except LinkError as exc:
            return _deferred_link_error(str(exc))
        argc = 1 + len(callee.param_types)
        returns_value = callee.return_type != bt.VOID
        trap_msg = "special call %s.%s" % (cname, mname)
        record_callsite = profile.record_callsite

        def h(stack, locals_, _rc=record_callsite, _pc=pc, _callee=callee,
              _argc=argc, _rv=returns_value, _msg=trap_msg, _i=interp,
              _null=NULL, _n=next_pc):
            split = len(stack) - _argc
            call_args = stack[split:]
            del stack[split:]
            if call_args[0] is _null:
                raise NullPointerTrap(_msg)
            _rc(_pc)
            result = _i.dispatch(_callee, call_args)
            if _rv:
                stack.append(result)
            return _n

        return h

    raise VMError("unhandled opcode %s" % op)


def _deferred_link_error(message):
    def h(stack, locals_, _m=message):
        raise LinkError(_m)

    return h


def _make_if(instr, pc, next_pc, profile, method, interp):
    """An IF handler with a lazily-materialized branch-profile cell."""
    target = instr.target
    is_backedge = target <= pc
    # The cell is created on first execution (not at decode time) so a
    # never-taken IF leaves the profile dict bit-identical to classic
    # interpretation; after that first execution it is a pre-bound
    # attribute access away.
    holder = []
    if is_backedge:
        record_backedge = profile.record_backedge

        def h(stack, locals_, _cell=holder, _profile=profile, _pc=pc,
              _rb=record_backedge, _t=target, _n=next_pc,
              _bc=profile.backedge_count, _i=interp, _m=method,
              _rv=method.returns_value(), _miss=OSR_MISS):
            condition = stack.pop() != 0
            if _cell:
                _cell[0].record(condition)
            else:
                cell = _profile.branch(_pc)
                _cell.append(cell)
                cell.record(condition)
            if condition:
                _rb(_pc)
                # On-stack replacement check, after the condition pop:
                # the operand stack is exactly the loop-header entry
                # stack, matching the classic tier's trigger point.
                hook = _i.osr_hook
                if hook is not None and _bc(_pc) >= _i.osr_threshold:
                    result = hook(_m, _pc, _t, locals_, stack)
                    if result is not _miss:
                        if _rv:
                            stack.append(result)
                            return RET_VALUE
                        return RET_VOID
                return _t
            return _n

        return h

    def h(stack, locals_, _cell=holder, _profile=profile, _pc=pc,
          _t=target, _n=next_pc):
        condition = stack.pop() != 0
        if _cell:
            _cell[0].record(condition)
        else:
            cell = _profile.branch(_pc)
            _cell.append(cell)
            cell.record(condition)
        if condition:
            return _t
        return _n

    return h
