"""The profiling bytecode interpreter.

One :class:`Interpreter` executes guest methods against a
:class:`~repro.runtime.vmstate.VMState`, recording profiles into a
:class:`~repro.interp.profiles.ProfileStore` as it goes and counting
executed bytecodes (the JIT engine converts that count into interpreted
cycles).

Dispatch is pluggable: every guest call goes through ``self.dispatch``,
which the tiered engine overrides to route hot methods to compiled
code. By default calls recurse into the interpreter itself.

Two executors are available, selected per interpreter:

- the **classic** tier: the ``if/elif`` chain in :meth:`Interpreter._run`,
  kept as the reference semantics;
- the **pre-decoded** tier (``predecode=True``): methods are compiled
  once into a dense table of pre-bound handler closures
  (:mod:`repro.interp.predecode`) and driven by a three-line dispatch
  loop. Bit-identical to classic by contract.
"""

from repro.bytecode.opcodes import Op
from repro.bytecode import types as bt
from repro.interp.predecode import (
    OSR_MISS,
    RET_VALUE,
    predecode as predecode_method,
)
from repro.runtime.values import ArrayRef, ObjRef, NULL
from repro.runtime.intrinsics import intrinsic_function

# Guest integer semantics live in repro.runtime.int64 so that the
# interpreter, the register machine and the canonicalizer share one
# implementation; the re-export keeps the historical import path alive.
from repro.runtime.int64 import div64, rem64, wrap64
from repro.errors import (
    BoundsTrap,
    CastTrap,
    NullPointerTrap,
    VMError,
)


class Interpreter:
    """Executes bytecode with profiling.

    Args:
        vm: the :class:`~repro.runtime.vmstate.VMState` to run against.
        profiles: a :class:`~repro.interp.profiles.ProfileStore`;
            created on the fly when omitted.
        dispatch: optional callable ``(method, args) -> result`` used for
            every guest call; defaults to :meth:`execute` (pure
            interpretation all the way down).
        obs: optional :class:`~repro.obs.Observability`; when enabled,
            interpreted calls are counted (``interp.calls``).
        predecode: selects the executor. ``True`` uses the pre-decoded
            handler-table tier, ``False`` (default) the classic loop.
            The engine passes its resolved ``interp_predecode`` pin.
    """

    def __init__(self, vm, profiles=None, dispatch=None, obs=None,
                 predecode=False):
        from repro.interp.profiles import ProfileStore

        self.vm = vm
        self.program = vm.program
        self.profiles = profiles if profiles is not None else ProfileStore()
        self.dispatch = dispatch if dispatch is not None else self.execute
        self.predecode = bool(predecode)
        self.ops_executed = 0
        self.max_depth = 0
        self._depth = 0
        self._current_method = None  # caller context for profiling
        # Per-(method[, caller]) memo for profiles.of() plus, in the
        # fast tier, the pre-decoded handler tables bound to those
        # profile objects. Both are invalidated by generation bumps
        # (ProfileStore.clear / Program.add_class).
        self._context_sensitive = self.profiles.context_sensitive
        self._profile_memo = {}
        self._predecode_tables = {}
        # The store itself is part of the key: *replacing* the
        # ProfileStore on a live interpreter (not just mutating it) must
        # also invalidate, even when the new store's generation counter
        # happens to match the old one.
        self._cache_generation = (
            self.profiles,
            self.profiles.generation,
            self.program.generation,
        )
        # Pre-bound counter: one None check per interpreted call when
        # observability is off, no registry lookups when it is on.
        self._calls_counter = None
        if obs is not None and obs.enabled:
            self._calls_counter = obs.metrics.counter("interp.calls")
        # On-stack replacement: the engine installs ``osr_hook`` (called
        # as ``osr_hook(method, bci, target, locals_, stack)`` right
        # after a backedge whose counter reached ``osr_threshold`` is
        # recorded). The hook either finishes the frame in compiled
        # code — its return value becomes the method's result — or
        # returns :data:`OSR_MISS` to keep interpreting. Both executor
        # tiers consult the same two attributes.
        self.osr_hook = None
        self.osr_threshold = 0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def call_static(self, class_name, method_name, args=()):
        """Resolve and run a static method through the dispatcher."""
        method = self.program.lookup_method(class_name, method_name)
        return self.dispatch(method, list(args))

    def run_main(self, class_name, args=()):
        return self.call_static(class_name, "main", args)

    # ------------------------------------------------------------------
    # Core execution
    # ------------------------------------------------------------------

    def execute(self, method, args):
        """Interpret *method* with *args* (receiver first if instance)."""
        if method.is_native:
            return intrinsic_function(method.name)(self.vm, *args)
        if method.is_abstract:
            raise VMError("abstract method called: %s" % method.qualified_name)
        if self._calls_counter is not None:
            self._calls_counter.inc()
        caller = self._current_method
        generation = (
            self.profiles,
            self.profiles.generation,
            self.program.generation,
        )
        if generation != self._cache_generation:
            self._profile_memo.clear()
            self._predecode_tables.clear()
            self._context_sensitive = self.profiles.context_sensitive
            self._cache_generation = generation
        key = (method, caller) if self._context_sensitive else method
        profile = self._profile_memo.get(key)
        if profile is None:
            profile = self.profiles.of(method, caller=caller)
            self._profile_memo[key] = profile
        profile.invocations += 1
        self._depth += 1
        if self._depth > self.max_depth:
            self.max_depth = self._depth
        self._current_method = method
        try:
            if self.predecode:
                return self._run_predecoded(method, args, profile, key)
            return self._run(method, args, profile)
        finally:
            self._depth -= 1
            self._current_method = caller

    def resume(self, method, locals_, stack, pc):
        """Resume a deoptimized frame of *method* at *pc*.

        Called by :func:`repro.deopt.resume_frames` with locals and an
        operand stack materialized from compiled registers. The frame
        runs under full profiling — it counts as an invocation and
        records branches/receivers, which is exactly the re-profiling
        that lets the engine recompile without the refuted speculation.
        """
        if method.is_native or method.is_abstract:
            raise VMError("cannot resume %s" % method.qualified_name)
        if self._calls_counter is not None:
            self._calls_counter.inc()
        caller = self._current_method
        generation = (
            self.profiles,
            self.profiles.generation,
            self.program.generation,
        )
        if generation != self._cache_generation:
            self._profile_memo.clear()
            self._predecode_tables.clear()
            self._context_sensitive = self.profiles.context_sensitive
            self._cache_generation = generation
        key = (method, caller) if self._context_sensitive else method
        profile = self._profile_memo.get(key)
        if profile is None:
            profile = self.profiles.of(method, caller=caller)
            self._profile_memo[key] = profile
        profile.invocations += 1
        self._depth += 1
        if self._depth > self.max_depth:
            self.max_depth = self._depth
        self._current_method = method
        try:
            if self.predecode:
                return self._run_predecoded(
                    method, None, profile, key,
                    locals_=locals_, stack=stack, pc=pc,
                )
            return self._run(
                method, None, profile, locals_=locals_, stack=stack, pc=pc
            )
        finally:
            self._depth -= 1
            self._current_method = caller

    def _run_predecoded(self, method, args, profile, key,
                        locals_=None, stack=None, pc=0):
        """Drive one frame through the pre-decoded handler table."""
        table = self._predecode_tables.get(key)
        if table is None:
            table = predecode_method(method, profile, self)
            self._predecode_tables[key] = table
        if locals_ is None:
            locals_ = args + [NULL] * (method.max_locals - len(args))
            stack = []
        ops = 0
        # Like the classic loop, the frame's op count reaches
        # ``ops_executed`` only on a normal return — a propagating trap
        # abandons it.
        while pc >= 0:
            pc = table[pc](stack, locals_)
            ops += 1
        self.ops_executed += ops
        if pc == RET_VALUE:
            return stack.pop()
        return None

    def _run(self, method, args, profile, locals_=None, stack=None, pc=0):
        code = method.code
        if locals_ is None:
            locals_ = args + [NULL] * (method.max_locals - len(args))
            stack = []
        program = self.program
        vm = self.vm
        ops = 0
        while True:
            instr = code[pc]
            op = instr.op
            ops += 1
            if op == Op.LOAD:
                stack.append(locals_[instr.args[0]])
            elif op == Op.CONST:
                stack.append(instr.args[0])
            elif op == Op.STORE:
                locals_[instr.args[0]] = stack.pop()
            elif op == Op.ADD:
                b = stack.pop()
                stack.append(wrap64(stack.pop() + b))
            elif op == Op.SUB:
                b = stack.pop()
                stack.append(wrap64(stack.pop() - b))
            elif op == Op.MUL:
                b = stack.pop()
                stack.append(wrap64(stack.pop() * b))
            elif op == Op.DIV:
                b = stack.pop()
                stack.append(div64(stack.pop(), b))
            elif op == Op.REM:
                b = stack.pop()
                stack.append(rem64(stack.pop(), b))
            elif op == Op.NEG:
                stack.append(wrap64(-stack.pop()))
            elif op == Op.AND:
                b = stack.pop()
                stack.append(stack.pop() & b)
            elif op == Op.OR:
                b = stack.pop()
                stack.append(stack.pop() | b)
            elif op == Op.XOR:
                b = stack.pop()
                stack.append(stack.pop() ^ b)
            elif op == Op.SHL:
                b = stack.pop() & 63
                stack.append(wrap64(stack.pop() << b))
            elif op == Op.SHR:
                b = stack.pop() & 63
                stack.append(stack.pop() >> b)
            elif op == Op.EQ:
                b = stack.pop()
                stack.append(1 if stack.pop() == b else 0)
            elif op == Op.NE:
                b = stack.pop()
                stack.append(1 if stack.pop() != b else 0)
            elif op == Op.LT:
                b = stack.pop()
                stack.append(1 if stack.pop() < b else 0)
            elif op == Op.LE:
                b = stack.pop()
                stack.append(1 if stack.pop() <= b else 0)
            elif op == Op.GT:
                b = stack.pop()
                stack.append(1 if stack.pop() > b else 0)
            elif op == Op.GE:
                b = stack.pop()
                stack.append(1 if stack.pop() >= b else 0)
            elif op == Op.REF_EQ:
                b = stack.pop()
                stack.append(1 if stack.pop() is b else 0)
            elif op == Op.REF_NE:
                b = stack.pop()
                stack.append(1 if stack.pop() is not b else 0)
            elif op == Op.IF:
                condition = stack.pop() != 0
                profile.branch(pc).record(condition)
                target = instr.target
                if condition:
                    if target <= pc:
                        profile.record_backedge(pc)
                        if (
                            self.osr_hook is not None
                            and profile.backedge_count(pc)
                            >= self.osr_threshold
                        ):
                            # The condition is already popped, so the
                            # operand stack is exactly the loop-header
                            # entry stack.
                            result = self.osr_hook(
                                method, pc, target, locals_, stack
                            )
                            if result is not OSR_MISS:
                                self.ops_executed += ops
                                return (
                                    result
                                    if method.returns_value()
                                    else None
                                )
                    pc = target
                    continue
            elif op == Op.GOTO:
                target = instr.target
                if target <= pc:
                    profile.record_backedge(pc)
                    if (
                        self.osr_hook is not None
                        and profile.backedge_count(pc) >= self.osr_threshold
                    ):
                        result = self.osr_hook(
                            method, pc, target, locals_, stack
                        )
                        if result is not OSR_MISS:
                            self.ops_executed += ops
                            return (
                                result if method.returns_value() else None
                            )
                pc = target
                continue
            elif op == Op.RET:
                self.ops_executed += ops
                return None
            elif op == Op.RETV:
                self.ops_executed += ops
                return stack.pop()
            elif op == Op.NULL:
                stack.append(NULL)
            elif op == Op.POP:
                stack.pop()
            elif op == Op.DUP:
                stack.append(stack[-1])
            elif op == Op.NEW:
                stack.append(vm.allocate(instr.args[0]))
            elif op == Op.NEWARRAY:
                length = stack.pop()
                if length < 0:
                    raise BoundsTrap("negative array length %d" % length)
                stack.append(vm.allocate_array(instr.args[0], length))
            elif op == Op.ALOAD:
                index = stack.pop()
                array = stack.pop()
                if array is NULL:
                    raise NullPointerTrap("ALOAD")
                if not (0 <= index < len(array.data)):
                    raise BoundsTrap("%d / %d" % (index, len(array.data)))
                stack.append(array.data[index])
            elif op == Op.ASTORE:
                value = stack.pop()
                index = stack.pop()
                array = stack.pop()
                if array is NULL:
                    raise NullPointerTrap("ASTORE")
                if not (0 <= index < len(array.data)):
                    raise BoundsTrap("%d / %d" % (index, len(array.data)))
                array.data[index] = value
            elif op == Op.ARRAYLEN:
                array = stack.pop()
                if array is NULL:
                    raise NullPointerTrap("ARRAYLEN")
                stack.append(len(array.data))
            elif op == Op.GETFIELD:
                obj = stack.pop()
                if obj is NULL:
                    raise NullPointerTrap(
                        "GETFIELD %s.%s" % (instr.args[0], instr.args[1])
                    )
                stack.append(obj.fields[instr.args[1]])
            elif op == Op.PUTFIELD:
                value = stack.pop()
                obj = stack.pop()
                if obj is NULL:
                    raise NullPointerTrap(
                        "PUTFIELD %s.%s" % (instr.args[0], instr.args[1])
                    )
                obj.fields[instr.args[1]] = value
            elif op == Op.GETSTATIC:
                stack.append(vm.get_static(instr.args[0], instr.args[1]))
            elif op == Op.PUTSTATIC:
                vm.put_static(instr.args[0], instr.args[1], stack.pop())
            elif op == Op.INSTANCEOF:
                value = stack.pop()
                if value is NULL:
                    profile.typecheck(pc).record(None)
                    stack.append(0)
                else:
                    type_name = (
                        value.class_name
                        if isinstance(value, ObjRef)
                        else value.type_name
                    )
                    profile.typecheck(pc).record(type_name)
                    stack.append(
                        1 if program.is_subtype(type_name, instr.args[0]) else 0
                    )
            elif op == Op.CHECKCAST:
                value = stack[-1]
                if value is NULL:
                    profile.typecheck(pc).record(None)
                else:
                    type_name = (
                        value.class_name
                        if isinstance(value, ObjRef)
                        else value.type_name
                    )
                    # Recorded before the trap: a site that only ever
                    # fails its cast still reads as polymorphic/typed
                    # rather than unexecuted.
                    profile.typecheck(pc).record(type_name)
                    if not program.is_subtype(type_name, instr.args[0]):
                        raise CastTrap(
                            "%s -> %s" % (type_name, instr.args[0])
                        )
            elif op == Op.INVOKESTATIC:
                cname, mname = instr.args
                callee = program.lookup_method(cname, mname)
                profile.record_callsite(pc)
                argc = len(callee.param_types)
                call_args = stack[len(stack) - argc :] if argc else []
                del stack[len(stack) - argc :]
                result = self.dispatch(callee, call_args)
                if callee.return_type != bt.VOID:
                    stack.append(result)
            elif op in (Op.INVOKEVIRTUAL, Op.INVOKEINTERFACE):
                cname, mname = instr.args
                declared = program.lookup_method(cname, mname)
                argc = 1 + len(declared.param_types)
                call_args = stack[len(stack) - argc :]
                del stack[len(stack) - argc :]
                receiver = call_args[0]
                if receiver is NULL:
                    raise NullPointerTrap("call %s.%s" % (cname, mname))
                receiver_type = (
                    receiver.class_name
                    if isinstance(receiver, ObjRef)
                    else receiver.type_name
                )
                profile.record_callsite(pc)
                profile.receiver(pc).record(receiver_type)
                if isinstance(receiver, ArrayRef):
                    raise VMError("virtual call on array receiver")
                callee = program.resolve_method(receiver_type, mname)
                result = self.dispatch(callee, call_args)
                if declared.return_type != bt.VOID:
                    stack.append(result)
            elif op == Op.INVOKESPECIAL:
                cname, mname = instr.args
                callee = program.resolve_method(cname, mname)
                argc = 1 + len(callee.param_types)
                call_args = stack[len(stack) - argc :]
                del stack[len(stack) - argc :]
                if call_args[0] is NULL:
                    raise NullPointerTrap("special call %s.%s" % (cname, mname))
                profile.record_callsite(pc)
                result = self.dispatch(callee, call_args)
                if callee.return_type != bt.VOID:
                    stack.append(result)
            else:
                raise VMError("unhandled opcode %s" % op)
            pc += 1
