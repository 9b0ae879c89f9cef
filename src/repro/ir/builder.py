"""Bytecode → SSA graph construction.

The builder abstractly interprets the operand stack and local slots of a
method, block by block in reverse postorder, turning stack positions
into SSA node references. Join points get phis for every live slot;
trivial phis are cleaned up at the end (Cytron-free construction in the
style of Graal's bytecode parser / Braun et al.).

Profile data (branch probabilities, receiver histograms) is baked into
the graph at build time: ``If`` nodes carry their taken-probability and
``Invoke`` nodes carry their receiver-type snapshot, so everything
downstream — frequency annotation, the inliner's f(n), polymorphic
inlining — reads profiles from the IR rather than from the VM.
"""

from repro.bytecode import types as bt
from repro.bytecode.opcodes import (
    BINARY_INT_OPS,
    COMPARE_INT_OPS,
    COMPARE_REF_OPS,
    Op,
)
from repro.deopt import FrameDescriptor
from repro.errors import CompileError, IRError
from repro.ir import nodes as n
from repro.ir import stamps as st
from repro.ir.graph import Graph


#: Guard reason for speculated type checks — surfaces in deopt records
#: and the ``deopt.reasons.typecheck`` metric.
REASON_TYPECHECK = "typecheck"


def build_graph(method, program, profiles=None, speculate=False,
                speculation=None, osr_bci=None, osr_stack_depth=0):
    """Build the SSA graph of *method*.

    Args:
        method: a concrete :class:`~repro.bytecode.method.Method`.
        program: the enclosing program (for signatures and field types).
        profiles: optional :class:`~repro.interp.profiles.ProfileStore`;
            when given, branch probabilities and receiver profiles are
            attached to the graph.
        speculate: capture interpreter frame state (locals, operand
            stack, bci) on every invoke so a later speculative
            typeswitch can deoptimize. Off by default — frame state
            pins values live, so non-speculative compiles skip it.
        speculation: optional :class:`~repro.deopt.SpeculationPolicy`.
            With ``speculation.typecheck`` set (and *speculate* on), a
            profile-monomorphic ``INSTANCEOF``/``CHECKCAST`` operand is
            pinned to its observed exact type with a guard + Pi, so the
            canonicalizer folds the check — and every dominated check —
            instead of keeping a runtime subtype test. Each considered
            site records a decision on ``graph.typecheck_decisions``.
        osr_bci: build an *OSR continuation* graph instead of a whole
            method: the graph's parameters become one slot per
            interpreter local (``method.max_locals``) followed by
            ``osr_stack_depth`` operand-stack slots, and the entry
            block jumps straight to the loop header at this bytecode
            index. Reachability is computed from the header, so code
            only reachable from the method prologue is never built.
        osr_stack_depth: operand-stack depth at the OSR entry (the
            interpreter passes the live frame's depth at transfer).
    """
    if method.is_abstract or method.is_native:
        raise IRError("cannot build IR for %s" % method.qualified_name)
    return _Builder(
        method, program, profiles, speculate, speculation,
        osr_bci, osr_stack_depth
    ).build()


class _BlockInfo:
    """Build-time bookkeeping for one bytecode-level basic block."""

    __slots__ = ("start", "end", "block", "entry_depth", "succ_pcs", "preds")

    def __init__(self, start):
        self.start = start
        self.end = None
        self.block = None
        self.entry_depth = None
        self.succ_pcs = []
        self.preds = []


class _Builder:
    def __init__(self, method, program, profiles, speculate=False,
                 speculation=None, osr_bci=None, osr_stack_depth=0):
        self.method = method
        self.program = program
        self.profile = profiles.maybe_of(method) if profiles else None
        self.speculate = speculate
        self.speculation = speculation
        # Type-check speculation needs frame capture (speculate), a
        # policy that asks for it, and a profile to consult.
        self.typespec = bool(
            speculate
            and speculation is not None
            and speculation.enabled
            and speculation.typecheck
            and self.profile is not None
        )
        self.osr_bci = osr_bci
        self.osr_stack_depth = osr_stack_depth
        #: The synthetic entry block, when the first bytecode block
        #: cannot be the graph's entry: an OSR header, or a method whose
        #: first instruction is a branch target. It jumps to that block,
        #: carrying the parameters in at pred index 0.
        self.synthetic_entry = None
        self.graph = Graph(method)
        #: Per-site type-check speculation decisions, for provenance
        #: (read by the compiler via getattr — graph copies drop it).
        self.graph.typecheck_decisions = []
        self.infos = {}
        self.order = []

    # ------------------------------------------------------------------

    def build(self):
        self._find_blocks()
        self._compute_entry_depths()
        self._create_ir_blocks()
        self._create_params()
        edge_states = {}
        for info in self.order:
            self._translate_block(info, edge_states)
        self._wire_phis(edge_states)
        self._fix_phi_stamps()
        self._remove_trivial_phis()
        self._check_special_receivers()
        return self.graph

    def _check_special_receivers(self):
        """Refuse a special call whose receiver may be null.

        The interpreters trap on a null receiver before the call
        (``special call C.m``). Compiled code has no such check, and an
        inlined callee that never reads ``this`` would not trap at all,
        so the method stays interpreted.
        """
        for invoke in self.graph.invokes():
            if invoke.kind != "special":
                continue
            if not invoke.inputs[0].stamp.non_null:
                raise CompileError(
                    "special call %s.%s on a receiver that may be null"
                    % (invoke.declared_class, invoke.method_name)
                )

    # ------------------------------------------------------------------
    # Block discovery
    # ------------------------------------------------------------------

    def _find_blocks(self):
        code = self.method.code
        leaders = {0}
        for pc, instr in enumerate(code):
            op = instr.op
            if op == Op.IF:
                leaders.add(instr.target)
                if pc + 1 < len(code):
                    leaders.add(pc + 1)
            elif op == Op.GOTO:
                leaders.add(instr.target)
                if pc + 1 < len(code):
                    leaders.add(pc + 1)
            elif op in (Op.RET, Op.RETV):
                if pc + 1 < len(code):
                    leaders.add(pc + 1)
        sorted_leaders = sorted(leaders)
        for index, start in enumerate(sorted_leaders):
            info = _BlockInfo(start)
            info.end = (
                sorted_leaders[index + 1]
                if index + 1 < len(sorted_leaders)
                else len(code)
            )
            self.infos[start] = info
        # Successor edges.
        for info in self.infos.values():
            last = code[info.end - 1]
            if last.op == Op.IF:
                info.succ_pcs = [last.target, info.end]
            elif last.op == Op.GOTO:
                info.succ_pcs = [last.target]
            elif last.op in (Op.RET, Op.RETV):
                info.succ_pcs = []
            else:
                info.succ_pcs = [info.end]
        # Reachability + RPO from the entry block.
        seen = set()
        postorder = []

        def visit(start):
            stack = [(start, iter(self.infos[start].succ_pcs))]
            seen.add(start)
            while stack:
                current, successors = stack[-1]
                advanced = False
                for succ in successors:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.infos[succ].succ_pcs)))
                        advanced = True
                        break
                if not advanced:
                    postorder.append(current)
                    stack.pop()

        entry_pc = 0 if self.osr_bci is None else self.osr_bci
        if entry_pc not in self.infos:
            raise IRError(
                "%s: OSR entry %d is not a block leader"
                % (self.method.qualified_name, entry_pc)
            )
        visit(entry_pc)
        self.order = [self.infos[pc] for pc in reversed(postorder)]
        # Predecessor lists restricted to reachable blocks.
        reachable = {info.start for info in self.order}
        for info in self.order:
            for succ_pc in info.succ_pcs:
                if succ_pc in reachable:
                    self.infos[succ_pc].preds.append(info)

    def _compute_entry_depths(self):
        """Depth of the operand stack at each reachable block entry."""
        from repro.bytecode.opcodes import stack_effect

        code = self.method.code
        if self.osr_bci is None:
            self.infos[0].entry_depth = 0
        else:
            # The interpreter hands over its live operand stack; the
            # loop header is entered with exactly that depth.
            self.infos[self.osr_bci].entry_depth = self.osr_stack_depth
        for info in self.order:
            depth = info.entry_depth
            if depth is None:
                raise IRError(
                    "%s: block at %d entered without a known stack depth"
                    % (self.method.qualified_name, info.start)
                )
            for pc in range(info.start, info.end):
                instr = code[pc]
                pops, pushes = stack_effect(instr.op, instr, self.program)
                depth = depth - pops + pushes
            for succ_pc in info.succ_pcs:
                succ = self.infos.get(succ_pc)
                if succ is None or succ.start not in {
                    i.start for i in self.order
                }:
                    continue
                if succ.entry_depth is None:
                    succ.entry_depth = depth
                elif succ.entry_depth != depth:
                    raise IRError(
                        "%s: inconsistent stack depth at %d"
                        % (self.method.qualified_name, succ_pc)
                    )

    def _create_ir_blocks(self):
        first = self.infos[self._entry_pc()]
        if self.osr_bci is not None or first.preds:
            # The synthetic entry block is created first so it is
            # ``graph.entry``: compiled OSR code starts by jumping to
            # the loop header with the transferred frame as parameters,
            # and a method that starts with a loop header enters it
            # the same way, with its own parameters.
            self.synthetic_entry = self.graph.new_block()
        for info in self.order:
            info.block = self.graph.new_block()
        for info in self.order:
            info.block.preds = [p.block for p in info.preds]
        if self.synthetic_entry is not None:
            first.block.preds = [self.synthetic_entry] + first.block.preds
            self.synthetic_entry.set_terminator(
                self.graph.register(n.GotoNode(first.block))
            )

    def _entry_pc(self):
        return 0 if self.osr_bci is None else self.osr_bci

    def _create_params(self):
        method = self.method
        if self.osr_bci is not None:
            # OSR state-mapping prologue: one parameter per interpreter
            # local slot, then one per live operand-stack slot. Slots
            # carry no declared types at a backedge, so every parameter
            # gets the ANY stamp — the loop-header phis (and trivial-phi
            # removal for untouched slots) recover precision where the
            # loop itself pins a value.
            for _ in range(method.max_locals + self.osr_stack_depth):
                self.graph.add_param(st.ANY_STAMP)
            return
        if not method.is_static:
            owner = method.klass.name if method.klass else bt.OBJECT
            self.graph.add_param(st.ref_stamp(owner, non_null=True))
        for ptype in method.param_types:
            self.graph.add_param(st.stamp_for_declared_type(ptype))

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------

    def _entry_state(self, info, edge_states):
        """Entry (locals, stack) for a block; phis at joins."""
        num_locals = self.method.max_locals
        if self.synthetic_entry is not None and info.start == self._entry_pc():
            # Loop header at the entry: merge the incoming frame (the
            # graph parameters — for OSR one per local and stack slot —
            # arriving over the synthetic entry edge at pred index 0)
            # with the in-loop predecessors.
            block = info.block
            params = self.graph.params
            locals_ = []
            for slot in range(num_locals):
                incoming = params[slot] if slot < len(params) else None
                phi = self.graph.register(
                    n.PhiNode(
                        [incoming] + [None] * len(info.preds),
                        st.BOTTOM_STAMP,
                    )
                )
                block.add_phi(phi)
                locals_.append(phi)
            stack = []
            for slot in range(info.entry_depth):
                phi = self.graph.register(
                    n.PhiNode(
                        [params[num_locals + slot]] + [None] * len(info.preds),
                        st.BOTTOM_STAMP,
                    )
                )
                block.add_phi(phi)
                stack.append(phi)
            return locals_, stack
        if info.start == 0 and not info.preds:
            locals_ = list(self.graph.params)
            locals_ += [None] * (num_locals - len(locals_))
            return locals_, []
        if len(info.preds) == 1 and not _is_backedge(info.preds[0], info):
            state = edge_states.get((info.preds[0].start, info.start))
            if state is None:
                raise IRError("predecessor state missing (irreducible CFG?)")
            locals_, stack = state
            return list(locals_), list(stack)
        # Join or loop header: a phi per local slot and stack slot.
        block = info.block
        locals_ = []
        for _ in range(num_locals):
            phi = self.graph.register(
                n.PhiNode([None] * len(info.preds), st.BOTTOM_STAMP)
            )
            block.add_phi(phi)
            locals_.append(phi)
        stack = []
        for _ in range(info.entry_depth):
            phi = self.graph.register(
                n.PhiNode([None] * len(info.preds), st.BOTTOM_STAMP)
            )
            block.add_phi(phi)
            stack.append(phi)
        return locals_, stack

    def _translate_block(self, info, edge_states):
        code = self.method.code
        graph = self.graph
        program = self.program
        block = info.block
        locals_, stack = self._entry_state(info, edge_states)

        def emit(node):
            graph.register(node)
            block.append(node)
            return node

        pc = info.start
        terminated = False
        while pc < info.end:
            instr = code[pc]
            op = instr.op
            if op == Op.CONST:
                stack.append(emit(n.ConstIntNode(instr.args[0])))
            elif op == Op.NULL:
                stack.append(emit(n.ConstNullNode()))
            elif op == Op.POP:
                stack.pop()
            elif op == Op.DUP:
                stack.append(stack[-1])
            elif op == Op.LOAD:
                value = locals_[instr.args[0]]
                if value is None:
                    raise IRError(
                        "%s@%d: load of undefined local"
                        % (self.method.qualified_name, pc)
                    )
                stack.append(value)
            elif op == Op.STORE:
                locals_[instr.args[0]] = stack.pop()
            elif op in BINARY_INT_OPS:
                b = stack.pop()
                a = stack.pop()
                stack.append(emit(n.BinOpNode(op, a, b)))
            elif op == Op.NEG:
                stack.append(emit(n.NegNode(stack.pop())))
            elif op in COMPARE_INT_OPS or op in COMPARE_REF_OPS:
                b = stack.pop()
                a = stack.pop()
                stack.append(emit(n.CompareNode(op, a, b)))
            elif op == Op.NEW:
                stack.append(emit(n.NewNode(instr.args[0])))
            elif op == Op.NEWARRAY:
                length = stack.pop()
                stack.append(emit(n.NewArrayNode(instr.args[0], length)))
            elif op == Op.ALOAD:
                index = stack.pop()
                array = stack.pop()
                stack.append(
                    emit(n.ArrayLoadNode(array, index, self._elem_stamp(array, instr)))
                )
            elif op == Op.ASTORE:
                value = stack.pop()
                index = stack.pop()
                array = stack.pop()
                emit(n.ArrayStoreNode(array, index, value))
            elif op == Op.ARRAYLEN:
                stack.append(emit(n.ArrayLengthNode(stack.pop())))
            elif op == Op.GETFIELD:
                cname, fname = instr.args
                _, field = program.lookup_field(cname, fname)
                obj = stack.pop()
                stack.append(
                    emit(
                        n.LoadFieldNode(
                            obj, cname, fname, st.stamp_for_declared_type(field.type)
                        )
                    )
                )
            elif op == Op.PUTFIELD:
                cname, fname = instr.args
                value = stack.pop()
                obj = stack.pop()
                emit(n.StoreFieldNode(obj, cname, fname, value))
            elif op == Op.GETSTATIC:
                cname, fname = instr.args
                _, field = program.lookup_field(cname, fname)
                stack.append(
                    emit(
                        n.LoadStaticNode(
                            cname, fname, st.stamp_for_declared_type(field.type)
                        )
                    )
                )
            elif op == Op.PUTSTATIC:
                cname, fname = instr.args
                emit(n.StoreStaticNode(cname, fname, stack.pop()))
            elif op == Op.INSTANCEOF:
                if self.typespec:
                    self._speculate_typecheck(
                        "instanceof", instr.args[0], pc, stack, locals_, emit
                    )
                stack.append(emit(n.InstanceOfNode(stack.pop(), instr.args[0])))
            elif op == Op.CHECKCAST:
                if self.typespec:
                    self._speculate_typecheck(
                        "checkcast", instr.args[0], pc, stack, locals_, emit
                    )
                value = stack.pop()
                stack.append(emit(n.CheckCastNode(value, instr.args[0], program)))
            elif op in (
                Op.INVOKESTATIC,
                Op.INVOKEVIRTUAL,
                Op.INVOKEINTERFACE,
                Op.INVOKESPECIAL,
            ):
                stack_result = self._translate_invoke(
                    instr, pc, stack, locals_, emit
                )
                if stack_result is not None:
                    stack.append(stack_result)
            elif op == Op.IF:
                condition = stack.pop()
                probability = 0.5
                if self.profile is not None:
                    branch = self.profile.branches.get(pc)
                    if branch is not None:
                        probability = branch.probability()
                true_block = self.infos[instr.target].block
                false_block = self.infos[info.end].block
                terminator = n.IfNode(condition, true_block, false_block, probability)
                graph.register(terminator)
                block.set_terminator(terminator)
                terminated = True
            elif op == Op.GOTO:
                target = self.infos[instr.target].block
                terminator = graph.register(n.GotoNode(target))
                block.set_terminator(terminator)
                terminated = True
            elif op == Op.RET:
                block.set_terminator(graph.register(n.ReturnNode()))
                terminated = True
            elif op == Op.RETV:
                block.set_terminator(graph.register(n.ReturnNode(stack.pop())))
                terminated = True
            else:
                raise IRError("unhandled opcode %s" % op)
            pc += 1

        if not terminated:
            # Fall-through into the next block.
            target = self.infos[info.end].block
            block.set_terminator(graph.register(n.GotoNode(target)))

        for succ_pc in info.succ_pcs:
            edge_states[(info.start, succ_pc)] = (list(locals_), list(stack))

    def _speculate_typecheck(self, kind, check_type, pc, stack, locals_, emit):
        """Pin the type-check operand (``stack[-1]``) to its profiled type.

        When the profile is monomorphic (single non-null, non-array
        operand type) and the site is not refuted, emits an exact-type
        check + guard + Pi before the type-check node, and substitutes
        the Pi for the operand everywhere in the abstract state — that
        substitution is what lets the canonicalizer fold this check and
        every dominated check on the same value. Sites the profile
        disqualifies record a negative decision instead; sites that
        never executed record nothing.
        """
        cell = self.profile.typechecks.get(pc)
        if cell is None or cell.total == 0:
            return
        value = stack[-1]
        stamp = value.stamp

        def decide(observed, speculate, reason):
            self.graph.typecheck_decisions.append({
                "check": kind,
                "method": self.method.qualified_name,
                "bci": pc,
                "type": check_type,
                "observed": observed,
                "speculate": speculate,
                "reason": reason,
                "site": "%s@%d" % (self.method.qualified_name, pc),
            })

        if cell.is_megamorphic:
            return decide(None, False, "megamorphic")
        if cell.nulls > 0:
            return decide(None, False, "nulls-observed")
        types = cell.observed_types()
        if len(types) != 1:
            return decide(None, False, "polymorphic-operand")
        observed = types[0][0]
        if observed.endswith("[]"):
            # Exact-type checks compare object class names (M_ISEXACT
            # and the py tier both test ObjRef identity); guarding an
            # array operand would refute on every execution.
            return decide(observed, False, "array-operand")
        if kind == "checkcast" and not self.program.is_subtype(
            observed, check_type
        ):
            # The profiled type fails the cast: the interpreter traps
            # here, and a guard would just deopt into that trap.
            return decide(observed, False, "failing-cast")
        if stamp.kind == st.Stamp.REF and stamp.exact and stamp.non_null:
            # The stamp already decides the check; the canonicalizer
            # folds it without a guard.
            return decide(observed, False, "stamp-precise")
        log = self.speculation.log
        if log is not None:
            if log.refuted((self.method.qualified_name, pc)):
                return decide(observed, False, "refuted-site")
            if log.is_disabled(self.method.qualified_name):
                return decide(observed, False, "deopt-budget")
        decide(observed, True, "typecheck-speculated")
        # Frame state is captured with the operand still on the stack:
        # a refuted guard re-executes this very type check in the
        # interpreter (innermost frame, so argc/pushes_result are
        # irrelevant and zero).
        local_slots = [i for i, v in enumerate(locals_) if v is not None]
        values = [locals_[i] for i in local_slots] + list(stack)
        descriptor = FrameDescriptor(
            self.method, pc, local_slots, len(stack), 0, False
        )
        check = emit(n.InstanceOfNode(value, observed, exact=True))
        emit(
            n.GuardNode(
                check, REASON_TYPECHECK, frames=[descriptor], state=values
            )
        )
        pinned = stamp.join(
            st.ref_stamp(observed, exact=True, non_null=True), self.program
        )
        if pinned.kind == st.Stamp.BOTTOM:
            pinned = st.ref_stamp(observed, exact=True, non_null=True)
        pi = emit(n.PiNode(value, pinned))
        for index, slot in enumerate(locals_):
            if slot is value:
                locals_[index] = pi
        for index, slot in enumerate(stack):
            if slot is value:
                stack[index] = pi

    def _translate_invoke(self, instr, pc, stack, locals_, emit):
        program = self.program
        op = instr.op
        cname, mname = instr.args
        callee = program.lookup_method(cname, mname)
        argc = len(callee.param_types) + (0 if op == Op.INVOKESTATIC else 1)
        frame_state = None
        if self.speculate:
            # Snapshot the frame *before* the arguments are popped: a
            # deopt re-executes this invoke in the interpreter, which
            # expects them back on the operand stack. Undefined locals
            # (None) are omitted via local_slots rather than becoming
            # null IR inputs.
            local_slots = [i for i, v in enumerate(locals_) if v is not None]
            values = [locals_[i] for i in local_slots] + list(stack)
            descriptor = FrameDescriptor(
                self.method,
                pc,
                local_slots,
                len(stack),
                argc,
                callee.returns_value(),
            )
            frame_state = (values, [descriptor])
        args = stack[len(stack) - argc :] if argc else []
        del stack[len(stack) - argc :]
        return_stamp = st.stamp_for_declared_type(callee.return_type)
        receiver_types = []
        megamorphic = False
        if op == Op.INVOKESTATIC:
            kind, target = "static", callee
        elif op == Op.INVOKESPECIAL:
            kind, target = "special", program.resolve_method(cname, mname)
        else:
            kind = "virtual" if op == Op.INVOKEVIRTUAL else "interface"
            target = None
            if self.profile is not None:
                receiver = self.profile.receivers.get(pc)
                if receiver is not None:
                    receiver_types = receiver.observed_types()
                    megamorphic = receiver.is_megamorphic
        invoke = n.InvokeNode(
            kind,
            cname,
            mname,
            args,
            return_stamp,
            target=target,
            receiver_types=receiver_types,
            megamorphic=megamorphic,
            bci=pc,
        )
        if frame_state is not None:
            invoke.append_frame_state(*frame_state)
        emit(invoke)
        return invoke if callee.returns_value() else None

    def _elem_stamp(self, array, instr):
        """Best-effort stamp for an array load."""
        array_stamp = array.stamp
        if (
            array_stamp.kind == st.Stamp.REF
            and array_stamp.type_name is not None
            and array_stamp.type_name.endswith("[]")
        ):
            return st.stamp_for_declared_type(bt.elem_of(array_stamp.type_name))
        if instr.args:
            return st.stamp_for_declared_type(instr.args[0])
        return st.ANY_STAMP

    # ------------------------------------------------------------------
    # Phi wiring and cleanup
    # ------------------------------------------------------------------

    def _wire_phis(self, edge_states):
        num_locals = self.method.max_locals
        for info in self.order:
            block = info.block
            if not block.phis:
                continue
            # At a header entered from the synthetic entry, pred index 0
            # is that edge, whose phi inputs (the parameters) were wired
            # at creation; bytecode predecessors start at index 1.
            offset = (
                1
                if self.synthetic_entry is not None
                and info.start == self._entry_pc()
                else 0
            )
            for pred_index, pred in enumerate(info.preds):
                state = edge_states.get((pred.start, info.start))
                if state is None:
                    raise IRError("missing edge state for phi wiring")
                locals_, stack = state
                slots = locals_ + stack
                if len(block.phis) > num_locals + len(stack):
                    raise IRError("phi/slot mismatch")
                for phi_index, phi in enumerate(block.phis):
                    value = slots[phi_index] if phi_index < len(slots) else None
                    phi.set_input(pred_index + offset, value)

    def _fix_phi_stamps(self):
        """Iterate meet over phi stamps until they stabilize."""
        program = self.program
        for _ in range(10):
            changed = False
            for block in self.graph.blocks:
                for phi in block.phis:
                    old = phi.stamp
                    phi.recompute_stamp(program)
                    if phi.stamp != old:
                        changed = True
            if not changed:
                return

    def _remove_trivial_phis(self):
        """Replace phis that merge a single distinct value (or only
        themselves), and drop dead never-used phis for untouched slots."""
        graph = self.graph
        changed = True
        while changed:
            changed = False
            for block in graph.blocks:
                for phi in list(block.phis):
                    distinct = {i for i in phi.inputs if i is not None and i is not phi}
                    if len(distinct) == 1:
                        replacement = distinct.pop()
                        graph.replace_uses(phi, replacement)
                        phi.clear_inputs()
                        block.phis.remove(phi)
                        changed = True
                    elif not phi.uses:
                        phi.clear_inputs()
                        block.phis.remove(phi)
                        changed = True


def _is_backedge(pred, succ):
    """Conservative backedge test on bytecode order."""
    return pred.start >= succ.start
