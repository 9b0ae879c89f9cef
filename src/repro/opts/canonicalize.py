"""Worklist-driven canonicalization.

This is the reproduction of Graal's *canonicalizer*, the transformation
the paper triggers during deep inlining trials: "This phase includes a
set of optimizations, such as constant folding, strength reduction,
branch pruning, global value numbering, and JVM-specific simplifications
such as type-check folding for values of known type" (§IV).

Each local rewrite is classified and counted in :class:`CanonStats`;
the inliner's N_s(n) (Eq. 4) reads exactly the *simple* counters —
constant folds, strength reductions and branch prunings — matching the
paper's "we calculate N_s(n) only for the simplest optimizations".

The pass also performs speculative-free devirtualization: a dispatched
call whose receiver stamp pins the type (or whose declared type has a
single concrete implementation under closed-world CHA) becomes a direct
call. Devirtualizations are counted separately — they feed the call-tree
expansion, not N_s.
"""

from repro.bytecode.opcodes import Op
from repro.runtime.int64 import int_div, int_rem, is_wrapped, wrap64
from repro.ir import nodes as n
from repro.ir import stamps as st


class CanonStats:
    """Counters for one canonicalization run.

    ``simple()`` is the paper's N_s contribution: the simplest
    optimizations, all weighted equally (§IV).
    """

    __slots__ = (
        "constant_folds",
        "strength_reductions",
        "branch_prunings",
        "type_check_folds",
        "devirtualizations",
        "phi_simplifications",
        "rounds",
    )

    def __init__(self):
        self.constant_folds = 0
        self.strength_reductions = 0
        self.branch_prunings = 0
        self.type_check_folds = 0
        self.devirtualizations = 0
        self.phi_simplifications = 0
        self.rounds = 0

    def simple(self):
        return (
            self.constant_folds
            + self.strength_reductions
            + self.branch_prunings
            + self.type_check_folds
        )

    def total(self):
        return self.simple() + self.devirtualizations + self.phi_simplifications

    def merge(self, other):
        self.constant_folds += other.constant_folds
        self.strength_reductions += other.strength_reductions
        self.branch_prunings += other.branch_prunings
        self.type_check_folds += other.type_check_folds
        self.devirtualizations += other.devirtualizations
        self.phi_simplifications += other.phi_simplifications
        self.rounds += other.rounds
        return self

    def __repr__(self):
        return (
            "<CanonStats cf=%d sr=%d bp=%d tcf=%d devirt=%d phi=%d>"
            % (
                self.constant_folds,
                self.strength_reductions,
                self.branch_prunings,
                self.type_check_folds,
                self.devirtualizations,
                self.phi_simplifications,
            )
        )


def canonicalize(graph, program, max_rounds=4, devirtualize=True):
    """Run canonicalization to a fixpoint (bounded); returns CanonStats."""
    canon = _Canonicalizer(graph, program, devirtualize)
    return canon.run(max_rounds)


class _Canonicalizer:
    def __init__(self, graph, program, devirtualize):
        self.graph = graph
        self.program = program
        self.devirtualize = devirtualize
        self.stats = CanonStats()
        self._work = []
        self._queued = set()

    # -- worklist ---------------------------------------------------------

    def _enqueue(self, node):
        if node is not None and node.id not in self._queued:
            self._queued.add(node.id)
            self._work.append(node)

    def _enqueue_uses(self, node):
        for user in node.uses:
            self._enqueue(user)

    def _seed(self):
        """Queue every node in block order: phis, body, terminator.

        Node ids are unique within a graph, so this is what enqueueing
        the nodes one at a time would queue.
        """
        work = self._work = []
        for block in self.graph.blocks:
            work += block.phis
            work += block.instrs
            if block.terminator is not None:
                work.append(block.terminator)
        self._queued = {node.id for node in work}

    def run(self, max_rounds):
        visitors = _VISITORS
        for _ in range(max_rounds):
            self.stats.rounds += 1
            self._seed()
            work = self._work
            queued = self._queued
            before = self.stats.total()
            while work:
                node = work.pop()
                queued.discard(node.id)
                visit = visitors.get(type(node))
                # Skip types without rewrites and already removed nodes.
                if visit is not None and node.block is not None:
                    visit(self, node)
            if self.stats.total() == before:
                break
        return self.stats

    # -- node replacement --------------------------------------------------

    def _replace(self, node, replacement):
        """Replace a value node with *replacement* and detach it."""
        block = node.block
        self._enqueue_uses(node)
        self.graph.replace_uses(node, replacement)
        node.clear_inputs()
        if block is not None:
            if node in block.phis:
                block.phis.remove(node)
            elif node in block.instrs:
                block.instrs.remove(node)
        node.block = None
        self._enqueue(replacement)

    def _new_const(self, value, at_node):
        # The single wrapping point for folded constants: _fold_binop
        # and _visit_neg hand over mathematically exact results, and
        # wrap64 here re-establishes the guest-integer invariant.
        value = wrap64(value)
        assert is_wrapped(value)
        const = self.graph.register(n.ConstIntNode(value))
        block = at_node.block
        if at_node in block.instrs:
            block.insert(block.instrs.index(at_node), const)
        else:
            block.insert(0, const)
        return const

    def _new_null(self, at_node):
        null = self.graph.register(n.ConstNullNode())
        block = at_node.block
        if at_node in block.instrs:
            block.insert(block.instrs.index(at_node), null)
        else:
            block.insert(0, null)
        return null

    # -- arithmetic ---------------------------------------------------------

    def _visit_guard(self, node):
        """Delete guards whose condition is provably true.

        This is what finishes speculative devirtualization: once the
        receiver's exact-type check folds to a constant 1 (e.g. the
        receiver is a Pi already refined to the speculated type), the
        guard — and with it the last trace of the virtual fallback —
        disappears from the graph.
        """
        condition = node.inputs[0]
        if condition.stamp.const is not None and condition.stamp.const != 0:
            self.stats.branch_prunings += 1
            node.clear_inputs()
            node.block.instrs.remove(node)
            node.block = None

    def _visit_binop(self, node):
        a, b = node.inputs
        ca, cb = a.stamp.const, b.stamp.const
        op = node.op
        if ca is not None and cb is not None:
            folded = _fold_binop(op, ca, cb)
            if folded is not None:
                self.stats.constant_folds += 1
                self._replace(node, self._new_const(folded, node))
                return
        reduced = self._strength_reduce(node, op, a, b, ca, cb)
        if reduced is not None:
            self.stats.strength_reductions += 1
            self._replace(node, reduced)

    def _strength_reduce(self, node, op, a, b, ca, cb):
        """Return a replacement node, or None. May create new nodes."""
        if op == Op.ADD:
            if cb == 0:
                return a
            if ca == 0:
                return b
        elif op == Op.SUB:
            if cb == 0:
                return a
            if a is b:
                return self._new_const(0, node)
        elif op == Op.MUL:
            if cb == 1:
                return a
            if ca == 1:
                return b
            if cb == 0 or ca == 0:
                return self._new_const(0, node)
            if cb == -1:
                return self._new_neg(a, node)
            if ca == -1:
                return self._new_neg(b, node)
            # Power-of-two strength reduction, both operand orders and
            # both signs (MUL is commutative and x * -2^k == -(x << k),
            # exact even at the wrapping boundary).  INT64_MIN itself is
            # -2^63 and reduces through the negative branch.
            if cb is not None:
                return self._reduce_pow2_mul(a, cb, node)
            if ca is not None:
                return self._reduce_pow2_mul(b, ca, node)
        elif op == Op.DIV:
            if cb == 1:
                return a
        elif op == Op.REM:
            if cb == 1 or cb == -1:
                return self._new_const(0, node)
        elif op == Op.AND:
            if cb == 0 or ca == 0:
                return self._new_const(0, node)
            if cb == -1:
                return a
            if ca == -1:
                return b
            if a is b:
                return a
        elif op == Op.OR:
            if cb == 0:
                return a
            if ca == 0:
                return b
            if a is b:
                return a
        elif op == Op.XOR:
            if cb == 0:
                return a
            if ca == 0:
                return b
            if a is b:
                return self._new_const(0, node)
        elif op in (Op.SHL, Op.SHR):
            if cb == 0:
                return a
        return None

    def _new_neg(self, value, at_node):
        neg = self.graph.register(n.NegNode(value))
        at_node.block.insert(at_node.block.instrs.index(at_node), neg)
        return neg

    def _reduce_pow2_mul(self, value, factor, node):
        """Reduce ``value * factor`` for power-of-two |factor| > 1."""
        magnitude = -factor if factor < 0 else factor
        if magnitude <= 1 or magnitude & (magnitude - 1):
            return None
        shift = self._new_const(magnitude.bit_length() - 1, node)
        shl = self.graph.register(n.BinOpNode(Op.SHL, value, shift))
        node.block.insert(node.block.instrs.index(node), shl)
        if factor < 0:
            return self._new_neg(shl, node)
        return shl

    def _visit_neg(self, node):
        value = node.inputs[0]
        if value.stamp.const is not None:
            self.stats.constant_folds += 1
            self._replace(node, self._new_const(-value.stamp.const, node))
        elif isinstance(value, n.NegNode):
            self.stats.strength_reductions += 1
            self._replace(node, value.inputs[0])

    def _visit_compare(self, node):
        a, b = node.inputs
        op = node.op
        if op in (Op.REF_EQ, Op.REF_NE):
            result = _fold_ref_compare(op, a, b)
        else:
            result = None
            ca, cb = a.stamp.const, b.stamp.const
            if ca is not None and cb is not None:
                result = _fold_int_compare(op, ca, cb)
            elif a is b:
                result = 1 if op in (Op.EQ, Op.LE, Op.GE) else 0
        if result is not None:
            self.stats.constant_folds += 1
            self._replace(node, self._new_const(result, node))

    # -- phis -----------------------------------------------------------------

    def _visit_phi(self, phi):
        distinct = {i for i in phi.inputs if i is not None and i is not phi}
        if len(distinct) == 1:
            self.stats.phi_simplifications += 1
            self._replace(phi, distinct.pop())
            return
        old = phi.stamp
        phi.recompute_stamp(self.program)
        if phi.stamp != old:
            self._enqueue_uses(phi)

    # -- control flow ----------------------------------------------------------

    def _visit_if(self, node):
        block = node.block
        if block is None or block.terminator is not node:
            return
        condition = node.inputs[0]
        const = condition.stamp.const
        if const is None and node.true_block is not node.false_block:
            return
        if node.true_block is node.false_block:
            kept, removed = node.true_block, node.false_block
            # Both edges target the same block: drop one pred slot.
            removed.remove_pred_edge(block)
        else:
            kept = node.true_block if const != 0 else node.false_block
            removed = node.false_block if const != 0 else node.true_block
            removed.remove_pred_edge(block)
        self.stats.branch_prunings += 1
        node.clear_inputs()
        goto = self.graph.register(n.GotoNode(kept))
        block.set_terminator(goto)
        for phi in kept.phis:
            self._enqueue(phi)
        # Pruning may strand whole regions; eliminate them now so join
        # phis downstream lose their dead inputs within the same pass
        # (deep inlining trials rely on this immediacy).
        from repro.opts.dce import remove_unreachable_blocks

        if remove_unreachable_blocks(self.graph):
            for live_block in self.graph.blocks:
                for phi in live_block.phis:
                    self._enqueue(phi)

    # -- type system -------------------------------------------------------------

    def _visit_instanceof(self, node):
        value = node.inputs[0]
        stamp = value.stamp
        result = None
        #: True: every *non-null* value with this stamp passes the
        #: check; False: no value passes. None: undecided.
        matches = None
        if stamp.is_null:
            result = 0
        elif node.exact:
            if stamp.exact:
                matches = stamp.type_name == node.type_name
        else:
            if stamp.asserts_type(self.program, node.type_name):
                matches = True
            elif stamp.excludes_type(self.program, node.type_name):
                matches = False
        if matches is True and stamp.non_null:
            result = 1
        elif matches is False:
            # null yields 0 too, so nullability cannot flip this.
            result = 0
        if result is not None:
            self.stats.type_check_folds += 1
            self._replace(node, self._new_const(result, node))
            return
        if matches is True:
            # The type is known to match but the value may be null: the
            # whole subtype test reduces to a null test (null→0, else 1).
            null = self._new_null(node)
            test = self.graph.register(n.CompareNode(Op.REF_NE, value, null))
            node.block.insert(node.block.instrs.index(node), test)
            self.stats.type_check_folds += 1
            self._replace(node, test)

    def _visit_checkcast(self, node):
        value = node.inputs[0]
        stamp = value.stamp
        if stamp.is_null or stamp.asserts_type(self.program, node.type_name):
            self.stats.type_check_folds += 1
            # A provably-passing cast still folds away, but the cast
            # node may carry facts the input's current stamp lacks
            # (accumulated while the input was known more precisely):
            # keep that narrowing as a Pi instead of handing users the
            # wider raw value.
            refined = stamp.join(node.stamp, self.program)
            if (
                refined.kind != st.Stamp.BOTTOM
                and refined != stamp
                and not stamp.is_null
            ):
                pi = self.graph.register(n.PiNode(value, refined))
                node.block.insert(node.block.instrs.index(node), pi)
                self._replace(node, pi)
            else:
                self._replace(node, value)
            return
        refined = stamp.join(st.ref_stamp(node.type_name), self.program)
        if refined.kind != st.Stamp.BOTTOM and refined != node.stamp:
            node.stamp = refined
            self._enqueue_uses(node)

    def _visit_pi(self, node):
        value = node.inputs[0]
        refined = value.stamp.join(node.stamp, self.program)
        if refined.kind != st.Stamp.BOTTOM and refined != node.stamp:
            node.stamp = refined
            self._enqueue_uses(node)
        if value.stamp == node.stamp:
            self._replace(node, value)

    # -- calls ----------------------------------------------------------------------

    def _visit_invoke(self, node):
        if not self.devirtualize or not node.is_dispatched:
            return
        if node.block is None:
            return
        receiver = node.receiver()
        target = self._devirtualize_target(node, receiver)
        if target is not None and not target.is_abstract:
            node.devirtualize(target)
            self.stats.devirtualizations += 1

    def _devirtualize_target(self, node, receiver):
        program = self.program
        stamp = receiver.stamp
        if stamp.kind == st.Stamp.REF and stamp.exact and stamp.type_name:
            return program.resolve_method(stamp.type_name, node.method_name)
        # Closed-world CHA on the stamp's upper bound (falling back to
        # the declared class).
        bound = None
        if stamp.kind == st.Stamp.REF and stamp.type_name:
            bound = stamp.type_name
        if bound is None or bound.endswith("[]"):
            bound = node.declared_class
        if bound.endswith("[]"):
            return None
        concrete = program.concrete_subclasses(bound)
        if bound != node.declared_class:
            # The stamp bound may be *wider* than the declared type
            # (e.g. a phi of two implementors joins to Object); only
            # classes that also satisfy the declared receiver type are
            # possible at runtime — others need not resolve the method.
            legal = set(program.concrete_subclasses(node.declared_class))
            concrete = [c for c in concrete if c in legal]
        if not concrete:
            return None
        targets = {program.resolve_method(c, node.method_name) for c in concrete}
        if len(targets) == 1:
            return targets.pop()
        return None


#: The visitor for each node type that has rewrites; the worklist skips
#: every other type.
_VISITORS = {
    n.BinOpNode: _Canonicalizer._visit_binop,
    n.NegNode: _Canonicalizer._visit_neg,
    n.CompareNode: _Canonicalizer._visit_compare,
    n.PhiNode: _Canonicalizer._visit_phi,
    n.IfNode: _Canonicalizer._visit_if,
    n.InstanceOfNode: _Canonicalizer._visit_instanceof,
    n.CheckCastNode: _Canonicalizer._visit_checkcast,
    n.PiNode: _Canonicalizer._visit_pi,
    n.InvokeNode: _Canonicalizer._visit_invoke,
    n.GuardNode: _Canonicalizer._visit_guard,
}


# ---------------------------------------------------------------------------
# Pure folding helpers
# ---------------------------------------------------------------------------


def _fold_binop(op, a, b):
    # Contract: results are mathematically exact and may exceed the
    # 64-bit guest range (ADD/SUB/MUL overflow, INT64_MIN / -1).  Every
    # caller routes them through _Canonicalizer._new_const, whose
    # wrap64 + assertion is the single point where folded constants
    # re-enter guest-integer space — keeping the folder consistent with
    # the interpreter and the machine, which wrap after every step.
    if op == Op.ADD:
        return a + b
    if op == Op.SUB:
        return a - b
    if op == Op.MUL:
        return a * b
    if op == Op.DIV:
        return None if b == 0 else int_div(a, b)
    if op == Op.REM:
        return None if b == 0 else int_rem(a, b)
    if op == Op.AND:
        return a & b
    if op == Op.OR:
        return a | b
    if op == Op.XOR:
        return a ^ b
    if op == Op.SHL:
        return a << (b & 63)
    if op == Op.SHR:
        return a >> (b & 63)
    return None


def _fold_int_compare(op, a, b):
    if op == Op.EQ:
        return 1 if a == b else 0
    if op == Op.NE:
        return 1 if a != b else 0
    if op == Op.LT:
        return 1 if a < b else 0
    if op == Op.LE:
        return 1 if a <= b else 0
    if op == Op.GT:
        return 1 if a > b else 0
    if op == Op.GE:
        return 1 if a >= b else 0
    return None


def _fold_ref_compare(op, a, b):
    result = None
    if a is b:
        result = True
    elif a.stamp.is_null and b.stamp.is_null:
        result = True
    elif a.stamp.is_null and b.stamp.non_null:
        result = False
    elif b.stamp.is_null and a.stamp.non_null:
        result = False
    if result is None:
        return None
    if op == Op.REF_NE:
        result = not result
    return 1 if result else 0
