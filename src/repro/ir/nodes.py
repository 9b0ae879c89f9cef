"""SSA node classes.

Every value-producing instruction is a :class:`Node`; SSA means a value
*is* the node that computes it — inputs are direct references to other
nodes. Nodes live in exactly one basic block (except parameters, which
belong to the graph), and each block ends with one terminator node.

Nodes carry a :class:`~repro.ir.stamps.Stamp` describing what the
compiler knows about their value; canonicalization refines stamps and
replaces nodes whose stamp pins them to a constant.
"""

from repro.bytecode.opcodes import Op
from repro.ir import stamps as st


class Node:
    """Base class of all IR nodes.

    Attributes:
        id: unique within the graph (assigned at registration).
        block: owning :class:`~repro.ir.graph.Block` or None for params.
        inputs: list of input nodes (positional meaning per subclass).
        stamp: the node's abstract value.
        uses: set of nodes that have this node as an input.
    """

    __slots__ = ("id", "block", "inputs", "stamp", "uses")

    #: True when the node has no side effect, no memory dependence and
    #: no trap — such nodes may be deduplicated by value numbering and
    #: removed when unused.
    is_pure = False

    #: True for block terminators.
    is_terminator = False

    def __init__(self, inputs, stamp):
        self.id = -1
        self.block = None
        self.inputs = list(inputs)
        self.stamp = stamp
        self.uses = set()
        for node in self.inputs:
            if node is not None:
                node.uses.add(self)

    # -- input management -------------------------------------------------

    def set_input(self, index, new):
        old = self.inputs[index]
        if old is new:
            return
        self.inputs[index] = new
        if old is not None and old not in self.inputs:
            old.uses.discard(self)
        if new is not None:
            new.uses.add(self)

    def replace_input(self, old, new):
        for index, node in enumerate(self.inputs):
            if node is old:
                self.inputs[index] = new
                if new is not None:
                    new.uses.add(self)
        old.uses.discard(self)

    def clear_inputs(self):
        for node in self.inputs:
            if node is not None:
                node.uses.discard(self)
        self.inputs = []

    # -- introspection ---------------------------------------------------

    def value_number_key(self):
        """Hashable key identifying the computation, or None if not
        value-numberable."""
        return None

    def brief(self):
        return type(self).__name__.replace("Node", "")

    def __repr__(self):
        return "%s#%d" % (self.brief(), self.id)


# ---------------------------------------------------------------------------
# Values without inputs
# ---------------------------------------------------------------------------


class ConstIntNode(Node):
    """An integer constant."""

    __slots__ = ("value",)
    is_pure = True

    def __init__(self, value):
        super().__init__([], st.constant_int(value))
        self.value = value

    def value_number_key(self):
        return ("const", self.value)

    def brief(self):
        return "Const(%d)" % self.value


class ConstNullNode(Node):
    """The null reference constant."""

    is_pure = True

    def __init__(self):
        super().__init__([], st.null_stamp())

    def value_number_key(self):
        return ("null",)

    def brief(self):
        return "Null"


class ParamNode(Node):
    """A method parameter (receiver is parameter 0 of instance methods)."""

    __slots__ = ("index",)
    is_pure = True

    def __init__(self, index, stamp):
        super().__init__([], stamp)
        self.index = index

    def brief(self):
        return "Param(%d)" % self.index


# ---------------------------------------------------------------------------
# Arithmetic and comparisons
# ---------------------------------------------------------------------------


class BinOpNode(Node):
    """Binary integer arithmetic; ``op`` is a bytecode mnemonic.

    DIV and REM can trap and are therefore not pure unless the divisor
    is a non-zero constant (checked dynamically via :attr:`is_pure_now`).
    """

    __slots__ = ("op",)

    def __init__(self, op, a, b):
        super().__init__([a, b], st.int_stamp())
        self.op = op

    @property
    def is_pure(self):
        if self.op in (Op.DIV, Op.REM):
            divisor = self.inputs[1].stamp
            return divisor.const is not None and divisor.const != 0
        return True

    def value_number_key(self):
        if not self.is_pure:
            return None
        a, b = self.inputs[0].id, self.inputs[1].id
        if self.op in (Op.ADD, Op.MUL, Op.AND, Op.OR, Op.XOR) and a > b:
            a, b = b, a  # commutative normalization
        return ("bin", self.op, a, b)

    def brief(self):
        return self.op.capitalize()


class NegNode(Node):
    """Integer negation."""

    is_pure = True

    def __init__(self, value):
        super().__init__([value], st.int_stamp())

    def value_number_key(self):
        return ("neg", self.inputs[0].id)


class CompareNode(Node):
    """Integer or reference comparison producing 0/1."""

    __slots__ = ("op",)
    is_pure = True

    def __init__(self, op, a, b):
        super().__init__([a, b], st.int_stamp())
        self.op = op

    def value_number_key(self):
        a, b = self.inputs[0].id, self.inputs[1].id
        if self.op in (Op.EQ, Op.NE, Op.REF_EQ, Op.REF_NE) and a > b:
            a, b = b, a
        return ("cmp", self.op, a, b)

    def brief(self):
        return self.op.capitalize()


# ---------------------------------------------------------------------------
# Phis
# ---------------------------------------------------------------------------


class PhiNode(Node):
    """A phi; input *i* flows in from predecessor edge *i* of its block."""

    def __init__(self, inputs, stamp):
        super().__init__(inputs, stamp)

    def add_input(self, node):
        self.inputs.append(node)
        if node is not None:
            node.uses.add(self)

    def remove_input(self, index):
        old = self.inputs.pop(index)
        if old is not None and old not in self.inputs:
            old.uses.discard(self)

    def recompute_stamp(self, program=None):
        stamp = st.BOTTOM_STAMP
        for node in self.inputs:
            if node is not None and node is not self:
                stamp = stamp.meet(node.stamp, program)
        self.stamp = stamp

    def brief(self):
        return "Phi"


# ---------------------------------------------------------------------------
# Objects, arrays, fields
# ---------------------------------------------------------------------------


class NewNode(Node):
    """Object allocation — the resulting stamp is exact and non-null."""

    __slots__ = ("class_name",)

    def __init__(self, class_name):
        super().__init__([], st.ref_stamp(class_name, exact=True, non_null=True))
        self.class_name = class_name

    def brief(self):
        return "New(%s)" % self.class_name


class NewArrayNode(Node):
    """Array allocation; input 0 is the length."""

    __slots__ = ("elem_type",)

    def __init__(self, elem_type, length):
        super().__init__(
            [length],
            st.ref_stamp(elem_type + "[]", exact=True, non_null=True),
        )
        self.elem_type = elem_type

    def brief(self):
        return "NewArray(%s)" % self.elem_type


class ArrayLoadNode(Node):
    """inputs: array, index."""

    def __init__(self, array, index, stamp):
        super().__init__([array, index], stamp)


class ArrayStoreNode(Node):
    """inputs: array, index, value."""

    def __init__(self, array, index, value):
        super().__init__([array, index, value], st.void_stamp())


class ArrayLengthNode(Node):
    """inputs: array. Pure apart from the null check, which we treat as
    a guard folded into the node (it cannot be reordered past stores,
    but duplicate lengths of the same array can be value-numbered)."""

    def __init__(self, array):
        super().__init__([array], st.int_stamp())

    def value_number_key(self):
        return ("arraylen", self.inputs[0].id)


class LoadFieldNode(Node):
    """inputs: object."""

    __slots__ = ("class_name", "field_name")

    def __init__(self, obj, class_name, field_name, stamp):
        super().__init__([obj], stamp)
        self.class_name = class_name
        self.field_name = field_name

    def brief(self):
        return "LoadField(%s)" % self.field_name


class StoreFieldNode(Node):
    """inputs: object, value."""

    __slots__ = ("class_name", "field_name")

    def __init__(self, obj, class_name, field_name, value):
        super().__init__([obj, value], st.void_stamp())
        self.class_name = class_name
        self.field_name = field_name

    def brief(self):
        return "StoreField(%s)" % self.field_name


class LoadStaticNode(Node):
    __slots__ = ("class_name", "field_name")

    def __init__(self, class_name, field_name, stamp):
        super().__init__([], stamp)
        self.class_name = class_name
        self.field_name = field_name

    def brief(self):
        return "LoadStatic(%s.%s)" % (self.class_name, self.field_name)


class StoreStaticNode(Node):
    __slots__ = ("class_name", "field_name")

    def __init__(self, class_name, field_name, value):
        super().__init__([value], st.void_stamp())
        self.class_name = class_name
        self.field_name = field_name

    def brief(self):
        return "StoreStatic(%s.%s)" % (self.class_name, self.field_name)


# ---------------------------------------------------------------------------
# Type tests
# ---------------------------------------------------------------------------


class InstanceOfNode(Node):
    """``value instanceof type`` producing 0/1; inputs: value.

    With ``exact`` set the test is an exact-class check (used for
    typeswitch guards emitted by polymorphic inlining, §IV), otherwise a
    subtype test (source-level ``is`` operator).
    """

    __slots__ = ("type_name", "exact")
    is_pure = True

    def __init__(self, value, type_name, exact=False):
        super().__init__([value], st.int_stamp())
        self.type_name = type_name
        self.exact = exact

    def value_number_key(self):
        return ("instanceof", self.type_name, self.exact, self.inputs[0].id)

    def brief(self):
        return "Is%s(%s)" % ("Exactly" if self.exact else "", self.type_name)


class CheckCastNode(Node):
    """Checked cast; passes its input through with a refined stamp."""

    __slots__ = ("type_name",)

    def __init__(self, value, type_name, program=None):
        refined = value.stamp.join(st.ref_stamp(type_name), program)
        if refined.kind == st.Stamp.BOTTOM:
            refined = st.ref_stamp(type_name)
        super().__init__([value], refined)
        self.type_name = type_name

    def value_number_key(self):
        return ("checkcast", self.type_name, self.inputs[0].id)

    def brief(self):
        return "Cast(%s)" % self.type_name


class PiNode(Node):
    """A stamp-refinement marker: same value as input, narrower stamp.

    Emitted when control flow proves a fact (e.g. inside the true branch
    of an exact type check). Guards carry no machine code — lowering
    erases them — but they let canonicalization devirtualize.
    """

    is_pure = True

    def __init__(self, value, stamp):
        super().__init__([value], stamp)

    def value_number_key(self):
        return ("pi", self.stamp, self.inputs[0].id)

    def brief(self):
        return "Pi[%s]" % (self.stamp,)


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


class InvokeNode(Node):
    """A call; inputs are the arguments (receiver first if any).

    Attributes:
        kind: ``"static"``, ``"special"``, ``"virtual"``, ``"interface"``
            or ``"direct"`` (a devirtualized virtual call bound to
            ``target``).
        declared_class / method_name: the symbolic reference.
        target: the resolved :class:`~repro.bytecode.method.Method` for
            static/special/direct kinds; None for dispatched kinds.
        receiver_types: profile snapshot ``[(class_name, probability)]``
            for dispatched kinds (may be empty).
        megamorphic: receiver profile overflowed.
        bci: bytecode index of the callsite in its original method —
            stable identity used by the call tree.
        frequency: relative execution frequency of the callsite within
            its method (filled by frequency annotation).
        n_args: number of leading inputs that are call arguments; any
            further inputs are captured frame state (speculative
            compilation only — see ``append_frame_state``).
        frames: :class:`~repro.deopt.FrameDescriptor` list describing
            the state inputs, innermost frame first.  Empty unless the
            graph was built for speculation.
    """

    __slots__ = (
        "kind",
        "declared_class",
        "method_name",
        "target",
        "receiver_types",
        "megamorphic",
        "bci",
        "frequency",
        "n_args",
        "frames",
    )

    KINDS = ("static", "special", "virtual", "interface", "direct")

    def __init__(
        self,
        kind,
        declared_class,
        method_name,
        args,
        stamp,
        target=None,
        receiver_types=(),
        megamorphic=False,
        bci=-1,
    ):
        super().__init__(args, stamp)
        assert kind in InvokeNode.KINDS, kind
        self.kind = kind
        self.declared_class = declared_class
        self.method_name = method_name
        self.target = target
        self.receiver_types = list(receiver_types)
        self.megamorphic = megamorphic
        self.bci = bci
        self.frequency = 1.0
        self.n_args = len(self.inputs)
        self.frames = []

    @property
    def args(self):
        """The call arguments (inputs minus any frame state)."""
        return self.inputs[: self.n_args]

    @property
    def state_values(self):
        """Captured frame-state inputs (empty without speculation)."""
        return self.inputs[self.n_args :]

    def append_frame_state(self, values, frames):
        """Attach frame state as real SSA inputs after the arguments.

        Keeping state values in ``inputs`` means ``replace_uses``,
        graph copying and DCE liveness all see them for free; consumers
        of the *arguments* must slice with ``n_args`` (or use
        ``args``).
        """
        for value in values:
            self.inputs.append(value)
            if value is not None:  # undefined local on this path
                value.uses.add(self)
        self.frames = self.frames + list(frames)

    @property
    def is_dispatched(self):
        return self.kind in ("virtual", "interface")

    @property
    def has_receiver(self):
        return self.kind != "static"

    def receiver(self):
        return self.inputs[0] if self.has_receiver else None

    def devirtualize(self, target):
        """Rebind this dispatched call as a direct call to *target*."""
        self.kind = "direct"
        self.target = target

    def brief(self):
        name = "%s.%s" % (self.declared_class, self.method_name)
        return "Invoke<%s>(%s)" % (self.kind, name)


class GuardNode(Node):
    """A speculation check: deoptimize unless the condition is true.

    Input 0 is the condition; the remaining inputs are frame state
    described by ``frames`` (same layout as on :class:`InvokeNode`).
    Not pure — DCE must keep it — and a barrier for effect reordering:
    moving a store across a guard would leak speculative state into the
    interpreter frame rebuilt on failure.

    Canonicalization deletes guards whose condition folds to a non-zero
    constant; that is what lets a speculated typeswitch lose its
    fallback arm entirely.
    """

    __slots__ = ("reason", "frames")

    def __init__(self, condition, reason, frames=(), state=()):
        super().__init__([condition] + list(state), st.void_stamp())
        self.reason = reason
        self.frames = list(frames)

    def condition(self):
        return self.inputs[0]

    @property
    def state_values(self):
        return self.inputs[1:]

    def append_frame_state(self, values, frames):
        for value in values:
            self.inputs.append(value)
            if value is not None:  # undefined local on this path
                value.uses.add(self)
        self.frames = self.frames + list(frames)

    @property
    def site(self):
        """(qualified name, bci) of the speculation being protected."""
        return self.frames[0].site if self.frames else None

    def brief(self):
        return "Guard(%s)" % self.reason


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


class TerminatorNode(Node):
    is_terminator = True

    def successors(self):
        return []


class IfNode(TerminatorNode):
    """Conditional branch; input 0 is the condition (0 = false).

    ``probability`` is the profiled probability of taking the *true*
    successor (0.5 when no profile exists).
    """

    __slots__ = ("true_block", "false_block", "probability")

    def __init__(self, condition, true_block, false_block, probability=0.5):
        super().__init__([condition], st.void_stamp())
        self.true_block = true_block
        self.false_block = false_block
        self.probability = probability

    def successors(self):
        return [self.true_block, self.false_block]

    def replace_successor(self, old, new):
        if self.true_block is old:
            self.true_block = new
        if self.false_block is old:
            self.false_block = new

    def brief(self):
        return "If(p=%.2f)" % self.probability


class GotoNode(TerminatorNode):
    __slots__ = ("target",)

    def __init__(self, target):
        super().__init__([], st.void_stamp())
        self.target = target

    def successors(self):
        return [self.target]

    def replace_successor(self, old, new):
        if self.target is old:
            self.target = new

    def brief(self):
        return "Goto"


class ReturnNode(TerminatorNode):
    """Method return; input 0 is the value (absent for void)."""

    def __init__(self, value=None):
        super().__init__([value] if value is not None else [], st.void_stamp())

    def value(self):
        return self.inputs[0] if self.inputs else None

    def brief(self):
        return "Return"


class DeoptNode(TerminatorNode):
    """Unconditional transfer to the interpreter; ends its block.

    Emitted where a speculated typeswitch would otherwise fall back to
    a virtual dispatch: reaching this point means every speculated
    receiver check failed, so compiled execution abandons the frame.
    All inputs are frame state described by ``frames`` (innermost
    first); having no successors, a deopt block never feeds the merge,
    which is how the megamorphic path disappears from the graph.
    """

    __slots__ = ("reason", "frames")

    def __init__(self, reason, frames=(), state=()):
        super().__init__(list(state), st.void_stamp())
        self.reason = reason
        self.frames = list(frames)

    @property
    def state_values(self):
        return list(self.inputs)

    def append_frame_state(self, values, frames):
        for value in values:
            self.inputs.append(value)
            if value is not None:  # undefined local on this path
                value.uses.add(self)
        self.frames = self.frames + list(frames)

    @property
    def site(self):
        return self.frames[0].site if self.frames else None

    def brief(self):
        return "Deopt(%s)" % self.reason
