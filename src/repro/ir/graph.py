"""The IR graph: basic blocks, edges, and structural surgery.

Besides the container itself, this module implements the two structural
operations the inliner is built from:

- :meth:`Graph.copy` — a deep copy with fresh identity; the call tree
  attaches a *specialized copy* of the callee IR to every call node
  (paper §III-A: "callsite specialization ... is harder with a complete
  call graph, where each node represents the target of many callsites");
- :meth:`Graph.inline_call` — the inline substitution: splice a callee
  graph into this graph at an invoke, rewiring parameters to arguments
  and returns to a merge.
"""

import os

from repro.ir import nodes as n
from repro.ir import stamps as st
from repro.errors import IRError

#: Executor toggle for :meth:`Graph.copy`. The slot-based fast path is
#: the default; setting ``REPRO_GRAPH_COPY=reference`` re-enables the
#: constructor-based reference implementation (kept for differential
#: testing — the two must produce structurally identical clones).
FAST_COPY = (
    os.environ.get("REPRO_GRAPH_COPY", "").strip().lower() != "reference"
)


class Block:
    """A basic block: phis, ordered body nodes, one terminator.

    Predecessor order matters: phi input *i* corresponds to
    ``preds[i]``. All edge edits go through the helpers here so that
    invariant never breaks.
    """

    __slots__ = ("id", "preds", "phis", "instrs", "terminator", "frequency")

    def __init__(self, block_id):
        self.id = block_id
        self.preds = []
        self.phis = []
        self.instrs = []
        self.terminator = None
        self.frequency = 1.0

    def successors(self):
        if self.terminator is None:
            return []
        return self.terminator.successors()

    def add_phi(self, phi):
        phi.block = self
        self.phis.append(phi)
        return phi

    def append(self, node):
        node.block = self
        self.instrs.append(node)
        return node

    def insert(self, index, node):
        node.block = self
        self.instrs.insert(index, node)
        return node

    def set_terminator(self, node):
        node.block = self
        self.terminator = node
        return node

    def pred_index(self, pred):
        for index, existing in enumerate(self.preds):
            if existing is pred:
                return index
        raise IRError("block B%d is not a predecessor of B%d" % (pred.id, self.id))

    def add_pred(self, pred, phi_inputs=None):
        """Register *pred* as a new predecessor, extending phis."""
        self.preds.append(pred)
        for phi in self.phis:
            phi.add_input(phi_inputs.get(phi) if phi_inputs else None)

    def remove_pred_edge(self, pred):
        """Remove one incoming edge from *pred*, shrinking phis."""
        index = self.pred_index(pred)
        self.preds.pop(index)
        for phi in self.phis:
            phi.remove_input(index)

    def all_nodes(self):
        for phi in self.phis:
            yield phi
        for node in self.instrs:
            yield node
        if self.terminator is not None:
            yield self.terminator

    def __repr__(self):
        return "B%d" % self.id


class Graph:
    """An SSA graph for one (possibly already partially inlined) method."""

    def __init__(self, method, name=None):
        self.method = method
        self.name = name or (method.qualified_name if method else "<graph>")
        self.params = []
        self.blocks = []
        self._next_block_id = 0
        self._next_node_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def new_block(self):
        block = Block(self._next_block_id)
        self._next_block_id += 1
        self.blocks.append(block)
        return block

    def register(self, node):
        """Assign an id; every node must be registered exactly once."""
        if node.id != -1:
            raise IRError("node registered twice: %r" % (node,))
        node.id = self._next_node_id
        self._next_node_id += 1
        return node

    def add_param(self, stamp):
        param = self.register(n.ParamNode(len(self.params), stamp))
        self.params.append(param)
        return param

    @property
    def entry(self):
        return self.blocks[0]

    # ------------------------------------------------------------------
    # Iteration and metrics
    # ------------------------------------------------------------------

    def all_nodes(self):
        for param in self.params:
            yield param
        for block in self.blocks:
            yield from block.all_nodes()

    def node_count(self):
        """The paper's |ir| metric: number of nodes in the graph."""
        count = len(self.params)
        for block in self.blocks:
            count += len(block.phis) + len(block.instrs)
            if block.terminator is not None:
                count += 1
        return count

    def invokes(self):
        """All call nodes, in block order."""
        result = []
        for block in self.blocks:
            for node in block.instrs:
                if isinstance(node, n.InvokeNode):
                    result.append(node)
        return result

    def reverse_postorder(self):
        """Blocks in reverse postorder from the entry."""
        seen = set()
        order = []

        def visit(block):
            stack = [(block, iter(block.successors()))]
            seen.add(block)
            while stack:
                current, successors = stack[-1]
                advanced = False
                for succ in successors:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(succ.successors())))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self.entry)
        order.reverse()
        return order

    def reachable_blocks(self):
        """The set of blocks reachable from the entry (no ordering)."""
        seen = {self.entry}
        work = [self.entry]
        while work:
            for succ in work.pop().successors():
                if succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return seen

    def recompute_preds(self):
        """Rebuild predecessor lists from terminators.

        Only valid when no phis exist yet (the builder uses it); later
        passes must maintain edges incrementally to keep phi order.
        """
        for block in self.blocks:
            if block.phis:
                raise IRError("recompute_preds with phis present")
            block.preds = []
        for block in self.blocks:
            for succ in block.successors():
                succ.preds.append(block)

    # ------------------------------------------------------------------
    # Use rewiring
    # ------------------------------------------------------------------

    def replace_uses(self, old, new):
        """Point every use of *old* at *new*."""
        if old is new:
            return
        for user in list(old.uses):
            user.replace_input(old, new)

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------

    def copy(self):
        """Deep-copy this graph. Returns ``(copy, node_map)``.

        Two implementations exist: the constructor-based reference copy
        and a slot-based fast path that skips node constructors (and
        with them stamp recomputation and incremental use-list upkeep).
        Both produce structurally identical clones — same node ids,
        block ids, stamps, frequencies and invoke metadata — which
        ``tests/test_ir_graph_copy.py`` checks differentially. The
        ``REPRO_GRAPH_COPY=reference`` environment knob pins the
        reference implementation.
        """
        if FAST_COPY:
            return self._copy_fast()
        return self._copy_reference()

    def _copy_fast(self):
        """Slot-based deep copy: no constructors, no re-verification.

        Mirrors the reference copy's numbering exactly: params first,
        then per block phis → instrs → terminator, with block ids
        renumbered sequentially.
        """
        clone = Graph(self.method, self.name)
        node_map = {}
        block_map = {}
        next_id = 0
        for param in self.params:
            new = n.ParamNode.__new__(n.ParamNode)
            new.id = next_id
            next_id += 1
            new.block = None
            new.inputs = []
            new.stamp = param.stamp
            new.uses = set()
            new.index = param.index
            clone.params.append(new)
            node_map[param] = new
        for index, block in enumerate(self.blocks):
            new_block = Block(index)
            new_block.frequency = block.frequency
            clone.blocks.append(new_block)
            block_map[block] = new_block
        # First pass: create nodes. Inputs usually dominate their uses
        # in block-list order, but inline_call appends imported callee
        # blocks *after* the split continuation block, so a node may
        # reference an input whose block comes later in the list; such
        # nodes get their inputs wired in the second pass.
        scalar_slots = _FAST_COPY_SLOTS
        deferred = []
        for block in self.blocks:
            new_block = block_map[block]
            for phi in block.phis:
                new = n.PhiNode.__new__(n.PhiNode)
                new.id = next_id
                next_id += 1
                new.block = new_block
                new.inputs = []  # resolved in the second pass
                new.stamp = phi.stamp
                new.uses = set()
                new_block.phis.append(new)
                node_map[phi] = new
            for node in block.instrs:
                cls = type(node)
                slots = scalar_slots.get(cls)
                if slots is None:
                    raise IRError("cannot copy node %r" % (node,))
                new = cls.__new__(cls)
                new.id = next_id
                next_id += 1
                new.block = new_block
                new.stamp = node.stamp
                new.uses = set()
                for name in slots:
                    setattr(new, name, getattr(node, name))
                if cls is n.InvokeNode:
                    new.receiver_types = list(node.receiver_types)
                    new.frames = list(node.frames)
                elif cls is n.GuardNode:
                    new.frames = list(node.frames)
                try:
                    inputs = [
                        node_map[x] if x is not None else None
                        for x in node.inputs
                    ]
                except KeyError:
                    new.inputs = []
                    deferred.append((node, new))
                else:
                    new.inputs = inputs
                    for x in inputs:
                        if x is not None:
                            x.uses.add(new)
                new_block.instrs.append(new)
                node_map[node] = new
            term = block.terminator
            if term is not None:
                cls = type(term)
                new = cls.__new__(cls)
                new.id = next_id
                next_id += 1
                new.block = new_block
                new.stamp = term.stamp
                new.uses = set()
                if cls is n.IfNode:
                    new.true_block = block_map[term.true_block]
                    new.false_block = block_map[term.false_block]
                    new.probability = term.probability
                elif cls is n.GotoNode:
                    new.target = block_map[term.target]
                elif cls is n.DeoptNode:
                    new.reason = term.reason
                    new.frames = list(term.frames)
                elif cls is not n.ReturnNode:
                    raise IRError("cannot copy terminator %r" % (term,))
                try:
                    inputs = [
                        node_map[x] if x is not None else None
                        for x in term.inputs
                    ]
                except KeyError:
                    new.inputs = []
                    deferred.append((term, new))
                else:
                    new.inputs = inputs
                    for x in inputs:
                        if x is not None:
                            x.uses.add(new)
                new_block.terminator = new
                node_map[term] = new
        # Second pass: phi inputs, forward-referencing inputs, preds.
        for node, new in deferred:
            inputs = [
                node_map[x] if x is not None else None for x in node.inputs
            ]
            new.inputs = inputs
            for x in inputs:
                if x is not None:
                    x.uses.add(new)
        for block in self.blocks:
            new_block = block_map[block]
            for phi, new_phi in zip(block.phis, new_block.phis):
                inputs = [
                    node_map[x] if x is not None else None
                    for x in phi.inputs
                ]
                new_phi.inputs = inputs
                for x in inputs:
                    if x is not None:
                        x.uses.add(new_phi)
            new_block.preds = [block_map[p] for p in block.preds]
        clone._next_node_id = next_id
        clone._next_block_id = len(self.blocks)
        return clone, node_map

    def _copy_reference(self):
        """The constructor-based reference copy implementation."""
        clone = Graph(self.method, self.name)
        node_map = {}
        block_map = {}
        for param in self.params:
            new_param = clone.add_param(param.stamp)
            node_map[param] = new_param
        for block in self.blocks:
            new_block = clone.new_block()
            new_block.frequency = block.frequency
            block_map[block] = new_block
        # First pass: create nodes without inputs resolved.
        for block in self.blocks:
            new_block = block_map[block]
            for phi in block.phis:
                new_phi = clone.register(
                    n.PhiNode([None] * len(phi.inputs), phi.stamp)
                )
                new_block.add_phi(new_phi)
                node_map[phi] = new_phi
            for node in block.instrs:
                copied = _copy_node(node, node_map, clone)
                new_block.append(copied)
                node_map[node] = copied
            if block.terminator is not None:
                copied = _copy_terminator(
                    block.terminator, node_map, block_map, clone
                )
                new_block.set_terminator(copied)
                node_map[block.terminator] = copied
        # Second pass: resolve phi inputs (may reference later nodes).
        for block in self.blocks:
            for phi in block.phis:
                new_phi = node_map[phi]
                for index, input_node in enumerate(phi.inputs):
                    if input_node is not None:
                        new_phi.set_input(index, node_map[input_node])
            new_block = block_map[block]
            new_block.preds = [block_map[p] for p in block.preds]
        return clone, node_map

    # ------------------------------------------------------------------
    # Inline substitution
    # ------------------------------------------------------------------

    def inline_call(self, invoke, callee_graph):
        """Replace *invoke* with the body of *callee_graph*.

        The callee graph is consumed (its blocks and nodes move into
        this graph with fresh ids); callers that need to keep it must
        copy it first. Returns the node now representing the call's
        value (or None for void calls).
        """
        block = invoke.block
        if block is None or block not in self.blocks:
            raise IRError("invoke is not in this graph")
        position = block.instrs.index(invoke)

        # Split the host block after the invoke.
        after = self.new_block()
        after.instrs = block.instrs[position + 1 :]
        for node in after.instrs:
            node.block = after
        after.terminator = block.terminator
        if after.terminator is not None:
            after.terminator.block = after
            for succ in after.terminator.successors():
                index = succ.pred_index(block)
                succ.preds[index] = after
        block.instrs = block.instrs[:position]
        block.terminator = None
        after.frequency = block.frequency

        # Import callee blocks and re-register the nodes.
        scale = getattr(invoke, "frequency", 1.0)
        entry_map = {}
        for callee_block in callee_graph.blocks:
            imported = self.new_block()
            imported.frequency = callee_block.frequency * scale
            entry_map[callee_block] = imported
            imported.preds = callee_block.preds  # fixed below
            imported.phis = callee_block.phis
            imported.instrs = callee_block.instrs
            imported.terminator = callee_block.terminator
            for node in imported.all_nodes():
                node.block = imported
                node.id = -1
                self.register(node)
        for callee_block in callee_graph.blocks:
            imported = entry_map[callee_block]
            imported.preds = [entry_map[p] for p in imported.preds]
            if imported.terminator is not None:
                for succ in list(imported.terminator.successors()):
                    imported.terminator.replace_successor(succ, entry_map[succ])

        callee_entry = entry_map[callee_graph.entry]

        # Thread the caller's frame state through the spliced body: any
        # state-carrying node from the callee (guards, deopts, invokes
        # captured for later speculation) gains the caller invoke's
        # frames as *outer* frames, so a deopt inside inlined code can
        # rebuild the whole virtual call stack. The caller state values
        # dominate `block` and therefore every imported block.
        outer_frames = list(invoke.frames)
        if outer_frames:
            outer_state = list(invoke.state_values)
            for callee_block in callee_graph.blocks:
                for node in entry_map[callee_block].all_nodes():
                    if isinstance(node, (n.GuardNode, n.DeoptNode)) or (
                        isinstance(node, n.InvokeNode) and node.frames
                    ):
                        node.append_frame_state(outer_state, outer_frames)

        # Wire arguments into parameters (frame-state inputs, if any,
        # sit after the arguments; zip truncates at the param count).
        for param, arg in zip(callee_graph.params, invoke.inputs):
            self.replace_uses(param, arg)

        # Collect returns and route them to the continuation block.
        returns = []
        for callee_block in callee_graph.blocks:
            imported = entry_map[callee_block]
            term = imported.terminator
            if isinstance(term, n.ReturnNode):
                returns.append((imported, term))

        result = None
        if not returns:
            # The callee never returns (infinite loop); the continuation
            # is unreachable but kept for structural simplicity.
            after.preds = []
        elif len(returns) == 1:
            ret_block, ret = returns[0]
            result = ret.value()
            ret.clear_inputs()
            goto = self.register(n.GotoNode(after))
            ret_block.set_terminator(goto)
            after.preds = [ret_block]
        else:
            value_inputs = []
            pred_blocks = []
            for ret_block, ret in returns:
                value_inputs.append(ret.value())
                pred_blocks.append(ret_block)
                ret.clear_inputs()
                goto = self.register(n.GotoNode(after))
                ret_block.set_terminator(goto)
            after.preds = pred_blocks
            if value_inputs and value_inputs[0] is not None:
                phi = self.register(n.PhiNode(value_inputs, invoke.stamp))
                after.add_phi(phi)
                phi.recompute_stamp()
                result = phi

        # Jump from the split point into the callee.
        goto = self.register(n.GotoNode(callee_entry))
        block.set_terminator(goto)
        callee_entry.preds = [block]

        # Replace the invoke's value and remove it.
        if result is not None:
            self.replace_uses(invoke, result)
        elif invoke.uses:
            raise IRError("void call has uses")
        invoke.clear_inputs()

        callee_graph.blocks = []
        callee_graph.params = []
        return result

    def __repr__(self):
        return "<Graph %s: %d blocks, %d nodes>" % (
            self.name,
            len(self.blocks),
            self.node_count(),
        )


#: Per-class scalar slots the fast copy transfers verbatim (inputs,
#: stamp, uses and InvokeNode.receiver_types are handled separately).
_FAST_COPY_SLOTS = {
    n.ConstIntNode: ("value",),
    n.ConstNullNode: (),
    n.BinOpNode: ("op",),
    n.NegNode: (),
    n.CompareNode: ("op",),
    n.NewNode: ("class_name",),
    n.NewArrayNode: ("elem_type",),
    n.ArrayLoadNode: (),
    n.ArrayStoreNode: (),
    n.ArrayLengthNode: (),
    n.LoadFieldNode: ("class_name", "field_name"),
    n.StoreFieldNode: ("class_name", "field_name"),
    n.LoadStaticNode: ("class_name", "field_name"),
    n.StoreStaticNode: ("class_name", "field_name"),
    n.InstanceOfNode: ("type_name", "exact"),
    n.CheckCastNode: ("type_name",),
    n.PiNode: (),
    n.InvokeNode: (
        "kind",
        "declared_class",
        "method_name",
        "target",
        "megamorphic",
        "bci",
        "frequency",
        "n_args",
    ),
    n.GuardNode: ("reason",),
}


def _copy_node(node, node_map, clone):
    """Copy a non-phi, non-terminator node, resolving inputs."""

    def get(i):
        return node_map[node.inputs[i]]

    t = type(node)
    if t is n.ConstIntNode:
        copied = n.ConstIntNode(node.value)
    elif t is n.ConstNullNode:
        copied = n.ConstNullNode()
    elif t is n.BinOpNode:
        copied = n.BinOpNode(node.op, get(0), get(1))
    elif t is n.NegNode:
        copied = n.NegNode(get(0))
    elif t is n.CompareNode:
        copied = n.CompareNode(node.op, get(0), get(1))
    elif t is n.NewNode:
        copied = n.NewNode(node.class_name)
    elif t is n.NewArrayNode:
        copied = n.NewArrayNode(node.elem_type, get(0))
    elif t is n.ArrayLoadNode:
        copied = n.ArrayLoadNode(get(0), get(1), node.stamp)
    elif t is n.ArrayStoreNode:
        copied = n.ArrayStoreNode(get(0), get(1), get(2))
    elif t is n.ArrayLengthNode:
        copied = n.ArrayLengthNode(get(0))
    elif t is n.LoadFieldNode:
        copied = n.LoadFieldNode(get(0), node.class_name, node.field_name, node.stamp)
    elif t is n.StoreFieldNode:
        copied = n.StoreFieldNode(get(0), node.class_name, node.field_name, get(1))
    elif t is n.LoadStaticNode:
        copied = n.LoadStaticNode(node.class_name, node.field_name, node.stamp)
    elif t is n.StoreStaticNode:
        copied = n.StoreStaticNode(node.class_name, node.field_name, get(0))
    elif t is n.InstanceOfNode:
        copied = n.InstanceOfNode(get(0), node.type_name, node.exact)
    elif t is n.CheckCastNode:
        copied = n.CheckCastNode(get(0), node.type_name)
        copied.stamp = node.stamp
    elif t is n.PiNode:
        copied = n.PiNode(get(0), node.stamp)
    elif t is n.InvokeNode:
        copied = n.InvokeNode(
            node.kind,
            node.declared_class,
            node.method_name,
            [
                node_map[arg] if arg is not None else None
                for arg in node.inputs
            ],
            node.stamp,
            target=node.target,
            receiver_types=node.receiver_types,
            megamorphic=node.megamorphic,
            bci=node.bci,
        )
        copied.frequency = node.frequency
        copied.n_args = node.n_args
        copied.frames = list(node.frames)
    elif t is n.GuardNode:
        copied = n.GuardNode(
            get(0),
            node.reason,
            frames=node.frames,
            state=[
                node_map[x] if x is not None else None
                for x in node.inputs[1:]
            ],
        )
    else:
        raise IRError("cannot copy node %r" % (node,))
    copied.stamp = node.stamp
    return clone.register(copied)


def _copy_terminator(node, node_map, block_map, clone):
    t = type(node)
    if t is n.IfNode:
        copied = n.IfNode(
            node_map[node.inputs[0]],
            block_map[node.true_block],
            block_map[node.false_block],
            node.probability,
        )
    elif t is n.GotoNode:
        copied = n.GotoNode(block_map[node.target])
    elif t is n.ReturnNode:
        value = node.value()
        copied = n.ReturnNode(node_map[value] if value is not None else None)
    elif t is n.DeoptNode:
        copied = n.DeoptNode(
            node.reason,
            frames=node.frames,
            state=[
                node_map[x] if x is not None else None
                for x in node.inputs
            ],
        )
    else:
        raise IRError("cannot copy terminator %r" % (node,))
    return clone.register(copied)
