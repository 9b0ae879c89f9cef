"""Structural IR validation.

The checker is run after construction and after every optimization pass
in tests (and optionally, via a compiler flag, in production pipelines).
It asserts the SSA invariants everything else assumes:

- every block has a terminator and consistent pred/succ edges;
- phi input counts equal predecessor counts;
- def-use links are bidirectional (``a in b.inputs`` ⇔ ``b in a.uses``);
- every definition dominates each of its uses (phi inputs must dominate
  the end of the corresponding predecessor block);
- nodes appear in exactly one block and are registered with the graph.
"""

from repro.errors import IRError
from repro.ir import nodes as n
from repro.ir.dominators import compute_dominators, dominates


def _frame_state_start(node):
    """First input index holding frame state, or None for stateless nodes."""
    if isinstance(node, n.InvokeNode):
        return node.n_args
    if isinstance(node, n.GuardNode):
        return 1
    return None


def check_graph(graph, program=None):
    """Validate *graph*; raises :class:`~repro.errors.IRError` on failure."""
    reachable = graph.reachable_blocks()
    _check_membership(graph)
    _check_edges(graph, reachable)
    _check_use_def(graph)
    _check_dominance(graph, reachable)
    return True


def _check_membership(graph):
    seen = set()
    for param in graph.params:
        if param.id < 0:
            raise IRError("unregistered param %r" % (param,))
        seen.add(param.id)
    for block in graph.blocks:
        for node in block.all_nodes():
            if node.id < 0:
                raise IRError("unregistered node %r in B%d" % (node, block.id))
            if node.id in seen:
                raise IRError("node id %d appears twice" % node.id)
            seen.add(node.id)
            if node.block is not block:
                raise IRError(
                    "node %r has wrong block back-reference" % (node,)
                )


def _check_edges(graph, reachable):
    for block in graph.blocks:
        if block in reachable and block.terminator is None:
            raise IRError("reachable block B%d has no terminator" % block.id)
        for phi in block.phis:
            if len(phi.inputs) != len(block.preds):
                raise IRError(
                    "phi %r has %d inputs for %d preds in B%d"
                    % (phi, len(phi.inputs), len(block.preds), block.id)
                )
        for succ in block.successors():
            count = sum(1 for p in succ.preds if p is block)
            expected = sum(1 for s in block.successors() if s is succ)
            if count != expected:
                raise IRError(
                    "edge B%d->B%d recorded %d times in preds, %d in succs"
                    % (block.id, succ.id, count, expected)
                )
        for pred in block.preds:
            if block not in pred.successors():
                raise IRError(
                    "B%d lists pred B%d, which does not target it"
                    % (block.id, pred.id)
                )


def _check_use_def(graph):
    for block in graph.blocks:
        for node in block.all_nodes():
            for input_node in node.inputs:
                if input_node is None:
                    continue
                if node not in input_node.uses:
                    raise IRError(
                        "%r uses %r but is not in its use set"
                        % (node, input_node)
                    )
            for user in node.uses:
                if node not in user.inputs:
                    raise IRError(
                        "%r lists user %r that does not input it"
                        % (node, user)
                    )


def _check_dominance(graph, reachable):
    idom = compute_dominators(graph)
    positions = {}
    for block in graph.blocks:
        for index, node in enumerate(block.all_nodes()):
            positions[node] = index

    def defined_ok(def_node, use_node, use_block, use_is_phi_input, pred):
        def_block = def_node.block
        if def_block is None:  # parameters float above the entry
            return True
        if def_block not in reachable:
            return use_block not in reachable
        if use_is_phi_input:
            return dominates(idom, def_block, pred)
        if def_block is use_block:
            if isinstance(use_node, n.PhiNode):
                return False  # non-edge phi use in same block
            return positions[def_node] < positions[use_node]
        return dominates(idom, def_block, use_block)

    for block in graph.blocks:
        if block not in reachable:
            continue
        for phi in block.phis:
            for index, input_node in enumerate(phi.inputs):
                if input_node is None:
                    continue
                pred = block.preds[index]
                if pred not in reachable:
                    continue
                if not defined_ok(input_node, phi, block, True, pred):
                    raise IRError(
                        "phi input %r does not dominate pred B%d of B%d"
                        % (input_node, pred.id, block.id)
                    )
        for node in block.instrs:
            for index, input_node in enumerate(node.inputs):
                if input_node is None:
                    # Frame-state inputs may be null: a local undefined
                    # along the executed path materializes as NULL at
                    # deopt. Everywhere else a null input is a bug.
                    start = _frame_state_start(node)
                    if start is None or index < start:
                        raise IRError("%r has a null input" % (node,))
                    continue
                if not defined_ok(input_node, node, block, False, None):
                    raise IRError(
                        "def %r does not dominate use %r" % (input_node, node)
                    )
        term = block.terminator
        if term is not None:
            for input_node in term.inputs:
                if input_node is None:
                    if not isinstance(term, n.DeoptNode):
                        raise IRError("%r has a null input" % (term,))
                    continue
                if not defined_ok(input_node, term, block, False, None):
                    raise IRError(
                        "def %r does not dominate terminator use %r"
                        % (input_node, term)
                    )
