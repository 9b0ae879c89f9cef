"""Dead code elimination: unreachable blocks, dead nodes, block merging.

Branch pruning in the canonicalizer only rewrites terminators; the
passes here do the follow-up structural cleanup. Node deletion is what
produces the paper's *D-tagged* call-tree nodes ("there was a callsite,
but it was deleted by an optimization", §III-A): when a pruned branch
made an invoke unreachable, the corresponding call-tree child is marked
deleted by the expansion bookkeeping.
"""

from repro.ir import nodes as n


def remove_unreachable_blocks(graph):
    """Drop blocks unreachable from the entry; returns removed count."""
    reachable = graph.reachable_blocks()
    dead = [block for block in graph.blocks if block not in reachable]
    if not dead:
        return 0
    # First sever edges from dead blocks into live ones (fixing phis).
    for block in dead:
        for succ in list(block.successors()):
            if succ in reachable:
                while block in succ.preds:
                    succ.remove_pred_edge(block)
    # Then drop the dead nodes' def-use links.
    for block in dead:
        for node in list(block.all_nodes()):
            node.clear_inputs()
        for node in list(block.all_nodes()):
            for user in list(node.uses):
                # Live users of dead defs can only be phis whose
                # corresponding edge was just removed, or other dead
                # nodes; sever whatever is left.
                user.replace_input(node, None)
            node.uses.clear()
            node.block = None
        block.phis = []
        block.instrs = []
        block.terminator = None
    graph.blocks = [b for b in graph.blocks if b in reachable]
    return len(dead)


def remove_dead_nodes(graph):
    """Remove pure nodes (and safe allocations) with no uses."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for block in graph.blocks:
            for node in list(block.instrs):
                if node.uses:
                    continue
                if not _removable(node):
                    continue
                node.clear_inputs()
                block.instrs.remove(node)
                node.block = None
                removed += 1
                changed = True
            for phi in list(block.phis):
                if not phi.uses or phi.uses == {phi}:
                    phi.clear_inputs()
                    block.phis.remove(phi)
                    phi.block = None
                    removed += 1
                    changed = True
    return removed


def _removable(node):
    if node.is_pure:
        return True
    if isinstance(node, n.NewNode):
        return True  # allocation of an unused object is unobservable
    if isinstance(node, n.NewArrayNode):
        length = node.inputs[0].stamp.const
        return length is not None and length >= 0
    return False


def merge_blocks(graph):
    """Merge straight-line block pairs (A→goto→B with B's only pred A)."""
    merged = 0
    changed = True
    while changed:
        changed = False
        for block in list(graph.blocks):
            term = block.terminator
            if not isinstance(term, n.GotoNode):
                continue
            succ = term.target
            if succ is block or len(succ.preds) != 1 or succ.preds[0] is not block:
                continue
            if succ is graph.entry:
                continue
            # Splice: phis in succ have exactly one input.
            for phi in list(succ.phis):
                value = phi.inputs[0]
                graph.replace_uses(phi, value)
                phi.clear_inputs()
                phi.block = None
            succ.phis = []
            term.clear_inputs()
            block.instrs.extend(succ.instrs)
            for node in succ.instrs:
                node.block = block
            block.set_terminator(succ.terminator)
            for nxt in succ.terminator.successors() if succ.terminator else ():
                for index, pred in enumerate(nxt.preds):
                    if pred is succ:
                        nxt.preds[index] = block
            succ.instrs = []
            succ.terminator = None
            succ.preds = []
            graph.blocks.remove(succ)
            merged += 1
            changed = True
    return merged
