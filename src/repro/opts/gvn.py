"""Dominator-scoped global value numbering.

Deduplicates computations with identical
:meth:`~repro.ir.nodes.Node.value_number_key` along dominator-tree
paths, the standard scoped-hash-table formulation. Only nodes that
expose a key participate (pure arithmetic, comparisons, type tests,
casts, array lengths); memory reads are handled by
:mod:`repro.opts.rwelim` instead, since their validity depends on kills.
"""

from repro.ir.dominators import compute_dominators


def global_value_numbering(graph):
    """Run GVN over *graph*; returns the number of nodes eliminated."""
    order = graph.reverse_postorder()
    if not order:
        return 0
    idom = compute_dominators(graph, order)
    children = {block: [] for block in order}
    for block in order:
        parent = idom.get(block)
        if parent is not None and parent is not block:
            children[parent].append(block)

    eliminated = 0
    # One table for the whole dominator-tree walk: a block's entries
    # shadow its dominators' and are rolled back from the block's undo
    # log on the way out, so a lookup is one dict probe.
    table = {}

    def process(block):
        nonlocal eliminated
        undo = []
        # Phis first: two phis in one block with identical inputs merge.
        seen_phis = {}
        for phi in list(block.phis):
            key = ("phi", tuple(id(i) for i in phi.inputs))
            existing = seen_phis.get(key)
            if existing is not None:
                graph.replace_uses(phi, existing)
                phi.clear_inputs()
                block.phis.remove(phi)
                phi.block = None
                eliminated += 1
            else:
                seen_phis[key] = phi
        for node in list(block.instrs):
            key = node.value_number_key()
            if key is None:
                continue
            existing = table.get(key)
            if existing is not None and existing.block is not None:
                graph.replace_uses(node, existing)
                node.clear_inputs()
                block.instrs.remove(node)
                node.block = None
                eliminated += 1
            else:
                undo.append((key, existing))
                table[key] = node
        for child in children.get(block, ()):
            process(child)
        for key, previous in reversed(undo):
            if previous is None:
                del table[key]
            else:
                table[key] = previous

    process(order[0])
    return eliminated
