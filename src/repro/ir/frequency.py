"""Relative block and callsite frequency annotation.

The paper's local benefit (Eq. 4) multiplies by the callsite's
execution frequency f(n) relative to the compilation root. Graal derives
those frequencies from profiled branch probabilities and loop counts;
this module does the same over our IR:

1. natural loops get a *loop frequency* — the expected trip count
   implied by the profiled probability mass flowing around backedges;
2. each block gets a relative frequency — probability-weighted flow
   from the entry, with loop headers scaled by their loop frequency;
3. each invoke inherits its block's frequency.

Loop frequencies are capped so that a profile claiming a never-exiting
loop cannot produce infinities (Graal caps similarly).
"""

from repro.ir.dominators import compute_loops
from repro.ir import nodes as n

#: Maximum trip-count estimate for a single loop.
MAX_LOOP_FREQUENCY = 10_000.0

#: Cap on a block's total relative frequency (product over loop nests).
MAX_BLOCK_FREQUENCY = 1e9


def annotate_frequencies(graph):
    """Set ``block.frequency`` for every block and ``invoke.frequency``
    for every call in *graph*; returns the computed loops list."""
    order = graph.reverse_postorder()
    if not order:
        return []
    loops = compute_loops(graph, order=order)
    backedges = set()
    header_of = {}
    for loop in loops:
        for pred in loop.backedge_preds:
            backedges.add((pred, loop.header))
    for loop in loops:  # innermost-first
        loop.frequency = _local_loop_frequency(loop, loops, backedges)
        header_of[loop.header] = loop

    freq = {block: 0.0 for block in order}
    freq[order[0]] = 1.0
    for block in order:
        if block is not order[0]:
            total = 0.0
            for pred in block.preds:
                if (pred, block) in backedges or pred not in freq:
                    continue
                total += freq.get(pred, 0.0) * _edge_probability(pred, block)
            freq[block] = total
        loop = header_of.get(block)
        if loop is not None:
            freq[block] *= loop.frequency
        if freq[block] > MAX_BLOCK_FREQUENCY:
            freq[block] = MAX_BLOCK_FREQUENCY

    for block in order:
        block.frequency = freq[block]
        for node in block.instrs:
            if isinstance(node, n.InvokeNode):
                node.frequency = block.frequency
    # Unreachable blocks keep frequency 0 so nothing downstream counts them.
    for block in graph.blocks:
        if block not in freq:
            block.frequency = 0.0
            for node in block.instrs:
                if isinstance(node, n.InvokeNode):
                    node.frequency = 0.0
    return loops


def _edge_probability(pred, succ):
    """Probability that control leaving *pred* goes to *succ*."""
    term = pred.terminator
    if isinstance(term, n.IfNode):
        probability = 0.0
        if term.true_block is succ:
            probability += term.probability
        if term.false_block is succ:
            probability += 1.0 - term.probability
        return probability
    return 1.0


def _local_loop_frequency(loop, loops, backedges):
    """Expected trip count of *loop* from the backedge probability mass.

    Runs an acyclic probability propagation inside the loop body with
    the header seeded to 1; inner loops (already solved, since we go
    innermost-first) contribute their own frequency multiplicatively.
    """
    body = loop.blocks
    order = _loop_rpo(loop, backedges)
    local = {block: 0.0 for block in order}
    local[loop.header] = 1.0
    inner_headers = {
        other.header: other
        for other in loops
        if other is not loop and other.header in body and other.blocks <= body
    }
    for block in order:
        if block is not loop.header:
            total = 0.0
            for pred in block.preds:
                if pred not in local or (pred, block) in backedges:
                    continue
                total += local[pred] * _edge_probability(pred, block)
            local[block] = total
            inner = inner_headers.get(block)
            if inner is not None:
                local[block] *= inner.frequency
    mass = 0.0
    for pred in loop.backedge_preds:
        if pred in local:
            mass += local[pred] * _edge_probability(pred, loop.header)
    if mass >= 1.0:
        return MAX_LOOP_FREQUENCY
    frequency = 1.0 / (1.0 - mass)
    return min(frequency, MAX_LOOP_FREQUENCY)


def _loop_rpo(loop, backedges):
    """Reverse postorder restricted to the loop body, backedges cut."""
    seen = set()
    postorder = []

    def visit(start):
        stack = [(start, iter(_succs(start)))]
        seen.add(start)
        while stack:
            current, successors = stack[-1]
            advanced = False
            for succ in successors:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(_succs(succ))))
                    advanced = True
                    break
            if not advanced:
                postorder.append(current)
                stack.pop()

    def _succs(block):
        return [
            succ
            for succ in block.successors()
            if succ in loop.blocks and (block, succ) not in backedges
        ]

    visit(loop.header)
    return list(reversed(postorder))
