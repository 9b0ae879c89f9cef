"""Dominator tree and natural-loop discovery.

Implements the Cooper–Harvey–Kennedy iterative dominator algorithm on
the reverse postorder, and natural-loop detection from backedges. The
loop structure feeds the frequency annotation (loop trip counts scale
callsite frequencies f(n)) and the loop-peeling optimization.
"""


def compute_dominators(graph, order=None):
    """Return ``{block: immediate_dominator}``; the entry maps to itself.

    *order* is the graph's reverse postorder, for callers that already
    have it; it is computed when omitted.
    """
    if order is None:
        order = graph.reverse_postorder()
    index_of = {block: i for i, block in enumerate(order)}
    idom = {order[0]: order[0]}

    def intersect(a, b):
        while a is not b:
            while index_of[a] > index_of[b]:
                a = idom[a]
            while index_of[b] > index_of[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for block in order[1:]:
            new_idom = None
            for pred in block.preds:
                if pred in idom and pred in index_of:
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = intersect(pred, new_idom)
            if new_idom is not None and idom.get(block) is not new_idom:
                idom[block] = new_idom
                changed = True
    return idom


def dominates(idom, a, b):
    """True if *a* dominates *b* under the idom map (reflexive)."""
    while True:
        if a is b:
            return True
        parent = idom.get(b)
        if parent is None or parent is b:
            return a is b
        b = parent


class Loop:
    """One natural loop: header, member blocks, backedge predecessors."""

    __slots__ = ("header", "blocks", "backedge_preds", "parent", "frequency")

    def __init__(self, header):
        self.header = header
        self.blocks = {header}
        self.backedge_preds = []
        self.parent = None
        self.frequency = 1.0

    @property
    def depth(self):
        depth = 1
        loop = self.parent
        while loop is not None:
            depth += 1
            loop = loop.parent
        return depth

    def __repr__(self):
        return "<Loop header=B%d, %d blocks>" % (self.header.id, len(self.blocks))


def compute_loops(graph, idom=None, order=None):
    """Find natural loops; returns them innermost-first.

    Two backedges to the same header merge into one loop. Nesting is
    recorded via :attr:`Loop.parent`. *idom* and *order* (the reverse
    postorder) are the caller's, when it already has them.
    """
    if order is None:
        order = graph.reverse_postorder()
    if idom is None:
        idom = compute_dominators(graph, order)
    index_of = {block: i for i, block in enumerate(order)}
    loops_by_header = {}
    for position, block in enumerate(order):
        for succ in block.successors():
            # A dominator precedes the block it dominates in reverse
            # postorder: only an edge to an earlier (or the same)
            # reachable block can be a backedge.
            earlier = index_of.get(succ, position + 1) <= position
            if earlier and dominates(idom, succ, block):
                loop = loops_by_header.get(succ)
                if loop is None:
                    loop = loops_by_header[succ] = Loop(succ)
                loop.backedge_preds.append(block)
                _collect_loop_body(loop, block, index_of)
    loops = list(loops_by_header.values())
    # Establish nesting: a loop's parent is the smallest strictly
    # containing loop.
    for loop in loops:
        best = None
        for other in loops:
            if other is loop:
                continue
            if loop.header in other.blocks and loop.blocks <= other.blocks:
                if best is None or len(other.blocks) < len(best.blocks):
                    best = other
        loop.parent = best
    loops.sort(key=lambda l: -l.depth)
    return loops


def _collect_loop_body(loop, backedge_pred, reachable):
    """Blocks that reach the backedge without passing the header."""
    work = [backedge_pred]
    while work:
        block = work.pop()
        if block in loop.blocks or block not in reachable:
            continue
        loop.blocks.add(block)
        work.extend(block.preds)
