"""Hypothesis-generated control-flow graphs, shared by the tests of the
CFG analyses and of the py tier's structurer.

:func:`cfg_specs` draws a CFG as plain data and :func:`build_cfg` turns
it into an IR graph; the three named specs are shapes every property
run should include.
"""

from hypothesis import strategies as hst

from repro.bytecode import Op
from repro.ir import nodes as n
from repro.ir import stamps as stm
from repro.ir.graph import Graph

_OPS = [Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.XOR, Op.DIV]


@hst.composite
def cfg_specs(draw):
    """A CFG as data: per block, (successors, body, condition, phis).

    Successors are drawn from every block, so self-loops, edges back to
    the entry, blocks nothing reaches and two-entry (irreducible) loops
    all occur. Bodies are binary ops over a value pool (two params and
    three entry constants, which dominate every reachable block) plus
    the block's earlier values; phis take pool values, and two phis
    with one offset are duplicates for GVN to merge.
    """
    count = draw(hst.integers(1, 8))
    blocks = []
    for _ in range(count):
        targets = draw(hst.lists(hst.integers(0, count - 1), max_size=2))
        body = draw(
            hst.lists(
                hst.tuples(
                    hst.sampled_from(_OPS), hst.integers(0, 7), hst.integers(0, 7)
                ),
                max_size=4,
            )
        )
        condition = draw(hst.integers(0, 7))
        phis = draw(hst.lists(hst.integers(0, 4), max_size=2))
        blocks.append((targets, body, condition, phis))
    return blocks


def build_cfg(spec):
    graph = Graph(None, "cfg")
    pool = [graph.add_param(stm.int_stamp()) for _ in range(2)]
    blocks = [graph.new_block() for _ in spec]
    for value in (0, 1, 2):
        pool.append(blocks[0].append(graph.register(n.ConstIntNode(value))))
    for block, (targets, body, condition, _) in zip(blocks, spec):
        local = list(pool)
        for op, a, b in body:
            node = n.BinOpNode(op, local[a % len(local)], local[b % len(local)])
            local.append(block.append(graph.register(node)))
        if not targets:
            term = n.ReturnNode(local[-1])
        elif len(targets) == 1:
            term = n.GotoNode(blocks[targets[0]])
        else:
            test = n.CompareNode(Op.LT, local[condition % len(local)], pool[0])
            block.append(graph.register(test))
            term = n.IfNode(test, blocks[targets[0]], blocks[targets[1]])
        block.set_terminator(graph.register(term))
    graph.recompute_preds()
    for block, (_, _, _, phis) in zip(blocks, spec):
        if len(block.preds) < 2:
            continue
        for offset in phis:
            inputs = [pool[(offset + i) % len(pool)] for i in range(len(block.preds))]
            block.add_phi(graph.register(n.PhiNode(inputs, stm.int_stamp())))
    return graph


#: A self-loop on B1.
SELF_LOOP = [([1], [], 0, []), ([1, 2], [(Op.ADD, 0, 1)], 0, [0, 0]), ([], [], 0, [])]
#: B1 is unreachable and jumps back to the entry.
UNREACHABLE = [([2], [], 0, []), ([0], [(Op.ADD, 0, 3)], 0, []), ([], [], 0, [])]
#: B1 and B2 form a cycle entered at both blocks.
IRREDUCIBLE = [
    ([1, 2], [(Op.MUL, 0, 1)], 0, []),
    ([2], [(Op.MUL, 0, 1)], 0, [1]),
    ([1, 3], [(Op.MUL, 1, 0)], 0, [2, 2]),
    ([], [], 0, []),
]
