"""Differential and invariant tests for ``Graph.copy``.

``Graph.copy`` is slot-based: it skips node constructors. Its oracle
is the constructor-based copy it replaced, kept below as
:func:`_copy_reference`. Their contract is structural identity — same
node ids, classes, inputs, stamps, use lists, block ids, frequencies,
predecessor order and invoke metadata — checked here by fingerprinting
both clones of the same graph (and end to end, with the other compile
oracles, in ``tests/test_compile_oracles.py``). The remaining tests pin
the invariants any copy must keep: node_map totality, metadata
preservation, and full independence of the clone from its source.
"""

import pytest

from repro.errors import IRError
from repro.interp import Interpreter
from repro.interp.profiles import ProfileStore
from repro.ir import build_graph
from repro.ir import nodes as n
from repro.ir.frequency import annotate_frequencies
from repro.ir.graph import Graph, _copy_node
from repro.runtime import VMState
from tests.helpers import shapes_program


# ----------------------------------------------------------------------
# The oracle: the constructor-based copy (install as ``Graph.copy``)
# ----------------------------------------------------------------------


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


def _profiled_graph(method_name="run", class_name="Main"):
    """A graph with real profile metadata: branch probabilities,
    frequencies and receiver snapshots from an interpreted run."""
    program = shapes_program()
    profiles = ProfileStore()
    interp = Interpreter(VMState(program), profiles=profiles)
    interp.execute(program.lookup_method("Main", "run"), [])
    graph = build_graph(
        program.lookup_method(class_name, method_name), program, profiles
    )
    annotate_frequencies(graph)
    return graph


def _node_fingerprint(node):
    entry = (
        node.id,
        type(node).__name__,
        tuple(x.id if x is not None else None for x in node.inputs),
        node.block.id if node.block is not None else None,
        node.stamp._key() if node.stamp is not None else None,
        tuple(sorted(use.id for use in node.uses)),
    )
    if isinstance(node, n.InvokeNode):
        entry += (
            node.kind,
            node.declared_class,
            node.method_name,
            node.target.qualified_name if node.target is not None else None,
            tuple(node.receiver_types),
            node.megamorphic,
            node.bci,
            node.frequency,
        )
    if isinstance(node, n.IfNode):
        entry += (
            node.true_block.id,
            node.false_block.id,
            node.probability,
        )
    if isinstance(node, n.GotoNode):
        entry += (node.target.id,)
    return entry


def _fingerprint(graph):
    return {
        "nodes": [_node_fingerprint(node) for node in graph.all_nodes()],
        "blocks": [
            (
                block.id,
                block.frequency,
                tuple(p.id for p in block.preds),
                len(block.phis),
                len(block.instrs),
            )
            for block in graph.blocks
        ],
        "params": [p.id for p in graph.params],
    }


# ----------------------------------------------------------------------
# Graph.copy == reference copy
# ----------------------------------------------------------------------


GRAPHS = ["run", "total", "area_square"]


def _graph_for(name):
    if name == "run":
        return _profiled_graph("run")
    if name == "total":
        return _profiled_graph("total")
    return _profiled_graph("area", "Square")


@pytest.mark.parametrize("name", GRAPHS)
def test_fast_copy_matches_reference(name):
    graph = _graph_for(name)
    fast, fast_map = graph.copy()
    reference, ref_map = _copy_reference(graph)
    assert _fingerprint(fast) == _fingerprint(reference)
    # And both match the numbering contract against the source.
    assert set(fast_map) == set(ref_map)
    for node in fast_map:
        assert fast_map[node].id == ref_map[node].id


def _inlined_graph(optimize=False):
    program = shapes_program()
    profiles = ProfileStore()
    interp = Interpreter(VMState(program), profiles=profiles)
    interp.execute(program.lookup_method("Main", "run"), [])
    graph = build_graph(
        program.lookup_method("Main", "run"), program, profiles
    )
    annotate_frequencies(graph)
    invokes = [iv for iv in graph.invokes() if iv.kind == "static"]
    assert invokes
    callee = build_graph(program.lookup_method("Main", "total"), program)
    graph.inline_call(invokes[0], callee)
    annotate_frequencies(graph)
    if optimize:
        from repro.jit.config import JitConfig
        from repro.opts.pipeline import OptimizationPipeline

        OptimizationPipeline(program, JitConfig().optimizer).run(graph)
    return graph


def test_fast_copy_matches_reference_after_inline_and_optimize():
    # Inlined-then-optimized graphs have imported blocks, phis from
    # merges, and split blocks — the shape every real copy sees.
    graph = _inlined_graph(optimize=True)
    fast, _ = graph.copy()
    reference, _ = _copy_reference(graph)
    assert _fingerprint(fast) == _fingerprint(reference)


def test_fast_copy_handles_raw_post_inline_block_order():
    # Straight after inline_call the continuation block precedes the
    # imported callee blocks in the block list, so some inputs appear
    # *after* their users in iteration order. Graph.copy must wire
    # them via its deferred pass (the reference copy cannot copy this
    # shape; the system only copies after the pipeline normalizes it).
    graph = _inlined_graph(optimize=False)
    clone, node_map = graph.copy()
    originals = list(graph.all_nodes())
    assert set(node_map) == set(originals)
    for original in originals:
        copied = node_map[original]
        assert type(copied) is type(original)
        assert [node_map[x] if x is not None else None
                for x in original.inputs] == copied.inputs
        assert {node_map[u] for u in original.uses
                if u in node_map} <= copied.uses
    # Clone uses contain exactly the mapped users (no extras).
    for original in originals:
        copied = node_map[original]
        assert len(copied.uses) == len(
            {node_map[u] for u in original.uses if u in node_map}
        )


# ----------------------------------------------------------------------
# node_map totality and metadata preservation
# ----------------------------------------------------------------------


def test_node_map_is_total():
    graph = _profiled_graph()
    clone, node_map = graph.copy()
    originals = list(graph.all_nodes())
    assert set(node_map.keys()) == set(originals)
    clones = set(clone.all_nodes())
    for original in originals:
        assert node_map[original] in clones
    # The map is a bijection onto the clone's nodes.
    assert len({id(v) for v in node_map.values()}) == len(originals)
    assert len(clones) == len(originals)


def test_metadata_preserved():
    graph = _profiled_graph()
    clone, node_map = graph.copy()
    for original, copied in node_map.items():
        assert type(copied) is type(original)
        if original.stamp is None:
            assert copied.stamp is None
        else:
            assert copied.stamp._key() == original.stamp._key()
        if isinstance(original, n.InvokeNode):
            assert copied.kind == original.kind
            assert copied.target is original.target
            assert copied.receiver_types == original.receiver_types
            assert copied.receiver_types is not original.receiver_types
            assert copied.bci == original.bci
            assert copied.frequency == original.frequency
        if isinstance(original, n.IfNode):
            assert copied.probability == original.probability
    for src_block, dst_block in zip(graph.blocks, clone.blocks):
        assert dst_block.frequency == src_block.frequency


def test_copy_is_independent():
    graph = _profiled_graph()
    clone, node_map = graph.copy()
    before = _fingerprint(graph)

    # Mutate the clone heavily: rewire uses, change metadata, drop
    # instructions.
    for invoke in clone.invokes():
        invoke.frequency = -1.0
        invoke.receiver_types.append(("Poisoned", 1.0))
    for block in clone.blocks:
        block.frequency = -5.0
        if block.instrs:
            victim = block.instrs[-1]
            if not victim.uses:
                for x in victim.inputs:
                    x.uses.discard(victim)
                block.instrs.pop()
            break

    assert _fingerprint(graph) == before


def test_copy_ids_do_not_alias_source():
    # Fresh node ids in the clone continue from the clone's own
    # counter, never from the source graph's.
    graph = _profiled_graph()
    clone, _ = graph.copy()
    new_block = clone.new_block()
    assert new_block.id == len(graph.blocks)
    assert all(new_block.id != b.id for b in clone.blocks[:-1])
