"""The expansion-phase priority cache must be invisible in results.

``PriorityCache`` memoizes subtree aggregates (s_irn, s_b, n_c,
ir_size) and priorities between call-tree mutations. Its contract is
bit-identical inlining decisions versus the uncached Eq. 5–7 module
functions, checked here end-to-end through the engine's cycle model
(with :class:`UncachedPriorities` swapped in for the cache) and
directly against the module functions on a live call tree.
"""

import repro.core.expansion as expansion_mod
import repro.core.priorities as priorities_mod
from repro.baselines import tuned_inliner
from repro.core.priorities import PriorityCache
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from tests.helpers import shapes_program


class UncachedPriorities:
    """The oracle: :class:`PriorityCache`'s surface, recomputing every
    value through the module functions. Install it as
    ``repro.core.expansion.PriorityCache``."""

    def __init__(self, params):
        self.params = params

    def invalidate(self):
        pass

    def ir_size(self, node):
        return node.ir_size()

    def s_irn(self, node):
        return node.s_irn()

    def intrinsic_priority(self, node):
        return priorities_mod.intrinsic_priority(node, self.params)

    def priority(self, node):
        return priorities_mod.priority(node, self.params)


def _run(program, iterations=8):
    engine = Engine(
        program,
        JitConfig(hot_threshold=5),
        inliner=tuned_inliner(0.1),
        seed=0x5EED,
    )
    curve = []
    value = None
    for _ in range(iterations):
        result = engine.run_iteration("Main", "run")
        curve.append(result.total_cycles)
        value = result.value
    return value, curve, engine


def test_cycle_model_identical_cache_on_off(monkeypatch):
    program = shapes_program()
    value_on, curve_on, engine_on = _run(program)
    monkeypatch.setattr(expansion_mod, "PriorityCache", UncachedPriorities)
    value_off, curve_off, engine_off = _run(program)
    assert value_on == value_off
    assert curve_on == curve_off
    assert engine_on.compilation_count == engine_off.compilation_count
    assert (
        engine_on.code_cache.total_size == engine_off.code_cache.total_size
    )


def test_cached_values_match_module_functions():
    # Build a real call tree (warm profiles, one expansion round so it
    # has expanded, cutoff, and generic nodes), then compare every
    # cached value against the uncached module functions.
    from repro.core.calltree import make_root
    from repro.core.expansion import ExpansionPhase
    from repro.core.inliner import InlineReport
    from repro.core.params import InlinerParams
    from repro.core.trials import discover_children

    program = shapes_program()
    _, _, engine = _run(program)
    context = engine.compiler.context
    method = program.lookup_method("Main", "run")
    graph = context.build_callee_graph(method)
    root = make_root(graph)
    params = InlinerParams()
    discover_children(root, context, params)
    ExpansionPhase(params).run(root, context, InlineReport())

    cache = PriorityCache(params)
    nodes = list(root.subtree())
    assert len(nodes) > 1
    for node in nodes:
        assert cache.ir_size(node) == node.ir_size()
        assert cache.s_irn(node) == node.s_irn()
        assert cache.priority(node) == priorities_mod.priority(node, params)
        assert cache.intrinsic_priority(node) == (
            priorities_mod.intrinsic_priority(node, params)
        )
    # A second read hits the memo and returns the same values.
    for node in nodes:
        assert cache.priority(node) == priorities_mod.priority(node, params)
