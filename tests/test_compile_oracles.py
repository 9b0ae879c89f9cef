"""The compile fast paths against all three of their oracles at once.

``Graph.copy`` (slot-based), the expansion phase's ``PriorityCache``
and the per-compilation ``TrialMemo`` are each the only implementation
the VM ships. Their old forms are test-local oracles: the
constructor-based copy (``tests/test_ir_graph_copy.py``), the uncached
Eq. 5–7 priorities (``tests/test_priority_cache.py``) and a compiler
with its memo detached. Each mechanism is checked against its own
oracle in those files; here two programs run through the shipped paths
and again with all three oracles applied together, and iteration
values, per-iteration cycles, interpreted op counts and printed output
must be identical.
"""

import collections

import pytest

import repro.core.expansion as expansion_mod
from repro.baselines import tuned_inliner
from repro.bench.suite import get_benchmark
from repro.ir.graph import Graph
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from tests.test_ir_graph_copy import _copy_reference
from tests.test_priority_cache import UncachedPriorities

#: name -> (config factory, iterations).
WORKLOADS = {
    # Compilation-dominated: every method compiles on its second call,
    # and the tuned inliner explores deep call trees.
    "kiama": (
        lambda: JitConfig(hot_threshold=2, interp_predecode=False), 6
    ),
    # The default tiered configuration.
    "jython": (JitConfig, 4),
}


def _run(name, memo=True):
    make_config, iterations = WORKLOADS[name]
    engine = Engine(
        get_benchmark(name).load(),
        make_config(),
        inliner=tuned_inliner(0.1),
        seed=0x5EED,
    )
    if not memo:
        engine.compiler.context.trial_memo = None
    values, cycles = [], []
    for _ in range(iterations):
        result = engine.run_iteration("Main", "run")
        values.append(result.value)
        cycles.append(result.total_cycles)
    observed = (
        values,
        cycles,
        engine.interpreter.ops_executed,
        list(engine.vm.output),
    )
    return observed, engine


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shipped_paths_match_all_oracles(monkeypatch, name):
    shipped, engine = _run(name)
    assert engine.compilation_count > 0
    memo_hits = engine.compiler.context.trial_memo.hits

    calls = collections.Counter()

    def reference_copy(graph):
        calls["copy"] += 1
        return _copy_reference(graph)

    class CountedPriorities(UncachedPriorities):
        def __init__(self, params):
            calls["priorities"] += 1
            super().__init__(params)

    monkeypatch.setattr(Graph, "copy", reference_copy)
    monkeypatch.setattr(expansion_mod, "PriorityCache", CountedPriorities)
    oracle, _ = _run(name, memo=False)
    assert calls["priorities"] > 0
    assert oracle == shipped

    # Only the trial memo calls Graph.copy, so the run above took no
    # copies. With the memo attached, the memo copies through the
    # reference copy instead.
    calls.clear()
    copied, _ = _run(name)
    assert calls["copy"] > 0 or memo_hits == 0
    assert copied == shipped
