"""Linked compiled calls of shared-cache tenants.

A tenant engine with observability off links its compiled calls as a
private-cache engine does (``tests/test_runtime_linking.py``): a call of
installed code runs its binding from ``Engine._bindings`` and makes no
``TenantCacheView.get``. Each binding carries its cache entry, whose LRU
stamp the call ticks from the cache's one clock, as a ``get`` hit does,
and the call charges the entry penalty of the cache's global
``total_size``, which the other tenants move too. These tests pin that a
linked fleet is indistinguishable from an observed one (whose engines
keep ``Engine._dispatch``) in values, output, cycles, LRU stamps and
eviction victims; that a warm window makes no lookup; and that bindings
and stamps stay consistent while a compile worker installs and evicts
under two tenant threads.
"""

import collections
import sys
import threading

import pytest

from repro.backend.icache import ICacheModel
from repro.backend.machine import MachineExecutor
from repro.baselines import tuned_inliner
from repro.bench import get_benchmark
from repro.jit.codecache import SharedCodeCache, TenantCacheView
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.obs import Observability
from repro.serve import ServiceConfig, TenantSpec, VMService
from tests.test_runtime_linking import _assert_bindings_match_cache, _counting

#: One machine tenant and one py tenant. Over a 500-unit cache they
#: evict each other's code, and with a 150-unit icache each call pays a
#: penalty that moves with either tenant's installs and evictions.
TENANTS = (("avrora", "machine"), ("fop", "py"))
ITERATIONS = 3


def _stamps(cache):
    """Every entry of *cache* with its LRU stamp."""
    return sorted(
        (entry.tenant, entry.method.qualified_name, entry.osr_bci or -1,
         entry.tick)
        for shard in cache._shards
        for entry in shard.values()
    )


def _fleet(mode, policy="lru", obs=None, workers=0):
    service = VMService(ServiceConfig(
        cache_budget=500, eviction_policy=policy, compile_mode=mode,
        compile_workers=workers, hot_threshold=5,
    ), obs=obs)
    tenants = [
        service.admit(TenantSpec(
            name="%s-%s" % (name, backend), benchmark=name,
            iterations=ITERATIONS, inliner=lambda: tuned_inliner(0.1),
            jit={
                "backend": backend,
                "icache": ICacheModel(capacity=150, penalty=40),
            },
        ))
        for name, backend in TENANTS
    ]
    return service, tenants


def _run_stepped(mode, policy, obs=None):
    """Run the fleet one iteration per tenant in turn, draining the
    worker-less compile queue after each; returns the per-iteration
    trail, the run's eviction record and the tenants."""
    service, tenants = _fleet(mode, policy, obs)
    cache = service.cache
    victims = []
    evict_entry = cache._evict_entry

    def recorded(victim):
        victims.append(
            (victim.tenant, victim.method.qualified_name, victim.osr_bci)
        )
        return evict_entry(victim)

    cache._evict_entry = recorded
    trail = []
    try:
        for _ in range(ITERATIONS):
            for tenant in tenants:
                engine = tenant.engine
                result = engine.run_iteration(*tenant.spec.entry)
                engine.drain_compiles()
                trail.append((
                    tenant.name, result.value, tuple(engine.vm.output),
                    result.total_cycles, result.compiled_cycles,
                    result.icache_cycles, _stamps(cache),
                ))
    finally:
        service.shutdown()
    evictions = (
        victims, cache.eviction_count,
        [cache.reinstalls_after_evict(t.tenant_id) for t in tenants],
    )
    return trail, evictions, tenants


@pytest.mark.parametrize("policy", ["lru", "hotness"])
@pytest.mark.parametrize("mode", ["sync", "async"])
def test_linked_fleet_matches_an_observed_fleet(mode, policy):
    """Per iteration, the value, output, cycles, icache cycles and every
    entry's LRU stamp; per run, the eviction victims in order, the
    eviction count and the reinstalls after eviction: a linked fleet's
    equal an observed fleet's."""
    trail, evictions, tenants = _run_stepped(mode, policy)
    observed = _run_stepped(mode, policy, Observability())
    assert all(t.engine._linked for t in tenants)
    assert not any(t.engine._linked for t in observed[2])
    assert trail == observed[0]
    assert evictions == observed[1]
    # The fleet runs what the comparison is about: policy evictions,
    # linked calls on both tiers, and a penalty that moves.
    assert evictions[1] > 0
    machine, py = (t.engine for t in tenants)
    assert machine.compiled_cycles > 0 and machine.py_exec_count == 0
    assert py.py_exec_count > 0
    assert len({row[5] for row in trail}) > 2
    for engine in (machine, py):
        _assert_bindings_match_cache(engine)


def _warm_config(backend):
    return JitConfig(
        hot_threshold=25, interp_predecode=True, backend=backend,
        compile_mode="sync", speculate=False, typespec=False, osr=False,
        icache=ICacheModel(capacity=500, penalty=40),
    )


@pytest.mark.parametrize("backend", ["machine", "py"])
def test_warm_shared_window_makes_no_lookup(monkeypatch, backend):
    """Two warm tenants of one shared cache run every compiled call
    from their bindings: no ``SharedCodeCache._get``,
    ``TenantCacheView.get``, ``Engine._dispatch`` or ``Engine._execute``
    call, and no ``entry_penalty`` call while the total stays put,
    although every call pays a penalty."""
    counts = collections.Counter()
    window = [False]
    for owner, attr in (
        (SharedCodeCache, "_get"), (TenantCacheView, "get"),
        (Engine, "_dispatch"), (Engine, "_execute"),
        (ICacheModel, "entry_penalty"), (MachineExecutor, "execute"),
    ):
        _counting(monkeypatch, counts, window, owner, attr)
    cache = SharedCodeCache()
    engines = [
        Engine(
            get_benchmark(name).load(), _warm_config(backend),
            tuned_inliner(0.1), code_cache=cache.view(index),
        )
        for index, name in enumerate(("xalan", "fop"))
    ]
    for _ in range(30):
        for engine in engines:
            engine.run_iteration("Main")
    before = [
        (e.interpreter.ops_executed, e.icache_cycles, e.py_exec_count)
        for e in engines
    ]
    total = cache.total_size
    window[0] = True
    for _ in range(5):
        for engine in engines:
            engine.run_iteration("Main")
    window[0] = False
    assert cache.total_size == total
    for engine, (ops, icache, execs) in zip(engines, before):
        assert engine._linked and engine._shared is cache
        assert engine.interpreter.ops_executed == ops
        assert engine.icache_cycles > icache
        if backend == "py":
            assert engine.py_exec_count - execs > 100
    if backend == "machine":
        assert counts.pop("execute") > 100
    assert counts == {}


def test_tenant_threads_keep_bindings_and_stamps_with_a_worker():
    """Two tenant threads over one shared cache while a compile worker
    installs and evicts, with a tiny switch interval: no exception
    escapes any thread, each tenant computes what it computes alone,
    each binding is paired with its key's live entry, and no two
    entries share a stamp."""
    _, alone = _fleet("sync")
    for tenant in alone:
        tenant.run_workload()
    service, tenants = _fleet("async", workers=1)
    escaped = []
    old_hook = threading.excepthook
    threading.excepthook = escaped.append
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=tenant.run_workload, daemon=True)
            for tenant in tenants
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        for tenant in tenants:
            assert tenant.engine.drain_compiles(timeout=30)
    finally:
        sys.setswitchinterval(old_interval)
        threading.excepthook = old_hook
        service.shutdown()
    assert escaped == []
    assert [(t.state, t.error) for t in tenants] == [("done", None)] * 2
    assert service.cache.eviction_count > 0
    for tenant, reference in zip(tenants, alone):
        assert tenant.outcomes == reference.outcomes
        assert tenant.output == reference.output
        _assert_bindings_match_cache(tenant.engine)
    ticks = [stamp[-1] for stamp in _stamps(service.cache)]
    assert len(set(ticks)) == len(ticks)
