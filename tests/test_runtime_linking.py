"""Runtime linking of compiled calls.

Each generated py closure resolves its static fields, type-test types
and virtual method names once, when the engine binds it. An engine with
observability off, on either backend and either cache, dispatches a
call of installed code straight to the callee's binding (its closure,
or its machine code), skipping the cache lookup
(``tests/test_serve_linking.py`` covers the shared cache's LRU stamps). These
tests pin the mechanism (the steady state makes no resolution call and
no cache lookup), its failure edges (an unresolvable name raises the
machine tier's ``LinkError`` at the access and caches nothing), its
invalidation (bindings live exactly as long as their cache entries)
and its invisibility (values, cycles and metrics equal an unlinked
engine's).
"""

import collections
import pickle
import sys

import pytest

from repro.backend.icache import ICacheModel
from repro.backend.machine import MachineExecutor
from repro.baselines import tuned_inliner
from repro.bench import get_benchmark
from repro.bytecode import MethodBuilder, Program
from repro.bytecode.klass import FieldDef
from repro.errors import LinkError
from repro.jit.codecache import CodeCache, SharedCodeCache
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.obs import Observability
from repro.runtime import VMState
from repro.serve import ServiceConfig, TenantSpec, VMService
from tests.helpers import fresh_program, shapes_program
from tests.test_deopt import flip_program, speculative_engine


def _steady_config(backend="py"):
    return JitConfig(
        hot_threshold=25, interp_predecode=True, backend=backend,
        compile_mode="sync", speculate=False, typespec=False, osr=False,
    )


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except LinkError as error:
        return ("LinkError", str(error))


def _entries(view):
    """The shared-cache entries of *view*'s tenant, by engine-side key."""
    return {
        entry.key: entry
        for shard in view.shared._shards
        for entry in shard.values()
        if entry.tenant == view.tenant
    }


def _installed(engine):
    """*engine*'s cache as ``{key: code}``: methods, and ``(method,
    bci)`` for OSR continuations."""
    cache = engine.code_cache
    if isinstance(cache, CodeCache):
        return dict(cache._code)
    return {key: entry.code for key, entry in _entries(cache).items()}


def _assert_bindings_match_cache(engine):
    """One binding per installed code with something to bind: on a py
    engine each is that code's closure (it shares the generated
    module's globals), on a machine engine the code itself. A linking
    tenant of a shared cache pairs each with its live entry."""
    py = engine.backend == "py"
    installed = {
        key: code for key, code in _installed(engine).items()
        if not py or code.py_factory is not None
    }
    assert set(engine._bindings) == set(installed)
    entries = (
        _entries(engine.code_cache) if engine._shared is not None else None
    )
    for key, binding in engine._bindings.items():
        if entries is not None:
            binding, entry = binding
            assert entry is entries[key]
        if py:
            assert binding.__globals__ is (
                installed[key].py_factory.__globals__
            )
        else:
            assert binding is installed[key]


# ----------------------------------------------------------------------
# The mechanism: no resolution call in the steady state
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["xalan", "scaladoc"])
def test_steady_window_makes_no_resolution_calls(monkeypatch, name):
    """After warm-up, generated code makes no ``get_static``,
    ``is_subtype`` or ``resolve_method`` call, and no linked call goes
    through ``CodeCache.get``."""
    generated = {"get_static": 0, "is_subtype": 0, "resolve_method": 0}
    lookups = []
    window = [False]

    def count_generated(owner, attr):
        original = getattr(owner, attr)

        def counted(*args):
            if sys._getframe(1).f_code.co_filename.startswith("<pycodegen:"):
                generated[attr] += 1
            return original(*args)

        monkeypatch.setattr(owner, attr, counted)

    count_generated(VMState, "get_static")
    count_generated(Program, "is_subtype")
    count_generated(Program, "resolve_method")
    cache_get = CodeCache.get

    def counted_get(self, method):
        if window[0]:
            lookups.append(method)
        return cache_get(self, method)

    monkeypatch.setattr(CodeCache, "get", counted_get)
    engine = Engine(
        get_benchmark(name).load(), _steady_config(), tuned_inliner(0.1)
    )
    for _ in range(30):
        engine.run_iteration("Main")
    # The window runs generated code only, and that code has sites of
    # every kind this test counts.
    source = "".join(
        engine.code_cache.get(method).py_source or ""
        for method in engine.code_cache.installed_methods()
    )
    for kind in ("static_slot", "subtype_row", "dispatch_row"):
        assert kind in source
    ops, execs = engine.interpreter.ops_executed, engine.py_exec_count
    for key in generated:
        generated[key] = 0
    window[0] = True
    for _ in range(10):
        engine.run_iteration("Main")
    window[0] = False
    assert engine.interpreter.ops_executed == ops
    assert engine.py_exec_count - execs > 100
    assert generated == {"get_static": 0, "is_subtype": 0, "resolve_method": 0}
    assert lookups == []


def test_choice_of_dispatch_path():
    program = shapes_program()
    # Both backends link with observability off, on a private cache and
    # on a shared one; only a shared cache's tenant stamps its entries.
    for backend in ("py", "machine"):
        shared_cache = SharedCodeCache()
        private = Engine(program, JitConfig(backend=backend))
        shared = Engine(
            program, JitConfig(backend=backend),
            code_cache=shared_cache.view(0),
        )
        for linked in (private, shared):
            assert linked._linked
            assert linked._dispatcher == linked._dispatch_linked
            assert linked.interpreter.dispatch == linked._dispatch_linked
            assert linked.executor.dispatch == linked._dispatch_linked
        assert private.code_cache._hook == private._code_changed
        assert shared_cache._hooks[0] == shared._code_changed
        assert private._shared is None
        assert shared._shared is shared_cache
    # Observability keeps the generic path, on both backends and either
    # cache (and a machine engine that does not link binds nothing).
    for backend in ("py", "machine"):
        shared_cache = SharedCodeCache()
        private = Engine(
            program, JitConfig(backend=backend), obs=Observability()
        )
        shared = Engine(
            program, JitConfig(backend=backend), obs=Observability(),
            code_cache=shared_cache.view(0),
        )
        for observed in (private, shared):
            assert not observed._linked
            assert observed._shared is None
            assert observed._dispatcher == observed._dispatch
            assert observed.executor.dispatch == observed._dispatch
        if backend == "machine":
            assert private.code_cache._hook is None
            assert 0 not in shared_cache._hooks


def _counting(monkeypatch, counts, window, owner, attr):
    """Count calls of ``owner.attr`` made while ``window[0]`` is set."""
    original = getattr(owner, attr)

    def counted(*args):
        if window[0]:
            counts[attr] += 1
        return original(*args)

    monkeypatch.setattr(owner, attr, counted)


@pytest.mark.parametrize("name", ["xalan", "fop"])
def test_warm_machine_window_skips_the_cache(monkeypatch, name):
    """A warm machine engine under the cold-suite configuration runs
    every compiled call from its binding: no ``CodeCache.get``, no
    ``entry_penalty`` and no ``Engine._execute`` call."""
    counts = collections.Counter()
    window = [False]
    _counting(monkeypatch, counts, window, CodeCache, "get")
    _counting(monkeypatch, counts, window, ICacheModel, "entry_penalty")
    _counting(monkeypatch, counts, window, Engine, "_execute")
    _counting(monkeypatch, counts, window, MachineExecutor, "execute")
    engine = Engine(
        get_benchmark(name).load(), _steady_config("machine"),
        tuned_inliner(0.1),
    )
    assert engine._linked
    for _ in range(30):
        engine.run_iteration("Main")
    ops = engine.interpreter.ops_executed
    window[0] = True
    for _ in range(5):
        engine.run_iteration("Main")
    window[0] = False
    assert engine.interpreter.ops_executed == ops
    assert engine.py_exec_count == 0
    assert counts["execute"] > 100
    assert (counts["get"], counts["entry_penalty"], counts["_execute"]) == (
        0, 0, 0
    )


def _machine_trail(engine, steps):
    trail = [_step(engine, "Main", "drive", [kind]) for kind in steps]
    return trail, engine.deopt_count, engine.invalidation_count


def test_linked_machine_engine_matches_an_unlinked_one():
    """With a 20-unit icache (the penalty moves with every install and
    evict) and a deopt that evicts Main.drive's code, a linked machine
    engine's per-call values, compiled cycles and icache cycles, and
    its deopt count, equal an unlinked (observed) engine's."""
    steps = [0] * 10 + [1] + [1, 0] * 5
    icache = ICacheModel(capacity=20, penalty=40)
    linked = speculative_engine(
        flip_program(), backend="machine", icache=icache
    )
    observed = speculative_engine(
        flip_program(), obs=Observability(), backend="machine",
        icache=icache,
    )
    assert linked._linked and not observed._linked
    trail = _machine_trail(linked, steps)
    assert trail == _machine_trail(observed, steps)
    assert trail[1] == 1 and trail[2] == 1
    assert len({icache for _, (_, icache) in trail[0]}) > 1
    assert linked.py_exec_count == 0


@pytest.mark.parametrize("name", ["fop", "jython"])
def test_linked_machine_iterations_match_an_unlinked_engine(name):
    """A suite program under a small icache: every iteration's cycle
    breakdown equals an unlinked (observed) engine's."""
    results = []
    for obs in (None, Observability()):
        config = JitConfig(
            backend="machine", hot_threshold=5,
            icache=ICacheModel(capacity=500, penalty=40),
        )
        engine = Engine(
            get_benchmark(name).load(), config, tuned_inliner(0.1), obs=obs
        )
        assert engine._linked == (obs is None)
        iterations = [engine.run_iteration("Main") for _ in range(8)]
        results.append([
            {k: v for k, v in result.as_dict().items() if k != "value"}
            for result in iterations
        ])
        assert engine.py_exec_count == 0
    assert results[0] == results[1]
    assert any(row["icache_cycles"] for row in results[0])


def test_executor_wrapped_after_construction_sees_every_call(monkeypatch):
    """A wrapper put on ``engine.executor.execute`` after the engine is
    built (as a tracer does) sees every machine execution, the nested
    compiled->compiled calls included."""
    def run(wrap):
        seen = [0]
        engine = Engine(
            get_benchmark("xalan").load(), _steady_config("machine"),
            tuned_inliner(0.1),
        )
        if wrap:
            original = engine.executor.execute

            def wrapped(code, args):
                seen[0] += 1
                return original(code, args)

            engine.executor.execute = wrapped
        for _ in range(12):
            engine.run_iteration("Main")
        return seen

    wrapped = run(wrap=True)
    every = collections.Counter()
    _counting(monkeypatch, every, [True], MachineExecutor, "execute")
    run(wrap=False)
    assert wrapped[0] == every["execute"] > 12 * 10


# ----------------------------------------------------------------------
# Failure edges: LinkError where the machine tier raises it, uncached
# ----------------------------------------------------------------------


def _late_static_program():
    """``Main.store(v)`` prints *v*, then stores it into ``Late.x``,
    whose class does not exist yet."""
    program = fresh_program()
    main = program.define_class("Main", is_abstract=True)
    b = MethodBuilder("store", ["int"], "int", is_static=True)
    b.load(0).invokestatic("Builtins", "print")
    b.load(0).putstatic("Late", "x")
    b.load(0).const(1).add().retv()
    main.add_method(b.build())
    return program


def _late_receiver_program():
    """``Main.go(k)`` calls ``m`` on an A (k=0), an A2 (k=1), a B, which
    has no ``m`` (k=2), or a C, whose class does not exist yet (k=3)."""
    program = fresh_program()
    a = program.define_class("A")
    b = MethodBuilder("m", [], "int")
    b.const(1).retv()
    a.add_method(b.build())
    a2 = program.define_class("A2", superclass="A")
    b = MethodBuilder("m", [], "int")
    b.const(2).retv()
    a2.add_method(b.build())
    program.define_class("B")
    main = program.define_class("Main", is_abstract=True)
    b = MethodBuilder("call", ["A"], "int", is_static=True)
    b.load(0).invokevirtual("A", "m").retv()
    main.add_method(b.build())
    b = MethodBuilder("go", ["int"], "int", is_static=True)
    labels = [b.new_label() for _ in range(3)]
    for k, label in enumerate(labels):
        b.load(0).const(k).eq().if_true(label)
    b.new("C").invokestatic("Main", "call").retv()
    for k, class_name in enumerate(("A", "A2", "B")):
        b.place(labels[k])
        b.new(class_name).invokestatic("Main", "call").retv()
    main.add_method(b.build())
    return program


def _twin_engines(build):
    """The same program on both backends, no inlining, compiling at the
    second call: ``(program, engine)`` pairs, machine first."""
    pairs = []
    for backend in ("machine", "py"):
        program = build()
        config = JitConfig(backend=backend, hot_threshold=2, speculate=False)
        pairs.append((program, Engine(program, config)))
    return pairs


def _step(engine, class_name, method_name, args):
    before = engine.compiled_cycles, engine.icache_cycles
    outcome = _outcome(engine.call, class_name, method_name, args)
    return outcome, (
        engine.compiled_cycles - before[0], engine.icache_cycles - before[1]
    )


def test_unresolved_static_raises_at_the_access_uncached():
    (_, machine), (program, py) = _twin_engines(_late_static_program)
    for value in range(5):
        expected = _step(machine, "Main", "store", [value])
        assert expected[0] == ("LinkError", "unknown class 'Late'")
        assert _step(py, "Main", "store", [value]) == expected
    # The py tier ran the store: the print before it is in the output.
    assert py.py_exec_count >= 3
    assert py.vm.output == machine.vm.output == list(range(5))
    store = program.lookup_method("Main", "store")
    assert "static_slot('Late', 'x')" in py.code_cache.get(store).py_source
    assert ("Late", "x") not in py.vm._static_keys
    # Defined late, the class links on the next access: nothing cached
    # the failure.
    for prog, _ in ((machine.program, machine), (program, py)):
        prog.define_class("Late").add_field(
            FieldDef("x", "int", is_static=True)
        )
    for value in (7, 8):
        expected = _step(machine, "Main", "store", [value])
        assert expected[0] == ("value", value + 1)
        assert _step(py, "Main", "store", [value]) == expected
    assert py.vm._statics[("Late", "x")] == 8


def test_unresolved_virtual_target_raises_uncached():
    (_, machine), (program, py) = _twin_engines(_late_receiver_program)
    for k in (0, 1) * 3:
        expected = _step(machine, "Main", "go", [k])
        assert expected[0] == ("value", k + 1)
        assert _step(py, "Main", "go", [k]) == expected
    call = program.lookup_method("Main", "call")
    assert "dispatch_row('m')" in py.code_cache.get(call).py_source
    row = program.dispatch_row("m")
    for _ in range(2):
        expected = _step(machine, "Main", "go", [2])
        assert expected[0] == ("LinkError", "method m not found on B")
        assert _step(py, "Main", "go", [2]) == expected
        assert "B" not in row
    expected = _step(machine, "Main", "go", [3])
    assert expected[0] == ("LinkError", "unknown class 'C'")
    assert _step(py, "Main", "go", [3]) == expected
    # A late subclass of A: the bound row was emptied in place by
    # add_class and resolves C.m to A.m.
    for engine in (machine, py):
        engine.program.define_class("C", superclass="A")
    assert len(row) == 0
    for k in (3, 0, 1, 3):
        expected = _step(machine, "Main", "go", [k])
        assert expected[0] == ("value", 2 if k == 1 else 1)
        assert _step(py, "Main", "go", [k]) == expected
    assert row["C"] is program.lookup_method("A", "m")
    assert py.py_exec_count > 0


# ----------------------------------------------------------------------
# Program rows
# ----------------------------------------------------------------------


def test_rows_answer_like_the_walk_after_late_add_class():
    program = shapes_program()
    sub = program.subtype_row("Shape")
    dispatch = program.dispatch_row("area")
    assert sub["Square"] is True and sub["Main"] is False
    assert dispatch["Circle"] is program.klass("Circle").methods["area"]
    with pytest.raises(LinkError, match="unknown class 'Late'"):
        sub["Late"]
    with pytest.raises(LinkError, match="unknown class 'Late'"):
        dispatch["Late"]
    assert "Late" not in sub and "Late" not in dispatch
    late = program.define_class("Late", superclass="Square")
    assert len(sub) == 0 and len(dispatch) == 0
    assert program.subtype_row("Shape") is sub  # bound rows stay valid
    assert sub["Late"] is True
    assert program.is_subtype("Late", "Square")
    assert program.is_subtype("Late[]", "Shape[]")
    assert not program.is_subtype("Late[]", "int[]")
    assert dispatch["Late"] is program.klass("Square").methods["area"]
    assert program.resolve_method("Late", "area") is dispatch["Late"]
    assert late.name == "Late"


def test_program_pickles_with_filled_rows():
    program = get_benchmark("avrora").load()
    engine = Engine(program, JitConfig(backend="py"))
    for _ in range(3):
        engine.run_iteration("Main")
    assert any(program._dispatch_rows.values())
    copy = pickle.loads(pickle.dumps(program))
    for rows, twin in (
        (program._subtype_rows, copy._subtype_rows),
        (program._dispatch_rows, copy._dispatch_rows),
    ):
        assert twin.fill.__self__ is copy
        assert set(twin) == set(rows)
        for key, row in twin.items():
            assert row.fill.__self__ is copy
            assert set(row) == set(rows[key])
    name = next(iter(copy._dispatch_rows))
    receiver = next(iter(copy._dispatch_rows[name]))
    assert copy.resolve_method(receiver, name).qualified_name == (
        program.resolve_method(receiver, name).qualified_name
    )


# ----------------------------------------------------------------------
# Invalidation: bindings live as long as their cache entries
# ----------------------------------------------------------------------


def test_links_rebind_after_deopt_and_cycles_match_machine():
    """A deopt evicts Main.drive's code, dropping its binding; the
    recompile binds the new code. Every call's value and cycles equal
    the machine backend's, with an icache penalty that moves."""
    engines = [
        speculative_engine(
            flip_program(), backend=backend,
            icache=ICacheModel(capacity=20, penalty=40),
        )
        for backend in ("machine", "py")
    ]
    machine, py = engines
    drive = py.program.lookup_method("Main", "drive")
    trail = []
    for step, kind in enumerate([0] * 10 + [1] + [1, 0] * 5):
        results = [_step(e, "Main", "drive", [kind]) for e in engines]
        assert results[0] == results[1], step
        trail.append(results[1][1][1])
        _assert_bindings_match_cache(py)
        if step == 9:
            first = py._bindings[drive]
        if step == 10:
            assert py.deopt_count == 1
            assert drive not in py._bindings
            assert drive not in py.code_cache
    assert machine.deopt_count == py.deopt_count == 1
    assert py._bindings[drive] is not first
    assert len(set(trail)) > 1  # the penalty tracked total_size


def test_deopt_counts_no_cache_hit():
    """A deopt counts no cache hit of its own: the py and machine
    backends count the same hits, misses and installs."""
    snapshots = []
    for backend in ("machine", "py"):
        obs = Observability()
        engine = speculative_engine(flip_program(), obs=obs, backend=backend)
        for kind in [0] * 10 + [1] + [1, 0] * 3:
            engine.call("Main", "drive", [kind])
        assert engine.deopt_count == 1
        snapshots.append(obs.metrics.snapshot())
    machine, py = snapshots
    for name in ("codecache.hits", "codecache.misses", "codecache.installs"):
        assert py[name]["value"] == machine[name]["value"], name


@pytest.mark.parametrize("name", ["fop", "jython"])
def test_metrics_with_obs_equal_the_machine_backend(name):
    """With observability on, the py engine keeps the generic dispatch:
    its cache and icache metrics equal the machine backend's."""
    snapshots, cycles = [], []
    for backend in ("machine", "py"):
        obs = Observability()
        config = JitConfig(
            backend=backend, hot_threshold=5,
            icache=ICacheModel(capacity=500, penalty=40),
        )
        engine = Engine(
            get_benchmark(name).load(), config, tuned_inliner(0.1), obs=obs
        )
        cycles.append(
            [engine.run_iteration("Main").total_cycles for _ in range(8)]
        )
        snapshots.append(obs.metrics.snapshot())
    assert cycles[0] == cycles[1]
    keys = [
        key for key in snapshots[0]
        if key.startswith("codecache.") or key == "icache.penalty"
    ]
    assert "icache.penalty" in keys and "codecache.hits" in keys
    for key in keys:
        assert snapshots[1][key] == snapshots[0][key], key


def test_shared_cache_bindings_die_with_their_entries():
    """Two py tenants thrashing a 300-unit shared cache (every install
    evicts, and the evicted methods recompile at once): every binding a
    tenant holds is for code the cache still holds."""
    service = VMService(ServiceConfig(
        backend="py", cache_budget=300, compile_mode="sync",
        hot_threshold=5,
    ))
    tenants = [
        service.admit(TenantSpec(
            name=name, benchmark=name, iterations=1,
            inliner=lambda: tuned_inliner(0.1),
        ))
        for name in ("pmd", "jython")
    ]
    report = service.run(concurrent=False)
    assert all(t["state"] == "done" for t in report.tenants)
    assert service.cache.reinstalls_after_evict(tenants[0].tenant_id) > 100
    for tenant in tenants:
        engine = tenant.engine
        assert engine.py_exec_count > 0
        _assert_bindings_match_cache(engine)
    service.evict("pmd")
    assert tenants[0].engine._bindings == {}


def test_async_serve_bindings_follow_evictions_across_threads():
    """Three py tenants on their own threads, two compile workers, and
    a shared cache that evicts on every install: installs and
    evictions run the tenants' hooks from other threads while the
    tenants dispatch. With a tiny switch interval, every binding still
    dies with its entry, and every tenant computes what it computes
    alone."""
    names = ("pmd", "jython", "avrora")

    def fleet(mode, workers):
        service = VMService(ServiceConfig(
            backend="py", cache_budget=300, compile_mode=mode,
            compile_workers=workers, hot_threshold=5,
        ))
        tenants = [
            service.admit(TenantSpec(
                name=name, benchmark=name, iterations=2,
                inliner=lambda: tuned_inliner(0.1),
            ))
            for name in names
        ]
        return service, tenants

    _, alone = fleet("sync", 0)
    for tenant in alone:
        tenant.run_workload()
    service, tenants = fleet("async", 2)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = service.run(concurrent=True)
    finally:
        sys.setswitchinterval(old_interval)
        service.shutdown()
    assert [t["state"] for t in report.tenants] == ["done"] * len(names)
    assert service.cache.eviction_count > 0
    for tenant, reference in zip(tenants, alone):
        assert tenant.outcomes == reference.outcomes
        assert tenant.output == reference.output
        _assert_bindings_match_cache(tenant.engine)
