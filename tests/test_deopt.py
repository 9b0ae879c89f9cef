"""Guard-based speculation, deoptimization and tiered recompilation.

The core promise under test: a speculative compilation may delete the
megamorphic fallback of a well-predicted callsite, but when the guard
fails the engine must resume in the profiling interpreter with
*identical observable behaviour*, invalidate the code, and recompile
without the refuted speculation — never looping.
"""

import pytest

from tests.helpers import fresh_program, shapes_program, SHAPES_RESULT
from repro.baselines import tuned_inliner
from repro.bytecode import MethodBuilder, verify_program
from repro.bytecode.klass import FieldDef
from repro.bytecode.method import Method
from repro.core.polymorphic import emit_typeswitch
from repro.deopt import SpeculationLog
from repro.interp import Interpreter
from repro.ir import nodes as n
from repro.ir.builder import build_graph
from repro.ir.checker import check_graph
from repro.ir.frequency import annotate_frequencies
from repro.jit.codecache import CodeCache
from repro.jit.config import JitConfig
from repro.jit.engine import SPECULATION_DEOPT_LIMIT, Engine
from repro.obs import Observability
from repro.obs.report import build_report, render_report
from repro.runtime import VMState


def flip_program():
    """Shapes variant whose receiver distribution is driver-controlled.

    ``Main.drive(kind)`` selects a Square (0) or Circle (1) and routes
    it through a *single* ``Main.total`` callsite — so a Square-only
    warmup builds a monomorphic profile at that site, the compiled
    driver inlines ``total`` and speculates, and ``drive(1)`` then
    refutes the inlined guard (a genuine multi-frame deopt).
    """
    program = fresh_program()
    define_shapes(program)
    main = program.define_class("Main", is_abstract=True)
    b = MethodBuilder("total", ["Shape", "int"], "int", is_static=True)
    b.load(1).load(0).invokeinterface("Shape", "area").mul().retv()
    main.add_method(b.build())
    b = MethodBuilder("drive", ["int"], "int", is_static=True)
    shape_slot = b.alloc_local()
    use_circle = b.new_label()
    join = b.new_label()
    b.load(0).const(1).eq().if_true(use_circle)
    b.new("Square").dup().const(4).putfield("Square", "side")
    b.store(shape_slot).goto(join)
    b.place(use_circle)
    b.new("Circle").dup().const(3).putfield("Circle", "r")
    b.store(shape_slot)
    b.place(join)
    b.load(shape_slot).const(2).invokestatic("Main", "total").retv()
    main.add_method(b.build())
    verify_program(program)
    return program


def define_shapes(program):
    """``Shape`` with ``Square.area`` (side²) and ``Circle.area`` (3r²);
    the drivers below build side 4 (area 16) and r 3 (area 27)."""
    shape = program.define_class("Shape", is_interface=True)
    shape.add_method(Method("area", [], "int", is_abstract=True))
    square = program.define_class("Square", interfaces=["Shape"])
    square.add_field(FieldDef("side", "int"))
    b = MethodBuilder("area", [], "int")
    b.load(0).getfield("Square", "side")
    b.load(0).getfield("Square", "side").mul().retv()
    square.add_method(b.build())
    circle = program.define_class("Circle", interfaces=["Shape"])
    circle.add_field(FieldDef("r", "int"))
    b = MethodBuilder("area", [], "int")
    b.load(0).getfield("Circle", "r")
    b.load(0).getfield("Circle", "r").mul().const(3).mul().retv()
    circle.add_method(b.build())


def sites_program(sites):
    """``Main.drive(k1, ..., kN)`` dispatches ``area`` at *sites* call
    sites of its own, each on a Square (0) or a Circle (1) chosen by
    its own argument, so each site can be refuted on its own."""
    program = fresh_program()
    define_shapes(program)
    main = program.define_class("Main", is_abstract=True)
    b = MethodBuilder("make", ["int"], "Shape", is_static=True)
    use_circle = b.new_label()
    b.load(0).const(1).eq().if_true(use_circle)
    b.new("Square").dup().const(4).putfield("Square", "side").retv()
    b.place(use_circle)
    b.new("Circle").dup().const(3).putfield("Circle", "r").retv()
    main.add_method(b.build())
    b = MethodBuilder("drive", ["int"] * sites, "int", is_static=True)
    b.const(0)
    for slot in range(sites):
        b.load(slot).invokestatic("Main", "make")
        b.invokeinterface("Shape", "area").add()
    b.retv()
    main.add_method(b.build())
    verify_program(program)
    return program


def speculative_engine(program, obs=None, **config_kw):
    # size_factor=1.0 makes the inliner aggressive enough to inline
    # Main.total (and the guard inside it) into the compiled driver.
    config_kw.setdefault("hot_threshold", 4)
    config = JitConfig(speculate=True, **config_kw)
    return Engine(program, config, tuned_inliner(1.0), obs=obs)


# ---------------------------------------------------------------------------
# The Figure 1 shape: monomorphic speculation deletes the fallback.
# ---------------------------------------------------------------------------


def monomorphic_total_graph():
    """Main.total built speculatively under a Square-only profile."""
    program = shapes_program()
    vm = VMState(program)
    interp = Interpreter(vm)
    # Monomorphic warmup: area() only ever sees Squares.
    for _ in range(20):
        interp.call_static("Main", "total", (vm.allocate("Square"), 2))
    method = program.lookup_method("Main", "total")
    graph = build_graph(method, program, interp.profiles, speculate=True)
    annotate_frequencies(graph)
    return program, graph


def test_monomorphic_guard_form_has_no_fallback():
    program, graph = monomorphic_total_graph()
    invoke = next(
        x
        for b in graph.blocks
        for x in b.instrs
        if isinstance(x, n.InvokeNode)
    )
    assert invoke.frames, "speculative build must capture frame state"
    target = program.lookup_method("Square", "area")
    emit_typeswitch(
        graph, invoke, [("Square", 1.0, target)], program, speculate=True
    )
    check_graph(graph)
    # Straight-line: the guard replaces the virtual dispatch in place —
    # no CFG split, no merge phi, and *no* virtual fallback arm.
    assert len(graph.blocks) == 1
    kinds = [type(x) for b in graph.blocks for x in b.instrs]
    assert kinds.count(n.GuardNode) == 1
    remaining = [
        x
        for b in graph.blocks
        for x in b.instrs
        if isinstance(x, n.InvokeNode)
    ]
    assert [x.kind for x in remaining] == ["direct"]
    assert not any(b.phis for b in graph.blocks)


def test_speculative_typeswitch_requires_frame_state():
    program = shapes_program()
    method = program.lookup_method("Main", "total")
    vm = VMState(program)
    interp = Interpreter(vm)
    interp.call_static("Main", "run", ())
    graph = build_graph(method, program, interp.profiles)  # no state
    annotate_frequencies(graph)
    invoke = next(
        x
        for b in graph.blocks
        for x in b.instrs
        if isinstance(x, n.InvokeNode)
    )
    target = program.lookup_method("Square", "area")
    from repro.errors import IRError

    with pytest.raises(IRError):
        emit_typeswitch(
            graph, invoke, [("Square", 1.0, target)], program, speculate=True
        )


def test_bimorphic_speculation_ends_in_deopt_terminator():
    program = shapes_program()
    vm = VMState(program)
    interp = Interpreter(vm)
    interp.call_static("Main", "run", ())
    method = program.lookup_method("Main", "total")
    graph = build_graph(method, program, interp.profiles, speculate=True)
    annotate_frequencies(graph)
    invoke = next(
        x
        for b in graph.blocks
        for x in b.instrs
        if isinstance(x, n.InvokeNode)
    )
    targets = [
        ("Square", 0.75, program.lookup_method("Square", "area")),
        ("Circle", 0.25, program.lookup_method("Circle", "area")),
    ]
    emit_typeswitch(graph, invoke, targets, program, speculate=True)
    check_graph(graph)
    deopts = [
        b.terminator
        for b in graph.blocks
        if isinstance(b.terminator, n.DeoptNode)
    ]
    assert len(deopts) == 1
    assert deopts[0].frames
    virtuals = [
        x
        for b in graph.blocks
        for x in b.instrs
        if isinstance(x, n.InvokeNode) and x.kind in ("virtual", "interface")
    ]
    assert virtuals == []


# ---------------------------------------------------------------------------
# The real thing: a profile flip executes a deopt end to end.
# ---------------------------------------------------------------------------


def test_profile_flip_executes_real_deopt():
    program = flip_program()
    obs = Observability()
    engine = speculative_engine(program, obs=obs)
    for _ in range(10):
        assert engine.call("Main", "drive", [0]) == 2 * 16
    drive = program.lookup_method("Main", "drive")
    assert drive in engine.code_cache, "warmup must compile the driver"
    assert engine.deopt_count == 0

    # The flip: the compiled guard sees a Circle, fails, and the frame
    # resumes in the interpreter with the correct (circle) answer.
    assert engine.call("Main", "drive", [1]) == 2 * 27
    assert engine.deopt_count == 1
    assert engine.invalidation_count == 1
    assert drive not in engine.code_cache, "deopt must invalidate"
    # The refuted site is logged against the inlined callee's bci.
    (site, reason), = engine.speculation_log.entries()
    assert site[0] == "Main.total"
    assert reason == "monomorphic-receiver"

    # Recompilation (same hotness, next dispatch) must not repeat the
    # refuted speculation: further flips run deopt-free.
    for _ in range(5):
        assert engine.call("Main", "drive", [1]) == 2 * 27
        assert engine.call("Main", "drive", [0]) == 2 * 16
    assert engine.deopt_count == 1
    assert drive in engine.code_cache, "must recompile without the guess"

    # Metrics and stats attribution.
    snapshot = obs.metrics.snapshot()
    assert snapshot["deopt.taken"]["value"] == 1
    assert snapshot["deopt.reasons.monomorphic-receiver"]["value"] == 1
    assert snapshot["jit.invalidations"]["value"] == 1
    report = build_report(obs.events.records)
    assert len(report["deopts"]) == 1
    assert report["deopts"][0]["reason"] == "monomorphic-receiver"
    assert report["invalidations"] == ["Main.drive"]
    text = render_report(report, metrics_snapshot=snapshot)
    assert "deoptimizations (1)" in text
    assert "monomorphic-receiver" in text


def test_deopt_limit_disables_speculation_in_root():
    sites = SPECULATION_DEOPT_LIMIT
    engine = speculative_engine(sites_program(sites))
    for _ in range(10):
        assert engine.call("Main", "drive", [0] * sites) == 16 * sites
    # Each call brings a Circle to the next site, which the code
    # recompiled after the previous deopt still guards for a Square.
    for site in range(sites):
        assert not engine.speculation_log.is_disabled("Main.drive")
        args = [int(index == site) for index in range(sites)]
        assert engine.call("Main", "drive", args) == 27 + 16 * (sites - 1)
        assert engine.deopt_count == site + 1
    assert engine.speculation_log.is_disabled("Main.drive")


def test_bounded_recompilation_no_deopt_loops():
    # Alternating receivers forever: the first deopt refutes the site,
    # so the deopt count stays bounded no matter how long we run.
    program = flip_program()
    engine = speculative_engine(program)
    for i in range(60):
        kind = i % 2
        expected = 2 * 27 if kind else 2 * 16
        assert engine.call("Main", "drive", [kind]) == expected
    assert engine.deopt_count <= 2
    assert engine.compilation_count <= 6


# ---------------------------------------------------------------------------
# Differential: speculation must not change observable behaviour.
# ---------------------------------------------------------------------------


def test_speculative_shapes_run_matches_reference():
    program = shapes_program()
    engine = speculative_engine(program, hot_threshold=2)
    for _ in range(6):
        assert engine.run_iteration("Main", "run").value == SHAPES_RESULT


def test_differential_speculate_on_vs_off():
    for kind in (0, 1):
        values_by_mode = {}
        for speculate in (False, True):
            program = flip_program()
            config = JitConfig(hot_threshold=4, speculate=speculate)
            engine = Engine(program, config, tuned_inliner(0.1))
            values = [engine.call("Main", "drive", [0]) for _ in range(10)]
            values += [engine.call("Main", "drive", [kind]) for _ in range(10)]
            values_by_mode[speculate] = (values, list(engine.vm.output))
        assert values_by_mode[False] == values_by_mode[True]


# ---------------------------------------------------------------------------
# Speculation log unit behaviour.
# ---------------------------------------------------------------------------


def test_speculation_log_records_and_disables():
    log = SpeculationLog()
    assert not log.refuted(("M.f", 3))
    log.record(("M.f", 3), "monomorphic-receiver")
    assert log.refuted(("M.f", 3))
    assert not log.refuted(("M.f", 4))
    assert len(log) == 1
    log.disable("M.f")
    assert log.is_disabled("M.f")
    assert not log.is_disabled("M.g")
    assert log.entries() == [(("M.f", 3), "monomorphic-receiver")]


# ---------------------------------------------------------------------------
# Satellite (a): CodeCache reinstall accounting.
# ---------------------------------------------------------------------------


class _FakeCode:
    def __init__(self, size):
        self.size = size


def test_codecache_reinstall_accounting():
    obs = Observability()
    cache = CodeCache(obs=obs)

    class M:
        qualified_name = "T.m"

    method = M()
    cache.install(method, _FakeCode(100))
    assert (cache.install_count, cache.reinstalls) == (1, 0)
    assert cache.total_size == 100

    # Reinstall with *smaller* code: the size delta is legitimately
    # negative, and the accounting splits reinstalls out.
    cache.install(method, _FakeCode(60))
    assert (cache.install_count, cache.reinstalls) == (2, 1)
    assert cache.total_size == 60
    assert cache.install_count - cache.reinstalls == 1  # distinct installs

    cache.evict(method)
    assert cache.total_size == 0
    cache.install(method, _FakeCode(70))
    # Install after evict is a fresh install, not a reinstall.
    assert (cache.install_count, cache.reinstalls) == (3, 1)
    snapshot = obs.metrics.snapshot()
    assert snapshot["codecache.installs"]["value"] == 3
    assert snapshot["codecache.reinstalls"]["value"] == 1
