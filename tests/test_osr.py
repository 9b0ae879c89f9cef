"""On-stack replacement at loop backedges.

The OSR contract mirrors every other fast path in this VM: observables
(return values, traps, printed output) are bit-identical with OSR on or
off — only the tier that executes the loop changes. These tests pin the
transfer itself (a frame demonstrably finishes inside compiled code
mid-method), the state mapping (locals *and* a live operand stack),
the deopt fallback out of OSR code, failure containment, counters and
cache accounting, and the ``osr`` config field.
"""

import pytest

from repro.baselines import tuned_inliner
from repro.bytecode import MethodBuilder, verify_program
from repro.errors import BoundsTrap, CompileError
from repro.interp import Interpreter
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.obs import Observability
from repro.runtime import VMState
from tests.helpers import SHAPES_RESULT, fresh_program, shapes_program

#: A dispatch threshold no workload here reaches: the only route into
#: compiled code is an OSR transfer at a loop backedge.
UNREACHABLE = 10**9


def osr_engine(program, obs=None, **config_kw):
    config_kw.setdefault("hot_threshold", UNREACHABLE)
    config_kw.setdefault("osr", True)
    config_kw.setdefault("osr_threshold", 25)
    return Engine(
        program, JitConfig(**config_kw), tuned_inliner(1.0), obs=obs
    )


# ----------------------------------------------------------------------
# Workload builders
# ----------------------------------------------------------------------


def stack_loop_program():
    """A loop whose header is entered with a *non-empty* operand stack:
    the accumulator lives on the stack across the backedge, so an OSR
    transfer must map a live stack slot, not just locals.

    ``f()``: acc = 0 on the stack; for i in 0..49: acc += 3; return acc.
    """
    program = fresh_program()
    holder = program.define_class("T", is_abstract=True)
    b = MethodBuilder("f", [], "int", is_static=True)
    i = b.alloc_local()
    b.const(0)  # the accumulator, kept on the operand stack
    b.const(0).store(i)
    loop = b.new_label()
    done = b.new_label()
    b.place(loop).load(i).const(50).ge().if_true(done)
    b.const(3).add()  # acc += 3 (on the stack)
    b.load(i).const(1).add().store(i)
    b.goto(loop)
    b.place(done).retv()
    holder.add_method(b.build())
    verify_program(program)
    return program


def bottom_test_loop_program():
    """A do-while shape: the backedge is a *taken backward IF*, the
    other OSR trigger point. ``g(n)``: sum 0+1+...+(n-1)."""
    program = fresh_program()
    holder = program.define_class("T", is_abstract=True)
    b = MethodBuilder("g", ["int"], "int", is_static=True)
    acc = b.alloc_local()
    i = b.alloc_local()
    b.const(0).store(acc)
    b.const(0).store(i)
    loop = b.new_label()
    b.place(loop)
    b.load(acc).load(i).add().store(acc)
    b.load(i).const(1).add().store(i)
    b.load(i).load(0).lt().if_true(loop)  # backward IF backedge
    b.load(acc).retv()
    holder.add_method(b.build())
    verify_program(program)
    return program


def void_loop_program():
    """A void hot loop that prints from inside compiled code."""
    program = fresh_program()
    holder = program.define_class("T", is_abstract=True)
    b = MethodBuilder("v", [], "void", is_static=True)
    i = b.alloc_local()
    b.const(0).store(i)
    loop = b.new_label()
    done = b.new_label()
    b.place(loop).load(i).const(60).ge().if_true(done)
    b.load(i).invokestatic("Builtins", "print")
    b.load(i).const(1).add().store(i)
    b.goto(loop)
    b.place(done).ret()
    holder.add_method(b.build())
    verify_program(program)
    return program


def trap_loop_program():
    """A loop that walks off the end of an array after OSR kicks in."""
    program = fresh_program()
    holder = program.define_class("T", is_abstract=True)
    b = MethodBuilder("t", [], "int", is_static=True)
    arr = b.alloc_local()
    i = b.alloc_local()
    acc = b.alloc_local()
    b.const(40).newarray("int").store(arr)
    b.const(0).store(acc)
    b.const(0).store(i)
    loop = b.new_label()
    done = b.new_label()
    # Runs i = 0..99 but the array has 40 slots: traps at i == 40,
    # well after the OSR threshold of 25 transferred the frame.
    b.place(loop).load(i).const(100).ge().if_true(done)
    b.load(acc).load(arr).load(i).aload("int").add().store(acc)
    b.load(i).const(1).add().store(i)
    b.goto(loop)
    b.place(done).load(acc).retv()
    holder.add_method(b.build())
    verify_program(program)
    return program


# ----------------------------------------------------------------------
# The transfer itself
# ----------------------------------------------------------------------


class TestOsrTransfer:
    def test_hot_loop_finishes_in_compiled_code(self):
        engine = osr_engine(shapes_program())
        assert engine.call("Main", "run") == SHAPES_RESULT
        # The dispatch threshold is unreachable, so these can only come
        # from the backedge trigger.
        assert engine.osr_entry_count == 1
        assert engine.osr_compilation_count == 1
        assert engine.compilation_count == 1
        assert engine.code_cache.osr_count() == 1
        assert len(engine.code_cache) == 0
        # The loop's remaining iterations ran as compiled cycles.
        assert engine.compiled_cycles > 0

    def test_bit_identical_to_osr_off(self):
        on = osr_engine(shapes_program())
        off = osr_engine(shapes_program(), osr=False)
        assert on.call("Main", "run") == off.call("Main", "run")
        assert on.vm.output == off.vm.output
        assert off.osr_entry_count == 0
        assert on.osr_entry_count == 1

    def test_matches_pure_interpreter(self):
        program = shapes_program()
        vm = VMState(program)
        interp = Interpreter(vm, predecode=False)
        expected = interp.call_static("Main", "run")
        engine = osr_engine(shapes_program())
        assert engine.call("Main", "run") == expected

    def test_predecode_tier_transfers_identically(self):
        classic = osr_engine(shapes_program(), interp_predecode=False)
        fast = osr_engine(shapes_program(), interp_predecode=True)
        assert classic.call("Main", "run") == fast.call("Main", "run")
        assert classic.osr_entry_count == fast.osr_entry_count == 1
        # Both tiers interpret exactly the same prefix of the frame
        # before transferring.
        assert (
            classic.interpreter.ops_executed == fast.interpreter.ops_executed
        )

    def test_backward_if_backedge_triggers(self):
        engine = osr_engine(bottom_test_loop_program())
        assert engine.call("T", "g", [300]) == 300 * 299 // 2
        assert engine.osr_entry_count == 1

    def test_live_operand_stack_is_mapped(self):
        engine = osr_engine(stack_loop_program(), osr_threshold=10)
        assert engine.call("T", "f") == 150
        assert engine.osr_entry_count == 1

    def test_void_method_osr(self):
        engine = osr_engine(void_loop_program())
        off = osr_engine(void_loop_program(), osr=False)
        assert engine.call("T", "v") is None and off.call("T", "v") is None
        assert engine.osr_entry_count == 1
        assert engine.vm.output == off.vm.output
        assert len(engine.vm.output) == 60

    def test_trap_inside_osr_code_is_identical(self):
        engine = osr_engine(trap_loop_program())
        off = osr_engine(trap_loop_program(), osr=False)
        with pytest.raises(BoundsTrap) as on_trap:
            engine.call("T", "t")
        with pytest.raises(BoundsTrap) as off_trap:
            off.call("T", "t")
        assert str(on_trap.value) == str(off_trap.value)
        assert engine.osr_entry_count == 1

    def test_second_invocation_reuses_installed_osr_code(self):
        engine = osr_engine(shapes_program())
        first = engine.call("Main", "run")
        second = engine.call("Main", "run")
        assert first == second == SHAPES_RESULT
        assert engine.osr_entry_count == 2
        assert engine.osr_compilation_count == 1  # compiled once


# ----------------------------------------------------------------------
# Deopt fallback and failure containment
# ----------------------------------------------------------------------


def flip_loop_program():
    """A hot loop with a *single* virtual callsite whose receiver is
    monomorphic (Square) for the first 100 iterations and then flips
    to Circle: the OSR continuation, compiled speculatively mid-loop
    from the monomorphic profile, deopts when the guard is refuted."""
    program = shapes_program()
    main = program.classes["Main"]
    b = MethodBuilder("spin", [], "int", is_static=True)
    b.new("Square").dup().const(4).putfield("Square", "side")
    sq = b.alloc_local()
    b.store(sq)
    b.new("Circle").dup().const(3).putfield("Circle", "r")
    ci = b.alloc_local()
    b.store(ci)
    acc = b.alloc_local()
    i = b.alloc_local()
    b.const(0).store(acc)
    b.const(0).store(i)
    loop = b.new_label()
    done = b.new_label()
    circle = b.new_label()
    join = b.new_label()
    b.place(loop).load(i).const(140).ge().if_true(done)
    # Select the receiver, then dispatch at one shared callsite so the
    # profile there really flips from Square to Circle at i == 100.
    b.load(i).const(100).ge().if_true(circle)
    b.load(sq).goto(join)
    b.place(circle).load(ci)
    b.place(join)
    b.invokeinterface("Shape", "area").load(acc).add().store(acc)
    b.load(i).const(1).add().store(i).goto(loop)
    b.place(done).load(acc).retv()
    main.add_method(b.build())
    verify_program(program)
    return program


FLIP_RESULT = 100 * 16 + 40 * 27


class TestOsrDeoptAndFailure:
    def test_deopt_falls_back_and_finishes_correctly(self):
        engine = osr_engine(flip_loop_program(), speculate=True)
        assert engine.call("Main", "spin") == FLIP_RESULT
        assert engine.osr_entry_count >= 1
        assert engine.deopt_count >= 1
        # The refuted continuation was invalidated, not the (absent)
        # whole-method entry.
        assert engine.invalidation_count >= 1

    def test_deopt_matches_non_speculative_and_osr_off(self):
        spec = osr_engine(flip_loop_program(), speculate=True)
        plain = osr_engine(flip_loop_program(), speculate=False)
        off = osr_engine(flip_loop_program(), osr=False)
        assert (
            spec.call("Main", "spin")
            == plain.call("Main", "spin")
            == off.call("Main", "spin")
            == FLIP_RESULT
        )

    def test_failed_compile_declines_and_interprets(self):
        engine = osr_engine(shapes_program())
        attempts = []

        def fail(*args):
            attempts.append(args)
            raise CompileError("continuation refused")

        engine.compiler.compile_osr = fail
        assert engine.call("Main", "run") == SHAPES_RESULT
        assert engine.osr_entry_count == 0
        assert engine.osr_compilation_count == 0
        # The failed key is memoized: later backedges stop retrying.
        assert len(engine._osr_failed) == 1
        assert len(attempts) == 1


# ----------------------------------------------------------------------
# Counters, provenance, cache accounting
# ----------------------------------------------------------------------


class TestOsrObservability:
    def test_counters_events_and_flight_records(self):
        obs = Observability()
        engine = osr_engine(shapes_program(), obs=obs)
        assert engine.call("Main", "run") == SHAPES_RESULT
        assert obs.metrics.counter("osr.entries").value == 1
        assert obs.metrics.counter("osr.compilations").value == 1
        kinds = [
            record["name"]
            for record in obs.events.records
            if record["type"] == "event"
        ]
        assert "osr.trigger" in kinds
        assert "osr.install" in kinds
        assert "osr.enter" in kinds
        flight_kinds = [
            record["kind"] for record in obs.flight.records()
        ]
        assert "osr.trigger" in flight_kinds
        assert "osr.install" in flight_kinds
        assert "osr.enter" in flight_kinds

    def test_explain_groups_osr_compilations(self):
        from repro.tools.explain import group_compilations

        obs = Observability()
        engine = osr_engine(shapes_program(), obs=obs)
        engine.call("Main", "run")
        compilations, _ = group_compilations(obs.flight.records())
        osr_roots = [
            c for c in compilations if c.root and "@osr" in c.root
        ]
        assert osr_roots, "no OSR compilation group"
        assert osr_roots[0].install is not None
        assert osr_roots[0].install["bci"] == 41

    def test_cache_accounting_counts_osr_size(self):
        engine = osr_engine(shapes_program())
        engine.call("Main", "run")
        cache = engine.code_cache
        assert cache.osr_count() == 1
        assert cache.total_size > 0
        method = engine.program.lookup_method("Main", "run")
        assert cache.evict_osr(method, 41)
        assert cache.total_size == 0
        assert cache.osr_count() == 0

    def test_null_obs_counters_still_available(self):
        engine = osr_engine(shapes_program())
        engine.call("Main", "run")
        assert engine.osr_entry_count == 1
        assert engine.osr_compilation_count == 1


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------


class TestOsrConfig:
    def test_defaults_to_off(self):
        engine = Engine(shapes_program(), JitConfig())
        assert engine.interpreter.osr_hook is None

    def test_explicit_on(self):
        engine = Engine(shapes_program(), JitConfig(osr=True))
        assert engine.interpreter.osr_hook is not None

    def test_interpreter_only_vm_never_osrs(self):
        engine = Engine(
            shapes_program(), JitConfig(compile_enabled=False, osr=True)
        )
        assert engine.interpreter.osr_hook is None


# ----------------------------------------------------------------------
# Satellite: hotness formula is defined exactly once
# ----------------------------------------------------------------------


class TestHotnessDedup:
    def test_hottest_matches_hotness(self):
        from repro.interp.profiles import ProfileStore

        program = shapes_program()
        vm = VMState(program)
        store = ProfileStore()
        interp = Interpreter(vm, profiles=store)
        interp.call_static("Main", "run")
        ranked = store.hottest(limit=10)
        assert ranked
        for name, score in ranked:
            profile = store._methods[name]
            assert score == profile.hotness()
            assert score == (
                profile.invocations + profile.backedge_total() // 8
            )
