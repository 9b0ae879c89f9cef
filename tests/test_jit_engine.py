"""Tiered-engine tests: hotness, tier transitions, accounting."""

import os

import pytest

from repro.baselines import (
    C2Inliner,
    GreedyInliner,
    fixed_threshold_inliner,
    tuned_inliner,
)
from repro.errors import CompileError, TrapError
from repro.fuzz.serialize import load_corpus_file
from repro.interp import Interpreter
from repro.jit import CodeCache, Engine, JitConfig
from repro.obs import Observability
from repro.runtime import VMState
from tests.helpers import SHAPES_RESULT, shapes_program

SPECIAL_CALL_IN_CALLEE = os.path.join(
    os.path.dirname(__file__), "corpus", "special_call_in_callee.asm"
)


class TestCodeCache:
    def test_install_and_total_size(self):
        cache = CodeCache()

        class FakeCode:
            def __init__(self, size):
                self.size = size

        method = object()
        cache.install(method, FakeCode(10))
        assert cache.total_size == 10
        cache.install(method, FakeCode(25))  # reinstall replaces
        assert cache.total_size == 25
        assert len(cache) == 1
        assert cache.install_count == 2


class TestTiering:
    def test_cold_methods_interpret(self):
        program = shapes_program()
        engine = Engine(program, JitConfig(hot_threshold=10 ** 9))
        result = engine.run_iteration("Main", "run")
        assert result.value == SHAPES_RESULT
        assert result.compiled_cycles == 0
        assert engine.code_cache.total_size == 0

    def test_hot_methods_compile(self):
        program = shapes_program()
        engine = Engine(program, JitConfig(hot_threshold=20))
        for _ in range(4):
            result = engine.run_iteration("Main", "run")
        assert engine.code_cache.total_size > 0
        assert result.interpreted_cycles == 0  # fully compiled by now
        assert result.value == SHAPES_RESULT

    def test_compile_disabled(self):
        program = shapes_program()
        engine = Engine(program, JitConfig(compile_enabled=False, hot_threshold=1))
        for _ in range(3):
            engine.run_iteration("Main", "run")
        assert engine.compilation_count == 0

    def test_warmup_curve_descends(self):
        program = shapes_program()
        engine = Engine(program, JitConfig(hot_threshold=20))
        curve = [engine.run_iteration("Main", "run").total_cycles for _ in range(6)]
        assert curve[-1] < curve[0]

    def test_iteration_accounting_sums(self):
        program = shapes_program()
        engine = Engine(program, JitConfig(hot_threshold=20))
        for _ in range(5):
            r = engine.run_iteration("Main", "run")
            assert r.total_cycles == (
                r.interpreted_cycles
                + r.compiled_cycles
                + r.compile_cycles
                + r.icache_cycles
            )

    def test_values_stable_across_tiers(self):
        program = shapes_program()
        engine = Engine(program, JitConfig(hot_threshold=15))
        values = {engine.run_iteration("Main", "run").value for _ in range(6)}
        assert values == {SHAPES_RESULT}

    def test_compile_failure_is_isolated(self):
        program = shapes_program()
        engine = Engine(program, JitConfig(hot_threshold=5))

        real_compile = engine.compiler.compile

        def failing(method):
            if method.name == "total":
                raise CompileError("synthetic failure")
            return real_compile(method)

        engine.compiler.compile = failing
        for _ in range(5):
            result = engine.run_iteration("Main", "run")
        assert result.value == SHAPES_RESULT
        assert program.lookup_method("Main", "total") in engine._compile_failed

    def test_inlined_callee_not_separately_compiled(self):
        """Paper §II.2 (compilation impact): once total is inlined into
        run, its hotness stops accruing at that callsite."""
        program = shapes_program()
        engine = Engine(
            program, JitConfig(hot_threshold=30), inliner=tuned_inliner()
        )
        for _ in range(10):
            engine.run_iteration("Main", "run")
        total = program.lookup_method("Main", "total")
        run = program.lookup_method("Main", "run")
        profile = engine.profiles.of(total)
        compiled_at = profile.invocations
        for _ in range(5):
            engine.run_iteration("Main", "run")
        # run is compiled with total inlined: no further interpretation.
        assert engine.profiles.of(total).invocations == compiled_at
        assert engine.code_cache.get(run) is not None


class TestInlinersInEngine:
    @pytest.mark.parametrize(
        "factory", [None, GreedyInliner, tuned_inliner], ids=["none", "greedy", "inc"]
    )
    def test_policies_agree_on_results(self, factory):
        program = shapes_program()
        engine = Engine(
            program,
            JitConfig(hot_threshold=20),
            inliner=factory() if factory else None,
        )
        for _ in range(8):
            result = engine.run_iteration("Main", "run")
        assert result.value == SHAPES_RESULT

    def test_incremental_beats_no_inlining(self):
        program = shapes_program()
        baseline = Engine(program, JitConfig(hot_threshold=20))
        inlined = Engine(
            program, JitConfig(hot_threshold=20), inliner=tuned_inliner()
        )
        for _ in range(10):
            base_result = baseline.run_iteration("Main", "run")
            inlined_result = inlined.run_iteration("Main", "run")
        assert inlined_result.total_cycles < base_result.total_cycles


def _outcomes(call, iterations):
    outcomes = []
    for _ in range(iterations):
        try:
            outcomes.append(("value", call()))
        except TrapError as trap:
            outcomes.append(("trap", str(trap)))
    return outcomes


class TestUncompilableCallee:
    """A callee whose graph cannot be built (a special call on a receiver
    that may be null) stays a generic call in its caller: only the
    callee records ``jit.compile_failed``."""

    @pytest.mark.parametrize(
        "make_inliner",
        [
            lambda: tuned_inliner(0.1),  # expansion (trials.expand_node)
            lambda: fixed_threshold_inliner(te=0),  # cutoff inlined as is
            GreedyInliner,  # baselines.common.inline_direct_call
            C2Inliner,
        ],
        ids=["incremental", "cutoff-inline", "greedy", "c2"],
    )
    @pytest.mark.parametrize("backend", ["machine", "py"])
    def test_caller_installs(self, make_inliner, backend):
        program, (cls, name) = load_corpus_file(SPECIAL_CALL_IN_CALLEE)
        reference = Interpreter(VMState(program), predecode=False)
        expected = _outcomes(lambda: reference.call_static(cls, name, ()), 10)
        assert ("trap", "NullPointer: special call Box.seven") in expected

        program, _ = load_corpus_file(SPECIAL_CALL_IN_CALLEE)
        obs = Observability()
        engine = Engine(
            program,
            JitConfig(hot_threshold=2, backend=backend),
            inliner=make_inliner(),
            obs=obs,
        )
        observed = _outcomes(lambda: engine.run_iteration(cls, name).value, 10)
        assert observed == expected
        run = program.lookup_method(cls, name)
        assert engine.code_cache.get(run) is not None
        failed = obs.flight.of_kind("jit.compile_failed")
        assert [r["attrs"]["method"] for r in failed] == ["Main.helper"]
