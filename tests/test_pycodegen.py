"""The Python-codegen top tier against its machine-model oracle.

Every test here is a differential: the machine backend is the trusted
cycle-accounted executor, and the generated Python closures must agree
with it bit for bit — values, per-iteration cycles, printed output,
trap kinds, deopt counts, and OSR entries. Host wall-clock is the only
thing allowed to differ.
"""

import pytest

from repro.backend import pycodegen
from repro.backend.pycodegen import PyCodegenBailout, _MASK, _SIGN
from repro.baselines import tuned_inliner
from repro.bench import get_benchmark
from repro.errors import TrapError
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.lang import compile_source
from repro.obs import Observability
from repro.runtime.int64 import wrap64
from tests.helpers import (
    SHAPES_RESULT,
    shapes_program,
    single_method_program,
)
from tests.test_deopt import flip_program


def _engine(program, backend, **jit):
    jit.setdefault("hot_threshold", 3)
    config = JitConfig(backend=backend, **jit)
    return Engine(program, config, tuned_inliner(0.1))


def _observe(call):
    try:
        return ("value", call())
    except TrapError as trap:
        return ("trap", trap.kind)


def _run_both(program, entry, arg_fn, iterations, **jit):
    """One run per backend; returns the two (outcomes, cycles, engine)."""
    results = []
    for backend in ("machine", "py"):
        engine = _engine(program, backend, **jit)
        outcomes, cycles = [], []
        for i in range(iterations):
            args = arg_fn(i)
            outcomes.append(_observe(
                lambda: engine.run_iteration(entry[0], entry[1], args).value
            ))
            cycles.append(
                engine.compiled_cycles + engine.icache_cycles
            )
        results.append((outcomes, cycles, engine))
    return results


def assert_identical(machine, py):
    m_out, m_cyc, m_eng = machine
    p_out, p_cyc, p_eng = py
    assert m_out == p_out
    assert m_cyc == p_cyc
    assert list(m_eng.vm.output) == list(p_eng.vm.output)
    assert m_eng.deopt_count == p_eng.deopt_count
    assert m_eng.osr_entry_count == p_eng.osr_entry_count
    assert p_eng.py_exec_count > 0  # the py tier actually ran


def test_arithmetic_loop_differential():
    # Straight-line + loop arithmetic covering wrap-sensitive ops.
    def build(b):
        acc = b.alloc_local()
        i = b.alloc_local()
        b.const(0x7FFFFFFFFFFF0123).store(acc)
        b.const(0).store(i)
        loop = b.new_label()
        done = b.new_label()
        b.place(loop).load(i).const(50).ge().if_true(done)
        b.load(acc).const(0x1234567).mul().load(0).add().store(acc)
        b.load(acc).const(13).rem().load(acc).const(7).div().add()
        b.load(acc).xor().store(acc)
        b.load(acc).const(3).shl().load(acc).const(5).shr().or_()
        b.store(acc)
        b.load(i).const(1).add().store(i).goto(loop)
        b.place(done).load(acc).retv()

    program = single_method_program(build)
    machine, py = _run_both(
        program, ("T", "f"), lambda i: [i * 977 - 3], 8
    )
    assert_identical(machine, py)


def test_deopt_differential():
    # The receiver-flip driver: speculation compiles in a guard, the
    # flipped receiver refutes it — the py tier must raise the same
    # DeoptSignal with the same frames and leave the same deopt count.
    machine, py = _run_both(
        flip_program(), ("Main", "drive"),
        lambda i: [1 if i >= 10 else 0], 16,
        hot_threshold=4, speculate=True,
    )
    assert_identical(machine, py)
    assert py[2].deopt_count == 1


def test_osr_differential():
    # Unreachable dispatch threshold: the only route into compiled code
    # is an OSR transfer at the loop backedge.
    machine, py = _run_both(
        shapes_program(), ("Main", "run"), lambda i: [], 3,
        hot_threshold=10**9, osr=True, osr_threshold=30,
    )
    assert_identical(machine, py)
    assert py[2].osr_entry_count >= 1
    assert machine[0][0] == ("value", SHAPES_RESULT)


def test_trap_differential():
    # Division by zero and array bounds, driven through the compiled
    # tier: same trap kinds, same surviving iterations.
    def build(b):
        arr = b.alloc_local()
        b.const(4).newarray("int").store(arr)
        b.load(arr).load(0).const(100).load(0).div().astore()
        b.load(arr).load(0).aload().retv()

    program = single_method_program(build)
    machine, py = _run_both(
        program, ("T", "f"), lambda i: [i % 6 - 1], 12
    )
    assert_identical(machine, py)
    kinds = {kind for kind, _ in machine[0]}
    assert kinds == {"value", "trap"}


def test_phi_undefined_on_every_edge_starts_null():
    # batik's Main.run merges a local that is undefined along every
    # incoming edge; the phi is never assigned, yet a later edge move
    # copies it. Its machine register starts NULL, so the py local
    # must start as None rather than raise NameError.
    program = compile_source(get_benchmark("batik").source)
    machine, py = _run_both(
        program, ("Main", "run"), lambda i: [], 3,
        hot_threshold=25, interp_predecode=True,
    )
    assert_identical(machine, py)
    assert [kind for kind, _ in py[0]] == ["value"] * 3


def test_env_pin_forces_machine(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "machine")
    engine = _engine(shapes_program(), "py")
    for _ in range(3):
        engine.run_iteration("Main", "run")
    assert engine.backend == "machine"
    assert engine.py_exec_count == 0


def test_env_pin_enables_py(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "py")
    engine = Engine(
        shapes_program(), JitConfig(hot_threshold=3), tuned_inliner(0.1)
    )
    for _ in range(3):
        engine.run_iteration("Main", "run")
    assert engine.backend == "py"
    assert engine.py_exec_count > 0


def test_py_source_attached():
    engine = _engine(shapes_program(), "py")
    for _ in range(3):
        engine.run_iteration("Main", "run")
    codes = [
        engine.code_cache.get(m)
        for m in engine.code_cache.installed_methods()
    ]
    assert codes
    for code in codes:
        assert code.py_factory is not None
        assert "def _run(args):" in code.py_source


def test_bailout_falls_back_to_machine(monkeypatch):
    # Force the node-count bailout: the engine must keep answering
    # through machine code — slower, never wrong — and count the reason.
    monkeypatch.setattr(pycodegen, "MAX_NODES", 0)
    obs = Observability()
    engine = Engine(
        shapes_program(),
        JitConfig(hot_threshold=3, backend="py"),
        tuned_inliner(0.1),
        obs=obs,
    )
    values = [engine.run_iteration("Main", "run").value for _ in range(3)]
    assert values == [SHAPES_RESULT] * 3
    assert engine.compilation_count > 0
    assert engine.py_exec_count == 0
    registry = obs.metrics.snapshot()
    assert registry["backend.py.bailouts"]["value"] > 0
    assert registry["backend.py.bailouts.graph-too-large"]["value"] > 0
    assert "backend.py.compiles" not in registry


def test_compile_metrics_and_span_backend():
    obs = Observability()
    engine = Engine(
        shapes_program(),
        JitConfig(hot_threshold=3, backend="py"),
        tuned_inliner(0.1),
        obs=obs,
    )
    for _ in range(3):
        engine.run_iteration("Main", "run")
    registry = obs.metrics.snapshot()
    assert registry["backend.py.compiles"]["value"] > 0
    ends = [
        r for r in obs.events.of_name("compile") if r["type"] == "end"
    ]
    assert ends
    assert all(r["attrs"].get("backend") == "py" for r in ends)
    assert obs.events.spans_named("pycodegen")


@pytest.mark.parametrize("value", [
    0, 1, -1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**64,
    2**64 + 17, -(2**64) - 17, 123456789123456789,
])
def test_inline_wrap_formula_matches_wrap64(value):
    # The codegen inlines the two's-complement wrap instead of calling
    # wrap64(); the formula must agree on every edge case.
    assert (value + _SIGN & _MASK) - _SIGN == wrap64(value)


def test_generate_bails_on_oversized_graph(monkeypatch):
    monkeypatch.setattr(pycodegen, "MAX_NODES", 1)
    from repro.ir.builder import build_graph
    from repro.ir.frequency import annotate_frequencies

    program = shapes_program()
    method = program.lookup_method("Main", "run")
    graph = build_graph(method, program, None)
    annotate_frequencies(graph)
    with pytest.raises(PyCodegenBailout) as info:
        pycodegen.generate(graph)
    assert info.value.reason == "graph-too-large"


def test_stats_report_shows_backend_column():
    from repro.obs.report import build_report, render_report

    obs = Observability()
    engine = Engine(
        shapes_program(),
        JitConfig(hot_threshold=3, backend="py"),
        tuned_inliner(0.1),
        obs=obs,
    )
    for _ in range(3):
        engine.run_iteration("Main", "run")
    report = build_report(obs.events.records)
    assert report["compiles"]
    assert all(e["backend"] == "py" for e in report["compiles"])
    assert all(e["bailout"] is None for e in report["compiles"])
    assert report["backend_bailouts"] == []
    # pycodegen wall time lands in both per-compile and total phases.
    assert report["phase_totals"]["pycodegen"] > 0.0
    rendered = render_report(report)
    assert "backend" in rendered
    assert "pycodegen=" in rendered
    assert "py-backend bailouts" not in rendered


def test_stats_report_shows_bailouts(monkeypatch):
    from repro.obs.report import build_report, render_report

    monkeypatch.setattr(pycodegen, "MAX_NODES", 0)
    obs = Observability()
    engine = Engine(
        shapes_program(),
        JitConfig(hot_threshold=3, backend="py"),
        tuned_inliner(0.1),
        obs=obs,
    )
    for _ in range(3):
        engine.run_iteration("Main", "run")
    report = build_report(obs.events.records)
    assert report["compiles"]
    assert all(e["backend"] == "machine" for e in report["compiles"])
    assert all(
        e["bailout"] == "graph-too-large" for e in report["compiles"]
    )
    assert report["backend_bailouts"]
    assert all(
        b["reason"] == "graph-too-large"
        for b in report["backend_bailouts"]
    )
    rendered = render_report(report)
    assert "machine!" in rendered
    assert "py-backend bailouts" in rendered
    assert "graph-too-large" in rendered
