"""The Python-codegen top tier against its machine-model oracle.

Every test here is a differential: the machine backend is the trusted
cycle-accounted executor, and the generated Python closures must agree
with it bit for bit — values, per-iteration cycles, printed output,
trap kinds, deopt counts, and OSR entries. Host wall-clock is the only
thing allowed to differ.
"""

import os
import random
import re
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hst

from repro.backend import pycodegen
from repro.backend.lowering import lower_graph
from repro.backend.machine import MachineExecutor
from repro.backend.pycodegen import PyCodegenBailout
from repro.baselines import tuned_inliner
from repro.bench import all_benchmarks, get_benchmark
from repro.bytecode import Op
from repro.errors import (
    BoundsTrap,
    DivisionByZeroTrap,
    NullPointerTrap,
    TrapError,
)
from repro.fuzz.generator import generate_case
from repro.fuzz.serialize import load_corpus_file
from repro.ir import build_graph, compute_loops
from repro.ir.frequency import annotate_frequencies
from repro.ir import nodes as n
from repro.ir import stamps as stm
from repro.jit import compiler
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.lang import compile_source
from repro.obs import Observability
from repro.opts.pipeline import OptimizationPipeline
from repro.runtime import VMState, int64
from repro.runtime.int64 import (
    INT64_MAX,
    INT64_MIN,
    div64,
    int_div,
    int_rem,
    rem64,
    wrap64,
)
from tests.cfgs import IRREDUCIBLE, SELF_LOOP, UNREACHABLE, build_cfg, cfg_specs
from tests.helpers import (
    SHAPES_RESULT,
    fresh_program,
    shapes_program,
    single_method_program,
)
from tests.test_deopt import flip_program
from tests.test_opts_bookkeeping import GENERATED_BASE, generated_config

#: The masked two's-complement wrap the machine executor inlines: the
#: test-local reference for the range-tested form the generator emits.
_SIGN = int64._SIGN
_MASK = int64._WRAP - 1


def _engine(program, backend, obs=None, **jit):
    jit.setdefault("hot_threshold", 3)
    config = JitConfig(backend=backend, **jit)
    return Engine(program, config, tuned_inliner(0.1), obs=obs)


def _observe(call):
    try:
        return ("value", call())
    except TrapError as trap:
        return ("trap", trap.kind)


def _run_both(program, entry, arg_fn, iterations, obs=None, **jit):
    """One run per backend; returns the two (outcomes, cycles, engine).
    *obs* observes the py run."""
    results = []
    for backend in ("machine", "py"):
        engine = _engine(
            program, backend, obs if backend == "py" else None, **jit
        )
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


_INT64_EDGES = [
    INT64_MIN, INT64_MIN + 1, -(2**32), -1, 0, 1, 2**32, INT64_MAX - 1,
    INT64_MAX,
]

#: op -> (the method body after its parameters are loaded, the exact
#: result, the operand pairs).
_WRAPPING_OPS = {
    "ADD": (lambda b: b.load(0).load(1).add(), lambda x, y: x + y,
            [(x, y) for x in _INT64_EDGES for y in _INT64_EDGES]),
    "SUB": (lambda b: b.load(0).load(1).sub(), lambda x, y: x - y,
            [(x, y) for x in _INT64_EDGES for y in _INT64_EDGES]),
    "MUL": (lambda b: b.load(0).load(1).mul(), lambda x, y: x * y,
            [(x, y) for x in _INT64_EDGES for y in _INT64_EDGES]),
    "NEG": (lambda b: b.load(0).neg(), lambda x, y: -x,
            [(x, 0) for x in _INT64_EDGES]),
    "SHL": (lambda b: b.load(0).load(1).shl(), lambda x, y: x << (y & 63),
            [(x, y) for x in _INT64_EDGES for y in (0, 1, 63, 64, 127)]),
}

#: ADD and SUB with one constant operand can leave int64 on one side
#: only (``c - a`` with c = -1 on neither): the generator emits one
#: comparison, or none. Each constant on either side, over these a.
_ONE_SIDED_CONSTANTS = [INT64_MIN, -2, -1, 1, INT64_MAX]
_ONE_SIDED_OPERANDS = [INT64_MIN, -1, 0, 1, INT64_MAX]


def _constant_op(op, c, constant_left):
    sign = 1 if op == "ADD" else -1
    if constant_left:
        body = lambda b: getattr(b.const(c).load(0), op.lower())()
        exact = lambda x, y: c + sign * x
    else:
        body = lambda b: getattr(b.load(0).const(c), op.lower())()
        exact = lambda x, y: x + sign * c
    return body, exact, [(x, 0) for x in _ONE_SIDED_OPERANDS]


for _op in ("ADD", "SUB"):
    for _c in _ONE_SIDED_CONSTANTS:
        _WRAPPING_OPS["%s c=%d, a" % (_op, _c)] = _constant_op(_op, _c, True)
        _WRAPPING_OPS["%s a, c=%d" % (_op, _c)] = _constant_op(_op, _c, False)

_WARM = 3  # interpreted iterations before the py tier takes over

#: The two-sided range test; a wrapping op with a constant operand, or
#: a NEG, needs at most one side.
_TWO_SIDED = re.compile(r"if not -?\d+ <= v\d+ <= -?\d+:")


@pytest.mark.parametrize("op", sorted(_WRAPPING_OPS))
def test_wrapping_op_edges_match_machine(op, monkeypatch):
    # Each op over int64 edge operands: the py tier returns wrap64 of
    # the exact result, with the machine tier's value and cycles, and
    # takes the out-of-range branch exactly when a result leaves int64
    # (at least once, but for `-1 - a`, which never does).
    body, exact, pairs = _WRAPPING_OPS[op]
    wraps = []

    def counting_wrap(value):
        wraps.append(value)
        return wrap64(value)

    monkeypatch.setattr(pycodegen, "wrap64", counting_wrap)
    program = single_method_program(
        lambda b: body(b).retv(), params=("int", "int")
    )
    args = [(1, 1)] * _WARM + pairs
    machine, py = _run_both(
        program, ("T", "f"), lambda i: list(args[i]), len(args),
        hot_threshold=_WARM,
    )
    assert_identical(machine, py)
    assert py[0][_WARM:] == [("value", wrap64(exact(*p))) for p in pairs]
    leaves = [exact(*p) for p in pairs if not int64.is_wrapped(exact(*p))]
    assert leaves or op == "SUB c=-1, a"
    assert sorted(wraps) == sorted(leaves)
    engine = py[2]
    (source,) = [
        engine.code_cache.get(m).py_source
        for m in engine.code_cache.installed_methods()
    ]
    one_sided = op == "NEG" or "c=" in op
    assert bool(_TWO_SIDED.search(source)) == (not one_sided), source


@pytest.mark.parametrize("access", ["load", "store"])
def test_array_bounds_edges_match_machine(access):
    # Out-of-range indices on both sides of a 4-element array trap on
    # the py tier with the machine tier's message and cycles.
    def build(b):
        arr = b.alloc_local()
        b.const(4).newarray("int").store(arr)
        if access == "load":
            b.load(arr).load(0).aload().retv()
        else:
            b.load(arr).load(0).const(7).astore()
            b.load(arr).const(0).aload().retv()

    program = single_method_program(build)
    bad = [-1, 4, 5, INT64_MIN, INT64_MAX]
    indices = [0, 1, 2] + [x for index in bad for x in (index, 3)]
    runs = []
    for backend in ("machine", "py"):
        engine = _engine(program, backend)
        observed = []
        for index in indices:
            try:
                outcome = engine.run_iteration("T", "f", [index]).value
            except TrapError as trap:
                outcome = (type(trap), str(trap))
            observed.append(
                (outcome, engine.compiled_cycles + engine.icache_cycles)
            )
        runs.append((observed, engine))
    (machine, _), (py, engine) = runs
    assert py == machine
    assert engine.py_exec_count > 0
    traps = [outcome for outcome, _ in py[3::2]]
    assert traps == [
        (BoundsTrap, "IndexOutOfBounds: %d / 4" % index) for index in bad
    ]


@pytest.mark.parametrize("access", ["load", "store"])
@pytest.mark.parametrize(
    "length,index",
    [(8, 3), (8, 0), (8, 7), (8, 8), (8, -1), (0, 0), (-2, 0), (-2, -5),
     (8, INT64_MIN), (8, INT64_MAX)],
)
def test_constant_array_bounds_match_machine(length, index, access):
    # A constant length or index is decided at generation time (no
    # `< 0` test, or only the trap when it is negative); the py tier
    # still returns or traps with the machine tier's message and cycles.
    def build(b):
        arr = b.alloc_local()
        b.const(length).newarray("int").store(arr)
        if access == "store":
            b.load(arr).const(index).load(0).astore()
        b.load(arr).const(index).aload().retv()

    program = single_method_program(build)
    runs = []
    for backend in ("machine", "py"):
        engine = _engine(program, backend)
        observed = []
        for value in range(8):
            try:
                outcome = engine.run_iteration("T", "f", [value]).value
            except TrapError as trap:
                outcome = (type(trap), str(trap))
            observed.append(
                (outcome, engine.compiled_cycles + engine.icache_cycles)
            )
        runs.append((observed, engine))
    (machine, _), (py, engine) = runs
    assert py == machine
    assert engine.py_exec_count > 0
    if length < 0:
        expected = (BoundsTrap, "IndexOutOfBounds: negative array length %d"
                    % length)
    elif not 0 <= index < length:
        expected = (BoundsTrap, "IndexOutOfBounds: %d / %d" % (index, length))
    else:
        expected = None
    if expected is not None:
        assert {outcome for outcome, _ in py} == {expected}


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
        # One positional parameter per argument slot, and the entry
        # counted first.
        params = "".join(
            "v%d, " % slot for slot in range(code.method.num_arg_slots())
        )
        assert "    def _run(%s):\n        _sink.py_exec_count += 1\n" % (
            params[:-2]
        ) in code.py_source


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
    # The machine executor inlines the masked wrap; the generator emits
    # the exact result and a range test that calls wrap64() outside
    # the range. The emitted text must agree with the formula, and the
    # formula with wrap64(), on every edge case.
    masked = (value + _SIGN & _MASK) - _SIGN
    assert masked == wrap64(value)
    codegen = pycodegen._PyCodegen(None, None)
    codegen._wrapped("v", "x", 0)
    scope = {"x": value, "_wrap": wrap64}
    exec("\n".join(codegen.lines), scope)
    assert scope["v"] == masked


def test_one_call_div_rem_match_the_wrapped_pair():
    # Every executor's DIV/REM calls div64/rem64, the one-call form of
    # wrap64(int_div(...)) / wrap64(int_rem(...)); they must agree on
    # every pair of guest integers, edge cases first.
    edges = [0, 1, -1, 2, -2, 3, -3, 7, -7, 2**32, -(2**32),
             INT64_MAX, INT64_MAX - 1, INT64_MIN, INT64_MIN + 1]
    rng = random.Random(18)
    values = edges + [rng.randint(INT64_MIN, INT64_MAX) for _ in range(60)]
    for a in values:
        for b in values:
            if b == 0:
                with pytest.raises(DivisionByZeroTrap):
                    div64(a, b)
                with pytest.raises(DivisionByZeroTrap):
                    rem64(a, b)
                continue
            assert div64(a, b) == wrap64(int_div(a, b)), (a, b)
            assert rem64(a, b) == wrap64(int_rem(a, b)), (a, b)


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


# ---------------------------------------------------------------------------
# Irreducible control flow
# ---------------------------------------------------------------------------

IRREDUCIBLE_ASM = os.path.join(
    os.path.dirname(__file__), "corpus", "irreducible_two_entry_loop.asm"
)


def test_irreducible_loop_bails_out_to_machine_code():
    # Main.walk's cycle is entered at two blocks; the py tier refuses
    # it and machine code runs it, bit-identical to the machine backend.
    program, entry = load_corpus_file(IRREDUCIBLE_ASM)
    obs = Observability()
    machine, py = _run_both(
        program, entry, lambda i: [], 8, obs=obs, hot_threshold=2,
    )
    assert machine[0] == py[0]
    assert machine[1] == py[1]
    assert list(machine[2].vm.output) == list(py[2].vm.output)
    assert machine[2].deopt_count == py[2].deopt_count
    assert len(set(machine[0])) == 2  # both entries were taken
    assert py[2].compilation_count > 0
    assert py[2].py_exec_count == 0
    registry = obs.metrics.snapshot()
    assert registry["backend.py.bailouts"]["value"] >= 1
    assert registry["backend.py.bailouts.irreducible-cfg"]["value"] == (
        registry["backend.py.bailouts"]["value"]
    )


# ---------------------------------------------------------------------------
# The structurer on hypothesis CFGs (tests/cfgs.py)
# ---------------------------------------------------------------------------

#: Blocks one run may enter; the block that spends the last unit traps.
FUEL = 40


def fueled_cfg(spec):
    """``build_cfg(spec)`` with a fuel charge at the top of every block.

    The fuel lives in an int array passed as a third argument; each
    block decrements it and divides by what is left, so the block that
    spends the last unit traps on both tiers and every run ends, cyclic
    specs included.
    """
    graph = build_cfg(spec)
    fuel = graph.add_param(stm.ref_stamp("int[]"))
    for block in graph.blocks:
        zero = graph.register(n.ConstIntNode(0))
        one = graph.register(n.ConstIntNode(1))
        left = graph.register(n.ArrayLoadNode(fuel, zero, stm.int_stamp()))
        spent = graph.register(n.BinOpNode(Op.SUB, left, one))
        store = graph.register(n.ArrayStoreNode(fuel, zero, spent))
        check = graph.register(n.BinOpNode(Op.DIV, one, spent))
        for index, node in enumerate((zero, one, left, spent, store, check)):
            block.insert(index, node)
    return graph


class _Flushed(list):
    """A cycle sink that keeps every flush: ``compiled_cycles`` reads
    their sum, and each ``+=`` hands its setter one flush. A closure's
    entry counts in ``py_exec_count``, as it does on an engine."""

    py_exec_count = 0

    @property
    def compiled_cycles(self):
        return sum(self)

    @compiled_cycles.setter
    def compiled_cycles(self, total):
        self.append(total - sum(self))


class _NoLinks(dict):
    """A link table for closures that make no calls: a lookup fails."""

    def __missing__(self, method):
        raise AssertionError("no calls expected")


def run_cfg(spec, tier, args, pin=None):
    """Run a fueled copy of *spec* on one tier; returns the outcome, the
    cycles flushed to the sink and the fuel left. *pin*, if given, edits
    the graph (its frequencies, say) before it is compiled."""
    graph = fueled_cfg(spec)
    if pin is not None:
        pin(graph)
    vm = VMState(fresh_program())
    fuel = vm.allocate_array("int", 1)
    fuel.data[0] = FUEL
    flushed = _Flushed()

    def dispatch(method, call_args):
        raise AssertionError("generated CFGs make no calls")

    if tier == "machine":
        code = lower_graph(graph)
        executor = MachineExecutor(vm, dispatch, flushed)

        def call():
            return executor.execute(code, list(args) + [fuel])
    else:
        factory, _ = pycodegen.generate(graph)
        run = factory(vm, _NoLinks(), flushed)

        def call():
            assert flushed.py_exec_count == 0
            try:
                return run(*args, fuel)
            finally:
                assert flushed.py_exec_count == 1
    try:
        outcome = ("value", call())
    except TrapError as trap:
        outcome = ("trap", trap.kind, str(trap))
    return outcome, flushed, fuel.data[0]


def reducible(graph):
    """Hecht–Ullman T1/T2 reduction, independent of the dominator code:
    drop self-loops and fold every block with one predecessor into it;
    the reachable graph is reducible iff it collapses to its entry."""
    entry = graph.entry
    succs = {entry: set()}
    work = [entry]
    while work:
        block = work.pop()
        for succ in block.successors():
            succs[block].add(succ)
            if succ not in succs:
                succs[succ] = set()
                work.append(succ)
    preds = {block: set() for block in succs}
    for block, targets in succs.items():
        for succ in targets:
            preds[succ].add(block)
    changed = True
    while changed:
        changed = False
        for block in list(succs):
            preds[block].discard(block)
            succs[block].discard(block)
            if block is entry or len(preds[block]) != 1:
                continue
            (into,) = preds[block]
            succs[into].discard(block)
            for succ in succs.pop(block):
                preds[succ].discard(block)
                preds[succ].add(into)
                succs[into].add(succ)
            del preds[block]
            changed = True
    return len(succs) == 1


#: The entry block is a loop header (builder-made graphs get a
#: synthetic entry block instead).
ENTRY_LOOP = [([0, 1], [(Op.ADD, 0, 1)], 0, []), ([], [], 0, [])]

_ARGS = hst.tuples(hst.integers(-3, 3), hst.integers(-3, 3))


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cfg_specs(), _ARGS)
@example(SELF_LOOP, (1, 2))
@example(UNREACHABLE, (0, 0))
@example(IRREDUCIBLE, (-1, 2))
@example(ENTRY_LOOP, (-1, 0))
def test_structured_cfgs_match_machine_code(spec, args):
    irreducible = not reducible(build_cfg(spec))
    try:
        pycodegen.generate(fueled_cfg(spec))
    except PyCodegenBailout as bailout:
        assert irreducible, bailout.detail
        assert bailout.reason == "irreducible-cfg"
        return
    assert not irreducible
    assert run_cfg(spec, "py", args) == run_cfg(spec, "machine", args)


#: Hypothesis finds for the structurer's rarer constructs: a jump out
#: of two loops (an exit flag), a region that needs a ``while True: ...
#: break`` wrapper (and a flag to continue the loop around it), and a
#: back edge that is not at the end of its loop body (``continue``).
FLAG_SPEC = [
    ([1, 1], [], 0, []),
    ([3, 2], [(Op.AND, 0, 5)], 6, [1, 4]),
    ([1, 0], [(Op.AND, 0, 3), (Op.MUL, 7, 2), (Op.XOR, 3, 3)], 0, []),
    ([], [(Op.MUL, 5, 4), (Op.SUB, 2, 6)], 4, []),
]
WRAPPER_SPEC = [
    ([3, 2], [(Op.DIV, 3, 7), (Op.MUL, 0, 2), (Op.SUB, 7, 1)], 0, []),
    ([0, 1], [], 7, [4, 0]),
    ([0, 1], [(Op.DIV, 5, 5), (Op.MUL, 5, 3)], 4, []),
    ([1, 2], [(Op.SUB, 5, 7), (Op.DIV, 1, 3), (Op.MUL, 0, 3)], 0, []),
]
CONTINUE_SPEC = [
    ([1, 2], [], 6, [4, 3]),
    ([2, 0], [(Op.AND, 0, 0), (Op.AND, 6, 5), (Op.XOR, 7, 5)], 4, []),
    ([0], [(Op.ADD, 4, 6), (Op.AND, 1, 2), (Op.MUL, 1, 6)], 4, []),
]


@pytest.mark.parametrize("spec, construct", [
    (FLAG_SPEC, "flag"),
    (WRAPPER_SPEC, "wrapper"),
    (CONTINUE_SPEC, "continue"),
])
def test_structured_constructs(spec, construct):
    _, source = pycodegen.generate(fueled_cfg(spec))
    lines = [line.strip() for line in source.splitlines()]
    loops = len(compute_loops(fueled_cfg(spec)))
    found = {
        "flag": any(re.fullmatch(r"_x\d+ = True", line) for line in lines),
        "wrapper": lines.count("while True:") > loops,
        "continue": "continue" in lines,
    }
    assert found[construct], source
    for args in ((0, 0), (1, -1), (-2, 3), (3, 1)):
        assert run_cfg(spec, "py", args) == run_cfg(spec, "machine", args)


# ---------------------------------------------------------------------------
# Loop and branch shapes, end to end against the machine backend
# ---------------------------------------------------------------------------


def nested_loops_source(depth):
    """*depth* nested loops; the outer six run twice, the rest once."""
    lines = ["object Main {", "  def run(n: int): int {",
             "    var acc: int = n;"]
    for level in range(depth):
        trips = 2 if level < 6 else 1
        lines.append("    var i%d: int = 0;" % level)
        lines.append("    while (i%d < %d) {" % (level, trips))
    lines.append("    acc = acc * 3 + %s;" % " + ".join(
        "i%d" % level for level in range(depth)
    ))
    for level in reversed(range(depth)):
        lines.append("    i%d = i%d + 1;" % (level, level))
        lines.append("    }")
    lines += ["    return acc;", "  }", "}"]
    return "\n".join(lines)


THREE_LOOP_SEARCH = """
  %s def search(n: int): int {
    var i: int = 0;
    while (i < 4) {
      var j: int = 0;
      while (j < 4) {
        var k: int = 0;
        while (k < 4) {
          if (i * 16 + j * 4 + k == n) { return i * 100 + j * 10 + k; }
          k = k + 1;
        }
        j = j + 1;
      }
      i = i + 1;
    }
    return -1;
  }
"""

SHAPE_SOURCES = {
    # The return leaves all three loops of search (compiled on its
    # own, and inlined into run).
    "return-innermost": "object Main {%s}" % (
        THREE_LOOP_SEARCH % "" + """
  def run(n: int): int { return search(n * 7 % 70); }
"""),
    # Inlined into a loop, the same return is a jump out of three
    # Python loops to the merge after them.
    "return-innermost-inlined": "object Main {%s}" % (
        THREE_LOOP_SEARCH % "@inline" + """
  def run(n: int): int {
    var s: int = 0;
    var t: int = 0;
    while (t < 3) { s = s + search((n + t) * 7 % 70); t = t + 1; }
    return s;
  }
"""),
    # An inlined callee's loop exits to two blocks: the early return
    # and the loop's own exit, meeting at the call's result.
    "two-target-exit": """
object Main {
  @inline def find(a: int[], x: int): int {
    var i: int = 0;
    while (i < a.length) {
      if (a[i] == x) { return i; }
      i = i + 1;
    }
    return -1;
  }
  def run(n: int): int {
    var a: int[] = new int[8];
    var i: int = 0;
    while (i < 8) { a[i] = i * 3 % 8; i = i + 1; }
    var s: int = 0;
    var t: int = 0;
    while (t < 5) { s = s * 2 + find(a, (n + t) % 10); t = t + 1; }
    return s;
  }
}
""",
    "short-circuit-conditions": """
object Main {
  def run(n: int): int {
    var a: int[] = new int[12];
    var i: int = 0;
    while (i < 12 && (i < n || i % 3 == 0)) {
      a[i] = i + n;
      i = i + 1;
    }
    var j: int = 0;
    var s: int = 0;
    while ((j < 12 && a[j] != 5) || (j < 6 && s < 100)) {
      if (j % 2 == 0 || a[j] > 4 && s < 50) { s = s + a[j]; }
      j = j + 1;
    }
    return s * 100 + i;
  }
}
""",
    # Every run ends in the inner loop's division once n is 2..6.
    "trap-in-nested-loop": """
object Main {
  def run(n: int): int {
    var acc: int = 0;
    var i: int = 0;
    while (i < 3) {
      var j: int = 0;
      while (j < 3) {
        acc = acc + 100 / (n - i - j - 2);
        j = j + 1;
      }
      i = i + 1;
    }
    return acc;
  }
}
""",
    # The receiver flips from Sq to Ci after warm-up: the speculative
    # guard compiled into the inner loop is refuted.
    "refuted-guard-in-nested-loop": """
trait Shape { def area(): int; }
class Sq implements Shape {
  var s: int;
  def init(s: int): void { this.s = s; }
  def area(): int { return s * s; }
}
class Ci implements Shape {
  var r: int;
  def init(r: int): void { this.r = r; }
  def area(): int { return 3 * r * r; }
}
object Main {
  def run(n: int): int {
    var shape: Shape = new Sq(2);
    if (n >= 12) { shape = new Ci(1); }
    var acc: int = 0;
    var i: int = 0;
    while (i < 3) {
      var j: int = 0;
      while (j < 3) { acc = acc + shape.area() * (i + j); j = j + 1; }
      i = i + 1;
    }
    return acc;
  }
}
""",
}


def entry_header_program():
    """A method that starts with its loop header (bci 0 is the back
    edge's target; minij never emits one). The builder enters it from
    a synthetic entry block carrying the parameters, as for OSR."""
    def build(b):
        top = b.new_label()
        b.place(top).load(0).const(3).sub().store(0)
        b.load(0).const(0).gt().if_true(top)
        b.load(0).retv()

    return single_method_program(build)


@pytest.mark.parametrize("depth", range(1, 13))
def test_nested_loops(depth):
    program = compile_source(nested_loops_source(depth))
    machine, py = _run_both(program, ("Main", "run"), lambda i: [i], 6)
    assert_identical(machine, py)


@pytest.mark.parametrize("name", sorted(SHAPE_SOURCES))
def test_loop_shapes(name):
    program = compile_source(SHAPE_SOURCES[name])
    machine, py = _run_both(
        program, ("Main", "run"), lambda i: [i], 16, speculate=True,
    )
    assert_identical(machine, py)
    kinds = {outcome[0] for outcome in py[0]}
    if name == "trap-in-nested-loop":
        assert kinds == {"value", "trap"}
    else:
        assert kinds == {"value"}
    if name == "refuted-guard-in-nested-loop":
        assert py[2].deopt_count >= 1


def test_method_starting_with_loop_header():
    program = entry_header_program()
    machine, py = _run_both(program, ("T", "f"), lambda i: [i * 5 + 1], 8)
    assert_identical(machine, py)
    # The parameter reaches the loop: f(n) counts n down by threes.
    assert machine[0] == [
        ("value", (i * 5 + 1) - 3 * ((i * 5 + 1 + 2) // 3)) for i in range(8)
    ]


def test_osr_into_inner_loop():
    # Dispatch never compiles run; OSR enters its inner loop.
    program = compile_source(nested_loops_source(3).replace(
        "< 2)", "< 40)"
    ))
    machine, py = _run_both(
        program, ("Main", "run"), lambda i: [i], 3,
        hot_threshold=10**9, osr=True, osr_threshold=30,
    )
    assert_identical(machine, py)
    assert py[2].osr_entry_count >= 1


def test_loop_nest_deeper_than_python_allows():
    # CPython allows 20 statically nested loops: a 22-deep nest either
    # compiles or bails out as compile-failed, never crashes.
    program = compile_source(nested_loops_source(22))
    obs = Observability()
    machine, py = _run_both(
        program, ("Main", "run"), lambda i: [i], 5, obs=obs,
    )
    assert machine[0] == py[0]
    assert machine[1] == py[1]
    registry = obs.metrics.snapshot()
    bailouts = {
        name for name in registry if name.startswith("backend.py.bailouts.")
    }
    assert bailouts <= {"backend.py.bailouts.compile-failed"}
    assert bailouts or py[2].py_exec_count > 0


# ---------------------------------------------------------------------------
# The suite programs' generated source
# ---------------------------------------------------------------------------


def record_sources(monkeypatch):
    """Record ``(source, chords)`` for every graph the compiler hands
    the py tier, *chords* being E - V + 1 over its reachable blocks:
    the edges off a spanning tree."""
    sources = []
    generate = compiler.generate_py

    def recorded(graph, cost_model=None):
        chords = chord_count(graph)
        factory, source = generate(graph, cost_model)
        sources.append((source, chords))
        return factory, source

    monkeypatch.setattr(compiler, "generate_py", recorded)
    return sources


def chord_count(graph):
    order = graph.reverse_postorder()
    edges = sum(len(block.successors()) for block in order)
    return edges - len(order) + 1


def charge_lines(source):
    """The numbers of *source*'s lines that charge cycles (1-based)."""
    return [
        number for number, line in enumerate(source.splitlines(), 1)
        if re.fullmatch(r"\s*_cy [+-]= \d+", line)
    ]


@pytest.mark.parametrize("name", [spec.name for spec in all_benchmarks()])
def test_suite_source_is_structured(name, monkeypatch):
    # Steady-state configuration, 30 iterations: every compile reaches
    # the py tier, no source keeps a block id, and each charges cycles
    # on at most the chords of a spanning tree.
    sources = record_sources(monkeypatch)
    engine = Engine(
        compile_source(get_benchmark(name).source),
        JitConfig(hot_threshold=25, interp_predecode=True, backend="py",
                  speculate=False, typespec=False, osr=False),
        tuned_inliner(0.1),
    )
    for _ in range(30):
        engine.run_iteration("Main", "run")
    assert sources
    assert len(sources) == engine.compilation_count
    for source, chords in sources:
        assert not re.search(r"\b_b\s*=", source)
        assert "bad block id" not in source
        assert len(charge_lines(source)) <= chords, source


# ---------------------------------------------------------------------------
# Cycle charges on the chords of a spanning tree
# ---------------------------------------------------------------------------


def test_generated_cases_charge_only_chords(monkeypatch):
    # The jitbench generated workload's configuration (speculation,
    # type specialization, OSR) on 50 fuzz cases.
    sources = record_sources(monkeypatch)
    for index in range(50):
        program, entry = generate_case(GENERATED_BASE + index).build()
        engine = Engine(
            program, generated_config(), tuned_inliner(0.1), seed=index
        )
        for _ in range(5):
            try:
                engine.run_iteration(*entry)
            except TrapError:
                pass
    assert len(sources) > 50
    for source, chords in sources:
        assert len(charge_lines(source)) <= chords, source


def optimized_graph(program, class_name, method_name):
    """The graph ``disasm --form py`` generates from: built, optimized
    and annotated with frequencies, as a compile of the method alone."""
    graph = build_graph(program.lookup_method(class_name, method_name),
                        program)
    OptimizationPipeline(program).run(graph)
    annotate_frequencies(graph)
    return graph


def run_tiers(graph, program, arg_lists):
    """Each argument list through *graph*'s machine code and py closure
    (no calls allowed); per tier, the outcomes with their flushes."""
    runs = []
    for tier in ("machine", "py"):
        observed = []
        for args in arg_lists:
            vm = VMState(program)
            flushed = _Flushed()

            def dispatch(method, call_args):
                raise AssertionError("no calls expected")

            if tier == "machine":
                executor = MachineExecutor(vm, dispatch, flushed)
                code = lower_graph(graph)
                call = lambda: executor.execute(code, list(args))
            else:
                factory, _ = pycodegen.generate(graph)
                run = factory(vm, _NoLinks(), flushed)
                call = lambda: run(*args)
            try:
                outcome = ("value", call())
            except TrapError as trap:
                outcome = ("trap", type(trap), str(trap))
            observed.append((outcome, list(flushed)))
        runs.append(observed)
    return runs


def traced_charges(run, source, args):
    """How many cycle charges one call of the closure *run*, generated
    as *source*, executes."""
    charges = set(charge_lines(source))
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if not frame.f_code.co_filename.startswith("<pycodegen:"):
            return None
        if event == "line" and frame.f_lineno in charges:
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run(*args)
    finally:
        sys.settrace(previous)
    return count


COUNTING_LOOP = """
object Main {
  def count(n: int): int {
    var s: int = 0;
    var i: int = 0;
    while (i < n) { s = s + i * 3; i = i + 1; }
    return s;
  }
}
"""


def test_counting_loop_charges_once_per_iteration():
    # The header and the body are one block each: the spanning tree
    # keeps the forward edges, so the back edge is the one chord.
    program = compile_source(COUNTING_LOOP)
    graph = optimized_graph(program, "Main", "count")
    factory, source = pycodegen.generate(graph)
    run = factory(VMState(program), _NoLinks(), _Flushed())
    counts = [traced_charges(run, source, [trips]) for trips in range(2, 9)]
    assert [b - a for a, b in zip(counts, counts[1:])] == [1] * 6, source
    machine, py = run_tiers(graph, program, [[trips] for trips in range(9)])
    assert py == machine


#: B0 branches to B1 directly (rarely) or through B2: the direct edge
#: is the chord, so its arm of the ``if`` holds the charge alone.
CHARGE_ARM_SPEC = [
    ([1, 2], [], 2, []),
    ([], [(Op.ADD, 0, 1)], 0, []),
    ([1], [(Op.MUL, 0, 1)], 0, []),
]


def pin_charge_arm(graph):
    graph.blocks[0].terminator.probability = 0.1


def test_arm_holding_only_a_charge_is_not_empty():
    graph = fueled_cfg(CHARGE_ARM_SPEC)
    pin_charge_arm(graph)
    _, source = pycodegen.generate(graph)
    lines = source.splitlines()
    arms = [
        index for index, line in enumerate(lines[:-2])
        if line.lstrip().startswith("if ")
        and re.fullmatch(r"\s*_cy [+-]= \d+", lines[index + 1])
        and len(lines[index + 2]) - len(lines[index + 2].lstrip())
        <= len(line) - len(line.lstrip())
    ]
    assert arms, source
    outcomes = set()
    for args in ((1, 0), (0, 0), (-1, 2)):
        py = run_cfg(CHARGE_ARM_SPEC, "py", args, pin_charge_arm)
        assert py == run_cfg(CHARGE_ARM_SPEC, "machine", args, pin_charge_arm)
        outcomes.add(tuple(py[1]))
    assert len(outcomes) == 2


# ---------------------------------------------------------------------------
# Null tests
# ---------------------------------------------------------------------------

NULL_TESTS = """
class Cell {
  var x: int;
  def init(x: int): void { this.x = x; }
  def twice(): int { return this.x + this.x; }
}
object Main {
  def merge(b: Cell, n: int): int {
    var s: int = 1;
    if (n > 2) { s = b.x; }
    return s + b.x;
  }
  def fresh(n: int): int {
    var a: int[] = new int[n + 4];
    a[n] = 7;
    return a[n] + a.length;
  }
  def call(c: Cell): int { return c.twice(); }
}
"""


def test_merge_keeps_the_null_test_one_arm_made():
    # The then-arm tests b, but the else-arm does not, so the test at
    # the merge does not follow from it: it stays, and traps with the
    # machine tier's message when b is null and the else-arm ran.
    program = compile_source(NULL_TESTS)
    graph = optimized_graph(program, "Main", "merge")
    _, source = pycodegen.generate(graph)
    assert source.count("is None:") == 2, source
    box = VMState(program).allocate("Cell")
    box.fields["x"] = 5
    machine, py = run_tiers(
        graph, program, [[box, 3], [box, 0], [None, 3], [None, 0]]
    )
    assert py == machine
    assert [outcome for outcome, _ in py] == [
        ("value", 10), ("value", 6),
        ("trap", NullPointerTrap, "NullPointer: GETFIELD x"),
        ("trap", NullPointerTrap, "NullPointer: GETFIELD x"),
    ]


def test_allocations_get_no_null_test_but_this_does():
    # A fresh array is never null. The receiver `this` has a non-null
    # stamp but can be null (see below): its first access tests it,
    # and the second, in the same block, does not.
    program = compile_source(NULL_TESTS)
    sources = {}
    for class_name, method_name in (("Main", "fresh"), ("Cell", "twice")):
        graph = optimized_graph(program, class_name, method_name)
        _, sources[method_name] = pycodegen.generate(graph)
    assert "is None" not in sources["fresh"], sources["fresh"]
    assert sources["twice"].count("is None:") == 1, sources["twice"]


def test_instance_test_arm_needs_no_null_test():
    # scaladoc's Seq.foreach inlines ArraySeq's `length` and `get` behind
    # an exact-type test of the receiver, whose true arm reads it through
    # a Pi node. An instance test is false on null, so neither arm tests
    # the renamed receiver; the call arms still test it, and a null
    # receiver traps there as on the machine tier, for the same cycles.
    runs = []
    for backend in ("machine", "py"):
        engine = Engine(
            get_benchmark("scaladoc").load(),
            JitConfig(hot_threshold=25, interp_predecode=True,
                      backend=backend, speculate=False, typespec=False,
                      osr=False),
            tuned_inliner(0.1),
        )
        for _ in range(30):
            engine.run_iteration("Main")
        foreach = engine.program.lookup_method("Seq", "foreach")
        assert foreach in engine.code_cache
        before = engine.compiled_cycles
        with pytest.raises(NullPointerTrap) as trap:
            engine.call("Seq", "foreach", [None, None])
        runs.append((str(trap.value), engine.compiled_cycles - before))
    source = engine.code_cache.get(foreach).py_source
    renames = re.findall(r"^\s*(v\d+) = v0$", source, re.M)
    assert len(renames) >= 2, source
    for name in renames:
        assert "if %s is None:" % name not in source, source
    assert "if v0 is None:\n" in source, source
    assert runs[0] == runs[1]
    assert runs[1][0] == "NullPointer: call length"


def test_devirtualized_call_on_null_receiver_traps_in_the_callee():
    # Class-hierarchy analysis makes c.twice() a direct call, and no
    # tier tests a direct call's receiver: with no inliner, null
    # reaches the compiled Cell.twice as `this`, whose field load must
    # trap on the py tier exactly as on the machine tier.
    program = compile_source(NULL_TESTS)
    runs = []
    for backend in ("machine", "py"):
        engine = Engine(program, JitConfig(backend=backend, hot_threshold=3))
        box = engine.vm.allocate("Cell")
        box.fields["x"] = 5
        outcomes = []
        for receiver in [box] * 6 + [None]:
            try:
                result = engine.run_iteration("Main", "call", [receiver])
                outcomes.append(("value", result.value))
            except TrapError as trap:
                outcomes.append(("trap", type(trap), str(trap)))
        compiled = sorted(
            method.qualified_name
            for method in engine.code_cache.installed_methods()
        )
        runs.append((outcomes, engine.compiled_cycles, compiled))
    assert runs[0] == runs[1]
    outcomes, _, compiled = runs[1]
    assert compiled == ["Cell.twice", "Main.call"]
    assert outcomes[-1] == (
        "trap", NullPointerTrap, "NullPointer: GETFIELD x"
    )
    call = engine.code_cache.get(program.lookup_method("Main", "call"))
    assert "dispatch_row" not in call.py_source, call.py_source
