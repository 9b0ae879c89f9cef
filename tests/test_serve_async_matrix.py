"""Composability of background compilation with the other env pins.

``REPRO_COMPILE=async`` (the compile-mode row's soft spelling; the
workload engines leave ``compile_mode`` unset) moves compilation onto a
background queue that the workload drains at iteration edges; values,
trap kinds, and printed output must stay bit-identical to synchronous
compilation under the other rows of :data:`repro.jit.config.PINS` —
the async pipeline may only change *when* compiled code becomes
available, never what it computes. Cycles are deliberately not
compared across the compile-mode bit: async charges compile cycles to
the engine's ``background_compile_cycles`` ledger instead of the
triggering iteration, so per-iteration cycle counts legitimately
differ.

Both compile modes run under the combinations of
``tests.helpers.pin_combos`` over the other rows (nothing pinned, each
row hard-pinned alone, all of them at once), so a row added to the
table joins the matrix without editing this file. Pins are resolved at
engine construction, so every combination runs in a fresh subprocess
(same harness as ``test_env_pin_matrix``).
"""

from repro.jit.config import PIN_TABLE, PINS
from tests.helpers import pin_combos, run_pinned

COMPILE = PIN_TABLE["compile_mode"]
ASYNC = {COMPILE.env: COMPILE.soft[0]}

# The pinned workload, four parts, each stressing a different
# interaction with the background pipeline:
#
# 1. The receiver-flip driver: speculation plus a guaranteed deopt at
#    iteration 10 — a deopt in async mode also cancels pending requests
#    for the method, so this exercises the cancellation edge.
#
# 2. The shapes loop with an unreachable dispatch threshold: the only
#    route into compiled code is an OSR transfer, so in async mode the
#    OSR continuation itself is compiled in the background.
#
# 3. A trapping division driven through zero every fourth call: trap
#    kinds must survive the compiled tier regardless of *when* the
#    compiled code was installed.
#
# 4. The classify driver from the typespec tests: monomorphic warmup
#    lets the compiler guard the instanceof on the profiled exact type,
#    then alternating operand types refute it — a type guard refuted in
#    async mode exercises the same cancellation edge as the receiver
#    flip.
CHILD = r"""
import json

from repro.baselines import tuned_inliner
from repro.errors import TrapError
from repro.jit.config import PINS, JitConfig
from repro.jit.engine import Engine
from tests.test_deopt import flip_program
from tests.helpers import shapes_program, single_method_program

def observe(engine, cls, name, args):
    try:
        return ("value", engine.run_iteration(cls, name, args).value)
    except TrapError as trap:
        return ("trap", trap.kind)
    finally:
        # Async mode: settle the queue at the iteration edge so
        # compiled code is reached deterministically; sync no-op.
        engine.drain_compiles()

flip = Engine(
    flip_program(),
    JitConfig(hot_threshold=4, speculate=True, backend="py",
              interp_predecode=True),
    tuned_inliner(1.0),
)
flip_outcomes = [
    observe(flip, "Main", "drive", [i % 2 if i >= 10 else 0])
    for i in range(16)
]

osr = Engine(
    shapes_program(),
    JitConfig(hot_threshold=10**9, osr=True, osr_threshold=30,
              backend="py", interp_predecode=True),
    tuned_inliner(1.0),
)
osr_outcomes = [observe(osr, "Main", "run", []) for _ in range(2)]

trap = Engine(
    single_method_program(
        lambda b: b.const(100).load(0).div().retv()
    ),
    JitConfig(hot_threshold=3, backend="py", interp_predecode=True),
    tuned_inliner(1.0),
)
trap_outcomes = [observe(trap, "T", "f", [2 - i % 4]) for i in range(12)]

from tests.test_typespec import classify_program

ts = Engine(
    classify_program(),
    JitConfig(hot_threshold=4, speculate=True, typespec=True,
              backend="py", interp_predecode=True),
    tuned_inliner(1.0),
)
ts_outcomes = [
    observe(ts, "Main", "drive", [i % 2 if i >= 10 else 0])
    for i in range(16)
]

engines = (flip, osr, trap, ts)
result = {
    "flip": flip_outcomes,
    "osr": osr_outcomes,
    "trap": trap_outcomes,
    "ts": ts_outcomes,
    "output": [list(e.vm.output) for e in engines],
    "deopts": flip.deopt_count,
    "osr_entries": osr.osr_entry_count,
    "ts_deopts": ts.deopt_count,
    "async_installs": sum(e.async_installs for e in engines),
    "compilations": sum(e.compilation_count for e in engines),
    "py_execs": sum(e.py_exec_count for e in engines),
    "predecode": [e.interpreter.predecode for e in engines],
    "resolved": {pin.field: flip.config.resolve(pin.field) for pin in PINS},
}
for e in engines:
    e.shutdown()
print(json.dumps(result))
"""


def _pinned(combo, field):
    return PIN_TABLE[field].env in combo


def test_async_pin_matrix_bit_identical():
    others = pin_combos([pin for pin in PINS if pin is not COMPILE])
    combos = others + [dict(combo, **ASYNC) for combo in others]
    results = [run_pinned(CHILD, combo) for combo in combos]
    runs = list(zip(combos, results))
    baseline = results[0]

    # Outcomes (values and trap kinds) and printed output are
    # bit-identical across all exercised combinations, and every
    # hard-pinned row resolved to its reference.
    for combo, result in runs:
        assert result["flip"] == baseline["flip"], combo
        assert result["osr"] == baseline["osr"], combo
        assert result["trap"] == baseline["trap"], combo
        assert result["ts"] == baseline["ts"], combo
        assert result["output"] == baseline["output"], combo
        for pin in PINS:
            if combo.get(pin.env) in pin.hard:
                assert result["resolved"][pin.field] == pin.reference, combo

    # The deopt protocol is compile-mode independent: within each
    # speculation setting, every combination observed the same deopts.
    for spec_off in (False, True):
        group = [
            result["deopts"]
            for combo, result in runs
            if _pinned(combo, "speculate") == spec_off
        ]
        assert all(count == group[0] for count in group), spec_off

    # Sanity: the trapping workload actually trapped, and kept trapping
    # after the method compiled.
    assert baseline["trap"][2][0] == "trap"
    assert baseline["trap"][10][0] == "trap"
    assert any(kind == "value" for kind, _ in baseline["trap"])

    # Sanity: the async bit exercised the background pipeline — every
    # async combination installed code off the queue; no sync
    # combination did.
    for combo, result in runs:
        assert result["compilations"] > 0, combo
        if _pinned(combo, "compile_mode"):
            assert result["resolved"]["compile_mode"] == "async", combo
            assert result["async_installs"] > 0, combo
        else:
            assert result["async_installs"] == 0, combo

    # Sanity: the pinned rows changed real behaviour — unpinned
    # combinations deopted, entered OSR code, refuted the type guard,
    # served compiled calls from the Python tier and interpreted on the
    # pre-decoded tier; pinned ones never did. The type guard never
    # exists when either the speculation or the typespec pin is set.
    assert baseline["deopts"] == 1
    assert baseline["osr_entries"] >= 1
    assert baseline["ts_deopts"] >= 1
    assert baseline["py_execs"] > 0
    for combo, result in runs:
        if _pinned(combo, "speculate"):
            assert result["deopts"] == 0, combo
        if _pinned(combo, "osr"):
            assert result["osr_entries"] == 0, combo
        if _pinned(combo, "speculate") or _pinned(combo, "typespec"):
            assert result["ts_deopts"] == 0, combo
        if _pinned(combo, "backend"):
            assert result["py_execs"] == 0, combo
        tier = not _pinned(combo, "interp_predecode")
        assert result["predecode"] == [tier] * 4, combo
