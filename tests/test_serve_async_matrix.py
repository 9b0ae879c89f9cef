"""Composability of background compilation with the other config fields.

``compile_mode="async"`` moves compilation onto a background queue that
the workload drains at iteration edges; values, trap kinds, and printed
output must stay bit-identical to synchronous compilation under every
combination of the other fields of ``tests.helpers.CHOICES`` — the
async pipeline may only change *when* compiled code becomes available,
never what it computes. Cycles are deliberately not compared across the
compile-mode bit: async charges compile cycles to the engine's
``background_compile_cycles`` ledger instead of the triggering
iteration, so per-iteration cycle counts legitimately differ.

Both compile modes run under the combinations of
``tests.helpers.reference_combos`` over the other fields (nothing at
the reference, each field alone, all of them at once).
"""

from repro.baselines import tuned_inliner
from repro.errors import TrapError
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from tests.helpers import (
    CHOICES,
    engine_choices,
    reference_combos,
    shapes_program,
    single_method_program,
)
from tests.test_deopt import flip_program
from tests.test_typespec import classify_program

#: The fields run under both compile modes: all but ``compile_mode``.
OTHERS = [field for field in CHOICES if field != "compile_mode"]


def _observe(engine, cls, name, args):
    try:
        return ("value", engine.run_iteration(cls, name, args).value)
    except TrapError as trap:
        return ("trap", trap.kind)
    finally:
        # Async mode: settle the queue at the iteration edge so
        # compiled code is reached deterministically; sync no-op.
        engine.drain_compiles()


def run_workload(combo, compile_mode):
    """The workload under *compile_mode* with every field in *combo* at
    its reference, in four parts, each stressing a different
    interaction with the background pipeline:

    1. The receiver-flip driver: speculation plus a guaranteed deopt at
       iteration 10 — a deopt in async mode also cancels pending
       requests for the method, so this exercises the cancellation
       edge.

    2. The shapes loop with an unreachable dispatch threshold: the only
       route into compiled code is an OSR transfer, so in async mode the
       OSR continuation itself is compiled in the background.

    3. A trapping division driven through zero every fourth call: trap
       kinds must survive the compiled tier regardless of *when* the
       compiled code was installed.

    4. The classify driver from the typespec tests: monomorphic warmup
       lets the compiler guard the instanceof on the profiled exact
       type, then alternating operand types refute it — a type guard
       refuted in async mode exercises the same cancellation edge as
       the receiver flip.
    """

    def engine(program, **config):
        config.update({field: CHOICES[field][0] for field in combo})
        config["compile_mode"] = compile_mode
        return Engine(program, JitConfig(**config), tuned_inliner(1.0))

    flip = engine(flip_program(), hot_threshold=4, speculate=True,
                  backend="py", interp_predecode=True)
    flip_outcomes = [
        _observe(flip, "Main", "drive", [i % 2 if i >= 10 else 0])
        for i in range(16)
    ]

    osr = engine(shapes_program(), hot_threshold=10**9, osr=True,
                 osr_threshold=30, backend="py", interp_predecode=True)
    osr_outcomes = [_observe(osr, "Main", "run", []) for _ in range(2)]

    trap = engine(
        single_method_program(lambda b: b.const(100).load(0).div().retv()),
        hot_threshold=3, backend="py", interp_predecode=True,
    )
    trap_outcomes = [
        _observe(trap, "T", "f", [2 - i % 4]) for i in range(12)
    ]

    ts = engine(classify_program(), hot_threshold=4, speculate=True,
                typespec=True, backend="py", interp_predecode=True)
    ts_outcomes = [
        _observe(ts, "Main", "drive", [i % 2 if i >= 10 else 0])
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
        "choices": engine_choices(flip),
    }
    for e in engines:
        e.shutdown()
    return result


def test_async_pin_matrix_bit_identical():
    runs = [
        ((combo, mode), run_workload(combo, mode))
        for mode in CHOICES["compile_mode"]
        for combo in reference_combos(OTHERS)
    ]
    baseline = runs[0][1]

    # Outcomes (values and trap kinds) and printed output are
    # bit-identical across all exercised combinations, and the engine
    # took the reference of every field set to it.
    for (combo, mode), result in runs:
        key = (combo, mode)
        assert result["flip"] == baseline["flip"], key
        assert result["osr"] == baseline["osr"], key
        assert result["trap"] == baseline["trap"], key
        assert result["ts"] == baseline["ts"], key
        assert result["output"] == baseline["output"], key
        for field in combo:
            assert result["choices"][field] == CHOICES[field][0], key

    # The deopt protocol is compile-mode independent: within each
    # speculation setting, every combination observed the same deopts.
    for spec_off in (False, True):
        group = [
            result["deopts"]
            for (combo, _), result in runs
            if ("speculate" in combo) == spec_off
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
    for (combo, mode), result in runs:
        key = (combo, mode)
        assert result["compilations"] > 0, key
        assert result["choices"]["compile_mode"] == mode, key
        if mode == "async":
            assert result["async_installs"] > 0, key
        else:
            assert result["async_installs"] == 0, key

    # Sanity: the fields changed real behaviour — the all-alternative
    # combinations deopted, entered OSR code, refuted the type guard,
    # served compiled calls from the Python tier and interpreted on the
    # pre-decoded tier; combinations with the field at its reference
    # never did. The type guard never exists when either speculation or
    # typespec is at its reference.
    assert baseline["deopts"] == 1
    assert baseline["osr_entries"] >= 1
    assert baseline["ts_deopts"] >= 1
    assert baseline["py_execs"] > 0
    for (combo, mode), result in runs:
        key = (combo, mode)
        if "speculate" in combo:
            assert result["deopts"] == 0, key
        if "osr" in combo:
            assert result["osr_entries"] == 0, key
        if "speculate" in combo or "typespec" in combo:
            assert result["ts_deopts"] == 0, key
        if "backend" in combo:
            assert result["py_execs"] == 0, key
        tier = "interp_predecode" not in combo
        assert result["predecode"] == [tier] * 4, key
