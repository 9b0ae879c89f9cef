"""Composability of the environment pins.

Each row of :data:`repro.jit.config.PINS` has a hard spelling that pins
one fast path or feature back to its reference (``REPRO_SPECULATE=off``,
``REPRO_OSR=off``, ``REPRO_BACKEND=machine``, ``REPRO_TYPESPEC=off``,
``REPRO_INTERP=classic``, ``REPRO_COMPILE=sync``, …). Every exercised
combination must be bit-identical on a pinned workload (same values,
same program output), and the cycle model may move only with the pins
that change compiled code. Pins are resolved at engine construction, so
each combination runs in a fresh subprocess.

The combinations come from the table (``tests.helpers.pin_combos``):
nothing pinned, each row alone, and all rows at once, so a row added
to the table joins the matrix without editing this file. The workload
engines request the alternative of every row they can (pre-decoded
interpreter, speculation, type-check speculation, OSR, the py backend),
so each hard pin changes a real path; compilation stays synchronous,
because background installs would make cycles timing-dependent (see
``test_serve_async_matrix.py``).
"""

from repro.jit.config import PIN_TABLE, PINS
from tests.helpers import pin_combos, run_pinned

# The pinned workload, three parts:
#
# 1. The receiver-flip driver from the deopt tests: ten monomorphic
#    warmup iterations compile (and, unless pinned off, speculate in)
#    the driver, then alternating receivers refute the guard — so the
#    speculation pin changes real compiled-code paths, not just flags.
#
# 2. The shapes benchmark's 120-iteration loop on a second engine whose
#    dispatch threshold is unreachable: the *only* route into compiled
#    code is an OSR transfer at the loop backedge, so the OSR pin also
#    changes real compiled-code paths (loop finishes in the OSR
#    continuation vs. stays interpreted).
#
# 3. The classify driver from the typespec tests on a third engine:
#    monomorphic warmup lets the compiler guard the instanceof on the
#    profiled exact type, then alternating operand types refute it —
#    so the typespec pin changes real compiled-code paths too.
CHILD = r"""
import json

from repro.baselines import tuned_inliner
from repro.jit.config import PINS, JitConfig
from repro.jit.engine import Engine
from tests.test_deopt import flip_program
from tests.helpers import shapes_program

program = flip_program()
engine = Engine(
    program,
    JitConfig(hot_threshold=4, speculate=True, backend="py",
              interp_predecode=True),
    tuned_inliner(1.0),
)
values, cycles = [], []
for i in range(16):
    kind = i % 2 if i >= 10 else 0
    result = engine.run_iteration("Main", "drive", [kind])
    values.append(result.value)
    cycles.append(result.total_cycles)

osr_engine = Engine(
    shapes_program(),
    JitConfig(hot_threshold=10**9, osr=True, osr_threshold=30,
              backend="py", interp_predecode=True),
    tuned_inliner(1.0),
)
osr_values, osr_cycles = [], []
for _ in range(2):
    result = osr_engine.run_iteration("Main", "run")
    osr_values.append(result.value)
    osr_cycles.append(result.total_cycles)

from tests.test_typespec import classify_program

ts_engine = Engine(
    classify_program(),
    JitConfig(hot_threshold=4, speculate=True, typespec=True,
              backend="py", interp_predecode=True),
    tuned_inliner(1.0),
)
ts_values, ts_cycles = [], []
for i in range(16):
    kind = i % 2 if i >= 10 else 0
    result = ts_engine.run_iteration("Main", "drive", [kind])
    ts_values.append(result.value)
    ts_cycles.append(result.total_cycles)

print(json.dumps({
    "values": values,
    "cycles": cycles,
    "output": list(engine.vm.output),
    "deopts": engine.deopt_count,
    "osr_values": osr_values,
    "osr_cycles": osr_cycles,
    "osr_output": list(osr_engine.vm.output),
    "osr_entries": osr_engine.osr_entry_count,
    "ts_values": ts_values,
    "ts_cycles": ts_cycles,
    "ts_output": list(ts_engine.vm.output),
    "ts_deopts": ts_engine.deopt_count,
    "py_execs": engine.py_exec_count + osr_engine.py_exec_count
    + ts_engine.py_exec_count,
    "predecode": [e.interpreter.predecode
                  for e in (engine, osr_engine, ts_engine)],
    "resolved": {pin.field: engine.config.resolve(pin.field)
                 for pin in PINS},
}))
"""


def _pinned(combo, field):
    return PIN_TABLE[field].env in combo


def test_env_pin_matrix_bit_identical():
    combos = pin_combos(PINS)
    results = [run_pinned(CHILD, combo) for combo in combos]
    runs = list(zip(combos, results))
    baseline = results[0]

    # Observables are bit-identical across all exercised combinations,
    # and every pinned row resolved to its reference.
    for combo, result in runs:
        assert result["values"] == baseline["values"], combo
        assert result["output"] == baseline["output"], combo
        assert result["osr_values"] == baseline["osr_values"], combo
        assert result["osr_output"] == baseline["osr_output"], combo
        assert result["ts_values"] == baseline["ts_values"], combo
        assert result["ts_output"] == baseline["ts_output"], combo
        for pin in PINS:
            if pin.env in combo:
                assert result["resolved"][pin.field] == pin.reference, combo

    # The cycle model may legitimately differ between speculative and
    # pinned-off runs (different compiled code), but the interpreter,
    # backend and compile-mode pins are pure engineering knobs: within
    # each speculation setting the flip-driver cycles of every
    # combination agree exactly.
    for spec_off in (False, True):
        group = [
            result["cycles"]
            for combo, result in runs
            if _pinned(combo, "speculate") == spec_off
        ]
        assert all(cycles == group[0] for cycles in group), spec_off

    # Likewise the loop workload: its cycles depend only on whether the
    # frame transferred into OSR code (the dispatch threshold is
    # unreachable, so no other tier change can interfere).
    for osr_off in (False, True):
        group = [
            result["osr_cycles"]
            for combo, result in runs
            if _pinned(combo, "osr") == osr_off
        ]
        assert all(cycles == group[0] for cycles in group), osr_off

    # The classify driver's cycles depend only on whether its guard was
    # ever speculated: the typespec pin, the speculation pin (which
    # gates the frame-state capture the guards need) and the config bit
    # collapse to one effective boolean.
    for ts_off in (False, True):
        group = [
            result["ts_cycles"]
            for combo, result in runs
            if (_pinned(combo, "speculate") or _pinned(combo, "typespec"))
            == ts_off
        ]
        assert all(cycles == group[0] for cycles in group), ts_off

    # Sanity: the pinned rows changed real behaviour — unpinned runs
    # took a deopt on the receiver flip, transferred the hot loop into
    # compiled code mid-method, refuted the classify guard on the first
    # Circle, served compiled calls from the Python tier and
    # interpreted on the pre-decoded tier; pinned runs never did.
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
        assert result["predecode"] == [tier] * 3, combo
