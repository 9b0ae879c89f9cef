"""Composability of the config fields that choose a fast path.

Each field of ``tests.helpers.CHOICES`` selects a reference or an
alternative: the classic interpreter or the pre-decoded tier, no
speculation or guard/deopt, no type-check speculation, no OSR, the
machine executor or the py tier. Every exercised combination must be
bit-identical on one workload (same values, same program output), and
the cycle model may move only with the fields that change compiled
code.

The combinations come from ``tests.helpers.reference_combos``: nothing
at the reference, each field alone, and all fields at once. The
workload engines request the alternative of every field they can
(pre-decoded interpreter, speculation, type-check speculation, OSR, the
py backend), so each field put back at its reference changes a real
path; compilation stays synchronous, because background installs would
make cycles timing-dependent (see ``test_serve_async_matrix.py``).
"""

from repro.baselines import tuned_inliner
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from tests.helpers import (
    CHOICES,
    engine_choices,
    reference_combos,
    shapes_program,
)
from tests.test_deopt import flip_program
from tests.test_typespec import classify_program

#: The fields this matrix moves: all but ``compile_mode``.
FIELDS = [field for field in CHOICES if field != "compile_mode"]


def run_workload(combo):
    """The workload with every field in *combo* at its reference, in
    three parts:

    1. The receiver-flip driver from the deopt tests: ten monomorphic
       warmup iterations compile (and, with speculation, speculate in)
       the driver, then alternating receivers refute the guard — so the
       speculation field changes real compiled-code paths, not just
       flags.

    2. The shapes benchmark's 120-iteration loop on a second engine
       whose dispatch threshold is unreachable: the *only* route into
       compiled code is an OSR transfer at the loop backedge, so the OSR
       field also changes real compiled-code paths (loop finishes in the
       OSR continuation vs. stays interpreted).

    3. The classify driver from the typespec tests on a third engine:
       monomorphic warmup lets the compiler guard the instanceof on the
       profiled exact type, then alternating operand types refute it —
       so the typespec field changes real compiled-code paths too.
    """

    def engine(program, **config):
        config.update({field: CHOICES[field][0] for field in combo})
        return Engine(program, JitConfig(**config), tuned_inliner(1.0))

    flip = engine(flip_program(), hot_threshold=4, speculate=True,
                  backend="py", interp_predecode=True)
    values, cycles = [], []
    for i in range(16):
        kind = i % 2 if i >= 10 else 0
        result = flip.run_iteration("Main", "drive", [kind])
        values.append(result.value)
        cycles.append(result.total_cycles)

    osr = engine(shapes_program(), hot_threshold=10**9, osr=True,
                 osr_threshold=30, backend="py", interp_predecode=True)
    osr_values, osr_cycles = [], []
    for _ in range(2):
        result = osr.run_iteration("Main", "run")
        osr_values.append(result.value)
        osr_cycles.append(result.total_cycles)

    ts = engine(classify_program(), hot_threshold=4, speculate=True,
                typespec=True, backend="py", interp_predecode=True)
    ts_values, ts_cycles = [], []
    for i in range(16):
        kind = i % 2 if i >= 10 else 0
        result = ts.run_iteration("Main", "drive", [kind])
        ts_values.append(result.value)
        ts_cycles.append(result.total_cycles)

    engines = (flip, osr, ts)
    return {
        "values": values,
        "cycles": cycles,
        "output": list(flip.vm.output),
        "deopts": flip.deopt_count,
        "osr_values": osr_values,
        "osr_cycles": osr_cycles,
        "osr_output": list(osr.vm.output),
        "osr_entries": osr.osr_entry_count,
        "ts_values": ts_values,
        "ts_cycles": ts_cycles,
        "ts_output": list(ts.vm.output),
        "ts_deopts": ts.deopt_count,
        "py_execs": sum(e.py_exec_count for e in engines),
        "predecode": [e.interpreter.predecode for e in engines],
        "choices": engine_choices(flip),
    }


def test_env_pin_matrix_bit_identical():
    combos = reference_combos(FIELDS)
    runs = [(combo, run_workload(combo)) for combo in combos]
    baseline = runs[0][1]

    # Observables are bit-identical across all exercised combinations,
    # and the engine took the reference of every field set to it.
    for combo, result in runs:
        assert result["values"] == baseline["values"], combo
        assert result["output"] == baseline["output"], combo
        assert result["osr_values"] == baseline["osr_values"], combo
        assert result["osr_output"] == baseline["osr_output"], combo
        assert result["ts_values"] == baseline["ts_values"], combo
        assert result["ts_output"] == baseline["ts_output"], combo
        for field in combo:
            assert result["choices"][field] == CHOICES[field][0], combo

    # The cycle model may legitimately differ between speculative and
    # non-speculative runs (different compiled code), but the
    # interpreter and backend fields are pure engineering knobs: within
    # each speculation setting the flip-driver cycles of every
    # combination agree exactly.
    for spec_off in (False, True):
        group = [
            result["cycles"]
            for combo, result in runs
            if ("speculate" in combo) == spec_off
        ]
        assert all(cycles == group[0] for cycles in group), spec_off

    # Likewise the loop workload: its cycles depend only on whether the
    # frame transferred into OSR code (the dispatch threshold is
    # unreachable, so no other tier change can interfere).
    for osr_off in (False, True):
        group = [
            result["osr_cycles"]
            for combo, result in runs
            if ("osr" in combo) == osr_off
        ]
        assert all(cycles == group[0] for cycles in group), osr_off

    # The classify driver's cycles depend only on whether its guard was
    # ever speculated: the typespec field and the speculation field
    # (which gates the frame-state capture the guards need) collapse to
    # one effective boolean.
    for ts_off in (False, True):
        group = [
            result["ts_cycles"]
            for combo, result in runs
            if ("speculate" in combo or "typespec" in combo) == ts_off
        ]
        assert all(cycles == group[0] for cycles in group), ts_off

    # Sanity: the fields changed real behaviour — the all-alternative
    # run took a deopt on the receiver flip, transferred the hot loop
    # into compiled code mid-method, refuted the classify guard on the
    # first Circle, served compiled calls from the Python tier and
    # interpreted on the pre-decoded tier; runs with the field at its
    # reference never did.
    assert baseline["deopts"] == 1
    assert baseline["osr_entries"] >= 1
    assert baseline["ts_deopts"] >= 1
    assert baseline["py_execs"] > 0
    for combo, result in runs:
        if "speculate" in combo:
            assert result["deopts"] == 0, combo
        if "osr" in combo:
            assert result["osr_entries"] == 0, combo
        if "speculate" in combo or "typespec" in combo:
            assert result["ts_deopts"] == 0, combo
        if "backend" in combo:
            assert result["py_execs"] == 0, combo
        tier = "interp_predecode" not in combo
        assert result["predecode"] == [tier] * 3, combo
