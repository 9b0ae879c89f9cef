"""Differential tests for the pre-decoded interpreter tier.

The fast tier's contract is *bit-identical observables*: for any
program, ``Interpreter(..., predecode=True)`` must produce the same
return values, the same printed output, the same ``ops_executed``
count, the same traps (kind and message), and — because the JIT feeds
on them — the same recorded profiles as the classic dispatch loop.
These tests drive both tiers over the shared helper programs, the
guest-integer edge-case table, trap shapes, and full tiered-engine
runs, comparing every observable.
"""

import pytest

from repro.bytecode import MethodBuilder
from repro.errors import LinkError, TrapError, VMError
from repro.interp import Interpreter
from repro.interp.profiles import ProfileStore
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.runtime import VMState
from tests.helpers import (
    SHAPES_RESULT,
    fresh_program,
    shapes_program,
    single_method_program,
)
from tests.test_semantics_differential import EDGE_CASES, _binop_program


def _method_dump(profile):
    return {
        "invocations": profile.invocations,
        "branches": {
            pc: (cell.taken, cell.not_taken)
            for pc, cell in profile.branches.items()
        },
        "backedges": dict(profile.backedges),
        "callsites": dict(profile.callsites),
        "receivers": {
            pc: (dict(cell.counts), cell.overflow, cell.total)
            for pc, cell in profile.receivers.items()
        },
        "typechecks": {
            pc: (dict(cell.counts), cell.overflow, cell.nulls, cell.total)
            for pc, cell in profile.typechecks.items()
        },
    }


def _profile_dump(store):
    """Every recorded profile datum (aggregate and per-context) as a
    comparable structure."""
    return (
        {name: _method_dump(p) for name, p in store._methods.items()},
        {key: _method_dump(p) for key, p in store._contexts.items()},
    )


def _run_both(program, class_name, method_name, args=()):
    """Execute under both tiers; assert observables match; return value."""
    method = program.lookup_method(class_name, method_name)
    vm_c = VMState(program)
    classic = Interpreter(vm_c, predecode=False)
    vm_p = VMState(program)
    fast = Interpreter(vm_p, predecode=True)

    value_c = classic.execute(method, list(args))
    value_p = fast.execute(method, list(args))

    assert value_p == value_c
    assert vm_p.output == vm_c.output
    assert fast.ops_executed == classic.ops_executed
    assert _profile_dump(fast.profiles) == _profile_dump(classic.profiles)
    return value_c


# ----------------------------------------------------------------------
# Value / profile equivalence
# ----------------------------------------------------------------------


def test_shapes_program_identical():
    assert (
        _run_both(shapes_program(), "Main", "run") == SHAPES_RESULT
    )


@pytest.mark.parametrize(
    "op,a,b,expected",
    EDGE_CASES,
    ids=["%s_%d_%d" % (op, a, b) for op, a, b, _ in EDGE_CASES],
)
def test_integer_edge_cases(op, a, b, expected):
    assert _run_both(_binop_program(op), "T", "f", [a, b]) == expected


def _typecheck_program():
    """Shapes plus ``Main.probe(k)``: INSTANCEOF/CHECKCAST over a
    null (k=0), ObjRef (k=1) or ArrayRef (k=2) operand."""
    program = shapes_program()
    b = MethodBuilder("probe", ["int"], "int", is_static=True)
    pick_obj = b.new_label()
    pick_arr = b.new_label()
    check = b.new_label()
    slot = b.alloc_local()
    b.null().store(slot)
    b.load(0).const(1).eq().if_true(pick_obj)
    b.load(0).const(2).eq().if_true(pick_arr)
    b.goto(check)
    b.place(pick_obj).new("Square").store(slot).goto(check)
    b.place(pick_arr).const(3).newarray("int").store(slot).goto(check)
    b.place(check)
    b.load(slot).instanceof("Shape")
    b.load(slot).instanceof("int[]").add()
    b.load(slot).checkcast("Object").store(slot)
    b.load(slot).instanceof("Square").add()
    b.retv()
    program.klass("Main").add_method(b.build())
    return program


def test_typecheck_profile_parity():
    """Classic pops-then-appends vs predecode in-place stack mutation:
    results and recorded type-check histograms must be bit-identical
    over null, object and array operands."""
    program = _typecheck_program()
    assert _run_both(program, "Main", "probe", [0]) == 0
    assert _run_both(program, "Main", "probe", [1]) == 2
    assert _run_both(program, "Main", "probe", [2]) == 1


def test_typecheck_profile_parity_accumulates():
    """One interpreter pair across a mixed operand sequence: the full
    type-check histograms (counts, nulls, totals) stay identical."""
    program = _typecheck_program()
    method = program.lookup_method("Main", "probe")
    vm_c = VMState(program)
    classic = Interpreter(vm_c, predecode=False)
    vm_p = VMState(program)
    fast = Interpreter(vm_p, predecode=True)
    for k in (0, 1, 2, 1, 0):
        assert fast.execute(method, [k]) == classic.execute(method, [k])
    assert _profile_dump(fast.profiles) == _profile_dump(classic.profiles)
    profile = classic.profiles.of(method)
    assert profile.typechecks, "no type-check cells recorded"
    merged = {}
    for cell in profile.typechecks.values():
        for name, count in cell.counts.items():
            merged[name] = merged.get(name, 0) + count
    assert merged.get("Square", 0) > 0
    assert merged.get("int[]", 0) > 0
    assert any(cell.nulls for cell in profile.typechecks.values())


def test_failing_cast_profile_parity():
    """A cast that always traps still records its operand type — in
    both tiers, identically, with the same trap kind."""
    program = shapes_program()
    b = MethodBuilder("bad", [], "int", is_static=True)
    b.new("Circle").checkcast("Square").instanceof("Square").retv()
    program.klass("Main").add_method(b.build())
    method = program.lookup_method("Main", "bad")
    vm_c = VMState(program)
    classic = Interpreter(vm_c, predecode=False)
    vm_p = VMState(program)
    fast = Interpreter(vm_p, predecode=True)
    with pytest.raises(TrapError) as trap_c:
        classic.execute(method, [])
    with pytest.raises(TrapError) as trap_p:
        fast.execute(method, [])
    assert trap_p.value.kind == trap_c.value.kind
    assert _profile_dump(fast.profiles) == _profile_dump(classic.profiles)
    cells = classic.profiles.of(method).typechecks
    assert any(cell.counts.get("Circle") for cell in cells.values())


def test_backedge_recording_parity():
    """Both tiers record the same backedge counters at the same pcs.

    The workload mixes every branch shape: a backward taken IF (the
    inner do-while backedge), a backward GOTO (the outer backedge), a
    forward exit IF and a forward always-taken skip IF — only the two
    backward branches may appear in ``profile.backedges``. OSR triggers
    off these counters, so a tier recording them differently would
    change where (or whether) frames transfer.
    """

    def build(b):
        acc = b.alloc_local()
        i = b.alloc_local()
        j = b.alloc_local()
        b.const(0).store(acc)
        b.const(0).store(i)
        outer = b.new_label()
        done = b.new_label()
        b.place(outer).load(i).load(0).ge().if_true(done)  # forward exit
        b.const(0).store(j)
        inner = b.new_label()
        b.place(inner)
        b.load(acc).const(1).add().store(acc)
        b.load(j).const(1).add().store(j)
        b.load(j).const(3).lt().if_true(inner)  # backward IF backedge
        skip = b.new_label()
        b.load(acc).const(0).ge().if_true(skip)  # forward, always taken
        b.load(acc).const(100).add().store(acc)  # dead
        b.place(skip)
        b.load(i).const(1).add().store(i)
        b.goto(outer)  # backward GOTO backedge
        b.place(done).load(acc).retv()

    program = single_method_program(build)
    # 7 outer iterations x 3 inner increments; the dead +100 never runs.
    assert _run_both(program, "T", "f", [7]) == 21

    # _run_both already pinned tier parity; now pin the *content*: the
    # inner IF backedge fires twice per outer iteration (j = 1, 2), the
    # outer GOTO once, and neither forward branch is counted.
    classic = Interpreter(VMState(program), predecode=False)
    classic.execute(program.lookup_method("T", "f"), [7])
    profile = classic.profiles._methods["T.f"]
    assert sorted(profile.backedges.values()) == [7, 14]
    assert profile.backedge_total() == 21
    for pc in profile.backedges:
        instr = program.lookup_method("T", "f").code[pc]
        assert instr.target <= pc  # truly backward


def test_repeated_calls_accumulate_identically():
    program = shapes_program()
    method = program.lookup_method("Main", "run")
    classic = Interpreter(VMState(program), predecode=False)
    fast = Interpreter(VMState(program), predecode=True)
    for _ in range(3):
        assert fast.execute(method, []) == classic.execute(method, [])
    assert fast.ops_executed == classic.ops_executed
    assert _profile_dump(fast.profiles) == _profile_dump(classic.profiles)


def test_context_sensitive_profiles_identical():
    program = shapes_program()
    method = program.lookup_method("Main", "run")
    dumps = []
    for predecode in (False, True):
        store = ProfileStore(context_sensitive=True)
        interp = Interpreter(
            VMState(program), profiles=store, predecode=predecode
        )
        interp.execute(method, [])
        dumps.append(_profile_dump(store))
    assert dumps[0] == dumps[1]


# ----------------------------------------------------------------------
# Traps
# ----------------------------------------------------------------------


def _trap_program(build_fn, params=("int",)):
    return single_method_program(build_fn, params=params)


TRAP_CASES = [
    (
        "div_by_zero",
        lambda b: b.load(0).const(0).div().retv(),
        [7],
    ),
    (
        "rem_by_zero",
        lambda b: b.load(0).const(0).rem().retv(),
        [7],
    ),
    (
        "null_getfield",
        lambda b: b.null().getfield("T", "x").retv(),
        [0],
    ),
    (
        "negative_array",
        lambda b: b.load(0).newarray("int").arraylen().retv(),
        [-3],
    ),
    (
        "array_oob",
        lambda b: b.const(2).newarray("int").const(5).aload().retv(),
        [0],
    ),
]


@pytest.mark.parametrize(
    "name,build,args", TRAP_CASES, ids=[c[0] for c in TRAP_CASES]
)
def test_traps_identical(name, build, args):
    if name == "null_getfield":
        # getfield needs the field to exist for the verifier; build a
        # class with one.
        from repro.bytecode.klass import FieldDef

        program = fresh_program()
        holder = program.define_class("T", is_abstract=True)
        holder.add_field(FieldDef("x", "int"))
        from repro.bytecode import MethodBuilder, verify_program

        builder = MethodBuilder("f", ["int"], "int", is_static=True)
        build(builder)
        holder.add_method(builder.build())
        verify_program(program)
    else:
        program = _trap_program(build)
    method = program.lookup_method("T", "f")

    outcomes = []
    for predecode in (False, True):
        interp = Interpreter(VMState(program), predecode=predecode)
        try:
            interp.execute(method, list(args))
            outcomes.append(("value", None))
        except VMError as exc:
            outcomes.append(("trap", str(exc)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "trap"


def test_trap_abandons_frame_ops_identically():
    # ops_executed must match even when a trap unwinds mid-frame:
    # classic only adds a frame's ops at RET, and the predecode driver
    # mirrors that.
    def build(b):
        loop = b.new_label()
        i = b.alloc_local()
        b.const(0).store(i)
        b.place(loop)
        b.load(i).const(1).add().store(i)
        b.load(i).const(5).lt().if_true(loop)
        b.load(0).const(0).div().retv()

    program = _trap_program(build)
    method = program.lookup_method("T", "f")
    counts = []
    for predecode in (False, True):
        interp = Interpreter(VMState(program), predecode=predecode)
        with pytest.raises(VMError):
            interp.execute(method, [7])
        counts.append(interp.ops_executed)
    assert counts[0] == counts[1]


def test_unlinkable_invoke_in_dead_code_does_not_trap():
    # Classic resolves invoke targets lazily at execution; a decode-time
    # resolver must not turn dead unlinkable calls into eager errors.
    program = fresh_program()
    from repro.bytecode import MethodBuilder

    holder = program.define_class("T", is_abstract=True)
    builder = MethodBuilder("f", ["int"], "int", is_static=True)
    skip = builder.new_label()
    builder.const(1).if_true(skip)
    builder.load(0).invokestatic("Ghost", "missing").retv()
    builder.place(skip).load(0).retv()
    holder.add_method(builder.build())
    method = program.lookup_method("T", "f")

    for predecode in (False, True):
        interp = Interpreter(VMState(program), predecode=predecode)
        assert interp.execute(method, [42]) == 42

    # ... but executing the unlinkable path raises the same LinkError.
    messages = []
    for predecode in (False, True):
        builder = MethodBuilder("g", ["int"], "int", is_static=True)
        builder.load(0).invokestatic("Ghost", "missing").retv()
        prog = fresh_program()
        prog.define_class("T", is_abstract=True).add_method(builder.build())
        interp = Interpreter(VMState(prog), predecode=predecode)
        with pytest.raises(LinkError) as exc_info:
            interp.execute(prog.lookup_method("T", "g"), [1])
        messages.append(str(exc_info.value))
    assert messages[0] == messages[1]


# ----------------------------------------------------------------------
# Engine integration: cycle model must be bit-identical
# ----------------------------------------------------------------------


def _engine_cycles(program, predecode, inliner=None, iterations=8):
    engine = Engine(
        program,
        JitConfig(hot_threshold=10, interp_predecode=predecode),
        inliner=inliner,
        seed=0x5EED,
    )
    curve = []
    value = None
    for _ in range(iterations):
        result = engine.run_iteration("Main", "run")
        curve.append(result.total_cycles)
        value = result.value
    return value, curve


def test_engine_cycle_model_identical():
    program = shapes_program()
    value_c, curve_c = _engine_cycles(program, predecode=False)
    value_p, curve_p = _engine_cycles(program, predecode=True)
    assert value_p == value_c == SHAPES_RESULT
    assert curve_p == curve_c


def test_engine_cycle_model_identical_with_inliner():
    from repro.baselines import tuned_inliner

    program = shapes_program()
    value_c, curve_c = _engine_cycles(
        program, predecode=False, inliner=tuned_inliner(0.1)
    )
    value_p, curve_p = _engine_cycles(
        program, predecode=True, inliner=tuned_inliner(0.1)
    )
    assert value_p == value_c
    assert curve_p == curve_c


# ----------------------------------------------------------------------
# Configuration plumbing
# ----------------------------------------------------------------------


def test_jit_config_threads_flag_to_interpreter():
    program = shapes_program()
    engine = Engine(program, JitConfig(interp_predecode=True))
    assert engine.interpreter.predecode is True
    engine = Engine(program, JitConfig(interp_predecode=False))
    assert engine.interpreter.predecode is False


def test_caches_invalidate_on_program_growth():
    # Adding a class bumps Program.generation; cached predecode tables
    # and profile memos must be discarded so new resolutions are seen.
    program = shapes_program()
    interp = Interpreter(VMState(program), predecode=True)
    method = program.lookup_method("Main", "run")
    interp.execute(method, [])
    assert interp._predecode_tables
    program.define_class("Late", is_abstract=True)
    interp.execute(method, [])
    # The table cache was rebuilt after the generation bump.
    assert interp._cache_generation == (
        interp.profiles, interp.profiles.generation, program.generation
    )


def test_caches_invalidate_on_profile_store_swap():
    # Replacing the ProfileStore object entirely (not just clearing it)
    # is the regression case: the new store starts at the same
    # generation number as the old one, so a generation-only check
    # would keep stale predecode tables and memoized profile handles
    # pointing at the orphaned store.  The cache key must include the
    # store's identity.
    program = shapes_program()
    interp = Interpreter(VMState(program), predecode=True)
    method = program.lookup_method("Main", "run")
    interp.execute(method, [])
    old_tables = dict(interp._predecode_tables)
    assert old_tables

    fresh = ProfileStore()
    assert fresh.generation == interp.profiles.generation
    interp.profiles = fresh
    interp.execute(method, [])

    # Tables were re-decoded (new objects, not the stale ones) and the
    # cache key now names the new store.
    assert interp._predecode_tables
    for key, table in interp._predecode_tables.items():
        assert old_tables.get(key) is not table
    assert interp._cache_generation == (
        fresh, fresh.generation, program.generation
    )
    # The run recorded into the *new* store, identically to a fresh run.
    classic = Interpreter(VMState(program), predecode=False)
    classic.execute(method, [])
    assert _profile_dump(fresh) == _profile_dump(classic.profiles)


def test_caches_invalidate_on_profile_clear():
    program = shapes_program()
    interp = Interpreter(VMState(program), predecode=True)
    method = program.lookup_method("Main", "run")
    interp.execute(method, [])
    interp.profiles.clear()
    interp.execute(method, [])
    dump = _profile_dump(interp.profiles)
    # After the clear, profiles must look like a single fresh run.
    classic = Interpreter(VMState(program), predecode=False)
    classic.execute(method, [])
    assert dump == _profile_dump(classic.profiles)
