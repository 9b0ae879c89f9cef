"""Profile-guided type-check speculation end to end.

The tentpole contract: with ``typespec`` on (and speculation on — the
guards need frame-state capture), a profile-monomorphic
``INSTANCEOF``/``CHECKCAST`` is replaced by an exact-type guard plus a
Pi pinning the operand, the canonicalizer folds the check (and every
dominated check), a refuted guard deopts through the standard resume
path bit-identically, and the refuted site is never re-speculated.
"""

from repro.baselines import tuned_inliner
from repro.bytecode import MethodBuilder, verify_program
from repro.bytecode.klass import FieldDef
from repro.interp import Interpreter
from repro.interp.profiles import TypeCheckProfile
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.obs import Observability
from repro.runtime import VMState
from tests.helpers import fresh_program


def classify_program():
    """``Main.classify(Shape)``: an ``instanceof Square`` branch with a
    dominated ``checkcast Square`` + field read; ``Main.drive(kind)``
    feeds it a Square (kind=0, -> 8) or a Circle (kind!=0, -> 7)."""
    program = fresh_program()
    program.define_class("Shape", is_interface=True)
    square = program.define_class("Square", interfaces=["Shape"])
    square.add_field(FieldDef("side", "int"))
    circle = program.define_class("Circle", interfaces=["Shape"])
    circle.add_field(FieldDef("r", "int"))
    main = program.define_class("Main", is_abstract=True)
    b = MethodBuilder("classify", ["Shape"], "int", is_static=True)
    is_sq = b.new_label()
    b.load(0).instanceof("Square").if_true(is_sq)
    b.const(7).retv()
    b.place(is_sq)
    b.load(0).checkcast("Square").getfield("Square", "side").retv()
    main.add_method(b.build())
    b = MethodBuilder("drive", ["int"], "int", is_static=True)
    mk_c = b.new_label()
    b.load(0).if_true(mk_c)
    b.new("Square").dup().const(8).putfield("Square", "side")
    b.invokestatic("Main", "classify").retv()
    b.place(mk_c)
    b.new("Circle").dup().const(5).putfield("Circle", "r")
    b.invokestatic("Main", "classify").retv()
    main.add_method(b.build())
    verify_program(program)
    return program


def _engine(program, obs=None, **kw):
    kw.setdefault("hot_threshold", 3)
    kw.setdefault("speculate", True)
    kw.setdefault("typespec", True)
    return Engine(program, JitConfig(**kw), tuned_inliner(0.1), obs=obs)


def _metric(obs, name):
    entry = obs.metrics.snapshot().get(name)
    return entry["value"] if entry else 0


def _reference(program, kinds):
    vm = VMState(program)
    interp = Interpreter(vm)
    return [interp.call_static("Main", "drive", (k,)) for k in kinds]


class TestSpeculation:
    def test_monomorphic_site_speculates(self):
        program = classify_program()
        obs = Observability()
        engine = _engine(program, obs=obs)
        kinds = [0] * 10
        values = [
            engine.run_iteration("Main", "drive", (k,)).value for k in kinds
        ]
        assert values == _reference(program, kinds)
        assert _metric(obs, "inline.type_speculations") > 0
        assert engine.deopt_count == 0

    def test_refuted_guard_resumes_bit_identically(self):
        program = classify_program()
        obs = Observability()
        engine = _engine(program, obs=obs)
        kinds = [0] * 6 + [1, 0, 1, 1, 0]
        values = [
            engine.run_iteration("Main", "drive", (k,)).value for k in kinds
        ]
        assert values == _reference(program, kinds)
        assert engine.deopt_count >= 1
        assert _metric(obs, "deopt.reasons.typecheck") >= 1

    def test_refuted_site_not_respeculated(self):
        program = classify_program()
        obs = Observability()
        engine = _engine(program, obs=obs)
        kinds = [0] * 6 + [1] + [0, 1] * 10
        values = [
            engine.run_iteration("Main", "drive", (k,)).value for k in kinds
        ]
        assert values == _reference(program, kinds)
        # The first Circle refutes the guard; the recompile sees the
        # refuted site (and a now-polymorphic profile) and keeps the
        # runtime check, so mixed traffic stops deopting. A small
        # fixed bound (speculating roots: drive, classify, inlined
        # copies) instead of an exact count keeps this robust.
        assert engine.deopt_count <= 3
        # Negative decisions are recorded with their gate as reason.
        reasons = {
            r["attrs"].get("reason")
            for r in obs.flight.records()
            if r["kind"] == "inline.typecheck"
            and not r["attrs"].get("speculate")
        }
        assert reasons & {"refuted-site", "polymorphic-operand"}

    def test_typespec_requires_speculation(self):
        program = classify_program()
        obs = Observability()
        engine = _engine(program, obs=obs, speculate=False)
        for _ in range(8):
            engine.run_iteration("Main", "drive", (0,))
        assert _metric(obs, "inline.type_speculations") == 0
        assert engine.deopt_count == 0


class TestExplain:
    def test_site_history_renders_typecheck_verdicts(self):
        from repro.tools.explain import render

        program = classify_program()
        obs = Observability()
        engine = _engine(program, obs=obs)
        for k in [0] * 6 + [1, 0, 1]:
            engine.run_iteration("Main", "drive", (k,))
        records = obs.flight.records()
        report = render(records, site_pattern="Main.classify")
        assert "typecheck" in report
        assert "speculated on exact Square" in report
        full = render(records)
        assert "typecheck speculated" in full or "typecheck kept" in full


class TestTypeCheckProfile:
    def test_monomorphic(self):
        cell = TypeCheckProfile()
        for _ in range(5):
            cell.record("Square")
        assert cell.monomorphic_type() == "Square"

    def test_nulls_block_monomorphic(self):
        cell = TypeCheckProfile()
        cell.record("Square")
        cell.record(None)
        assert cell.monomorphic_type() is None
        assert cell.nulls == 1

    def test_polymorphic(self):
        cell = TypeCheckProfile()
        cell.record("Square")
        cell.record("Circle")
        assert cell.monomorphic_type() is None
        names = [name for name, _ in cell.observed_types()]
        assert set(names) == {"Square", "Circle"}

    def test_empty(self):
        cell = TypeCheckProfile()
        assert cell.monomorphic_type() is None
        assert cell.observed_types() == []
