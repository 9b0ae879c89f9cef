"""Tests for VM state, values and intrinsics."""

import pytest

from repro.bench import all_benchmarks
from repro.bytecode.klass import FieldDef
from repro.errors import LinkError, TrapError
from repro.fuzz.generator import generate_case
from repro.runtime import VMState, install_builtins
from repro.runtime.intrinsics import intrinsic_function
from repro.runtime.values import ArrayRef, ObjRef, default_value, dynamic_type_name
from tests.helpers import fresh_program


class TestValues:
    def test_object_allocation_defaults(self):
        program = fresh_program()
        klass = program.define_class("P")
        klass.add_field(FieldDef("x", "int"))
        klass.add_field(FieldDef("next", "P"))
        vm = VMState(program)
        obj = vm.allocate("P")
        assert obj.fields == {"x": 0, "next": None}
        assert vm.allocation_count == 1

    def test_inherited_fields_initialized(self):
        program = fresh_program()
        base = program.define_class("B")
        base.add_field(FieldDef("a", "int"))
        sub = program.define_class("S", superclass="B")
        sub.add_field(FieldDef("b", "int"))
        vm = VMState(program)
        assert set(vm.allocate("S").fields) == {"a", "b"}

    def test_array_defaults(self):
        vm = VMState(fresh_program())
        ints = vm.allocate_array("int", 3)
        refs = vm.allocate_array("Object", 2)
        assert ints.data == [0, 0, 0]
        assert refs.data == [None, None]
        assert ints.type_name == "int[]"
        assert len(refs) == 2

    def test_dynamic_type_names(self):
        assert dynamic_type_name(None) is None
        assert dynamic_type_name(5) == "int"
        assert dynamic_type_name(ObjRef("A", {})) == "A"
        assert dynamic_type_name(ArrayRef("int", 1)) == "int[]"

    def test_default_value(self):
        assert default_value("int") == 0
        assert default_value("Foo") is None


class TestStatics:
    def test_static_roundtrip(self):
        program = fresh_program()
        klass = program.define_class("G")
        klass.add_field(FieldDef("counter", "int", is_static=True))
        vm = VMState(program)
        assert vm.get_static("G", "counter") == 0
        vm.put_static("G", "counter", 41)
        assert vm.get_static("G", "counter") == 41

    def test_static_resolved_through_subclass(self):
        program = fresh_program()
        base = program.define_class("Base")
        base.add_field(FieldDef("shared", "int", is_static=True))
        program.define_class("Sub", superclass="Base")
        vm = VMState(program)
        vm.put_static("Sub", "shared", 5)
        assert vm.get_static("Base", "shared") == 5

    def test_fresh_vm_rezeroes_statics(self):
        program = fresh_program()
        klass = program.define_class("G")
        klass.add_field(FieldDef("c", "int", is_static=True))
        vm1 = VMState(program)
        vm1.put_static("G", "c", 99)
        assert VMState(program).get_static("G", "c") == 0


class TestRandomAndOutput:
    def test_deterministic_per_seed(self):
        program = fresh_program()
        a = VMState(program, seed=1)
        b = VMState(program, seed=1)
        c = VMState(program, seed=2)
        seq_a = [a.next_random() % 1000 for _ in range(5)]
        seq_b = [b.next_random() % 1000 for _ in range(5)]
        seq_c = [c.next_random() % 1000 for _ in range(5)]
        assert seq_a == seq_b
        assert seq_a != seq_c

    def test_reseed_replays(self):
        vm = VMState(fresh_program(), seed=3)
        first = vm.next_random()
        vm.reseed(3)
        assert vm.next_random() == first

    def test_output_checksum_order_sensitive(self):
        vm1 = VMState(fresh_program())
        vm2 = VMState(fresh_program())
        vm1.output.extend([1, 2])
        vm2.output.extend([2, 1])
        assert vm1.output_checksum() != vm2.output_checksum()


class TestIntrinsics:
    def test_install_is_idempotent(self):
        program = fresh_program()
        first = program.klass("Builtins")
        assert install_builtins(program) is first

    def test_print_appends_output(self):
        vm = VMState(fresh_program())
        intrinsic_function("print")(vm, 42)
        assert vm.output == [42]

    def test_abs_min_max(self):
        vm = VMState(fresh_program())
        assert intrinsic_function("abs")(vm, -4) == 4
        assert intrinsic_function("imin")(vm, 2, 9) == 2
        assert intrinsic_function("imax")(vm, 2, 9) == 9

    def test_rand_bound(self):
        vm = VMState(fresh_program())
        for _ in range(50):
            assert 0 <= intrinsic_function("rand")(vm, 7) < 7
        with pytest.raises(TrapError):
            intrinsic_function("rand")(vm, 0)

    def test_ticks_monotone(self):
        vm = VMState(fresh_program())
        ticks = intrinsic_function("ticks")
        assert ticks(vm) < ticks(vm)


# ----------------------------------------------------------------------
# Link tables: allocation templates and static keys resolved once per
# VM must match the per-call superclass walk they replaced.
# ----------------------------------------------------------------------


def _walk_allocate_fields(program, class_name):
    """Oracle: the field dict NEW built by walking the chain each time."""
    fields = {}
    for klass in program.superclass_chain(class_name):
        for field in klass.fields.values():
            if not field.is_static:
                fields[field.name] = default_value(field.type)
    return fields


def _walk_static_key(program, class_name, field_name):
    """Oracle: the ``_statics`` key GETSTATIC/PUTSTATIC resolved per call."""
    declaring, _ = program.lookup_field(class_name, field_name)
    return (declaring.name, field_name)


def _walk_get_static(vm, class_name, field_name):
    key = _walk_static_key(vm.program, class_name, field_name)
    try:
        return vm._statics[key]
    except KeyError:
        raise LinkError(
            "static field %s.%s not initialized" % (class_name, field_name)
        )


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except LinkError as error:
        return ("LinkError", str(error))


def _visible_field_names(program, class_name):
    names = ["no_such_field"]
    for klass in program.superclass_chain(class_name):
        names.extend(klass.fields)
    return names


def _check_link_parity(program):
    vm = VMState(program)
    walk = VMState(program)
    for class_name in program.classes:
        expected = _walk_allocate_fields(program, class_name)
        for _ in range(2):
            fields = vm.allocate(class_name).fields
            assert list(fields.items()) == list(expected.items()), class_name
        for field_name in _visible_field_names(program, class_name):
            expected = _outcome(_walk_get_static, walk, class_name, field_name)
            for _ in range(2):
                assert _outcome(vm.get_static, class_name, field_name) == (
                    expected
                ), (class_name, field_name)
            # The py tier's slot for the same site reads the same.
            table, slot = vm.static_slot(class_name, field_name)
            assert _outcome(table.__getitem__, slot) == expected
            marker = object()
            try:
                key = _walk_static_key(program, class_name, field_name)
            except LinkError:
                with pytest.raises(LinkError):
                    vm.put_static(class_name, field_name, marker)
                with pytest.raises(LinkError):
                    table[slot] = marker
                continue
            vm.put_static(class_name, field_name, marker)
            walk._statics[key] = marker
            assert vm._statics == walk._statics, (class_name, field_name)
            assert table[slot] is marker


@pytest.mark.parametrize(
    "spec", all_benchmarks(), ids=lambda spec: spec.name
)
def test_link_tables_match_walk_on_suite_program(spec):
    _check_link_parity(spec.load())


def test_link_tables_match_walk_on_generated_programs():
    for index in range(50):
        program, _ = generate_case(1_000_003 + index).build()
        _check_link_parity(program)


class TestLinkTables:
    def test_shadowed_field_keeps_first_position_and_super_default(self):
        program = fresh_program()
        base = program.define_class("B")
        base.add_field(FieldDef("a", "int"))
        base.add_field(FieldDef("x", "B"))
        sub = program.define_class("S", superclass="B")
        sub.add_field(FieldDef("x", "int"))
        sub.add_field(FieldDef("b", "int"))
        vm = VMState(program)
        expected = [("x", None), ("b", 0), ("a", 0)]
        assert list(_walk_allocate_fields(program, "S").items()) == expected
        for _ in range(2):
            assert list(vm.allocate("S").fields.items()) == expected
        assert list(vm.allocate("B").fields.items()) == [("a", 0), ("x", None)]

    def test_statics_through_subclass_name(self):
        program = fresh_program()
        base = program.define_class("Base")
        base.add_field(FieldDef("shared", "int", is_static=True))
        program.define_class("Mid", superclass="Base")
        program.define_class("Leaf", superclass="Mid")
        vm = VMState(program)
        for round_ in range(2):
            vm.put_static("Leaf", "shared", 10 + round_)
            assert vm.get_static("Base", "shared") == 10 + round_
            assert vm.get_static("Mid", "shared") == 10 + round_
            vm.put_static("Base", "shared", 20 + round_)
            assert vm.get_static("Leaf", "shared") == 20 + round_
        assert vm._statics == {("Base", "shared"): 21}

    def test_same_static_name_on_unrelated_classes_stays_apart(self):
        program = fresh_program()
        for name in ("A", "B"):
            program.define_class(name).add_field(
                FieldDef("count", "int", is_static=True)
            )
        vm = VMState(program)
        for round_ in range(2):
            vm.put_static("A", "count", 1 + round_)
            vm.put_static("B", "count", 10 + round_)
            assert vm.get_static("A", "count") == 1 + round_
            assert vm.get_static("B", "count") == 10 + round_

    def test_unknown_class_or_field_raises_same_error_every_call(self):
        program = fresh_program()
        program.define_class("G").add_field(
            FieldDef("c", "int", is_static=True)
        )
        vm = VMState(program)
        calls = [
            (vm.allocate, _walk_allocate_fields, program, "Nope"),
            (vm.get_static, _walk_get_static, vm, "Nope", "c"),
            (vm.get_static, _walk_get_static, vm, "G", "nope"),
            (lambda *key: vm.put_static(*key, 1), _walk_static_key,
             program, "Nope", "c"),
            (lambda *key: vm.put_static(*key, 1), _walk_static_key,
             program, "G", "nope"),
        ]
        for fn, oracle, context, *args in calls:
            expected = _outcome(oracle, context, *args)
            assert expected[0] == "LinkError"
            for _ in range(2):
                assert _outcome(fn, *args) == expected
        assert vm.allocation_count == 0
        assert vm._statics == {("G", "c"): 0}

    def test_failure_is_not_cached(self):
        program = fresh_program()
        vm = VMState(program)
        with pytest.raises(LinkError):
            vm.allocate("Late")
        program.define_class("Late").add_field(FieldDef("v", "int"))
        assert vm.allocate("Late").fields == {"v": 0}

    def test_static_slot_links_once_and_caches_no_failure(self):
        program = fresh_program()
        program.define_class("G").add_field(
            FieldDef("c", "int", is_static=True)
        )
        program.define_class("H", superclass="G")
        vm = VMState(program)
        # A resolved, initialized static is a subscript of the statics
        # dict on its declaring key.
        assert vm.static_slot("H", "c") == (vm._statics, ("G", "c"))
        table, key = vm.static_slot("Late", "x")
        assert table is not vm._statics
        for _ in range(2):
            with pytest.raises(LinkError, match="unknown class 'Late'"):
                table[key]
            with pytest.raises(LinkError, match="unknown class 'Late'"):
                table[key] = 5
        assert ("Late", "x") not in vm._static_keys
        # Defined late, its static is never initialized: reads fail as
        # get_static's do until a write creates it.
        program.define_class("Late").add_field(
            FieldDef("x", "int", is_static=True)
        )
        with pytest.raises(LinkError, match="static field Late.x not"):
            table[key]
        table[key] = 5
        assert table[key] == 5 == vm.get_static("Late", "x")

    def test_getstatic_of_instance_field_not_initialized(self):
        program = fresh_program()
        program.define_class("P").add_field(FieldDef("x", "int"))
        program.define_class("Q", superclass="P")
        vm = VMState(program)
        for class_name in ("P", "Q", "Q"):
            with pytest.raises(LinkError, match="not initialized"):
                vm.get_static(class_name, "x")
            assert _outcome(vm.get_static, class_name, "x") == _outcome(
                _walk_get_static, vm, class_name, "x"
            )

    def test_allocations_never_share_a_dict(self):
        program = fresh_program()
        klass = program.define_class("P")
        klass.add_field(FieldDef("x", "int"))
        klass.add_field(FieldDef("next", "P"))
        vm = VMState(program)
        first = vm.allocate("P")
        second = vm.allocate("P")
        assert first.fields is not second.fields
        first.fields["x"] = 7
        first.fields["next"] = second
        assert second.fields == {"x": 0, "next": None}
        assert vm.allocate("P").fields == {"x": 0, "next": None}
        assert vm.allocation_count == 3
