"""Shared fixtures and program builders for the test suite."""

import json
import os
import subprocess
import sys

from repro.bytecode import MethodBuilder, Program, verify_program
from repro.bytecode.klass import FieldDef
from repro.bytecode.method import Method
from repro.interp import Interpreter
from repro.runtime import VMState, install_builtins

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


#: The :class:`~repro.jit.config.JitConfig` fields that choose between
#: a reference and an alternative: ``{field: (reference, alternative)}``.
CHOICES = {
    "interp_predecode": (False, True),
    "speculate": (False, True),
    "typespec": (False, True),
    "osr": (False, True),
    "backend": ("machine", "py"),
    "compile_mode": ("sync", "async"),
}


def reference_combos(fields):
    """Field sets for a config matrix over *fields* (keys of
    :data:`CHOICES`) to put at their reference: none, each field alone,
    and every field at once."""
    return [()] + [(field,) for field in fields] + [tuple(fields)]


def engine_choices(engine):
    """What *engine* took of each :data:`CHOICES` field, read from the
    engine and its compiler rather than from its config."""
    speculation = engine.compiler.context.speculation
    return {
        "interp_predecode": engine.interpreter.predecode,
        "speculate": speculation.enabled,
        "typespec": speculation.typecheck,
        "osr": engine.interpreter.osr_hook is not None,
        "backend": engine.backend,
        "compile_mode": engine.compile_mode,
    }


def run_fresh(child):
    """Run the *child* script in a fresh interpreter; returns its JSON
    output."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", child],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def fresh_program():
    """An empty program with builtins installed."""
    program = Program()
    install_builtins(program)
    return program


def run_static(program, class_name, method_name, args=()):
    """Interpret one call in a fresh VM; returns (result, vm, interp)."""
    vm = VMState(program)
    interp = Interpreter(vm)
    result = interp.call_static(class_name, method_name, args)
    return result, vm, interp


def single_method_program(build_fn, name="f", params=("int",), ret="int"):
    """A program with one static method built by *build_fn(builder)*."""
    program = fresh_program()
    holder = program.define_class("T", is_abstract=True)
    builder = MethodBuilder(name, list(params), ret, is_static=True)
    build_fn(builder)
    holder.add_method(builder.build())
    verify_program(program)
    return program


def shapes_program():
    """The recurring polymorphic test program: Shape / Square / Circle.

    - ``Shape`` is an interface with abstract ``area``;
    - ``Square.area`` = side²; ``Circle.area`` = 3r²;
    - ``Main.total(s, n)`` = n * s.area() via interface dispatch;
    - ``Main.run()`` loops ``total`` over a Square and a Circle.
    """
    program = fresh_program()
    shape = program.define_class("Shape", is_interface=True)
    shape.add_method(Method("area", [], "int", is_abstract=True))

    square = program.define_class("Square", interfaces=["Shape"])
    square.add_field(FieldDef("side", "int"))
    b = MethodBuilder("area", [], "int")
    b.load(0).getfield("Square", "side")
    b.load(0).getfield("Square", "side").mul().retv()
    square.add_method(b.build())

    circle = program.define_class("Circle", interfaces=["Shape"])
    circle.add_field(FieldDef("r", "int"))
    b = MethodBuilder("area", [], "int")
    b.load(0).getfield("Circle", "r")
    b.load(0).getfield("Circle", "r").mul().const(3).mul().retv()
    circle.add_method(b.build())

    main = program.define_class("Main", is_abstract=True)
    b = MethodBuilder("total", ["Shape", "int"], "int", is_static=True)
    b.load(1).load(0).invokeinterface("Shape", "area").mul().retv()
    main.add_method(b.build())

    b = MethodBuilder("run", [], "int", is_static=True)
    b.new("Square").dup().const(4).putfield("Square", "side")
    square_slot = b.alloc_local()
    b.store(square_slot)
    b.new("Circle").dup().const(3).putfield("Circle", "r")
    circle_slot = b.alloc_local()
    b.store(circle_slot)
    acc = b.alloc_local()
    b.const(0).store(acc)
    i = b.alloc_local()
    b.const(0).store(i)
    loop = b.new_label()
    done = b.new_label()
    use_circle = b.new_label()
    join = b.new_label()
    b.place(loop).load(i).const(120).ge().if_true(done)
    b.load(i).const(3).and_().const(0).eq().if_true(use_circle)
    b.load(acc).load(square_slot).const(2).invokestatic("Main", "total")
    b.add().store(acc).goto(join)
    b.place(use_circle)
    b.load(acc).load(circle_slot).const(2).invokestatic("Main", "total")
    b.add().store(acc)
    b.place(join)
    b.load(i).const(1).add().store(i).goto(loop)
    b.place(done).load(acc).retv()
    main.add_method(b.build())
    verify_program(program)
    return program


#: Expected Main.run() result of shapes_program():
#: 30 circle iterations (i%4==0 -> 2*27) and 90 square ones (2*16).
SHAPES_RESULT = 30 * 2 * 27 + 90 * 2 * 16
