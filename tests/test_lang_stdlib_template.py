"""The stdlib template against a whole-module compile.

``compile_source`` resolves, generates and verifies only the user module
against a stdlib compiled once per process, and gives each program its
own copies of the stdlib classes. Its old form, which compiled the
stdlib and the user module together on every call, is kept here as a
test-local oracle (:func:`oracle_compile_source`), and every program
must come out identical: disassembly, class order, ``Program.generation``
and each method's flags. Broken sources must fail exactly as the oracle
fails, programs must not share mutable state with each other or with
the template, and a template built by many threads at once is built
once.
"""

import os
import sys
import threading

import pytest

from repro.bench import all_benchmarks
from repro.bytecode.disassembler import disassemble_program
from repro.bytecode.klass import FieldDef
from repro.bytecode.program import Program
from repro.bytecode.verifier import verify_program
from repro.errors import ReproError, ResolveError
from repro.fuzz.generator import _generate_minij, generate_case
from repro.lang import STDLIB_SOURCE, compile_source, loader
from repro.lang.codegen import CodeGen
from repro.lang.parser import parse_module
from repro.lang.resolver import Resolver
from repro.runtime.intrinsics import install_builtins

EXAMPLE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
    "figure1_foreach.minij",
)


def oracle_compile_source(source):
    """The whole-module compile: stdlib and user module parsed,
    resolved, generated and verified together."""
    modules = []
    modules.append(parse_module(STDLIB_SOURCE))
    modules.append(parse_module(source))
    resolver = Resolver(modules)
    resolver.run()
    program = Program()
    install_builtins(program)
    CodeGen(resolver, program).run()
    verify_program(program)
    return program


def snapshot(program):
    """Everything a program's consumers can observe of its classes."""
    classes = [
        (
            klass.name,
            klass.superclass,
            tuple(klass.interfaces),
            klass.is_interface,
            klass.is_abstract,
            tuple(
                (f.name, f.type, f.is_static) for f in klass.fields.values()
            ),
            tuple(klass.methods),
        )
        for klass in program.classes.values()
    ]
    methods = [
        (
            method.qualified_name,
            method.klass is program.classes[method.klass.name],
            method.force_inline,
            method.never_inline,
            method.max_locals,
            method.is_static,
            method.is_abstract,
            method.is_native,
        )
        for method in program.methods_iter()
    ]
    return (
        disassemble_program(program),
        classes,
        methods,
        program.generation,
    )


def _corpus_sources():
    sources = []
    for i in range(300):
        case = generate_case(1_000_003 + i)
        if case.kind == "minij":
            sources.append(("corpus-%d" % (1_000_003 + i), case.source()))
    return sources


SUITE = [(spec.name, spec.source) for spec in all_benchmarks()]
CORPUS = _corpus_sources()
SEEDS = [("minij-%d" % seed, _generate_minij(seed).source()) for seed in range(200)]


class TestIdentity:
    @pytest.mark.parametrize("name,source", SUITE, ids=[n for n, _ in SUITE])
    def test_suite_program(self, name, source):
        assert snapshot(compile_source(source)) == snapshot(
            oracle_compile_source(source)
        )

    def test_generated_corpus_minij_cases(self):
        assert len(CORPUS) > 50
        for name, source in CORPUS:
            assert snapshot(compile_source(source)) == snapshot(
                oracle_compile_source(source)
            ), name

    def test_generated_minij_seeds(self):
        for name, source in SEEDS:
            assert snapshot(compile_source(source)) == snapshot(
                oracle_compile_source(source)
            ), name

    def test_figure1_example(self):
        with open(EXAMPLE) as handle:
            source = handle.read()
        program = compile_source(source)
        assert snapshot(program) == snapshot(oracle_compile_source(source))
        assert any(name.startswith("$Lambda") for name in program.classes)

    def test_class_order_and_lambda_numbering(self):
        program = compile_source(
            """
            class Main {
              static def run(): int {
                var f: IntFn1 = fun (x: int): int => x + 1;
                var g: IntPred = fun (x: int): bool => x > 0;
                return f.apply(2);
              }
            }
            class Other { def get(): int { return 1; } }
            """
        )
        names = list(program.classes)
        assert names[:2] == ["Object", "Builtins"]
        assert names[-4:] == ["Main", "Other", "$Lambda0", "$Lambda1"]
        assert program.generation == len(names) - 1


BROKEN = {
    "lex": "class Main { static def run(): int { return 1 # 2; } }",
    "parse": "class Main { static def run(): int { return (1; } }",
    "unknown-type": "class Main { static def run(): Nope { return null; } }",
    "duplicate-stdlib-class": (
        "class Main { static def run(): int { return 0; } }\n"
        "class Box { var v: int; }"
    ),
    "duplicate-object": "class Object { }",
    "bad-class-override": (
        "class MyBox extends Box {\n"
        "  def get(): bool { return true; }\n"
        "}"
    ),
    "unknown-superclass": "class A extends Nope { }",
    "bad-trait-override": (
        "class Cell { var v: int; def get(): int { return v; } }\n"
        "class Bad implements IntFn1 {\n"
        "  def apply(x: Cell): int { return x.get(); }\n"
        "}"
    ),
    "bad-stdlib-trait-override": (
        "class Bad implements Seq {\n"
        "  def length(): bool { return true; }\n"
        "  def get(i: int): Object { return null; }\n"
        "}"
    ),
    "missing-return": (
        "class Main {\n"
        "  static def run(x: int): int { if (x > 0) { return 1; } }\n"
        "}"
    ),
}


def _outcome(compile_fn, source):
    try:
        program = compile_fn(source)
    except ReproError as error:
        return (
            type(error),
            str(error),
            getattr(error, "line", None),
            getattr(error, "column", None),
        )
    return snapshot(program)


class TestBrokenSources:
    @pytest.mark.parametrize("source", BROKEN.values(), ids=list(BROKEN))
    def test_same_error_as_oracle(self, source):
        expected = _outcome(oracle_compile_source, source)
        assert isinstance(expected[0], type) and issubclass(
            expected[0], ReproError
        )
        assert _outcome(compile_source, source) == expected

    def test_trait_override_matches_oracle(self):
        # The resolver checks overrides against the superclass chain and
        # every trait a class implements, the stdlib's included: the
        # template must reject a trait method implemented with another
        # signature exactly as a from-scratch compile does.
        source = BROKEN["bad-stdlib-trait-override"]
        assert _outcome(compile_source, source) == _outcome(
            oracle_compile_source, source
        )

    @pytest.mark.parametrize(
        "name,message,line,column",
        [
            (
                "bad-trait-override",
                "Bad.apply overrides IntFn1.apply with a different signature",
                3,
                3,
            ),
            (
                "bad-stdlib-trait-override",
                "Bad.length overrides Seq.length with a different signature",
                2,
                3,
            ),
        ],
    )
    def test_trait_override_is_rejected(self, name, message, line, column):
        # Calling such a method through the trait used to crash the
        # host (an int argument where the body reads a Cell's field).
        assert _outcome(compile_source, BROKEN[name]) == (
            ResolveError,
            "line %d:%d: %s" % (line, column, message),
            line,
            column,
        )

    def test_error_leaves_next_compile_unchanged(self):
        for source in BROKEN.values():
            with pytest.raises(ReproError):
                compile_source(source)
        name, source = SUITE[0]
        assert snapshot(compile_source(source)) == snapshot(
            oracle_compile_source(source)
        )


def _mutable_parts(classes):
    """(kind, object) for every mutable object of *classes*."""
    parts = []
    for klass in classes:
        parts.append(("class", klass))
        parts.append(("fields", klass.fields))
        parts.append(("methods", klass.methods))
        parts.append(("interfaces", klass.interfaces))
        for method in klass.methods.values():
            parts.append(("method", method))
            parts.append(("code", method.code))
            parts.append(("params", method.param_types))
    return parts


class TestIsolation:
    SOURCE = SUITE[0][1]

    def test_programs_share_no_mutable_state(self):
        template = loader.stdlib_template()
        first = compile_source(self.SOURCE)
        second = compile_source(self.SOURCE)
        template_ids = {id(obj) for _, obj in _mutable_parts(template.classes)}
        first_parts = _mutable_parts(first.classes.values())
        first_ids = {id(obj) for _, obj in first_parts}
        for kind, obj in _mutable_parts(second.classes.values()):
            assert id(obj) not in first_ids, kind
            assert id(obj) not in template_ids, kind
        for kind, obj in first_parts:
            assert id(obj) not in template_ids, kind

    def test_mutating_one_program_leaves_the_next_unchanged(self):
        expected = snapshot(oracle_compile_source(self.SOURCE))
        program = compile_source(self.SOURCE)
        seq = program.klass("ArraySeq")
        seq.methods["get"].never_inline = True
        seq.methods["get"].force_inline = True
        seq.methods["add"].code.append(seq.methods["add"].code[-1])
        seq.methods["length"].param_types.append("int")
        seq.add_field(FieldDef("extra", "int"))
        seq.interfaces.append("IntSeq")
        program.klass("Box").methods.pop("get")
        assert snapshot(compile_source(self.SOURCE)) == expected


class TestConcurrentFirstUse:
    def test_concurrent_first_use_builds_one_template(self, monkeypatch):
        builds = []

        class CountingTemplate(loader.StdlibTemplate):
            def __init__(self):
                builds.append(threading.current_thread().name)
                super().__init__()

        monkeypatch.setattr(loader, "_template", None)
        monkeypatch.setattr(loader, "StdlibTemplate", CountingTemplate)
        if hasattr(os, "sched_getaffinity"):
            cores = len(os.sched_getaffinity(0))
        else:
            cores = os.cpu_count() or 1
        # More threads than cores, each compiling a suite program.
        programs = [SUITE[i % len(SUITE)] for i in range(min(cores, 30) + 2)]
        barrier = threading.Barrier(len(programs))
        results = {}
        errors = []

        def work(index, source):
            try:
                barrier.wait(timeout=30)
                results[index] = snapshot(compile_source(source))
            except Exception as error:  # reported below
                errors.append((index, error))

        threads = [
            threading.Thread(target=work, args=(index, source), name=name)
            for index, (name, source) in enumerate(programs)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(builds) == 1
        for index, (name, source) in enumerate(programs):
            expected = snapshot(oracle_compile_source(source))
            assert results[index] == expected, name
