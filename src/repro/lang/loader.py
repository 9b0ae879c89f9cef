"""The front end's entry point: source text → verified bytecode program.

The stdlib is parsed, resolved, generated and verified once per process,
on first use, into an immutable template (:class:`StdlibTemplate`).
Each :func:`compile_source` call then handles only the user module
against the template's resolved class table, and gives its
:class:`~repro.bytecode.program.Program` fresh copies of the builtin
and stdlib classes before adding the user's classes.
"""

import threading

from repro.bytecode.klass import ClassDef
from repro.bytecode.method import Method
from repro.bytecode.program import Program
from repro.bytecode.verifier import verify_method, verify_program
from repro.errors import ResolveError
from repro.lang.codegen import CodeGen
from repro.lang.parser import parse_module
from repro.lang.resolver import Resolver
from repro.lang.stdlib import STDLIB_SOURCE
from repro.runtime.intrinsics import install_builtins


class StdlibTemplate:
    """The stdlib compiled once: its resolved class table and the
    verified builtin and stdlib :class:`ClassDef` s, in program order.

    Nothing writes to a template after construction. Programs get
    copies of its classes (:meth:`instantiate`), because a class and its
    methods hold per-program state: ``Method.klass``, the inlining
    flags, and whatever a test or tool sets on them.
    """

    def __init__(self):
        resolver = Resolver([parse_module(STDLIB_SOURCE)])
        self.table = resolver.run()
        if resolver.lambdas:
            # Programs would share its $LambdaN class, and the user's
            # lambdas would no longer number from $Lambda0.
            lam = resolver.lambdas[0]
            raise ResolveError(
                "the stdlib must not contain lambdas", lam.line, lam.column
            )
        program = Program()
        install_builtins(program)
        CodeGen(resolver, program).run()
        verify_program(program)
        self.classes = tuple(
            klass
            for name, klass in program.classes.items()
            if name != "Object"
        )

    def instantiate(self):
        """A new program holding copies of the template's classes."""
        program = Program()
        for klass in self.classes:
            program.add_class(_copy_class(klass))
        return program


def _copy_class(klass):
    """A copy of *klass* with its own field and method tables and its own
    methods. :class:`FieldDef` and :class:`Instr` are never written after
    construction, so the copies share them."""
    copy = ClassDef(
        klass.name,
        superclass=klass.superclass,
        interfaces=klass.interfaces,
        is_interface=klass.is_interface,
        is_abstract=klass.is_abstract,
    )
    copy.fields = dict(klass.fields)
    for method in klass.methods.values():
        copy.add_method(
            Method(
                method.name,
                method.param_types,
                method.return_type,
                method.code,
                is_static=method.is_static,
                is_abstract=method.is_abstract,
                max_locals=method.max_locals,
                force_inline=method.force_inline,
                never_inline=method.never_inline,
                is_native=method.is_native,
            )
        )
    return copy


_template = None
_template_lock = threading.Lock()


def stdlib_template():
    """The process's :class:`StdlibTemplate`, built on first use."""
    global _template
    template = _template
    if template is None:
        with _template_lock:
            if _template is None:
                _template = StdlibTemplate()
            template = _template
    return template


def compile_source(source):
    """Compile minij *source* against the stdlib into a verified
    :class:`~repro.bytecode.program.Program`.

    Class order is builtins, stdlib, the user's classes, then the
    user's ``$LambdaN`` classes.
    """
    template = stdlib_template()
    resolver = Resolver([parse_module(source)], base=template.table)
    resolver.run()
    program = template.instantiate()
    first_user = len(program.classes)
    CodeGen(resolver, program).run()
    for klass in list(program.classes.values())[first_user:]:
        for method in klass.methods.values():
            if not method.is_abstract and not method.is_native:
                verify_method(method, program)
    return program
