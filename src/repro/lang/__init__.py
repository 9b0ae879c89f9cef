"""The minij front end.

minij is a small Java/Scala-flavoured language compiled to the bytecode
of :mod:`repro.bytecode`. It exists so the evaluation's workloads can be
written the way the paper's motivating examples are written — traits
with default methods, polymorphic collection combinators, lambdas —
rather than as hand-assembled bytecode.

Feature set:

- classes with single inheritance, fields (instance and static),
  methods, constructors (``def init``), ``super`` calls;
- ``trait``: interfaces with abstract *and* default methods (Figure 1's
  ``IndexedSeqOptimized.foreach`` is a default method);
- ``object``: a module of static methods and fields;
- types ``int``, ``bool``, ``void``, class types and arrays ``T[]``;
- statements: ``var``, assignment, ``if``/``else``, ``while``,
  ``return``, blocks; expressions: literals, ``new``, calls, field and
  array access, ``a.length``, arithmetic/logic with short-circuit
  ``&&``/``||``, ``is``/``as`` type tests and casts;
- lambdas ``fun (x: int): int => x + 1`` lowered to anonymous classes
  implementing the fixed function traits of the standard library
  (closure captures become fields, exactly like Scala's lowering in
  the paper's Figure 2 — the ``$anon`` constructor node);
- annotations ``@inline`` / ``@noinline`` on methods (mapped to the
  force/never-inline method flags).

Public surface: :func:`compile_source`, which compiles one user module
against the standard library (:data:`STDLIB_SOURCE`, compiled once per
process) and always verifies the result.
"""

from repro.lang.loader import compile_source, STDLIB_SOURCE

__all__ = ["compile_source", "STDLIB_SOURCE"]
