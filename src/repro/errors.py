"""Exception hierarchy shared by every subsystem in the reproduction.

Keeping all error types in one module makes it easy for callers (tests,
the JIT engine, the benchmark harness) to catch precisely the class of
failure they care about without importing deep internals.
"""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class BytecodeError(ReproError):
    """Malformed bytecode: bad operands, unknown opcodes, broken jumps."""


class VerifyError(BytecodeError):
    """The bytecode verifier rejected a method."""


class LinkError(ReproError):
    """Class linking failed: missing superclass, method, or field."""


class LangError(ReproError):
    """Base class for minij front-end errors."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "line %d:%d: %s" % (line, column or 0, message)
        super().__init__(message)


class LexError(LangError):
    """The lexer met a character sequence it cannot tokenize."""


class ParseError(LangError):
    """The parser met an unexpected token."""


class ResolveError(LangError):
    """Semantic analysis failed: unknown name, type mismatch, bad override."""


class VMError(ReproError):
    """A runtime failure inside the virtual machine."""


class TrapError(VMError):
    """A guest-program trap (the minij equivalent of a runtime exception)."""

    def __init__(self, kind, detail=""):
        self.kind = kind
        self.detail = detail
        super().__init__("%s%s" % (kind, (": " + detail) if detail else ""))


class NullPointerTrap(TrapError):
    def __init__(self, detail=""):
        super().__init__("NullPointer", detail)


class DivisionByZeroTrap(TrapError):
    def __init__(self, detail=""):
        super().__init__("DivisionByZero", detail)


class BoundsTrap(TrapError):
    def __init__(self, detail=""):
        super().__init__("IndexOutOfBounds", detail)


class CastTrap(TrapError):
    def __init__(self, detail=""):
        super().__init__("ClassCast", detail)


class IRError(ReproError):
    """The IR is structurally broken (checker failures, bad builder input)."""


class CompileError(ReproError):
    """The JIT compiler could not compile a method."""
