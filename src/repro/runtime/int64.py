"""The single definition of guest integer semantics (JVM ``long``).

Several independent executors evaluate guest arithmetic — the profiling
interpreter (classic and pre-decoded), the lowered register machine,
the generated Python tier and the canonicalizer's constant folder — and
they must agree bit-for-bit on every input.  The only way to guarantee
that *by construction* is to give them one shared implementation, which
is this module: 64-bit two's-complement wrapping, truncating division,
JVM remainder.

Invariant: every guest integer value in the system is *wrapped*, i.e.
``wrap64(v) == v``.  Each executor re-establishes the invariant after
every arithmetic step (the bitwise ops and comparisons preserve it on
their own); ``tests/test_semantics_differential.py`` pins the edge
cases across the interpreter, the machine and the folder.

Every executor's DIV and REM call :func:`div64` / :func:`rem64`, which
return the wrapped result in one call. :func:`int_div` /
:func:`int_rem` give the exact, unwrapped result: the constant folder
wraps it itself, and the tests use the pair as the oracle for the
one-call forms.
"""

from repro.errors import DivisionByZeroTrap

_WRAP = 1 << 64
_SIGN = 1 << 63

#: The guest integer range, for tests and generators.
INT64_MIN = -_SIGN
INT64_MAX = _SIGN - 1


def wrap64(value):
    """Wrap a Python int to 64-bit two's-complement (JVM-style)."""
    value &= _WRAP - 1
    if value & _SIGN:
        value -= _WRAP
    return value


def is_wrapped(value):
    """True if *value* is already a valid guest integer."""
    return INT64_MIN <= value <= INT64_MAX


def int_div(a, b):
    """Division truncating toward zero, as on the JVM.

    The result is *not* wrapped: ``INT64_MIN / -1`` yields ``2**63``,
    which every caller must route through :func:`wrap64` (yielding
    ``INT64_MIN``, exactly as the JVM's ``ldiv`` overflows), as
    :func:`div64` does.
    """
    if b == 0:
        raise DivisionByZeroTrap()
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def int_rem(a, b):
    """Remainder with the sign of the dividend, as on the JVM.

    For wrapped operands the result is always representable
    (``|rem| < |b|`` and ``a % -1 == 0``); the constant folder wraps
    it anyway, as it wraps every folded value.
    """
    if b == 0:
        raise DivisionByZeroTrap()
    return a - int_div(a, b) * b


def div64(a, b):
    """``wrap64(int_div(a, b))`` in one call, for wrapped operands.

    Only ``INT64_MIN / -1`` leaves the range (as ``2**63``); every other
    quotient of two guest integers is already wrapped.
    """
    if b == 0:
        raise DivisionByZeroTrap()
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        return -q
    return q - _WRAP if q == _SIGN else q


def rem64(a, b):
    """``wrap64(int_rem(a, b))`` in one call, for wrapped operands: the
    remainder of the magnitudes, with the dividend's sign."""
    if b == 0:
        raise DivisionByZeroTrap()
    r = abs(a) % abs(b)
    return -r if a < 0 else r
