"""Type descriptors used in signatures, fields and the IR stamp lattice.

Types are plain strings, chosen for readability in dumps:

- ``"int"`` — 64-bit-style integer (also used for booleans)
- ``"void"`` — only as a return type
- ``"Foo"`` — reference to class or interface ``Foo``
- ``"int[]"`` / ``"Foo[]"`` — arrays; arrays of arrays are allowed

The helpers below centralize the string plumbing so nothing else in the
code base parses type strings by hand.
"""

INT = "int"
VOID = "void"
OBJECT = "Object"


def is_array(t):
    return t.endswith("[]")


def is_ref(t):
    """True for any reference type: classes, interfaces and arrays."""
    return t != INT and t != VOID


def array_of(elem):
    """The array type with element type *elem*."""
    return elem + "[]"


def elem_of(t):
    """The element type of array type *t*."""
    if not is_array(t):
        raise ValueError("not an array type: %r" % (t,))
    return t[:-2]
