"""Class and field definitions for the miniature object model."""

from repro.errors import BytecodeError


class FieldDef:
    """A field declaration.

    Attributes:
        name: field name, unique within the declaring class.
        type: declared type descriptor (see :mod:`repro.bytecode.types`).
        is_static: True for class-level fields.
    """

    __slots__ = ("name", "type", "is_static")

    def __init__(self, name, type, is_static=False):
        self.name = name
        self.type = type
        self.is_static = is_static

    def __repr__(self):
        return "<FieldDef %s%s: %s>" % (
            "static " if self.is_static else "",
            self.name,
            self.type,
        )


class ClassDef:
    """A class or interface definition.

    The model mirrors the JVM's: single inheritance between classes, any
    number of implemented interfaces, and interfaces that may carry
    default method bodies (which is how minij traits are lowered — the
    paper's Figure 1 relies on a trait with a concrete ``foreach``).

    Attributes:
        name: globally unique class name.
        superclass: name of the superclass, or None for the root class.
        interfaces: names of directly implemented interfaces.
        fields: mapping of field name to :class:`FieldDef`.
        methods: mapping of method name to :class:`Method` (declared
            here only; inherited methods are resolved by the linker).
        is_interface: True for interfaces.
        is_abstract: abstract classes cannot be instantiated.
    """

    __slots__ = (
        "name",
        "superclass",
        "interfaces",
        "fields",
        "methods",
        "is_interface",
        "is_abstract",
    )

    def __init__(
        self,
        name,
        superclass="Object",
        interfaces=(),
        is_interface=False,
        is_abstract=False,
    ):
        self.name = name
        self.superclass = None if is_interface or name == "Object" else superclass
        self.interfaces = list(interfaces)
        self.fields = {}
        self.methods = {}
        self.is_interface = is_interface
        self.is_abstract = is_abstract or is_interface

    def add_field(self, field):
        if field.name in self.fields:
            raise BytecodeError(
                "duplicate field %s.%s" % (self.name, field.name)
            )
        self.fields[field.name] = field
        return field

    def add_method(self, method):
        if method.name in self.methods:
            raise BytecodeError(
                "duplicate method %s.%s" % (self.name, method.name)
            )
        method.klass = self
        self.methods[method.name] = method
        return method

    def __repr__(self):
        kind = "interface" if self.is_interface else "class"
        return "<ClassDef %s %s>" % (kind, self.name)
