"""The program container: a closed set of classes plus lookup helpers.

A :class:`Program` is the unit the VM loads. It provides the *static*
resolution queries that the verifier, interpreter and compiler all share:
superclass chains, subtype tests, virtual method resolution and field
lookup. Receiver-profile-driven *speculative* resolution lives in the
runtime and compiler, not here.
"""

from repro.bytecode.klass import ClassDef
from repro.errors import BytecodeError, LinkError


class _Row(dict):
    """``{name: fill(name, key)}`` for one *key*, filled on a miss; a
    fill that raises (:class:`LinkError`) stores nothing."""

    __slots__ = ("fill", "key")

    def __init__(self, fill, key):
        self.fill = fill
        self.key = key

    def __missing__(self, name):
        value = self[name] = self.fill(name, self.key)
        return value


class _Rows(dict):
    """``{key: row}``, each :class:`_Row` made on first use."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        row = self[key] = _Row(self.fill, key)
        return row


class Program:
    """A closed collection of :class:`ClassDef` plus resolution caches.

    Subtype tests and virtual resolution read *rows*: one dict per
    supertype (:meth:`subtype_row`) and one per method name
    (:meth:`dispatch_row`), keyed by the tested or receiver class and
    filled on a miss. Compiled code binds a row once and then pays one
    subscript per test or call. :meth:`add_class` empties every row in
    place, so a bound row stays valid.
    """

    def __init__(self):
        self.classes = {}
        root = ClassDef("Object")
        self.classes["Object"] = root
        self._subtype_rows = _Rows(self._subtype)  # sup -> {sub: bool}
        self._dispatch_rows = _Rows(self._resolve)  # name -> {cls: Method}
        self._lookup_cache = {}
        #: Bumped whenever the class set changes; consumers holding
        #: pre-resolved methods (the pre-decoded interpreter tier) key
        #: their caches on this to stay coherent with late class loads.
        self.generation = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_class(self, klass):
        if klass.name in self.classes:
            raise BytecodeError("duplicate class %s" % klass.name)
        self.classes[klass.name] = klass
        for rows in (self._subtype_rows, self._dispatch_rows):
            for row in rows.values():
                row.clear()
        self._lookup_cache.clear()
        self.generation += 1
        return klass

    def define_class(self, name, **kwargs):
        """Create, register and return a new :class:`ClassDef`."""
        return self.add_class(ClassDef(name, **kwargs))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def klass(self, name):
        try:
            return self.classes[name]
        except KeyError:
            raise LinkError("unknown class %r" % (name,))

    def has_class(self, name):
        return name in self.classes

    def superclass_chain(self, name):
        """Yield *name* and each superclass up to the root."""
        while name is not None:
            klass = self.klass(name)
            yield klass
            name = klass.superclass

    def all_interfaces(self, name):
        """The transitive set of interface names implemented by *name*."""
        seen = set()
        work = []
        for klass in self.superclass_chain(name):
            work.extend(klass.interfaces)
        if self.klass(name).is_interface:
            work.append(name)
        while work:
            iname = work.pop()
            if iname in seen:
                continue
            seen.add(iname)
            work.extend(self.klass(iname).interfaces)
        return seen

    def is_subtype(self, sub, sup):
        """Subtype test over classes, interfaces and arrays.

        Arrays are covariant in their element type (as on the JVM), and
        every array type is a subtype of ``Object``.
        """
        if sub == sup or sup == "Object":
            return True
        return self._subtype_rows[sup][sub]

    def subtype_row(self, sup):
        """The row answering ``is_subtype(sub, sup)`` as ``row[sub]``."""
        return self._subtype_rows[sup]

    def dispatch_row(self, method_name):
        """The row answering ``resolve_method(cls, method_name)`` as
        ``row[cls]``."""
        return self._dispatch_rows[method_name]

    def _subtype(self, sub, sup):
        return sub == sup or sup == "Object" or self._compute_subtype(sub, sup)

    def _compute_subtype(self, sub, sup):
        if sub.endswith("[]"):
            if sup.endswith("[]"):
                se, pe = sub[:-2], sup[:-2]
                if se == "int" or pe == "int":
                    return se == pe
                return self.is_subtype(se, pe)
            return False
        if sup.endswith("[]"):
            return False
        sup_klass = self.klass(sup)
        if sup_klass.is_interface:
            return sup in self.all_interfaces(sub)
        for klass in self.superclass_chain(sub):
            if klass.name == sup:
                return True
        return False

    def resolve_method(self, class_name, method_name):
        """Resolve *method_name* against *class_name* as a receiver type.

        Walks the superclass chain first (instance method overriding),
        then falls back to interface default methods, mirroring JVM
        resolution order closely enough for our purposes.

        Returns the concrete :class:`Method`, which may be abstract when
        the receiver type is itself abstract or an interface.
        """
        return self._dispatch_rows[method_name][class_name]

    def _resolve(self, class_name, method_name):
        found = None
        for klass in self.superclass_chain(class_name):
            method = klass.methods.get(method_name)
            if method is not None:
                found = method
                break
        if found is None or found.is_abstract:
            # Interface default methods: most-specific wins; we accept
            # the first concrete one found (minij's resolver guarantees
            # no ambiguous defaults reach this point).
            for iname in sorted(self.all_interfaces(class_name)):
                method = self.klass(iname).methods.get(method_name)
                if method is not None and not method.is_abstract:
                    found = method
                    break
        if found is None:
            raise LinkError(
                "method %s not found on %s" % (method_name, class_name)
            )
        return found

    def lookup_method(self, class_name, method_name):
        """Resolve a method for signature purposes (abstract is fine).

        Cached like :meth:`resolve_method`: this is on the interpreter's
        per-call hot path (every executed INVOKESTATIC/INVOKEVIRTUAL).
        """
        key = (class_name, method_name)
        cached = self._lookup_cache.get(key)
        if cached is not None:
            return cached
        found = None
        for klass in self.superclass_chain(class_name):
            method = klass.methods.get(method_name)
            if method is not None:
                found = method
                break
        if found is None:
            for iname in sorted(self.all_interfaces(class_name)):
                method = self.klass(iname).methods.get(method_name)
                if method is not None:
                    found = method
                    break
        if found is None:
            raise LinkError(
                "method %s not found on %s" % (method_name, class_name)
            )
        self._lookup_cache[key] = found
        return found

    def lookup_field(self, class_name, field_name):
        """Find the declaring class and :class:`FieldDef` of a field."""
        for klass in self.superclass_chain(class_name):
            field = klass.fields.get(field_name)
            if field is not None:
                return klass, field
        raise LinkError("field %s not found on %s" % (field_name, class_name))

    def concrete_subclasses(self, name):
        """All non-abstract classes that are subtypes of *name*.

        Used by the compiler for class-hierarchy-based devirtualization
        of callsites whose receiver type has a single implementor.
        """
        result = []
        for cname, klass in self.classes.items():
            if not klass.is_interface and not klass.is_abstract:
                if self.is_subtype(cname, name):
                    result.append(cname)
        return sorted(result)

    def methods_iter(self):
        """Iterate over every declared method in the program."""
        for klass in self.classes.values():
            for method in klass.methods.values():
                yield method

    def total_code_size(self):
        return sum(len(m.code) for m in self.methods_iter())

    def __repr__(self):
        return "<Program %d classes, %d methods>" % (
            len(self.classes),
            sum(len(k.methods) for k in self.classes.values()),
        )
