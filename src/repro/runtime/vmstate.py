"""Mutable VM state: statics, output, allocation accounting, PRNG."""

from repro.runtime.values import ArrayRef, ObjRef, default_value
from repro.errors import LinkError

#: LCG constants (numerical recipes), masked to 63 bits.
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_MASK = (1 << 63) - 1


class VMState:
    """Everything mutable about one running VM instance.

    A fresh :class:`VMState` models the paper's "separate JVM instance":
    statics are re-zeroed, the PRNG is reseeded, profiles start empty.

    Attributes:
        program: the loaded :class:`~repro.bytecode.program.Program`.
        output: list of integers produced by the ``print`` intrinsic
            (the benchmark harness checksums it to validate runs).
        allocation_count: number of objects and arrays allocated.
        tick_counter: virtual clock backing the ``ticks`` intrinsic.

    NEW, GETSTATIC and PUTSTATIC resolve through per-class link tables
    filled on first use: each class's instance-field template and the
    declaring ``(class, field)`` key of each static reference. Like
    :meth:`_init_statics`, they assume the program is complete when its
    VM is built: classes may still be added, but no existing class
    changes its fields. Failures are never cached, so an unknown class
    or field raises the same :class:`LinkError` on every call.

    Py-tier closures link each static site once, when they are bound
    (:meth:`static_slot`): a resolved, initialized static becomes a
    subscript of the statics dict itself, and any other site keeps
    calling :meth:`get_static`/:meth:`put_static`.
    """

    def __init__(self, program, seed=0x5EED):
        self.program = program
        self.output = []
        self.allocation_count = 0
        self.tick_counter = 0
        self._statics = {}
        self._static_keys = {}  # (class, field) -> declaring (class, field)
        self._templates = {}  # class name -> instance-field defaults
        self._rng_state = (seed ^ 0x9E3779B97F4A7C15) & _MASK
        self._init_statics()

    def _init_statics(self):
        for klass in self.program.classes.values():
            for field in klass.fields.values():
                if field.is_static:
                    self._statics[(klass.name, field.name)] = default_value(
                        field.type
                    )

    # ------------------------------------------------------------------
    # Statics
    # ------------------------------------------------------------------

    def _link_static(self, class_name, field_name):
        declaring, _ = self.program.lookup_field(class_name, field_name)
        key = self._static_keys[(class_name, field_name)] = (
            declaring.name, field_name
        )
        return key

    def get_static(self, class_name, field_name):
        key = self._static_keys.get((class_name, field_name))
        if key is None:
            key = self._link_static(class_name, field_name)
        try:
            return self._statics[key]
        except KeyError:
            raise LinkError(
                "static field %s.%s not initialized" % (class_name, field_name)
            )

    def put_static(self, class_name, field_name, value):
        key = self._static_keys.get((class_name, field_name))
        if key is None:
            key = self._link_static(class_name, field_name)
        self._statics[key] = value

    def static_slot(self, class_name, field_name):
        """``(table, key)`` such that ``table[key]`` reads the static
        and ``table[key] = value`` writes it, as :meth:`get_static` and
        :meth:`put_static` do.

        A static that resolves and is initialized now stays so (statics
        are never removed), so its slot is the statics dict and its
        declaring key. Any other site gets an :class:`_UnlinkedStatic`,
        which calls those methods on every access: it raises their
        :class:`LinkError` there, never here, and caches no failure.
        """
        key = self._static_keys.get((class_name, field_name))
        if key is None:
            try:
                key = self._link_static(class_name, field_name)
            except LinkError:
                key = None
        if key is not None and key in self._statics:
            return self._statics, key
        return _UnlinkedStatic(self, class_name, field_name), None

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self, class_name):
        """Allocate an object with default-initialized fields."""
        template = self._templates.get(class_name)
        if template is None:
            template = {}
            for klass in self.program.superclass_chain(class_name):
                for field in klass.fields.values():
                    if not field.is_static:
                        template[field.name] = default_value(field.type)
            self._templates[class_name] = template
        self.allocation_count += 1
        # Defaults are 0 or None, so a shallow copy is a fresh object.
        return ObjRef(class_name, template.copy())

    def allocate_array(self, elem_type, length):
        self.allocation_count += 1
        return ArrayRef(elem_type, length)

    # ------------------------------------------------------------------
    # Deterministic randomness
    # ------------------------------------------------------------------

    def next_random(self):
        self._rng_state = (self._rng_state * _LCG_A + _LCG_C) & _MASK
        return self._rng_state >> 16

    def reseed(self, seed):
        self._rng_state = (seed ^ 0x9E3779B97F4A7C15) & _MASK

    # ------------------------------------------------------------------
    # Output validation
    # ------------------------------------------------------------------

    def output_checksum(self):
        """Order-sensitive checksum of everything printed so far."""
        acc = 0
        for value in self.output:
            acc = (acc * 31 + (value & _MASK)) & _MASK
        return acc


class _UnlinkedStatic:
    """The slot of a static site that did not link at bind time: each
    access resolves again through :class:`VMState`, key ignored."""

    __slots__ = ("vm", "class_name", "field_name")

    def __init__(self, vm, class_name, field_name):
        self.vm = vm
        self.class_name = class_name
        self.field_name = field_name

    def __getitem__(self, _key):
        return self.vm.get_static(self.class_name, self.field_name)

    def __setitem__(self, _key, value):
        self.vm.put_static(self.class_name, self.field_name, value)
