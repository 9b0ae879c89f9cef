"""Deoptimization support: frame states, speculation log, resume driver.

Speculative devirtualization (guards and deopts emitted by
``repro.core.polymorphic``) needs a way to abandon compiled code
mid-method and fall back to the profiling interpreter without changing
observable behaviour.  This package holds the pieces shared between the
IR, the machine backend and the engine:

- :class:`FrameDescriptor` — compile-time description of one
  interpreter frame attached to IR nodes (which locals/stack slots the
  appended state inputs populate, and how to resume);
- :class:`FrameTemplate` — the lowered, register-level form stored in a
  :class:`~repro.backend.machine.MachineCode` deopt table;
- :class:`MaterializedFrame` / :class:`DeoptSignal` — runtime values
  produced when a guard fails;
- :class:`SpeculationLog` — records refuted speculations so
  recompilation never repeats a failed guess (and never loops);
- :func:`resume_frames` — re-enters the interpreter, innermost frame
  first, reconstructing the virtual call stack the inliner flattened.

Nothing here imports the backend or the engine, so both can depend on
this module without cycles.
"""

from repro.runtime.values import NULL


class FrameDescriptor:
    """Compile-time description of one interpreter frame.

    A node carrying frame state appends the live values as extra SSA
    inputs, grouped per frame (innermost first); each group holds the
    defined locals followed by the operand stack, bottom to top.  The
    descriptor records how to unpack one group:

    - ``method`` / ``bci``: where the frame resumes.  The *innermost*
      frame re-executes the instruction at ``bci`` (the speculated
      dispatch, none of whose effects have happened when a guard
      fails).  Every *outer* frame represents an inlined call that the
      inner frame has since completed: it pops ``argc`` operands,
      pushes the inner frame's return value when ``pushes_result``,
      and resumes at ``bci + 1``.
    - ``local_slots``: indices of the locals present in the state
      values (builder locals can be undefined mid-method; absent slots
      materialize as NULL rather than becoming null IR inputs).
    - ``n_stack``: operand-stack depth captured *including* the call's
      arguments, so re-executing the dispatch finds them in place.
    """

    __slots__ = ("method", "bci", "local_slots", "n_stack", "argc", "pushes_result")

    def __init__(self, method, bci, local_slots, n_stack, argc, pushes_result):
        self.method = method
        self.bci = bci
        self.local_slots = tuple(local_slots)
        self.n_stack = n_stack
        self.argc = argc
        self.pushes_result = pushes_result

    @property
    def site(self):
        """(qualified method name, bci) — the speculation site key."""
        return (self.method.qualified_name, self.bci)

    def __repr__(self):
        return "FrameDescriptor(%s@%d, locals=%r, stack=%d)" % (
            self.method.qualified_name,
            self.bci,
            self.local_slots,
            self.n_stack,
        )


class FrameTemplate:
    """Register-level frame layout stored in a machine deopt table."""

    __slots__ = ("method", "bci", "local_map", "stack_regs", "argc", "pushes_result")

    def __init__(self, method, bci, local_map, stack_regs, argc, pushes_result):
        self.method = method
        self.bci = bci
        self.local_map = tuple(local_map)  # ((local slot, register), ...)
        self.stack_regs = tuple(stack_regs)
        self.argc = argc
        self.pushes_result = pushes_result


class MaterializedFrame:
    """A concrete interpreter frame rebuilt from machine registers."""

    __slots__ = ("method", "bci", "locals", "stack", "argc", "pushes_result")

    def __init__(self, method, bci, locals_, stack, argc, pushes_result):
        self.method = method
        self.bci = bci
        self.locals = locals_
        self.stack = stack
        self.argc = argc
        self.pushes_result = pushes_result


def materialize_frames(templates, regs):
    """Turn a deopt-table entry into concrete frames (innermost first).

    Register ``-1`` is the "undefined on this path" sentinel: the slot
    materializes as NULL (verified bytecode never reads it).
    """
    frames = []
    for template in templates:
        locals_ = [NULL] * template.method.max_locals
        for slot, reg in template.local_map:
            locals_[slot] = NULL if reg < 0 else regs[reg]
        stack = [
            NULL if reg < 0 else regs[reg] for reg in template.stack_regs
        ]
        frames.append(
            MaterializedFrame(
                template.method,
                template.bci,
                locals_,
                stack,
                template.argc,
                template.pushes_result,
            )
        )
    return frames


class DeoptSignal(Exception):
    """Raised by the machine executor when a guard fails.

    Deliberately *not* a :class:`~repro.errors.VMError`: a signal that
    escapes the engine's dispatch boundary is a harness bug and should
    surface loudly, not be folded into trap handling.
    """

    def __init__(self, method, reason, site, frames):
        super().__init__("deopt in %s: %s" % (method.qualified_name, reason))
        self.method = method  # compiled root being abandoned
        self.reason = reason
        self.site = site  # (qualified name, bci) of the refuted guess
        self.frames = frames  # MaterializedFrames, innermost first


class SpeculationLog:
    """Failed speculations, keyed by (qualified method name, bci).

    The compiler consults the log before speculating; the engine
    records every taken deopt.  Because each deopt refutes at least one
    site and refuted sites are never retried, the deopt/recompile cycle
    terminates.  ``disable`` additionally blacklists a whole root
    method once it exceeds the engine's deopt budget.
    """

    def __init__(self):
        self._refuted = {}
        self._disabled = set()

    def record(self, site, reason):
        self._refuted[site] = reason

    def refuted(self, site):
        return site in self._refuted

    def disable(self, qualified_name):
        self._disabled.add(qualified_name)

    def is_disabled(self, qualified_name):
        return qualified_name in self._disabled

    def __len__(self):
        return len(self._refuted)

    def version(self):
        """Grows with every newly refuted site or disabled method.

        Nothing is ever removed, so two reads of an equal version get
        equal answers from :meth:`refuted` and :meth:`is_disabled`.
        """
        return len(self._refuted) + len(self._disabled)

    def entries(self):
        return sorted(self._refuted.items())


class SpeculationPolicy:
    """Per-compilation speculation knobs handed to the inliner.

    ``typecheck`` additionally lets the graph builder speculate on
    profile-monomorphic INSTANCEOF/CHECKCAST operands (guard + Pi
    pinning the exact type); it rides on the same log and frame-state
    machinery, so it only has effect when ``enabled`` is also set.
    """

    __slots__ = ("enabled", "log", "typecheck")

    def __init__(self, enabled, log, typecheck=False):
        self.enabled = enabled
        self.log = log
        self.typecheck = typecheck


def resume_frames(interpreter, frames):
    """Resume materialized frames in the interpreter, innermost first.

    The innermost frame re-executes the speculated dispatch at its bci;
    each outer frame then consumes the completed inner call — pop the
    arguments the inlined invoke would have popped, push its result,
    continue at the following instruction.  Returns the value of the
    outermost frame (the compiled root's return value).
    """
    value = None
    for index, frame in enumerate(frames):
        stack = list(frame.stack)
        if index == 0:
            pc = frame.bci
        else:
            del stack[len(stack) - frame.argc :]
            if frame.pushes_result:
                stack.append(value)
            pc = frame.bci + 1
        value = interpreter.resume(frame.method, list(frame.locals), stack, pc)
    return value
