"""Optimized IR → live Python closures: the top execution tier.

The machine backend (:mod:`repro.backend.machine`) is a cycle-accounted
register interpreter — deterministic, host-independent, and the
differential oracle for everything faster. This module is the
"everything faster": it lowers the same optimized graph to Python
source, compiles it with :func:`compile`/``exec`` and returns a closure
the engine calls instead of the machine executor. The generated code
must be *bit-identical* to the machine model in every observable:
values, trap kinds, printed output, per-iteration cycles, and the
frames materialized on deoptimization.

Codegen shape
-------------

One function per graph. Each SSA value becomes a Python local
``v<node id>`` (constants are inlined as literals and never assigned);
control flow is a ``while True:`` state machine over block ids whose
``if/elif`` dispatch chain is ordered by profiled block frequency, so
hot loop bodies re-dispatch in one or two integer comparisons. Phis
become native tuple assignments on the incoming edges (Python's
parallel assignment gives the parallel-copy semantics the machine
backend needs a scratch register for). Compare and instance-of nodes
whose single use is the same block's branch or guard are fused into the
``if`` condition instead of materializing a 0/1 local.

Parity rules (mirroring :class:`~repro.backend.machine.MachineExecutor`
instruction by instruction):

- int64: add/sub/mul/neg/shl inline the two's-complement wrap formula
  using the constants of :mod:`repro.runtime.int64`; div/rem call
  :func:`~repro.runtime.int64.int_div` / ``int_rem`` and wrap.
- cycles: ``_cy`` starts at ``METHOD_ENTRY``, each block adds the same
  block cost lowering puts in its ``COST`` pseudo-instruction, and the
  accumulator flushes to the engine sink exactly where the machine
  flushes — before non-native dispatches, before a deopt raise, and at
  returns; never on a trap.
- phis: a phi with a ``None`` input (a local undefined along that
  edge) starts as ``None`` at entry, as its machine register starts
  NULL; that edge assigns nothing on either tier.
- traps: the same trap classes with the same kinds, raised after the
  same checks in the same order.
- deopt: guard/deopt sites build :class:`~repro.deopt.FrameTemplate`
  tables whose "registers" are positions in a runtime value tuple, so
  :func:`~repro.deopt.materialize_frames` and the engine's
  ``DeoptSignal`` handling are reused unchanged.

Bailouts
--------

Anything the generator cannot prove it translates faithfully raises
:class:`PyCodegenBailout`; the compiler then installs machine-only code
(slower, never wrong). Reasons: ``unsupported-node`` (an IR node
outside the supported vocabulary), ``graph-too-large`` (node count over
:data:`MAX_NODES`), ``frame-state-mismatch`` (malformed deopt state),
``compile-failed`` (the generated source failed to ``compile()``).
"""

from repro.backend.costmodel import CostModel
from repro.deopt import DeoptSignal, FrameTemplate, materialize_frames
from repro.errors import (
    BoundsTrap,
    CastTrap,
    NullPointerTrap,
    VMError,
)
from repro.ir import nodes as n
from repro.ir import stamps as st
from repro.runtime import int64
from repro.runtime.int64 import int_div, int_rem, wrap64
from repro.runtime.intrinsics import intrinsic_function
from repro.runtime.values import ArrayRef, ObjRef

#: Wrap-formula constants, taken from the single int64 definition so the
#: inlined arithmetic cannot drift from :func:`~repro.runtime.int64.wrap64`
#: (pinned by ``tests/test_pycodegen.py`` over the edge cases).
_SIGN = int64._SIGN
_MASK = int64._WRAP - 1

#: Node-count ceiling; beyond it the generated source stops paying for
#: itself and ``compile()`` time becomes noticeable, so bail out.
MAX_NODES = 50000


class PyCodegenBailout(Exception):
    """The graph cannot be translated faithfully; use machine code.

    ``reason`` is a short stable slug (counted per-reason by the
    compiler's ``backend.py.bailouts.<reason>`` metric), ``detail`` the
    human-readable specifics.
    """

    def __init__(self, reason, detail=""):
        super().__init__(detail or reason)
        self.reason = reason
        self.detail = detail or reason


_CMP_OPS = {
    "EQ": "==",
    "NE": "!=",
    "LT": "<",
    "LE": "<=",
    "GT": ">",
    "GE": ">=",
    "REF_EQ": "is",
    "REF_NE": "is not",
}

#: Operator inversion for fused negated conditions (guards fail on 0).
_CMP_NEGATED = {
    "EQ": "!=",
    "NE": "==",
    "LT": ">=",
    "LE": ">",
    "GT": "<=",
    "GE": "<",
    "REF_EQ": "is not",
    "REF_NE": "is",
}


def generate(graph, cost_model=None):
    """Generate the Python tier for *graph*.

    Returns ``(factory, source)`` where ``factory(vm, dispatch, sink)``
    binds one engine's VM state and returns the ``run(args)`` closure.
    Raises :class:`PyCodegenBailout` when the graph cannot be
    translated faithfully.
    """
    return _PyCodegen(graph, cost_model or CostModel()).run()


class _PyCodegen:
    def __init__(self, graph, cost_model):
        self.graph = graph
        self.cost = cost_model
        self.lines = []
        self.deopt_table = []
        self.reasons = []
        self.globals = {}
        self._next_global = 0

    # -- source assembly ----------------------------------------------------

    def _line(self, depth, text):
        self.lines.append("    " * depth + text)

    def _bind(self, prefix, value):
        name = "_%s%d" % (prefix, self._next_global)
        self._next_global += 1
        self.globals[name] = value
        return name

    def _val(self, node):
        t = type(node)
        if t is n.ConstIntNode:
            return repr(node.value)
        if t is n.ConstNullNode:
            return "None"
        return "v%d" % node.id

    # -- main ---------------------------------------------------------------

    def run(self):
        graph = self.graph
        if graph.node_count() > MAX_NODES:
            raise PyCodegenBailout(
                "graph-too-large",
                "%d nodes > %d" % (graph.node_count(), MAX_NODES),
            )
        order = graph.reverse_postorder()
        entry = order[0]
        lines = self.lines
        lines.append("def _deopt(index, values):")
        lines.append("    frames = _mf(_TABLE[index], values)")
        lines.append("    raise _DS(_METHOD, _REASONS[index],")
        lines.append("        (frames[0].method.qualified_name,"
                     " frames[0].bci), frames)")
        lines.append("def _factory(vm, dispatch, sink):")
        for binding in (
            "_vm = vm",
            "_call = dispatch",
            "_sink = sink",
            "_alloc = vm.allocate",
            "_allocarr = vm.allocate_array",
            "_getstatic = vm.get_static",
            "_putstatic = vm.put_static",
            "_issub = vm.program.is_subtype",
            "_resolve = vm.program.resolve_method",
        ):
            lines.append("    " + binding)
        lines.append("    def _run(args):")
        for index, param in enumerate(graph.params):
            self._line(2, "v%d = args[%d]" % (param.id, index))
        # An edge with a None phi input assigns nothing, so the phi
        # keeps whatever it held, as its machine register does; that
        # register starts NULL, and so must the local.
        for block in order:
            for phi in block.phis:
                if any(source is None for source in phi.inputs):
                    self._line(2, "v%d = None" % phi.id)
        self._line(2, "_cy = %d" % self.cost.METHOD_ENTRY)

        # The entry block runs exactly once when it has no predecessors
        # (the common case); emit it inline before the dispatch loop so
        # straight-line methods never touch the state machine at all.
        inline_entry = not entry.preds
        labeled = [b for b in order if not (inline_entry and b is entry)]
        if inline_entry:
            self._emit_block(entry, 2)
        else:
            self._line(2, "_b = %d" % entry.id)
        if labeled:
            # Hot blocks dispatch first: the chain is ordered by the
            # profiled block frequency, ties broken by layout order.
            ranked = sorted(
                enumerate(labeled),
                key=lambda item: (-getattr(item[1], "frequency", 1.0),
                                  item[0]),
            )
            self._line(2, "while True:")
            for rank, (_, block) in enumerate(ranked):
                keyword = "if" if rank == 0 else "elif"
                self._line(3, "%s _b == %d:" % (keyword, block.id))
                self._emit_block(block, 4)
            self._line(3, "else:")
            self._line(4, "raise _VE('bad block id %d' % _b)")
        lines.append("    return _run")

        self.globals.update(
            _mf=materialize_frames,
            _DS=DeoptSignal,
            _METHOD=graph.method,
            _TABLE=tuple(self.deopt_table),
            _REASONS=tuple(self.reasons),
            _NPT=NullPointerTrap,
            _BT=BoundsTrap,
            _CT=CastTrap,
            _VE=VMError,
            _OR=ObjRef,
            _AR=ArrayRef,
            _idiv=int_div,
            _irem=int_rem,
            _wrap=wrap64,
        )
        source = "\n".join(lines) + "\n"
        name = getattr(graph, "name", None) or graph.method.qualified_name
        try:
            code = compile(source, "<pycodegen:%s>" % name, "exec")
        except (SyntaxError, ValueError, RecursionError, MemoryError) as error:
            raise PyCodegenBailout("compile-failed", repr(error))
        exec(code, self.globals)
        return self.globals["_factory"], source

    # -- blocks -------------------------------------------------------------

    def _emit_block(self, block, depth):
        # Identical block price to the COST pseudo-instruction lowering
        # emits — this is what keeps the cycle model bit-identical.
        cost = sum(self.cost.node_cost(node) for node in block.instrs)
        if block.terminator is not None:
            cost += self.cost.node_cost(block.terminator)
        if cost:
            self._line(depth, "_cy += %d" % cost)
        fused = self._fused_conditions(block)
        for node in block.instrs:
            if node in fused:
                continue
            self._emit_node(node, depth, fused)
        self._emit_terminator(block, depth, fused)

    def _fused_conditions(self, block):
        """Compare/instance-of nodes foldable into their single branch
        or guard user in the same block (pure, so evaluation order is
        free to move to the use)."""
        fused = set()
        users = [x for x in block.instrs if type(x) is n.GuardNode]
        if type(block.terminator) is n.IfNode:
            users.append(block.terminator)
        for user in users:
            cond = user.inputs[0]
            if type(cond) not in (n.CompareNode, n.InstanceOfNode):
                continue
            if cond.block is not block or len(cond.uses) != 1:
                continue
            if type(user) is n.GuardNode and any(
                value is cond for value in user.state_values
            ):
                # The condition doubles as captured frame state; it
                # needs its materialized 0/1 local after all.
                continue
            fused.add(cond)
        return fused

    def _cond_expr(self, cond, fused, negate):
        """The branch/guard condition as an expression (0 = false)."""
        if cond in fused:
            t = type(cond)
            if t is n.CompareNode:
                ops = _CMP_NEGATED if negate else _CMP_OPS
                return "%s %s %s" % (
                    self._val(cond.inputs[0]),
                    ops[cond.op],
                    self._val(cond.inputs[1]),
                )
            expr = self._instanceof_expr(cond)
            return ("not (%s)" % expr) if negate else expr
        value = self._val(cond)
        return ("not %s" % value) if negate else value

    def _instanceof_expr(self, node):
        value = self._val(node.inputs[0])
        if node.exact:
            return "isinstance(%s, _OR) and %s.class_name == %r" % (
                value, value, node.type_name,
            )
        return (
            "%s is not None and _issub(%s.class_name "
            "if isinstance(%s, _OR) else %s.type_name, %r)"
            % (value, value, value, value, node.type_name)
        )

    # -- nodes --------------------------------------------------------------

    def _emit_node(self, node, depth, fused):
        t = type(node)
        line = self._line
        if t in (n.ConstIntNode, n.ConstNullNode, n.ParamNode, n.PhiNode):
            return  # inlined literals / preassigned / edge-assigned
        dst = "v%d" % node.id
        if t is n.BinOpNode:
            a = self._val(node.inputs[0])
            b = self._val(node.inputs[1])
            op = node.op
            if op in ("ADD", "SUB", "MUL"):
                sign = {"ADD": "+", "SUB": "-", "MUL": "*"}[op]
                line(depth, "%s = (%s %s %s + %d & %d) - %d"
                     % (dst, a, sign, b, _SIGN, _MASK, _SIGN))
            elif op == "DIV":
                line(depth, "%s = _wrap(_idiv(%s, %s))" % (dst, a, b))
            elif op == "REM":
                line(depth, "%s = _wrap(_irem(%s, %s))" % (dst, a, b))
            elif op in ("AND", "OR", "XOR"):
                sign = {"AND": "&", "OR": "|", "XOR": "^"}[op]
                line(depth, "%s = %s %s %s" % (dst, a, sign, b))
            elif op == "SHL":
                line(depth, "%s = ((%s << (%s & 63)) + %d & %d) - %d"
                     % (dst, a, b, _SIGN, _MASK, _SIGN))
            elif op == "SHR":
                line(depth, "%s = %s >> (%s & 63)" % (dst, a, b))
            else:
                raise PyCodegenBailout(
                    "unsupported-node", "BinOp %s" % op
                )
        elif t is n.NegNode:
            line(depth, "%s = (-(%s) + %d & %d) - %d"
                 % (dst, self._val(node.inputs[0]), _SIGN, _MASK, _SIGN))
        elif t is n.CompareNode:
            line(depth, "%s = 1 if %s %s %s else 0" % (
                dst,
                self._val(node.inputs[0]),
                _CMP_OPS[node.op],
                self._val(node.inputs[1]),
            ))
        elif t is n.PiNode:
            line(depth, "%s = %s" % (dst, self._val(node.inputs[0])))
        elif t is n.NewNode:
            line(depth, "%s = _alloc(%r)" % (dst, node.class_name))
        elif t is n.NewArrayNode:
            length = self._val(node.inputs[0])
            line(depth, "if %s < 0:" % length)
            line(depth + 1,
                 "raise _BT('negative array length %%d' %% %s)" % length)
            line(depth, "%s = _allocarr(%r, %s)"
                 % (dst, node.elem_type, length))
        elif t is n.ArrayLoadNode:
            array = self._val(node.inputs[0])
            index = self._val(node.inputs[1])
            line(depth, "if %s is None:" % array)
            line(depth + 1, "raise _NPT('ALOAD')")
            line(depth, "_t = %s.data" % array)
            line(depth, "if 0 <= %s < len(_t):" % index)
            line(depth + 1, "%s = _t[%s]" % (dst, index))
            line(depth, "else:")
            line(depth + 1,
                 "raise _BT('%%d / %%d' %% (%s, len(_t)))" % index)
        elif t is n.ArrayStoreNode:
            array = self._val(node.inputs[0])
            index = self._val(node.inputs[1])
            value = self._val(node.inputs[2])
            line(depth, "if %s is None:" % array)
            line(depth + 1, "raise _NPT('ASTORE')")
            line(depth, "_t = %s.data" % array)
            line(depth, "if 0 <= %s < len(_t):" % index)
            line(depth + 1, "_t[%s] = %s" % (index, value))
            line(depth, "else:")
            line(depth + 1,
                 "raise _BT('%%d / %%d' %% (%s, len(_t)))" % index)
        elif t is n.ArrayLengthNode:
            array = self._val(node.inputs[0])
            line(depth, "if %s is None:" % array)
            line(depth + 1, "raise _NPT('ARRAYLEN')")
            line(depth, "%s = len(%s.data)" % (dst, array))
        elif t is n.LoadFieldNode:
            obj = self._val(node.inputs[0])
            line(depth, "if %s is None:" % obj)
            line(depth + 1,
                 "raise _NPT(%r)" % ("GETFIELD %s" % node.field_name))
            line(depth, "%s = %s.fields[%r]" % (dst, obj, node.field_name))
        elif t is n.StoreFieldNode:
            obj = self._val(node.inputs[0])
            line(depth, "if %s is None:" % obj)
            line(depth + 1,
                 "raise _NPT(%r)" % ("PUTFIELD %s" % node.field_name))
            line(depth, "%s.fields[%r] = %s"
                 % (obj, node.field_name, self._val(node.inputs[1])))
        elif t is n.LoadStaticNode:
            line(depth, "%s = _getstatic(%r, %r)"
                 % (dst, node.class_name, node.field_name))
        elif t is n.StoreStaticNode:
            line(depth, "_putstatic(%r, %r, %s)"
                 % (node.class_name, node.field_name,
                    self._val(node.inputs[0])))
        elif t is n.InstanceOfNode:
            line(depth, "%s = 1 if %s else 0"
                 % (dst, self._instanceof_expr(node)))
        elif t is n.CheckCastNode:
            value = self._val(node.inputs[0])
            line(depth, "_t = %s" % value)
            line(depth, "if _t is not None:")
            line(depth + 1,
                 "_u = _t.class_name if isinstance(_t, _OR)"
                 " else _t.type_name")
            line(depth + 1, "if not _issub(_u, %r):" % node.type_name)
            line(depth + 2,
                 "raise _CT('%%s -> %%s' %% (_u, %r))" % node.type_name)
            line(depth, "%s = _t" % dst)
        elif t is n.InvokeNode:
            self._emit_invoke(node, depth)
        elif t is n.GuardNode:
            index, values = self._deopt_entry(
                node.frames, node.state_values, node.reason
            )
            line(depth, "if %s:"
                 % self._cond_expr(node.inputs[0], fused, negate=True))
            line(depth + 1, "_sink(_cy)")
            line(depth + 1, "_deopt(%d, %s)" % (index, values))
        else:
            raise PyCodegenBailout(
                "unsupported-node", type(node).__name__
            )

    def _emit_invoke(self, node, depth):
        line = self._line
        dst = (
            "v%d = " % node.id
            if node.stamp.kind != st.Stamp.VOID
            else ""
        )
        args = [self._val(a) for a in node.inputs[: node.n_args]]
        if node.kind in ("static", "special", "direct"):
            target = node.target
            if target is None:
                raise PyCodegenBailout(
                    "unsupported-node", "direct call without target"
                )
            if target.is_native:
                # Intrinsics run in-line, like the machine backend: no
                # dispatch, no cycle flush.
                name = self._bind("n", intrinsic_function(target.name))
                line(depth, "%s%s(_vm%s)" % (
                    dst, name, "".join(", " + a for a in args)
                ))
            else:
                name = self._bind("m", target)
                line(depth, "_sink(_cy)")
                line(depth, "_cy = 0")
                line(depth, "%s_call(%s, [%s])"
                     % (dst, name, ", ".join(args)))
        else:
            receiver = args[0]
            line(depth, "if %s is None:" % receiver)
            line(depth + 1,
                 "raise _NPT(%r)" % ("call %s" % node.method_name))
            line(depth, "if isinstance(%s, _AR):" % receiver)
            line(depth + 1, "raise _VE('virtual call on array receiver')")
            # Resolution precedes the flush, exactly like M_VCALL.
            line(depth, "_t = _resolve(%s.class_name, %r)"
                 % (receiver, node.method_name))
            line(depth, "_sink(_cy)")
            line(depth, "_cy = 0")
            line(depth, "%s_call(_t, [%s])" % (dst, ", ".join(args)))

    def _deopt_entry(self, frames, state_values, reason):
        """Build a deopt-table entry over tuple positions.

        Mirrors the machine lowering's ``_deopt_entry``, except the
        FrameTemplate "registers" index the value tuple the generated
        guard passes at runtime — :func:`materialize_frames` works on
        either, so the deopt protocol is shared verbatim.
        """
        values = []

        def position(value):
            # None = local undefined along this path; -1 materializes
            # NULL (the machine lowering's sentinel, reused).
            if value is None:
                return -1
            values.append(self._val(value))
            return len(values) - 1

        templates = []
        cursor = 0
        for frame in frames:
            local_map = []
            for slot in frame.local_slots:
                local_map.append((slot, position(state_values[cursor])))
                cursor += 1
            stack = []
            for _ in range(frame.n_stack):
                stack.append(position(state_values[cursor]))
                cursor += 1
            templates.append(
                FrameTemplate(
                    frame.method,
                    frame.bci,
                    local_map,
                    stack,
                    frame.argc,
                    frame.pushes_result,
                )
            )
        if cursor != len(state_values):
            raise PyCodegenBailout(
                "frame-state-mismatch",
                "%d values for %d slots" % (len(state_values), cursor),
            )
        self.deopt_table.append(tuple(templates))
        self.reasons.append(reason)
        tail = "," if len(values) == 1 else ""
        return len(self.deopt_table) - 1, "(%s%s)" % (
            ", ".join(values), tail
        )

    # -- terminators --------------------------------------------------------

    def _emit_terminator(self, block, depth, fused):
        term = block.terminator
        line = self._line
        t = type(term)
        if t is n.ReturnNode:
            value = term.value()
            line(depth, "_sink(_cy)")
            line(depth, "return %s"
                 % (self._val(value) if value is not None else "None"))
        elif t is n.GotoNode:
            self._emit_edge(block, term.target, depth)
            line(depth, "_b = %d" % term.target.id)
        elif t is n.IfNode:
            line(depth, "if %s:"
                 % self._cond_expr(term.inputs[0], fused, negate=False))
            self._emit_edge(block, term.true_block, depth + 1)
            line(depth + 1, "_b = %d" % term.true_block.id)
            line(depth, "else:")
            self._emit_edge(block, term.false_block, depth + 1)
            line(depth + 1, "_b = %d" % term.false_block.id)
        elif t is n.DeoptNode:
            index, values = self._deopt_entry(
                term.frames, term.state_values, term.reason
            )
            line(depth, "_sink(_cy)")
            line(depth, "_deopt(%d, %s)" % (index, values))
        elif term is None:
            raise PyCodegenBailout(
                "unsupported-node", "block B%d has no terminator" % block.id
            )
        else:
            raise PyCodegenBailout("unsupported-node", type(term).__name__)

    def _emit_edge(self, pred, succ, depth):
        """Phi inputs for the edge *pred*→*succ* as one native parallel
        assignment (tuple unpacking evaluates every source first, which
        is exactly the parallel-copy semantics)."""
        if not succ.phis:
            return
        index = succ.pred_index(pred)
        dsts, srcs = [], []
        for phi in succ.phis:
            source = phi.inputs[index]
            if source is None or source is phi:
                continue
            dsts.append("v%d" % phi.id)
            srcs.append(self._val(source))
        if not dsts:
            return
        self._line(depth, "%s = %s" % (", ".join(dsts), ", ".join(srcs)))
