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
``v<node id>`` (constants are inlined as literals and never assigned).
Control flow is structured, never a block id: the CFG is rebuilt as
native statements by recursion over the dominator tree (Ramsey,
"Beyond Relooper", ICFP 2022):

- a natural loop becomes ``while True:``; its back edges are
  ``continue`` (or nothing, at the end of the body);
- a two-way branch becomes ``if``/``else`` whose arms fall through to
  the join; an arm that always leaves (return, raise, ``break``,
  ``continue``) drops the ``else``, so chains of early exits stay flat;
- a block with two or more forward in-edges (a *merge*) is placed after
  the region that branches to it, sibling merges in reverse postorder
  with the latest outermost;
- a loop's exits are hoisted to just after the outermost loop they
  leave, so the code after a loop is not nested inside it: the merges
  where exits meet, or else the one exit dominating the most code;
  other exits stay in the loop and end by leaving it;
- a forward jump that cannot fall through is a ``break`` out of the
  innermost Python loop when that lands on its target, else the region
  gets a ``while True: ... break`` wrapper; a jump that has to leave
  two or more Python loops sets an exit flag that is tested once after
  each loop it crosses (set only when that exit is taken).

Irreducible graphs (a retreating edge whose target does not dominate
its source) have no such structure and bail out. Phis become native
tuple assignments on the incoming edges (Python's parallel assignment
gives the parallel-copy semantics the machine backend needs a scratch
register for). Compare and instance-of nodes whose single use is the
same block's branch or guard are fused into the ``if`` condition
instead of materializing a 0/1 local.

Parity rules (mirroring :class:`~repro.backend.machine.MachineExecutor`
instruction by instruction):

- int64: add/sub/mul/neg/shl compute the exact Python result and call
  :func:`~repro.runtime.int64.wrap64` only when a range test against
  ``INT64_MIN``/``INT64_MAX`` fails (the machine wraps every result
  branch-free; the values are the same). The test is one comparison
  where the result can leave the range on one side only: ``a + c`` and
  ``a - c`` for a constant ``c`` (the sign of ``c`` picks the side),
  ``c - a`` (above for ``c >= 0``, below for ``c <= -2``, none for
  ``c == -1``) and ``-a`` (above). div/rem call
  :func:`~repro.runtime.int64.div64` / ``rem64``, as every executor
  does.
- null tests: a field access, array access or virtual call tests its
  receiver for ``None`` (the machine's ``NullPointerTrap``) unless the
  receiver is an allocation, or the same SSA value was tested earlier
  in the same block or in a block that dominates it: a test that
  passed proved the value is not null, and an SSA value never changes
  (a loop phi is reassigned only on the way into its header, and a
  test in the loop cannot dominate the header). The true arm of an
  instance test counts as a test of its input where that arm's edge
  dominates (an instance test is false on null), and a Pi node as the
  value it renames. A non-null stamp proves nothing here: a
  parameter's holds only if every call tests its receiver, and a call
  devirtualized by class-hierarchy analysis tests none, on either
  tier.
- array bounds: a negative index is tested, and the list's own
  ``IndexError`` stands for the upper-bound test; either raises the
  machine tier's ``BoundsTrap('index / length')``.
- linking: the factory resolves each static field, type-test type and
  virtual method name once per binding (:meth:`VMState.static_slot
  <repro.runtime.vmstate.VMState.static_slot>`, :meth:`Program.subtype_row
  <repro.bytecode.program.Program.subtype_row>`, ``dispatch_row``), so a
  site is one subscript; a name that does not resolve raises the
  machine tier's :class:`~repro.errors.LinkError` at the access itself.
- calls: a non-native call runs ``cell[0](*args)``, where ``cell`` is
  its target's link cell in the engine's ``links`` table: fetched once
  per binding for a direct call, by the resolved target at a virtual
  one. The engine keeps in it either the callee's closure or an entry
  into its dispatcher (which charges the icache penalty and catches the
  callee's deopts), so a call site needs no ``try``.
- cycles: the machine charges each block's cost (lowering's ``COST``
  pseudo-instruction) on entry and flushes its count to the sink
  before non-native dispatches, before a deopt raise and at returns;
  never on a trap. The closure charges only on the edges outside a
  spanning tree of the CFG (Ball and Larus, "Optimally Profiling and
  Tracing Programs", TOPLAS 1994): the tree gives each block but the
  entry its heaviest forward in-edge (``block.frequency`` times the
  branch probability; the earliest in reverse postorder on a tie).
  Each block *b* gets an offset φ(b) ≥ 0: φ(entry) = 0 and φ(v) =
  φ(u) + cost(v) along every tree edge u→v. Invariant: inside *b* the
  machine's count is ``_cy + φ(b)``. So ``_cy`` starts at
  ``METHOD_ENTRY`` + cost(entry); an edge u→v adds cost(v) + φ(u) −
  φ(v), which is 0 on every tree edge, beside that edge's phi moves;
  a flush in *b* is ``_sink.compiled_cycles += _cy + φ(b)``, and
  before a call it then sets ``_cy = -φ(b)``. Every flush sees
  exactly the machine's sum, and an iteration of a loop without
  branches pays one add, on its back edge, rather than one per block.
  The sink is any object with a ``compiled_cycles`` attribute (the
  engine), as for :class:`~repro.backend.machine.MachineExecutor`; the
  closure also counts its entry in the sink's ``py_exec_count``.
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
``irreducible-cfg`` (a loop with two entries), ``compile-failed`` (the
source nests too deeply to build or ``compile()`` rejects it, e.g. past
CPython's 20 statically nested blocks, where loops and the
``try``/``except`` of an array access all count).
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
from repro.ir.dominators import compute_dominators, compute_loops, dominates
from repro.runtime.int64 import INT64_MAX, INT64_MIN, div64, rem64, wrap64
from repro.runtime.intrinsics import intrinsic_function
from repro.runtime.values import ArrayRef, ObjRef

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

#: Range tests of a wrapping op's exact result ``%s``: both sides of
#: int64, or the one side it can leave (see the module docstring).
_OUTSIDE = "not %d <= %%s <= %d" % (INT64_MIN, INT64_MAX)
_ABOVE = "%%s > %d" % INT64_MAX
_BELOW = "%%s < %d" % INT64_MIN

#: Call kinds with a known target, hence no receiver null test.
_DIRECT_CALLS = ("static", "special", "direct")

#: Node types that test their first input for null.
_NULL_TESTING = (
    n.LoadFieldNode,
    n.StoreFieldNode,
    n.ArrayLoadNode,
    n.ArrayStoreNode,
    n.ArrayLengthNode,
)

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


#: Node types whose value is never null.
_ALLOCATIONS = (n.NewNode, n.NewArrayNode)


def _null_tested(node):
    """The value *node* tests for null before it runs, or ``None``."""
    t = type(node)
    if t in _NULL_TESTING or (
        t is n.InvokeNode and node.kind not in _DIRECT_CALLS
    ):
        return node.inputs[0]
    return None


def _renamed(value):
    """The value *value* renames: a Pi node's input, through chains of
    them (the closure assigns a Pi its input, so both are one object)."""
    while type(value) is n.PiNode:
        value = value.inputs[0]
    return value


def _range_test(node):
    """The range test the exact result of the wrapping binary op *node*
    needs (``_OUTSIDE``, ``_ABOVE`` or ``_BELOW``), or ``None`` when it
    cannot leave int64."""
    if node.op not in ("ADD", "SUB"):
        return _OUTSIDE
    left, right = node.inputs
    if type(right) is n.ConstIntNode:
        step = right.value if node.op == "ADD" else -right.value
    elif type(left) is n.ConstIntNode:
        if node.op == "ADD":
            step = left.value
        else:  # c - a lies in [c + INT64_MIN + 1, c + INT64_MAX + 1]
            step = left.value + 1
    else:
        return _OUTSIDE
    if step > 0:
        return _ABOVE
    return _BELOW if step < 0 else None


def generate(graph, cost_model=None):
    """Generate the Python tier for *graph*.

    Returns ``(factory, source)`` where ``factory(vm, links, sink)``
    binds one engine's VM state, link table and cycle sink and returns
    the ``run(*args)`` closure, which takes the graph's parameters
    positionally. *links* maps a method to its link cell, a one-element
    list holding what a call of that method runs (a miss creates the
    cell); *sink* is an object with ``compiled_cycles`` and
    ``py_exec_count`` attributes (the engine).
    Raises :class:`PyCodegenBailout` when the graph cannot be
    translated faithfully.
    """
    return _PyCodegen(graph, cost_model or CostModel()).run()


# -- structured statements ---------------------------------------------------
#
# The structurer builds these from the dominator tree, a planning pass
# routes every jump that cannot fall through, and the renderer prints
# them. A location is ``("code", block)`` (where a merge's region ends
# and its code starts) or ``("cont", header)`` (the next iteration).


class _Code:
    """A block's instructions, and its terminator when that is a return
    or a deopt (``leaves``). Edges are statements of their own; the
    cycle charge and phi moves on an edge into a block placed inline
    are plain source lines (``str``)."""

    __slots__ = ("block", "leaves")

    def __init__(self, block, leaves):
        self.block = block
        self.leaves = leaves


class _Jump:
    """An edge to a loop header (``back``) or to a merge's region end;
    ``moves`` are the edge's source lines (its cycle charge and phi
    moves).

    Planning sets ``elided`` (the jump falls through to its target),
    ``stack`` (the constructs around it, outermost first), ``final``
    (``"continue"`` when it ends by continuing a loop rather than by
    leaving one) and ``flag`` (the exit flag, when it has to leave more
    than one Python loop).
    """

    __slots__ = ("target", "back", "moves", "elided", "stack", "final",
                 "flag")

    def __init__(self, target, back, moves):
        self.target = target
        self.back = back
        self.moves = moves
        self.elided = False
        self.stack = ()
        self.final = None
        self.flag = None

    def location(self):
        return ("cont" if self.back else "code", self.target)


class _If:
    __slots__ = ("block", "then", "orelse")

    def __init__(self, block, then, orelse):
        self.block = block
        self.then = then
        self.orelse = orelse


class _Loop:
    """``while True:`` for a loop header; ``landing`` is where a
    ``break`` out of it continues, ``checks`` the exit-flag tests
    after it."""

    __slots__ = ("header", "body", "landing", "checks")

    def __init__(self, header, body):
        self.header = header
        self.body = body
        self.landing = None
        self.checks = []


class _Region:
    """Code whose end is *target*'s code (Ramsey's ``block``). Printed
    inline unless some jump to the end needs a ``while True: ...
    break`` ``wrapper``."""

    __slots__ = ("target", "body", "depth", "wrapper", "checks")

    def __init__(self, target, body):
        self.target = target
        self.body = body
        self.depth = 0
        self.wrapper = False
        self.checks = []


def _python_loop(stmt):
    return type(stmt) is _Loop or stmt.wrapper


def _landing(stmt):
    return stmt.landing if type(stmt) is _Loop else ("code", stmt.target)


def _empty(stmts):
    """True when *stmts* prints nothing: one jump that falls through
    without a cycle charge or phi moves."""
    return (
        len(stmts) == 1 and type(stmts[0]) is _Jump
        and stmts[0].elided and not stmts[0].moves
    )


def _leaves(stmts):
    """True when control never falls off the end of *stmts*."""
    last = stmts[-1]
    t = type(last)
    if t is _Code:
        return last.leaves
    if t is _Jump:
        return not last.elided
    if t is _If:
        return _leaves(last.then) and _leaves(last.orelse)
    return False


class _PyCodegen:
    def __init__(self, graph, cost_model):
        self.graph = graph
        self.cost = cost_model
        self.lines = []
        self.deopt_table = []
        self.reasons = []
        self.globals = {}
        self._next_global = 0
        self._fused = {}
        self._regions = {}
        self._loops = {}
        self._jumps = []
        self._flags = {}
        self._linked = {}  # (call, operands...) -> bound expression
        self._link_lines = []
        self._block = None  # the block being emitted
        self._tested = set()  # values null-tested earlier in it

    # -- source assembly ----------------------------------------------------

    def _line(self, depth, text):
        self.lines.append("    " * depth + text)

    def _bind(self, prefix, value):
        name = "_%s%d" % (prefix, self._next_global)
        self._next_global += 1
        self.globals[name] = value
        return name

    def _link(self, call, *operands):
        """The factory local holding ``vm.<call>(*operands)``: evaluated
        once per binding, shared by every site with the same operands."""
        key = (call,) + operands
        name = self._linked.get(key)
        if name is None:
            name = self._linked[key] = "_l%d" % len(self._linked)
            self._link_lines.append("%s = vm.%s(%s)" % (
                name, call, ", ".join(map(repr, operands))
            ))
        return name

    def _cell(self, method):
        """The factory local holding *method*'s link cell, ``links[m]``:
        fetched once per binding, shared by every call of *method*."""
        key = ("cell", method)
        name = self._linked.get(key)
        if name is None:
            name = self._linked[key] = "_c%d" % len(self._linked)
            self._link_lines.append(
                "%s = links[%s]" % (name, self._bind("m", method))
            )
        return name

    def _static(self, node):
        """``table[key]`` for *node*'s static field: the two halves of
        its :meth:`~repro.runtime.vmstate.VMState.static_slot`."""
        key = ("static_slot", node.class_name, node.field_name)
        access = self._linked.get(key)
        if access is None:
            index = len(self._linked)
            access = self._linked[key] = "_s%d[_k%d]" % (index, index)
            self._link_lines.append(
                "_s%d, _k%d = vm.static_slot(%r, %r)"
                % (index, index, node.class_name, node.field_name)
            )
        return access

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
        try:
            self._emit_function(order)
        except RecursionError as error:
            # A graph nested too deeply to structure on this stack.
            raise PyCodegenBailout("compile-failed", repr(error))
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
            _wrap=wrap64,
            _div=div64,
            _rem=rem64,
        )
        source = "\n".join(self.lines) + "\n"
        name = getattr(graph, "name", None) or graph.method.qualified_name
        try:
            code = compile(source, "<pycodegen:%s>" % name, "exec")
        except (SyntaxError, ValueError, RecursionError, MemoryError) as error:
            raise PyCodegenBailout("compile-failed", repr(error))
        exec(code, self.globals)
        return self.globals["_factory"], source

    def _emit_function(self, order):
        """The module source: the deopt helper, the factory and the
        structured ``_run`` closure, whose first line counts its entry
        in the sink's ``py_exec_count``."""
        graph = self.graph
        body = self._structure(order)
        self._plan(body, [], None)
        self._route_jumps()
        lines = self.lines
        lines.append("def _deopt(index, values):")
        lines.append("    frames = _mf(_TABLE[index], values)")
        lines.append("    raise _DS(_METHOD, _REASONS[index],")
        lines.append("        (frames[0].method.qualified_name,"
                     " frames[0].bci), frames)")
        lines.append("def _factory(vm, links, sink):")
        for binding in (
            "_vm = vm",
            "_lk = links",
            "_sink = sink",
            "_alloc = vm.allocate",
            "_allocarr = vm.allocate_array",
        ):
            lines.append("    " + binding)
        links_at = len(lines)
        lines.append("    def _run(%s):" % ", ".join(
            "v%d" % param.id for param in graph.params
        ))
        self._line(2, "_sink.py_exec_count += 1")
        # An edge with a None phi input assigns nothing, so the phi
        # keeps whatever it held, as its machine register does; that
        # register starts NULL, and so must the local.
        for block in order:
            for phi in block.phis:
                if any(source is None for source in phi.inputs):
                    self._line(2, "v%d = None" % phi.id)
        for flag in self._flags.values():
            self._line(2, "%s = False" % flag)
        self._line(2, "_cy = %d" % (
            self.cost.METHOD_ENTRY + self._block_cost(order[0])
        ))
        self._render(body, 2)
        lines.append("    return _run")
        lines[links_at:links_at] = ["    " + x for x in self._link_lines]

    # -- cycle charges and null tests ------------------------------------------

    def _block_cost(self, block):
        """*block*'s price, as lowering's ``COST`` pseudo-instruction
        has it: what keeps the cycle model bit-identical."""
        cost = sum(self.cost.node_cost(node) for node in block.instrs)
        if block.terminator is not None:
            cost += self.cost.node_cost(block.terminator)
        return cost

    def _plan_charges(self, order):
        """φ of every block (``_phi``) and the charge on every edge
        (``_charges``, keyed ``(pred, succ)``) from a spanning tree of
        the CFG that gives each block but the entry its heaviest
        forward in-edge; see "cycles" in the module docstring."""
        rpo = self._rpo
        cost = {block: self._block_cost(block) for block in order}
        phi = {order[0]: 0}
        parent = {}  # block -> (its heaviest forward in-edge's weight, pred)
        for block in order:
            # Reverse postorder: every forward predecessor came first.
            if block in parent:
                phi[block] = phi[parent[block][1]] + cost[block]
            term = block.terminator
            for arm, succ in enumerate(block.successors()):
                if rpo[succ] <= rpo[block]:
                    continue
                weight = block.frequency
                if type(term) is n.IfNode:
                    weight *= (
                        term.probability if arm == 0
                        else 1.0 - term.probability
                    )
                if succ not in parent or weight > parent[succ][0]:
                    parent[succ] = (weight, block)
        self._phi = phi
        self._charges = {
            (block, succ): cost[succ] + phi[block] - phi[succ]
            for block in order for succ in block.successors()
        }

    def _plan_null_tests(self, order):
        """``_null_testers``: for each value some node tests for null,
        the blocks holding such a node; ``_null_arms``: for each value
        an instance test checks, the true successors entered only from
        that test's branch (an instance test is false on null). Values
        are keyed through Pi nodes (:func:`_renamed`)."""
        testers, arms = {}, {}
        for block in order:
            for node in block.instrs:
                value = _null_tested(node)
                if value is not None:
                    blocks = testers.setdefault(_renamed(value), [])
                    if not blocks or blocks[-1] is not block:
                        blocks.append(block)
            term = block.terminator
            if type(term) is n.IfNode:
                cond, arm = term.inputs[0], term.true_block
                if type(cond) is n.InstanceOfNode and arm.preds == [block]:
                    arms.setdefault(_renamed(cond.inputs[0]), []).append(arm)
        self._null_testers = testers
        self._null_arms = arms

    # -- structuring ----------------------------------------------------------

    def _structure(self, order):
        """The graph as structured statements (see the module docstring)."""
        graph = self.graph
        idom = compute_dominators(graph, order)
        rpo = {block: index for index, block in enumerate(order)}
        forward = dict.fromkeys(order, 0)
        cyclic = False
        for block in order:
            for succ in block.successors():
                if rpo[succ] > rpo[block]:
                    forward[succ] += 1
                elif dominates(idom, succ, block):
                    cyclic = True
                else:
                    raise PyCodegenBailout(
                        "irreducible-cfg",
                        "B%d -> B%d enters a cycle B%d does not dominate"
                        % (block.id, succ.id, succ.id),
                    )
        loops = compute_loops(graph, idom, order) if cyclic else ()
        self._idom = idom
        self._rpo = rpo
        self._plan_charges(order)
        self._plan_null_tests(order)
        self._headers = {loop.header for loop in loops}
        self._after_loop = self._hoist(order, idom, rpo, forward, loops)
        hoisted = {b for blocks in self._after_loop.values() for b in blocks}
        self._followers = {}
        self._inline = set()
        for block in order[1:]:
            if block in hoisted:
                continue
            if forward[block] >= 2:
                self._followers.setdefault(idom[block], []).append(block)
            else:
                self._inline.add(block)
        body = []
        self._tree(order[0], body)
        return body

    @staticmethod
    def _hoist(order, idom, rpo, forward, loops):
        """``{header: blocks}``: the exit blocks placed right after each
        loop, in reverse postorder.

        An exit block (one outside a loop its dominator is in) is a
        candidate for the outermost such loop. Merges are hoisted: that
        is where the loop's exits meet. With no merge, the exit
        dominating the most code is (latest in reverse postorder on
        ties); the others stay inline in the loop and end by leaving it.
        """
        if not loops:
            return {}
        innermost = {}
        for loop in loops:  # innermost first
            for block in loop.blocks:
                innermost.setdefault(block, loop)
        children = {}
        for block in order[1:]:
            children.setdefault(idom[block], []).append(block)
        size = {}
        for block in reversed(order):
            size[block] = 1 + sum(size[c] for c in children.get(block, ()))
        merges, single = {}, {}
        for block in order[1:]:
            loop, left = innermost.get(idom[block]), None
            while loop is not None and block not in loop.blocks:
                left, loop = loop, loop.parent
            if left is None:
                continue
            if forward[block] >= 2:
                merges.setdefault(left.header, []).append(block)
                continue
            best = single.get(left.header)
            if best is None or (size[block], rpo[block]) > (
                size[best], rpo[best]
            ):
                single[left.header] = block
        for header, block in single.items():
            merges.setdefault(header, [block])
        return merges

    def _tree(self, block, out):
        """Append *block*, the merges placed after it and the blocks it
        branches to inline. The outermost follower continues the loop
        here rather than recursing, so a long run of sequential merges
        costs no stack."""
        while True:
            stmts = []
            self._body(block, stmts)
            layers = list(self._followers.get(block, ()))
            if block in self._headers:
                layers.append(None)  # the loop closes over its followers
                layers.extend(self._after_loop.get(block, ()))
            for index, target in enumerate(layers):
                if target is None:
                    loop = _Loop(block, stmts)
                    self._loops[block] = loop
                    stmts = [loop]
                    continue
                region = _Region(target, stmts)
                self._regions[target] = region
                if index == len(layers) - 1:
                    out.append(region)
                    block = target
                    break
                stmts = [region]
                self._tree(target, stmts)
            else:
                out.extend(stmts)
                return

    def _body(self, block, out):
        self._fused[block] = self._fused_conditions(block)
        term = block.terminator
        t = type(term)
        if term is None:
            raise PyCodegenBailout(
                "unsupported-node", "block B%d has no terminator" % block.id
            )
        if t not in (n.GotoNode, n.IfNode, n.ReturnNode, n.DeoptNode):
            raise PyCodegenBailout("unsupported-node", t.__name__)
        out.append(_Code(block, t is n.ReturnNode or t is n.DeoptNode))
        if t is n.GotoNode:
            self._branch(block, term.target, out)
        elif t is n.IfNode:
            then, orelse = [], []
            self._branch(block, term.true_block, then)
            self._branch(block, term.false_block, orelse)
            out.append(_If(block, then, orelse))

    def _branch(self, pred, succ, out):
        moves = self._edge_lines(pred, succ)
        if self._rpo[succ] <= self._rpo[pred]:
            out.append(_Jump(succ, True, moves))
        elif succ in self._inline:
            out.extend(moves)
            self._tree(succ, out)
        else:
            out.append(_Jump(succ, False, moves))

    # -- routing -------------------------------------------------------------

    def _plan(self, stmts, stack, fall):
        """Mark the jumps that fall through to their target; record the
        enclosing constructs of every other one, and where each loop's
        ``break`` lands."""
        last = len(stmts) - 1
        for index, stmt in enumerate(stmts):
            here = fall if index == last else None
            t = type(stmt)
            if t is _Jump:
                if stmt.location() == here:
                    stmt.elided = True
                else:
                    stmt.stack = tuple(stack)
                    self._jumps.append(stmt)
            elif t is _If:
                self._plan(stmt.then, stack, here)
                self._plan(stmt.orelse, stack, here)
            elif t is _Loop:
                stmt.landing = here
                stack.append(stmt)
                self._plan(stmt.body, stack, ("cont", stmt.header))
                stack.pop()
            elif t is _Region:
                stmt.depth = len(stack)
                stack.append(stmt)
                self._plan(stmt.body, stack, ("code", stmt.target))
                stack.pop()

    def _route(self, jump):
        """``(exits, final)``: the Python loops *jump* leaves, innermost
        first, and ``"continue"`` when a continue follows; ``None`` when
        its target region needs a wrapper first."""
        construct = (self._loops if jump.back else self._regions)[jump.target]
        location = jump.location()
        exits = []
        for stmt in reversed(jump.stack):
            if stmt is construct:
                if jump.back:
                    return exits, "continue"
                if stmt.wrapper:
                    exits.append(stmt)
                    return exits, None
                return None
            if _python_loop(stmt):
                exits.append(stmt)
                if _landing(stmt) == location:
                    return exits, None
        raise PyCodegenBailout(
            "compile-failed", "no construct encloses the jump to B%d"
            % jump.target.id
        )

    def _route_jumps(self):
        # A region needs a wrapper when some jump to its end neither
        # falls through nor lands there by leaving Python loops. Inner
        # regions decide first: their wrappers are loops outer jumps
        # have to leave.
        pending = {}
        for jump in self._jumps:
            if not jump.back:
                pending.setdefault(self._regions[jump.target], []).append(
                    jump
                )
        for region in sorted(pending, key=lambda r: -r.depth):
            if any(self._route(jump) is None for jump in pending[region]):
                region.wrapper = True
        for jump in self._jumps:
            exits, final = self._route(jump)
            jump.final = final
            if len(exits) + (final is not None) < 2:
                continue
            # Leave exits[0] with a break, then test the flag after
            # each loop left: break on, until the last test resets it.
            key = (jump.location(), tuple(map(id, exits)), final)
            flag = self._flags.get(key)
            if flag is None:
                flag = self._flags[key] = "_x%d" % len(self._flags)
                tests = [(loop, "break") for loop in exits[:-1]]
                if final is not None:
                    tests.append((exits[-1], final))
                for position, (loop, action) in enumerate(tests):
                    loop.checks.append(
                        (flag, action, position == len(tests) - 1)
                    )
            jump.flag = flag

    # -- rendering -------------------------------------------------------------

    def _render(self, stmts, depth):
        line = self._line
        for stmt in stmts:
            t = type(stmt)
            if t is _Code:
                self._emit_block(stmt.block, depth)
            elif t is str:
                line(depth, stmt)
            elif t is _Jump:
                for move in stmt.moves:
                    line(depth, move)
                if stmt.elided:
                    continue
                if stmt.flag is not None:
                    line(depth, "%s = True" % stmt.flag)
                    line(depth, "break")
                else:
                    line(depth, "continue" if stmt.final else "break")
            elif t is _If:
                self._render_if(stmt, depth)
            elif t is _Loop or stmt.wrapper:
                line(depth, "while True:")
                self._render(stmt.body, depth + 1)
                if t is _Region:
                    line(depth + 1, "break")
                for flag, action, reset in stmt.checks:
                    line(depth, "if %s:" % flag)
                    if reset:
                        line(depth + 1, "%s = False" % flag)
                    line(depth + 1, action)
            else:
                self._render(stmt.body, depth)

    def _render_arm(self, stmts, depth):
        mark = len(self.lines)
        self._render(stmts, depth)
        if len(self.lines) == mark:
            self._line(depth, "pass")

    def _render_if(self, stmt, depth):
        then, orelse = stmt.then, stmt.orelse
        if _empty(then) and _empty(orelse):
            return  # the condition is pure
        line = self._line
        fused = self._fused[stmt.block]
        cond = stmt.block.terminator.inputs[0]
        if _empty(then) or (_leaves(orelse) and not _leaves(then)):
            # Test the negation so the arm that leaves (or the only
            # arm) comes first and the other one needs no else.
            line(depth, "if %s:" % self._cond_expr(cond, fused, True))
            self._render_arm(orelse, depth + 1)
            self._render(then, depth)
            return
        line(depth, "if %s:" % self._cond_expr(cond, fused, False))
        self._render_arm(then, depth + 1)
        if _empty(orelse) or _leaves(then):
            self._render(orelse, depth)
            return
        line(depth, "else:")
        self._render_arm(orelse, depth + 1)

    def _emit_block(self, block, depth):
        self._block = block
        self._tested = set()
        fused = self._fused[block]
        for node in block.instrs:
            if node in fused:
                continue
            self._emit_node(node, depth, fused)
        term = block.terminator
        if type(term) is n.ReturnNode:
            value = term.value()
            self._flush(depth, False)
            self._line(depth, "return %s"
                       % (self._val(value) if value is not None else "None"))
        elif type(term) is n.DeoptNode:
            index, values = self._deopt_entry(
                term.frames, term.state_values, term.reason
            )
            self._flush(depth, False)
            self._line(depth, "_deopt(%d, %s)" % (index, values))

    def _flush(self, depth, call):
        """Flush the machine's count in the current block, ``_cy +
        φ``, to the sink; before a *call* the count starts over, so
        ``_cy`` becomes ``-φ``."""
        offset = self._phi[self._block]
        self._line(depth, "_sink.compiled_cycles += _cy%s"
                   % (" + %d" % offset if offset else ""))
        if call:
            self._line(depth, "_cy = %d" % -offset)

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
            "%s is not None and %s[%s.class_name "
            "if isinstance(%s, _OR) else %s.type_name]"
            % (value, self._link("program.subtype_row", node.type_name),
               value, value, value)
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
                self._wrapped(
                    dst, "%s %s %s" % (a, sign, b), depth, _range_test(node)
                )
            elif op == "DIV":
                line(depth, "%s = _div(%s, %s)" % (dst, a, b))
            elif op == "REM":
                line(depth, "%s = _rem(%s, %s)" % (dst, a, b))
            elif op in ("AND", "OR", "XOR"):
                sign = {"AND": "&", "OR": "|", "XOR": "^"}[op]
                line(depth, "%s = %s %s %s" % (dst, a, sign, b))
            elif op == "SHL":
                self._wrapped(dst, "%s << (%s & 63)" % (a, b), depth)
            elif op == "SHR":
                line(depth, "%s = %s >> (%s & 63)" % (dst, a, b))
            else:
                raise PyCodegenBailout(
                    "unsupported-node", "BinOp %s" % op
                )
        elif t is n.NegNode:
            self._wrapped(
                dst, "-(%s)" % self._val(node.inputs[0]), depth, _ABOVE
            )
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
            trap = "raise _BT('negative array length %%d' %% %s)" % length
            if self._trap_if_negative(node.inputs[0], trap, depth):
                line(depth, "%s = _allocarr(%r, %s)"
                     % (dst, node.elem_type, length))
        elif t is n.ArrayLoadNode:
            array = self._val(node.inputs[0])
            index = self._val(node.inputs[1])
            self._null_test(node.inputs[0], "ALOAD", depth)
            line(depth, "_t = %s.data" % array)
            self._subscript(
                "%s = _t[%s]" % (dst, index), node.inputs[1], depth
            )
        elif t is n.ArrayStoreNode:
            array = self._val(node.inputs[0])
            index = self._val(node.inputs[1])
            value = self._val(node.inputs[2])
            self._null_test(node.inputs[0], "ASTORE", depth)
            line(depth, "_t = %s.data" % array)
            self._subscript(
                "_t[%s] = %s" % (index, value), node.inputs[1], depth
            )
        elif t is n.ArrayLengthNode:
            array = self._val(node.inputs[0])
            self._null_test(node.inputs[0], "ARRAYLEN", depth)
            line(depth, "%s = len(%s.data)" % (dst, array))
        elif t is n.LoadFieldNode:
            obj = self._val(node.inputs[0])
            self._null_test(
                node.inputs[0], "GETFIELD %s" % node.field_name, depth
            )
            line(depth, "%s = %s.fields[%r]" % (dst, obj, node.field_name))
        elif t is n.StoreFieldNode:
            obj = self._val(node.inputs[0])
            self._null_test(
                node.inputs[0], "PUTFIELD %s" % node.field_name, depth
            )
            line(depth, "%s.fields[%r] = %s"
                 % (obj, node.field_name, self._val(node.inputs[1])))
        elif t is n.LoadStaticNode:
            line(depth, "%s = %s" % (dst, self._static(node)))
        elif t is n.StoreStaticNode:
            line(depth, "%s = %s"
                 % (self._static(node), self._val(node.inputs[0])))
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
            line(depth + 1, "if not %s[_u]:"
                 % self._link("program.subtype_row", node.type_name))
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
            self._flush(depth + 1, False)
            line(depth + 1, "_deopt(%d, %s)" % (index, values))
        else:
            raise PyCodegenBailout(
                "unsupported-node", type(node).__name__
            )

    def _wrapped(self, dst, expr, depth, test=_OUTSIDE):
        """``dst = expr`` wrapped to int64: the exact result, and the
        call to :func:`~repro.runtime.int64.wrap64` only when *test*
        finds it out of range (no test when *test* is ``None``)."""
        self._line(depth, "%s = %s" % (dst, expr))
        if test is not None:
            self._line(depth, "if %s:" % (test % dst))
            self._line(depth + 1, "%s = _wrap(%s)" % (dst, dst))

    def _null_test(self, value, message, depth):
        """``raise _NPT(message)`` when *value* is None, unless it is an
        allocation or a test of it already ran: earlier in this block,
        in a block that strictly dominates this one, or as an instance
        test whose true arm dominates this block. A Pi node counts as
        the value it renames. A non-null stamp is no proof: a
        parameter's holds only when every call tests its receiver, and
        a call devirtualized by class-hierarchy analysis does not."""
        block, idom = self._block, self._idom
        root = _renamed(value)
        if (
            type(root) in _ALLOCATIONS
            or root in self._tested
            or any(
                tester is not block and dominates(idom, tester, block)
                for tester in self._null_testers.get(root, ())
            )
            or any(
                dominates(idom, arm, block)
                for arm in self._null_arms.get(root, ())
            )
        ):
            return
        self._tested.add(root)
        self._line(depth, "if %s is None:" % self._val(value))
        self._line(depth + 1, "raise _NPT(%r)" % message)

    def _subscript(self, access, index_node, depth):
        """*access* of the array data ``_t`` at the index *index_node*,
        trapping as the machine tier does: a negative index is tested,
        the list's own ``IndexError`` checks the upper bound."""
        index = self._val(index_node)
        trap = "raise _BT('%%d / %%d' %% (%s, len(_t)))" % index
        if self._trap_if_negative(index_node, trap, depth):
            self._line(depth, "try:")
            self._line(depth + 1, access)
            self._line(depth, "except IndexError:")
            self._line(depth + 1, trap + " from None")

    def _trap_if_negative(self, value, trap, depth):
        """Emit *trap* when *value* is negative. A constant needs no
        test: nothing is emitted for one >= 0 and the bare *trap* for a
        negative one. Returns False when the trap is unconditional, so
        the code after it would be dead."""
        if type(value) is n.ConstIntNode:
            if value.value >= 0:
                return True
            self._line(depth, trap)
            return False
        self._line(depth, "if %s < 0:" % self._val(value))
        self._line(depth + 1, trap)
        return True

    def _emit_invoke(self, node, depth):
        line = self._line
        dst = (
            "v%d = " % node.id
            if node.stamp.kind != st.Stamp.VOID
            else ""
        )
        args = [self._val(a) for a in node.inputs[: node.n_args]]
        if node.kind in _DIRECT_CALLS:
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
                cell = self._cell(target)
                self._flush(depth, True)
                line(depth, "%s%s[0](%s)" % (dst, cell, ", ".join(args)))
        else:
            receiver = args[0]
            self._null_test(
                node.inputs[0], "call %s" % node.method_name, depth
            )
            line(depth, "if isinstance(%s, _AR):" % receiver)
            line(depth + 1, "raise _VE('virtual call on array receiver')")
            # Resolution precedes the flush, exactly like M_VCALL.
            line(depth, "_t = %s[%s.class_name]" % (
                self._link("program.dispatch_row", node.method_name),
                receiver,
            ))
            self._flush(depth, True)
            line(depth, "%s_lk[_t][0](%s)" % (dst, ", ".join(args)))

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

    # -- edges ----------------------------------------------------------------

    def _edge_lines(self, pred, succ):
        """The source lines of the edge *pred*→*succ*: its cycle charge
        (none on a spanning-tree edge), then its phi inputs as one
        native parallel assignment (tuple unpacking evaluates every
        source first, which is exactly the parallel-copy semantics)."""
        lines = []
        charge = self._charges[pred, succ]
        if charge:
            lines.append("_cy %s= %d" % ("+-"[charge < 0], abs(charge)))
        if succ.phis:
            index = succ.pred_index(pred)
            dsts, srcs = [], []
            for phi in succ.phis:
                source = phi.inputs[index]
                if source is None or source is phi:
                    continue
                dsts.append("v%d" % phi.id)
                srcs.append(self._val(source))
            if dsts:
                lines.append("%s = %s" % (", ".join(dsts), ", ".join(srcs)))
        return lines
