"""Deep inlining trials and call-tree child discovery (§IV).

A *trial* specializes a call node's private IR copy with the argument
stamps observed at its callsite, then runs canonicalization and counts
what fired. The count feeds N_s in the local benefit (Eq. 4); the
simplified graph shrinks the node's cost; devirtualizations performed
during the trial expose further expandable callsites. "This process is
repeated recursively in the call tree" — :func:`propagate_deep_trials`
re-runs trials below a node whenever fresher argument stamps arrive
(after expansion of an ancestor, or after an inlining round improved
the root).
"""

from repro.bytecode import types as bt
from repro.core.calltree import CallNode, NodeKind
from repro.errors import CompileError
from repro.ir import stamps as st
from repro.ir.frequency import annotate_frequencies


class TrialMemo:
    """Per-compilation memo for inlining-trial results.

    Within one (synchronous) compilation the profiles are frozen, so
    building + specializing + simplifying a callee graph is a pure
    function of the method, the caller context (when profiles are
    context-sensitive) and the argument-stamp signature at the
    callsite. Repeated identical specializations — the common case when
    a hot callee is reachable through many sites with the same argument
    types — are answered with a :meth:`~repro.ir.graph.Graph.copy` of
    the memoized result instead of a rebuild + re-trial.

    Results are stored on the *second* occurrence of a key: a first
    occurrence only leaves a marker, so the defensive graph copy that
    a stored entry needs is never paid for the (majority of) keys that
    never repeat — the memo is close to free when there is nothing to
    share.

    Retrial results (:func:`propagate_deep_trials`) are memoized along
    a *lineage* chain: a node's graph state is identified by the memo
    key that produced it, extended by each argument signature applied
    since. Equal lineage ⇒ bit-identical graphs ⇒ the retrial outcome
    transplants. Nodes whose graphs did not come through the memo have
    no lineage and always retrial live.

    The memo also keeps every callee graph
    :meth:`~repro.jit.compiler.CompileContext.build_callee_graph` builds,
    as it left the builder, in ``graphs``: a repeat build of the same
    method for the same caller context and speculation-log version is
    a copy of the stored one (``graphs_reused`` counts those). These are
    stored on first sight, because a build costs far more than a copy.

    The memo is reset per compilation (profiles mutate between
    compilations — see :meth:`repro.jit.compiler.JitCompiler.compile`);
    ``hits`` / ``misses`` / ``graphs_reused`` accumulate across
    compilations for reporting. Everything memoized is deterministic, so
    enabling the memo changes host wall-clock only — never compiled code
    or cycle counts.
    """

    __slots__ = (
        "context_sensitive",
        "hits",
        "misses",
        "graphs_reused",
        "graphs",
        "_expansions",
        "_retrials",
        "_lineage",
    )

    def __init__(self, context_sensitive=False):
        self.context_sensitive = context_sensitive
        self.hits = 0
        self.misses = 0
        self.graphs_reused = 0
        #: (method, caller or None, log version) -> (graph, decisions).
        self.graphs = {}
        self._expansions = {}
        self._retrials = {}
        self._lineage = {}

    def reset(self):
        """Drop the per-compilation tables (counters persist)."""
        self.graphs.clear()
        self._expansions.clear()
        self._retrials.clear()
        self._lineage.clear()

    def expansion_key(self, node, program, trialed):
        """The identity of an expansion result for *node*.

        Untrialed expansions (the shallow-trials baseline) do not apply
        argument stamps, so their key drops the signature and shares
        across all callsites of the method.
        """
        caller = caller_method(node)
        caller_key = (
            caller.qualified_name
            if (caller is not None and self.context_sensitive)
            else None
        )
        stamps = (
            tuple(argument_stamps(node, program)) if trialed else ()
        )
        return (node.method.qualified_name, caller_key, trialed, stamps)


#: Marker for "key seen once, result not captured yet" memo entries.
_SEEN_ONCE = object()


def declared_param_stamps(method):
    """The stamps a callee assumes with no callsite information."""
    stamps = []
    if not method.is_static:
        owner = method.klass.name if method.klass else bt.OBJECT
        stamps.append(st.ref_stamp(owner, non_null=True))
    for ptype in method.param_types:
        stamps.append(st.stamp_for_declared_type(ptype))
    return stamps


def argument_stamps(node, program):
    """Current argument stamps at the node's callsite, including the
    exact-receiver refinement for speculated polymorphic targets."""
    invoke = node.invoke
    stamps = [arg.stamp for arg in invoke.args]
    if node.receiver_type is not None and stamps:
        refined = stamps[0].join(
            st.ref_stamp(node.receiver_type, exact=True, non_null=True), program
        )
        if refined.kind != st.Stamp.BOTTOM:
            stamps[0] = refined
    return stamps


def count_concrete_args(node, program):
    """N_s for cutoff nodes (Eq. 4): arguments strictly more concrete
    than the formal parameters."""
    method = node.method
    if method is None or node.invoke is None:
        return 0
    declared = declared_param_stamps(method)
    args = argument_stamps(node, program)
    count = 0
    for arg_stamp, param_stamp in zip(args, declared):
        if st.is_strictly_more_precise(arg_stamp, param_stamp, program):
            count += 1
    return count


def apply_argument_stamps(node, program):
    """Inject callsite argument stamps into the node's graph params.

    Stamps only ever *narrow* (join with the declared stamp); returns
    True when at least one parameter actually improved.
    """
    graph = node.graph
    args = argument_stamps(node, program)
    improved = False
    for param, arg_stamp in zip(graph.params, args):
        joined = param.stamp.join(arg_stamp, program)
        if joined.kind == st.Stamp.BOTTOM:
            continue  # contradictory profile info: keep the declared stamp
        if joined != param.stamp:
            param.stamp = joined
            improved = True
    return improved


def run_trial(node, context, params):
    """Specialize and canonicalize the node's graph; update N_s.

    Returns the number of simple optimizations that fired (the increment
    is accumulated into ``node.trial_opt_count``).
    """
    apply_argument_stamps(node, context.program)
    stats = context.pipeline.simplify_only(node.graph)
    node.trial_opt_count += stats.simple()
    annotate_frequencies(node.graph)
    return stats


def discover_children(node, context, params):
    """Create child call nodes for every invoke in the node's graph.

    Kinds are assigned per §III-A/§IV: resolvable targets become C,
    uninlineable callsites become G, and dispatched callsites with a
    usable receiver profile become P with one speculated C child per
    profiled target (max 3 targets at ≥10% probability, §IV).
    """
    program = context.program
    node.children = []
    for invoke in node.graph.invokes():
        frequency = node.frequency * invoke.frequency
        if invoke.kind in ("static", "special", "direct"):
            target = invoke.target
            if target is None or target.is_abstract:
                child = CallNode(NodeKind.GENERIC, node, invoke, target, frequency)
            elif target.is_native or target.never_inline:
                child = CallNode(NodeKind.GENERIC, node, invoke, target, frequency)
            else:
                child = CallNode(NodeKind.CUTOFF, node, invoke, target, frequency)
                child.concrete_arg_count = count_concrete_args(child, program)
            node.add_child(child)
        else:
            node.add_child(_dispatched_child(node, invoke, frequency, context, params))
    return node.children


def _dispatched_child(node, invoke, frequency, context, params):
    program = context.program
    profile = [
        (type_name, probability)
        for type_name, probability in invoke.receiver_types
        if probability >= params.min_target_probability
    ][: params.max_typeswitch_targets]
    if not profile:
        return CallNode(NodeKind.GENERIC, node, invoke, None, frequency)
    poly = CallNode(NodeKind.POLYMORPHIC, node, invoke, None, frequency)
    for type_name, probability in profile:
        try:
            target = program.resolve_method(type_name, invoke.method_name)
        except Exception:
            continue
        if target.is_abstract:
            continue
        kind = (
            NodeKind.GENERIC
            if (target.is_native or target.never_inline)
            else NodeKind.CUTOFF
        )
        child = CallNode(
            kind, poly, invoke, target, frequency * probability, probability
        )
        child.receiver_type = type_name
        if kind == NodeKind.CUTOFF:
            child.concrete_arg_count = count_concrete_args(child, program)
        poly.add_child(child)
    if not poly.children:
        return CallNode(NodeKind.GENERIC, node, invoke, None, frequency)
    return poly


def caller_method(node):
    """The method containing this node's callsite (for context-sensitive
    profile lookups): the nearest ancestor that has a method."""
    ancestor = node.parent
    while ancestor is not None:
        if ancestor.method is not None:
            return ancestor.method
        ancestor = ancestor.parent
    return None


def expand_node(node, context, params, deep=True):
    """Turn a cutoff into an expanded node: attach IR, trial, discover.

    With ``deep=False`` (the shallow-trials baseline, Figure 9's
    "no deep trials" bars) argument stamps are only applied when the
    node is a direct child of the root — specialization does not travel
    down the tree.

    A callee whose graph cannot be built (:class:`CompileError`) turns
    the node generic instead of failing the caller's compilation.

    When the compile context carries a :class:`TrialMemo`, a repeated
    (method, caller context, argument signature) expansion is served as
    a copy of the memoized specialized graph, skipping the rebuild and
    the trial; the result is bit-identical by construction.
    """
    is_root_child = node.parent is not None and node.parent.is_root
    trialed = deep or is_root_child
    memo = getattr(context, "trial_memo", None)
    key = None
    entry = None
    if memo is not None:
        key = memo.expansion_key(node, context.program, trialed)
        entry = memo._expansions.get(key)
        if entry is not None and entry is not _SEEN_ONCE:
            memo.hits += 1
            stored_graph, opt_delta = entry
            node.graph = stored_graph.copy()[0]
            node.kind = NodeKind.EXPANDED
            node.trial_opt_count += opt_delta
            memo._lineage[node] = key
            discover_children(node, context, params)
            return node
        memo.misses += 1
    try:
        graph = context.build_callee_graph(
            node.method, caller=caller_method(node)
        )
    except CompileError:
        # The callee cannot be compiled (a special call on a receiver
        # that may be null): the callsite stays a generic call.
        node.kind = NodeKind.GENERIC
        return node
    node.graph = graph
    node.kind = NodeKind.EXPANDED
    if trialed:
        before = node.trial_opt_count
        run_trial(node, context, params)
        opt_delta = node.trial_opt_count - before
    else:
        annotate_frequencies(node.graph)
        opt_delta = 0
    if memo is not None:
        if entry is _SEEN_ONCE:
            # Second occurrence: the key repeats, capture the result.
            memo._expansions[key] = (node.graph.copy()[0], opt_delta)
        else:
            memo._expansions[key] = _SEEN_ONCE
        memo._lineage[node] = key
    discover_children(node, context, params)
    return node


def normalize_node(node, context, params):
    """Collapse a polymorphic node whose callsite was devirtualized.

    Canonicalization between rounds can turn a dispatched invoke into a
    direct call (stamp or CHA devirtualization) while the call tree
    still holds a P node for it. The P node then degenerates: if one of
    its speculated children targeted the now-proven method, that child's
    specialized graph and subtree are adopted; otherwise the node
    becomes a plain cutoff on the proven target.
    """
    if node.kind != NodeKind.POLYMORPHIC:
        return
    invoke = node.invoke
    if invoke is None or invoke.block is None or invoke.is_dispatched:
        return
    target = invoke.target
    node.probability = 1.0
    if target is None or target.is_abstract or target.is_native or target.never_inline:
        node.kind = NodeKind.GENERIC
        node.method = target
        node.children = []
        node.queue = []
        return
    adopted = None
    for child in node.children:
        if child.method is target and child.kind == NodeKind.EXPANDED:
            adopted = child
            break
    node.method = target
    node.receiver_type = None
    if adopted is not None:
        node.kind = NodeKind.EXPANDED
        node.graph = adopted.graph
        node.trial_opt_count = adopted.trial_opt_count
        node.children = adopted.children
        for child in node.children:
            child.parent = node
    else:
        node.kind = NodeKind.CUTOFF
        node.children = []
        node.queue = []
        node.concrete_arg_count = count_concrete_args(node, context.program)


def propagate_deep_trials(node, context, params, budget=64):
    """Re-run trials below *node* wherever argument stamps improved.

    The fixpoint loop of §IV: optimizations in one callee can improve
    the type precision at sibling/descendant callsites, so trials are
    repeated until nothing improves (bounded by *budget* re-trials).

    Childless nodes with a memo lineage answer repeated identical
    retrials from the :class:`TrialMemo` (a node with children cannot
    swap graphs — its children hold invoke references into the current
    one — so it always retrials live).
    """
    memo = getattr(context, "trial_memo", None)
    work = [c for c in node.children]
    retrials = 0
    while work and retrials < budget:
        child = work.pop()
        if child.check_deleted():
            continue
        if child.kind == NodeKind.POLYMORPHIC:
            work.extend(child.children)
            continue
        if child.kind == NodeKind.CUTOFF:
            child.concrete_arg_count = count_concrete_args(child, context.program)
            continue
        if child.kind not in (NodeKind.EXPANDED, NodeKind.INLINED):
            continue
        if child.kind == NodeKind.EXPANDED and child.graph is not None:
            lineage = (
                memo._lineage.get(child) if memo is not None else None
            )
            if lineage is not None and not child.children:
                args_sig = tuple(argument_stamps(child, context.program))
                key = (lineage, args_sig)
                entry = memo._retrials.get(key)
                if entry is not None and entry is not _SEEN_ONCE:
                    memo.hits += 1
                    stored_graph, opt_delta = entry
                    if stored_graph is not None:
                        child.graph = stored_graph.copy()[0]
                        child.trial_opt_count += opt_delta
                        retrials += 1
                    memo._lineage[child] = key
                    continue  # childless: nothing to push
                memo.misses += 1
                if apply_argument_stamps(child, context.program):
                    stats = context.pipeline.simplify_only(child.graph)
                    child.trial_opt_count += stats.simple()
                    annotate_frequencies(child.graph)
                    retrials += 1
                    _refresh_child_invokes(child)
                    memo._retrials[key] = (
                        (child.graph.copy()[0], stats.simple())
                        if entry is _SEEN_ONCE
                        else _SEEN_ONCE
                    )
                else:
                    # A no-improvement outcome carries no graph; it is
                    # safe (and free) to capture on first sight.
                    memo._retrials[key] = (None, 0)
                memo._lineage[child] = key
                continue
            if apply_argument_stamps(child, context.program):
                stats = context.pipeline.simplify_only(child.graph)
                child.trial_opt_count += stats.simple()
                annotate_frequencies(child.graph)
                retrials += 1
                _refresh_child_invokes(child)
                if memo is not None:
                    # The graph mutated outside memo bookkeeping; its
                    # lineage no longer identifies it.
                    memo._lineage.pop(child, None)
        work.extend(child.children)
    return retrials


def _refresh_child_invokes(node):
    """Drop children whose callsites were optimized away by a re-trial."""
    for child in node.children:
        child.check_deleted()
