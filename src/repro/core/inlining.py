"""The inlining phase (§III-D, Listing 5).

A queue initially holds the clusters addressable from the root (nodes
whose callsites live directly in the root graph). ``bestCluster``
repeatedly picks the cluster with the highest benefit-to-cost ratio;
``canInline`` applies the adaptive threshold (Eq. 12); and
``inlineCluster`` substitutes the cluster's bodies — parent before
child, so each child's callsite has already been transplanted into the
root graph when its turn comes. The cluster's front (descendants not in
the cluster) then enters the queue as future candidates.
"""

from repro.core.analysis import tuple_ratio
from repro.core.calltree import NodeKind
from repro.core.polymorphic import emit_typeswitch
from repro.core.thresholds import should_inline
from repro.core.tracing import REASON_BUDGET, REASON_THRESHOLD
from repro.core.trials import (
    apply_argument_stamps,
    discover_children,
    normalize_node,
)
from repro.errors import CompileError

_INLINEABLE = (NodeKind.CUTOFF, NodeKind.EXPANDED, NodeKind.POLYMORPHIC)

#: A typeswitch drops its virtual fallback only when the receiver
#: profile's targets cover at least this share of the calls...
SPECULATION_MIN_COVERAGE = 0.95
#: ...over at most this many targets (mono- or bimorphic sites).
SPECULATION_MAX_TARGETS = 2


class InliningPhase:
    """One policy object, reused across rounds.

    Args:
        params: :class:`~repro.core.params.InlinerParams`.
        adaptive: use Eq. 12; when False, inlining continues while the
            root graph has fewer than ``fixed_ti`` nodes (the
            fixed-threshold baseline of Figure 7).
        fixed_ti: the fixed inlining threshold T_i.
    """

    def __init__(self, params, adaptive=True, fixed_ti=3000, tracer=None):
        self.params = params
        self.adaptive = adaptive
        self.fixed_ti = fixed_ti
        self.tracer = tracer

    # ------------------------------------------------------------------

    def run(self, root, context, report, cluster_roots):
        """Run one inlining phase; returns the number of clusters inlined."""
        queue = [
            node
            for node in cluster_roots
            if not node.check_deleted() and node.kind in _INLINEABLE
        ]
        inlined_clusters = 0
        while queue:
            best = max(queue, key=tuple_ratio)
            queue.remove(best)
            if best.check_deleted():
                continue
            if root.graph.node_count() >= self.params.max_root_size:
                if self.tracer is not None:
                    self.tracer.rejected(
                        best,
                        tuple_ratio(best),
                        float(self.params.max_root_size),
                        reason=REASON_BUDGET,
                    )
                break
            if not self._can_inline(best, root):
                if self.tracer is not None:
                    self.tracer.rejected(
                        best,
                        tuple_ratio(best),
                        self._threshold_value(best, root),
                        reason=(
                            REASON_THRESHOLD if self.adaptive else REASON_BUDGET
                        ),
                    )
                continue
            if self.tracer is not None:
                members = [
                    node.method.qualified_name
                    for node in best.subtree()
                    if (node is best or node.inlined_flag)
                    and node.method is not None
                ]
                self.tracer.cluster(best, members, tuple_ratio(best))
                self.tracer.inlined(
                    best, tuple_ratio(best), self._threshold_value(best, root)
                )
            boundary = self._inline_cluster(best, root, context, report)
            queue.extend(
                node
                for node in boundary
                if not node.check_deleted() and node.kind in _INLINEABLE
            )
            inlined_clusters += 1
        return inlined_clusters

    # ------------------------------------------------------------------

    def _can_inline(self, node, root):
        if node.method is not None and node.method.force_inline:
            return True
        if self.adaptive:
            # Eq. 12's |ir(n)| is the *candidate node's* size — the
            # threshold is "more forgiving towards small methods" (the
            # println example), even when the node roots a large
            # cluster whose aggregate benefit/cost is what ⟨tuple(n)⟩
            # measures.
            return should_inline(
                tuple_ratio(node),
                root.graph.node_count(),
                node.ir_size(),
                self.params,
            )
        return root.graph.node_count() <= self.fixed_ti

    def _threshold_value(self, node, root):
        from repro.core.thresholds import inline_threshold

        if self.adaptive:
            return inline_threshold(
                root.graph.node_count(), node.ir_size(), self.params
            )
        return float(self.fixed_ti)

    # ------------------------------------------------------------------

    def _inline_cluster(self, node, root, context, report):
        """Substitute *node* and every cluster member below it; returns
        the cluster's boundary (Listing 5: "the descendants of the
        cluster are put on the queue")."""
        boundary = []
        self._inline_one(node, root, context, report, boundary)
        return boundary

    def _inline_one(self, node, root, context, report, boundary):
        if node.check_deleted():
            return
        normalize_node(node, context, self.params)
        if node.kind == NodeKind.GENERIC:
            return
        if node.kind == NodeKind.POLYMORPHIC:
            self._inline_typeswitch(node, root, context, report, boundary)
            return
        if node.kind == NodeKind.CUTOFF:
            # Inlining an unexpanded cutoff: build (and lightly
            # specialize) its IR now, and register its callsites as
            # fresh call-tree children so later rounds keep exploring.
            from repro.core.trials import caller_method

            try:
                node.graph = context.build_callee_graph(
                    node.method, caller=caller_method(node)
                )
            except CompileError:
                # Not compilable: the callsite stays a generic call.
                node.kind = NodeKind.GENERIC
                return
            apply_argument_stamps(node, context.program)
            discover_children(node, context, self.params)
        graph = node.graph
        root.graph.inline_call(node.invoke, graph)
        node.graph = None
        node.kind = NodeKind.INLINED
        report.inline_count += 1
        report.inlined_methods.append(node.method.qualified_name)
        for child in node.children:
            self._inline_child(child, root, context, report, boundary)

    def _inline_typeswitch(self, node, root, context, report, boundary):
        targets = []
        for child in node.children:
            if child.kind in (NodeKind.CUTOFF, NodeKind.EXPANDED):
                targets.append(
                    (child.receiver_type, child.probability, child.method)
                )
        if not targets:
            node.kind = NodeKind.GENERIC
            return
        speculate, why = self._speculation_verdict(
            node.invoke, targets, root, context
        )
        if self.tracer is not None:
            invoke = node.invoke
            site = (
                "%s@%d" % invoke.frames[0].site
                if getattr(invoke, "frames", None)
                else None
            )
            self.tracer.speculation(
                node,
                speculate,
                why,
                sum(probability for _, probability, _ in targets),
                [t[0] for t in targets],
                site=site,
            )
        arms = emit_typeswitch(
            root.graph, node.invoke, targets, context.program,
            speculate=speculate,
        )
        node.kind = NodeKind.INLINED
        report.typeswitch_count += 1
        if speculate:
            report.speculation_count += 1
        if self.tracer is not None:
            self.tracer.typeswitch(node, [t[0] for t in targets])
        for child in node.children:
            arm = arms.get(child.receiver_type)
            if arm is None:
                child.mark_deleted()
                continue
            child.invoke = arm
            self._inline_child(child, root, context, report, boundary)

    def _speculation_verdict(self, invoke, targets, root, context):
        """Decide whether this typeswitch may drop its virtual fallback.

        Requires an explicitly speculative compilation (frame state was
        captured at build time), a mono/bimorphic profile whose
        coverage clears the confidence threshold, and a speculation log
        with no record against this site — a previously refuted guess,
        or a root method that blew its deopt budget, compiles with the
        conservative fallback instead.

        Returns ``(speculate, reason)``; the reason names the gate a
        negative verdict failed (recorded in the decision provenance).
        """
        policy = getattr(context, "speculation", None)
        if policy is None or not policy.enabled:
            return False, "speculation-disabled"
        if not invoke.frames:
            return False, "no-frame-state"
        if invoke.megamorphic:
            return False, "megamorphic"
        if len(targets) > SPECULATION_MAX_TARGETS:
            return False, "too-many-targets"
        coverage = sum(probability for _, probability, _ in targets)
        if coverage < SPECULATION_MIN_COVERAGE:
            return False, "low-coverage"
        log = policy.log
        if log is not None:
            if log.refuted(invoke.frames[0].site):
                return False, "refuted-site"
            root_method = root.graph.method
            if root_method is not None and log.is_disabled(
                root_method.qualified_name
            ):
                return False, "deopt-budget"
        return True, "speculated"

    def _inline_child(self, child, root, context, report, boundary):
        if child.check_deleted():
            return
        if child.inlined_flag and child.kind in _INLINEABLE:
            self._inline_one(child, root, context, report, boundary)
        elif child.kind in _INLINEABLE:
            boundary.append(child)
