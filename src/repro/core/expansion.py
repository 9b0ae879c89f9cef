"""The expansion phase (§III-B, Listings 3–4).

Each round, ``expand`` repeatedly *descends* from the root: at every
expanded node it picks the highest-priority child from that node's
queue (Eq. 5–7) and recurses; on reaching a cutoff it consults the
adaptive expansion threshold (Eq. 8) and either attaches the callee's
specialized IR or declines. A child stays on its parent's queue only
while it is a cutoff or still has expandable descendants of its own —
exactly the bookkeeping of Listing 3.
"""

from repro.core.calltree import NodeKind
from repro.core.priorities import (
    PriorityCache,
    local_benefit,
    recursion_penalty,
)
from repro.core.thresholds import should_expand
from repro.core.tracing import REASON_BUDGET, REASON_RECURSION, REASON_THRESHOLD
from repro.core.trials import expand_node, normalize_node

#: descend() outcomes.
EXPANDED = "expanded"
DECLINED = "declined"
NO_PROGRESS = "no-progress"


class ExpansionPhase:
    """One policy object, reused across rounds and compilations.

    Args:
        params: :class:`~repro.core.params.InlinerParams`.
        adaptive: use Eq. 8; when False, expansion instead stops once
            S_irn(root) exceeds ``fixed_te`` (the fixed-threshold
            baseline of Figure 6).
        fixed_te: the fixed expansion threshold T_e.
        deep_trials: passed through to the trial machinery.
    """

    def __init__(
        self, params, adaptive=True, fixed_te=1000, deep_trials=True, tracer=None
    ):
        self.params = params
        self.adaptive = adaptive
        self.fixed_te = fixed_te
        self.deep_trials = deep_trials
        self.tracer = tracer
        # Subtree-aggregate memo; invalidated at every tree mutation
        # (see PriorityCache) so cached priorities stay bit-identical
        # to recomputed ones.
        self._cache = PriorityCache(params)

    # ------------------------------------------------------------------

    def run(self, root, context, report):
        """Expand the tree for one round; returns number of expansions."""
        # Fresh per round: drops references to the previous
        # compilation's tree.
        self._cache = PriorityCache(self.params)
        self._reset_declines(root)
        self._rebuild_queues(root, context)
        expansions = 0
        while expansions < self.params.max_expansions_per_round:
            outcome = self._descend(root, root, context, report)
            if outcome == EXPANDED:
                expansions += 1
            else:
                break
        report.expansions += expansions
        return expansions

    # ------------------------------------------------------------------

    def _reset_declines(self, root):
        for node in root.subtree():
            node.expand_declined = False

    def _rebuild_queues(self, root, context):
        """Recompute every expansion queue bottom-up (Listing 3's
        ``initQueues``)."""
        def rebuild(node):
            node.check_deleted()
            normalize_node(node, context, self.params)
            if node.kind not in (
                NodeKind.EXPANDED,
                NodeKind.POLYMORPHIC,
                NodeKind.INLINED,
            ):
                node.queue = []
                return
            queue = []
            for child in node.children:
                rebuild(child)
                if self._keep_on_queue(child):
                    queue.append(child)
            node.queue = queue

        rebuild(root)

    def _keep_on_queue(self, child):
        """Listing 3: keep c on its parent's queue only if c's queue is
        non-empty or c is a cutoff (and not declined this round)."""
        if child.check_deleted():
            # A lazily observed deletion flips kinds in the subtree;
            # cached priorities may now be stale.
            self._cache.invalidate()
            return False
        if child.kind == NodeKind.CUTOFF:
            return not child.expand_declined
        if child.kind in (
            NodeKind.EXPANDED,
            NodeKind.POLYMORPHIC,
            NodeKind.INLINED,
        ):
            return bool(child.queue)
        return False

    # ------------------------------------------------------------------

    def _descend(self, node, root, context, report):
        if node.kind == NodeKind.CUTOFF:
            return self._expand_cutoff(node, root, context, report)
        while node.queue:
            best = max(node.queue, key=self._cache.priority)
            outcome = self._descend(best, root, context, report)
            if not self._keep_on_queue(best):
                node.queue.remove(best)
            if outcome == EXPANDED:
                return EXPANDED
            # DECLINED or NO_PROGRESS below: try the next-best child.
        return NO_PROGRESS

    def _expand_cutoff(self, node, root, context, report):
        """Listing 4's ``expandCutoff``: the Eq. 8 decision plus the
        actual attachment of the callee IR."""
        if node.check_deleted():
            self._cache.invalidate()
            return NO_PROGRESS
        method = node.method
        if method is None or not context.can_build(method):
            node.kind = NodeKind.GENERIC
            self._cache.invalidate()
            return NO_PROGRESS
        benefit = local_benefit(node)
        size = self._cache.ir_size(node)
        root_size = self._cache.s_irn(root)
        if not self._expansion_allowed(node, root):
            node.expand_declined = True
            if self.tracer is not None:
                self.tracer.declined(
                    node,
                    benefit,
                    size,
                    self._threshold_value(root_size),
                    reason=self._decline_reason(node),
                    priority=self._cache.priority(node),
                    root_size=root_size,
                )
            return DECLINED
        if self.tracer is not None:
            self.tracer.expanded(
                node,
                benefit,
                size,
                self._threshold_value(root_size),
                priority=self._cache.priority(node),
                root_size=root_size,
            )
        expand_node(node, context, self.params, deep=self.deep_trials)
        self._cache.invalidate()
        if node.kind == NodeKind.GENERIC:  # the callee failed to build
            return NO_PROGRESS
        report.explored_nodes += node.graph.node_count()
        # New children may immediately be expandable.
        node.queue = [c for c in node.children if self._keep_on_queue(c)]
        return EXPANDED

    def _decline_reason(self, node):
        """Why the Eq. 8 gate (or the fixed budget) said no — recorded
        verbatim in the decision provenance."""
        if not self.adaptive:
            return REASON_BUDGET
        if recursion_penalty(node, self.params) > 0.0:
            return REASON_RECURSION
        return REASON_THRESHOLD

    def _expansion_allowed(self, node, root):
        root_size = self._cache.s_irn(root)
        if self.adaptive:
            return should_expand(
                local_benefit(node),
                self._cache.ir_size(node),
                root_size,
                self.params,
            )
        # Fixed-threshold baseline: compare the call tree size against
        # T_e (§V, "Adaptive inlining threshold" experiment).
        return root_size <= self.fixed_te

    def _threshold_value(self, root_size):
        from repro.core.thresholds import expansion_threshold

        if self.adaptive:
            return expansion_threshold(root_size, self.params)
        return float(self.fixed_te)
