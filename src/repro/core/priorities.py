"""Benefit and priority formulas (§IV, Eq. 4–7 and 13–14).

Local benefit, Eq. 4 (N_s differs by kind)::

    B_L(n) = f(n) · (1 + N_s(n))
        N_s = #(more-concrete args)      for cutoff nodes
        N_s = #(trial optimizations)     for expanded nodes

Polymorphic nodes use the profile-weighted sum over speculated targets,
Eq. 13. Intrinsic exploration priority, Eq. 5::

    P_I(n) = B_L(n) / |ir(n)|                  kind = C
    P_I(n) = max over children of P_I(c)       kind = E

Final priority, Eq. 6–7: P(n) = P_I(n) − ψ(n), with the exploration
penalty ψ(n) = p1·S_irn(n) + p2·S_b(n) − b1·max(0, b2 − N_c(n)²).
Recursive callsites additionally pay ψ_r (Eq. 14) on their intrinsic
priority, which leaves shallow recursion untouched and suppresses deep
recursion exponentially.
"""

from repro.core.calltree import NodeKind


def local_benefit(node):
    """B_L(n), Eq. 4 / Eq. 13."""
    kind = node.kind
    if kind == NodeKind.DELETED or kind == NodeKind.GENERIC:
        return 0.0
    if kind == NodeKind.POLYMORPHIC:
        return sum(
            child.probability * local_benefit(child) for child in node.children
        )
    if kind == NodeKind.CUTOFF:
        return node.frequency * (1.0 + node.concrete_arg_count)
    # Expanded.
    return node.frequency * (1.0 + node.trial_opt_count)


def intrinsic_priority(node, params):
    """P_I(n), Eq. 5, with the recursion penalty ψ_r applied to cutoffs."""
    kind = node.kind
    if kind == NodeKind.CUTOFF:
        size = max(1, node.ir_size())
        priority = local_benefit(node) / size
        return priority - recursion_penalty(node, params)
    if kind in (NodeKind.EXPANDED, NodeKind.POLYMORPHIC):
        best = float("-inf")
        for child in node.children:
            if child.kind == NodeKind.DELETED or child.kind == NodeKind.GENERIC:
                continue
            value = intrinsic_priority(child, params)
            if value > best:
                best = value
        return best if best != float("-inf") else 0.0
    return 0.0


def exploration_penalty(node, params):
    """ψ(n), Eq. 7."""
    n_c = node.n_c()
    return (
        params.p1 * node.s_irn()
        + params.p2 * node.s_b()
        - params.b1 * max(0.0, params.b2 - float(n_c * n_c))
    )


def priority(node, params):
    """P(n), Eq. 6."""
    return intrinsic_priority(node, params) - exploration_penalty(node, params)


def recursion_penalty(node, params):
    """ψ_r(n), Eq. 14: max(1, f(n)) · max(0, 2^d(n) − 2)."""
    depth = node.recursion_depth()
    if depth <= 0:
        return 0.0
    pressure = max(0.0, float(2 ** depth) - float(params.recursion_free_depth))
    if pressure == 0.0:
        return 0.0
    return max(1.0, node.frequency) * pressure


class PriorityCache:
    """Memoized subtree aggregates, valid between call-tree mutations.

    ``priority`` walks the whole subtree per call (s_irn / s_b / n_c,
    plus one ``Graph.node_count`` per expanded node), and the expansion
    phase evaluates it once per queue entry per descent — quadratic in
    tree size, and the dominant compile cost on expansion-heavy
    workloads. Between mutations of the tree (expansions, kind flips,
    observed deletions) every one of these values is constant, so the
    expansion phase keeps one cache and calls :meth:`invalidate` at
    each mutation point. All arithmetic matches the module functions
    operation-for-operation (integer subtree sums are order-free), so
    cached results are bit-identical to uncached ones.
    """

    __slots__ = ("params", "_aggregates", "_intrinsic", "_priority")

    def __init__(self, params):
        self.params = params
        self._aggregates = {}  # node -> (ir_size, s_irn, s_b, n_c)
        self._intrinsic = {}
        self._priority = {}

    def invalidate(self):
        self._aggregates.clear()
        self._intrinsic.clear()
        self._priority.clear()

    # -- subtree aggregates --------------------------------------------

    def aggregates(self, node):
        """``(ir_size, s_irn, s_b, n_c)`` for *node*, one post-order
        pass per epoch."""
        cache = self._aggregates
        hit = cache.get(node)
        if hit is not None:
            return hit
        stack = [(node, False)]
        while stack:
            current, ready = stack.pop()
            if current in cache:
                continue
            if ready:
                size = current.ir_size()
                is_cutoff = current.kind == NodeKind.CUTOFF
                s_irn = size
                s_b = size if is_cutoff else 0
                n_c = 1 if is_cutoff else 0
                for child in current.children:
                    _, child_irn, child_b, child_c = cache[child]
                    s_irn += child_irn
                    s_b += child_b
                    n_c += child_c
                cache[current] = (size, s_irn, s_b, n_c)
            else:
                stack.append((current, True))
                for child in current.children:
                    if child not in cache:
                        stack.append((child, False))
        return cache[node]

    def ir_size(self, node):
        return self.aggregates(node)[0]

    def s_irn(self, node):
        return self.aggregates(node)[1]

    # -- priorities ----------------------------------------------------

    def intrinsic_priority(self, node):
        """P_I(n), memoized; mirrors :func:`intrinsic_priority`."""
        memo = self._intrinsic
        value = memo.get(node)
        if value is not None:
            return value
        kind = node.kind
        if kind == NodeKind.CUTOFF:
            size = max(1, self.ir_size(node))
            value = local_benefit(node) / size
            value -= recursion_penalty(node, self.params)
        elif kind in (NodeKind.EXPANDED, NodeKind.POLYMORPHIC):
            best = float("-inf")
            for child in node.children:
                if (
                    child.kind == NodeKind.DELETED
                    or child.kind == NodeKind.GENERIC
                ):
                    continue
                child_value = self.intrinsic_priority(child)
                if child_value > best:
                    best = child_value
            value = best if best != float("-inf") else 0.0
        else:
            value = 0.0
        memo[node] = value
        return value

    def priority(self, node):
        """P(n), Eq. 6, memoized; mirrors :func:`priority`."""
        memo = self._priority
        value = memo.get(node)
        if value is not None:
            return value
        params = self.params
        _, s_irn, s_b, n_c = self.aggregates(node)
        penalty = (
            params.p1 * s_irn
            + params.p2 * s_b
            - params.b1 * max(0.0, params.b2 - float(n_c * n_c))
        )
        value = self.intrinsic_priority(node) - penalty
        memo[node] = value
        return value
