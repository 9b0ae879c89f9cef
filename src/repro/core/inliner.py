"""The top-level incremental inlining algorithm (Listing 1).

::

    root = createRoot(μ)
    while not detectTermination(root):
        expand(root)
        analyze(root)
        inline(root)

Termination (§IV): no cutoff nodes left, no change in the call tree
during the last round, or the root IR exceeding the size bailout.
Between rounds the root method receives the paper's end-of-round
optimizations — read/write elimination and first-iteration loop peeling
— and deep-trial information is re-propagated through the surviving
tree, since the newly inlined and optimized code may have sharpened
argument types at the remaining callsites (§IV's fixpoint).

The constructor knobs expose the ablations evaluated in §V: fixed
expansion/inlining thresholds (Figures 6–7), 1-by-1 analysis
(Figure 8) and shallow trials (Figure 9). The tuned configuration is
the default.
"""

from repro.core.analysis import CostBenefitAnalysis
from repro.core.calltree import NodeKind, make_root
from repro.core.expansion import ExpansionPhase
from repro.core.inlining import InliningPhase
from repro.core.params import InlinerParams
from repro.core.trials import propagate_deep_trials
from repro.ir.frequency import annotate_frequencies


class InlineReport:
    """Statistics from one run of the inliner over one compilation."""

    def __init__(self):
        self.rounds = 0
        self.expansions = 0
        self.inline_count = 0
        self.typeswitch_count = 0
        self.speculation_count = 0
        self.explored_nodes = 0
        self.inlined_methods = []
        self.final_root_size = 0
        #: True when the last end-of-round optimization left the root at
        #: the pipeline's fixpoint. Only frequencies change the root
        #: after it, and no pass reads them, so the compiler's
        #: post-inline run would change nothing and is skipped.
        self.root_at_fixpoint = False

    def __repr__(self):
        return "<InlineReport rounds=%d expanded=%d inlined=%d ts=%d>" % (
            self.rounds,
            self.expansions,
            self.inline_count,
            self.typeswitch_count,
        )


class IncrementalInliner:
    """The paper's algorithm as a pluggable inlining policy.

    Args:
        params: tuned constants; defaults to the paper's values.
        adaptive_expansion: Eq. 8 when True, fixed T_e otherwise.
        adaptive_inlining: Eq. 12 when True, fixed T_i otherwise.
        fixed_te / fixed_ti: the fixed thresholds for the baselines.
        clustering: Listing 6 clustering when True, 1-by-1 otherwise.
        deep_trials: deep inlining trials when True; when False,
            argument specialization happens only for the root's direct
            callsites (the "inlining trials depth 1" baseline).
    """

    name = "incremental"

    def __init__(
        self,
        params=None,
        adaptive_expansion=True,
        adaptive_inlining=True,
        fixed_te=1000,
        fixed_ti=3000,
        clustering=True,
        deep_trials=True,
        tracer=None,
    ):
        self.params = params if params is not None else InlinerParams()
        self.tracer = tracer
        self.expansion = ExpansionPhase(
            self.params,
            adaptive=adaptive_expansion,
            fixed_te=fixed_te,
            deep_trials=deep_trials,
            tracer=tracer,
        )
        self.analysis = CostBenefitAnalysis(self.params, clustering=clustering)
        self.inlining = InliningPhase(
            self.params,
            adaptive=adaptive_inlining,
            fixed_ti=fixed_ti,
            tracer=tracer,
        )
        self.deep_trials = deep_trials

    def attach_tracer(self, tracer):
        """Install *tracer* on the inliner and its phases after
        construction (the observability bridge uses this to wire in a
        span-scoped tracer when none was supplied)."""
        self.tracer = tracer
        self.expansion.tracer = tracer
        self.inlining.tracer = tracer

    # ------------------------------------------------------------------

    def run(self, graph, context):
        """Inline into *graph* (the compilation root); returns a report."""
        report = InlineReport()
        root = make_root(graph)
        if self.tracer is not None:
            # graph.name defaults to the method's qualified name but
            # diverges for OSR continuations ("Method@osr<bci>"), which
            # keeps their provenance roots distinct in explain output.
            self.tracer.begin_compilation(
                graph.name if graph.method is not None else "<root>"
            )
        from repro.core.trials import discover_children

        discover_children(root, context, self.params)
        termination = "max rounds"
        for _ in range(self.params.max_rounds):
            report.rounds += 1
            if root.graph.node_count() >= self.params.max_root_size:
                termination = "root size bailout"
                break
            if self.tracer is not None:
                self.tracer.begin_round(root.graph.node_count())
            expanded = self.expansion.run(root, context, report)
            cluster_roots = self.analysis.run(root, context)
            inlined = self.inlining.run(root, context, report, cluster_roots)
            if inlined:
                # End-of-round optimizations on the root (§IV): full
                # pipeline including read/write elimination and peeling.
                stats = context.pipeline.run(root.graph)
                report.root_at_fixpoint = stats.at_fixpoint
                annotate_frequencies(root.graph)
                refresh_frequencies(root)
                if self.deep_trials:
                    propagate_deep_trials(root, context, self.params)
            if not expanded and not inlined:
                termination = "no change in call tree"
                break
            if root.n_c() == 0 and not _has_expandable(root):
                termination = "no cutoffs left"
                break
        report.final_root_size = root.graph.node_count()
        if self.tracer is not None:
            self.tracer.terminated(termination, report.final_root_size)
        return report


def refresh_frequencies(root):
    """Recompute f(n) for every tree node after the root graph changed.

    Nodes whose callsite lives in the root graph read the (freshly
    re-annotated) invoke frequency directly; nodes deeper in the tree
    multiply their parent's frequency by their callsite's frequency
    within the parent's (detached) graph. Children of un-inlined
    polymorphic nodes share the polymorphic callsite and scale by their
    profile probability instead.
    """

    def visit(node):
        for child in node.children:
            if child.check_deleted():
                continue
            invoke = child.invoke
            if invoke is None or invoke.block is None:
                child.frequency = 0.0
                continue
            if node.kind == NodeKind.POLYMORPHIC:
                child.frequency = node.frequency * child.probability
            elif node.is_root or node.kind == NodeKind.INLINED:
                child.frequency = invoke.frequency
            else:
                child.frequency = node.frequency * invoke.frequency
            visit(child)

    visit(root)


def _has_expandable(root):
    for node in root.subtree():
        if node.kind == NodeKind.CUTOFF and not node.expand_declined:
            return True
    return False
