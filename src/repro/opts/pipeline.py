"""The full optimization pipeline with a compile-time budget.

The paper's non-linearity argument (§II, point 3) observes that "later
optimizations with a limited budget are less effective if inlining
produces a huge method". We reproduce that mechanism: the pipeline's
iteration count shrinks as the graph grows past
:attr:`OptimizerConfig.budget_nodes`, so a bloated root method is
genuinely optimized less thoroughly.
"""

from repro.obs import NULL_OBS
from repro.opts.canonicalize import CanonStats, canonicalize
from repro.opts.dce import merge_blocks, remove_dead_nodes, remove_unreachable_blocks
from repro.opts.gvn import global_value_numbering
from repro.opts.peeling import peel_loops
from repro.opts.rwelim import read_write_elimination


class OptimizerConfig:
    """Tunables for the optimization pipeline.

    Attributes:
        max_iterations: full canonicalize/GVN/DCE rounds on small graphs.
        budget_nodes: graph size at which the pipeline starts scaling
            its effort down; beyond 4× this size only one round runs.
        enable_peeling: first-iteration loop peeling (§IV).
        enable_rwe: read/write elimination (§IV).
        enable_devirtualization: stamp/CHA devirtualization during
            canonicalization.
    """

    def __init__(
        self,
        max_iterations=3,
        budget_nodes=2000,
        enable_peeling=True,
        enable_rwe=True,
        enable_devirtualization=True,
    ):
        self.max_iterations = max_iterations
        self.budget_nodes = budget_nodes
        self.enable_peeling = enable_peeling
        self.enable_rwe = enable_rwe
        self.enable_devirtualization = enable_devirtualization

    def iterations_for(self, node_count):
        """Effort available for a graph of *node_count* nodes."""
        if node_count <= self.budget_nodes:
            return self.max_iterations
        if node_count <= 2 * self.budget_nodes:
            return max(1, self.max_iterations - 1)
        if node_count <= 4 * self.budget_nodes:
            return max(1, self.max_iterations - 2)
        return 1


class PipelineStats(CanonStats):
    """The aggregate :class:`CanonStats` of one pipeline run, plus what
    the run skipped and whether it ended at the pipeline's fixpoint."""

    __slots__ = ("skipped", "at_fixpoint")

    def __init__(self):
        super().__init__()
        #: Passes not run because they were clean (see :class:`_Passes`).
        self.skipped = 0
        #: True when a run with the config's settings would leave the
        #: graph exactly as this run left it: the run used every pass
        #: the config enables, each is clean, and no loop was peeled.
        self.at_fixpoint = False


#: Passes that loop to their own fixpoint, so one run leaves them clean
#: whatever it changed.
_OWN_FIXPOINT = frozenset(("unreachable", "dce", "merge"))


def _changed(result):
    """Whether a pass result reports a change to the graph."""
    if isinstance(result, CanonStats):
        return result.changed
    if isinstance(result, tuple):  # read_write_elimination
        return any(result)
    return result > 0


class _Passes:
    """Runs the passes of one pipeline run, skipping clean ones.

    A pass is *clean* while the graph is unchanged since the pass last
    left it at its own fixpoint: after a run that changed nothing, or
    after any run of a pass that loops to its own fixpoint. Every pass
    is deterministic and reads nothing but the graph and the program, so
    a clean pass would change nothing: skipping it is exact.
    """

    __slots__ = ("graph", "clean", "used", "ran", "skipped")

    def __init__(self, graph):
        self.graph = graph
        self.clean = set()
        self.used = set()
        self.ran = 0
        self.skipped = 0

    def run(self, name, fn, *args, **kwargs):
        """``fn(graph, *args, **kwargs)``, or None when *name* is clean."""
        clean = self.clean
        self.used.add(name)
        if name in clean:
            self.skipped += 1
            return None
        self.ran += 1
        result = fn(self.graph, *args, **kwargs)
        changed = _changed(result)
        if changed:
            clean.clear()
        if not changed or name in _OWN_FIXPOINT:
            clean.add(name)
        return result

    def all_clean(self):
        """Whether every pass used so far is clean."""
        return self.used <= self.clean


class OptimizationPipeline:
    """Runs the optimizer over a graph and aggregates statistics."""

    def __init__(self, program, config=None, obs=None):
        self.program = program
        self.config = config if config is not None else OptimizerConfig()
        self.obs = obs if obs is not None else NULL_OBS

    def run(self, graph, peel=None, rwe=None):
        """Optimize *graph* in place; returns its :class:`PipelineStats`.

        *peel* / *rwe* override the config switches for a single run
        (the inliner calls those phases only at specific round
        boundaries, as the paper describes).

        Each iteration runs canonicalization, GVN and dead-code cleanup
        and, with *rwe*, read/write elimination; the loop ends after the
        config's iteration budget, or after an iteration (past the
        first round) that left the node count unchanged. A pass is
        skipped while it is clean (:class:`_Passes`); a skipped
        canonicalization still counts its one round in
        ``stats.rounds``, so the loop exits exactly where a run without
        skipping would. ``stats.at_fixpoint`` tells the caller that
        running the pipeline again would change nothing.

        With observability enabled, every pass group that ran emits a
        ``pass`` event carrying its node-count delta (the
        ``nodes-``/``nodes+`` columns of the stats report), and every
        group skipped whole emits a ``pass.skipped`` event.
        """
        config = self.config
        do_peel = config.enable_peeling if peel is None else peel
        do_rwe = config.enable_rwe if rwe is None else rwe
        program = self.program
        devirtualize = config.enable_devirtualization
        obs = self.obs
        observe = obs.enabled
        if observe:
            obs.metrics.counter("opt.pipeline.runs").inc()
        stats = PipelineStats()
        passes = _Passes(graph)
        run = passes.run
        iterations = config.iterations_for(graph.node_count())
        for iteration in range(iterations):
            before = graph.node_count()
            group = passes.ran
            canon = run("canon", canonicalize, program, devirtualize=devirtualize)
            if canon is None:
                stats.rounds += 1
            else:
                stats.merge(canon)
            run("unreachable", remove_unreachable_blocks)
            if observe:
                after_canon = graph.node_count()
                self._emit("canonicalize", iteration, passes.ran > group,
                           before, after_canon)
                group = passes.ran
            run("gvn", global_value_numbering)
            run("dce", remove_dead_nodes)
            run("merge", merge_blocks)
            if observe:
                after_gvn = graph.node_count()
                self._emit("gvn", iteration, passes.ran > group,
                           after_canon, after_gvn)
                group = passes.ran
            if do_rwe:
                run("rwe", read_write_elimination, program)
                run("dce", remove_dead_nodes)
                if observe:
                    self._emit("rwe", iteration, passes.ran > group,
                               after_gvn, graph.node_count())
            if graph.node_count() == before and stats.rounds > 1:
                break
        if do_peel:
            before_peel = graph.node_count() if observe else 0
            if run("peel", peel_loops, program):
                stats.merge(
                    run("canon", canonicalize, program, devirtualize=devirtualize)
                )
                run("unreachable", remove_unreachable_blocks)
                run("gvn", global_value_numbering)
                run("dce", remove_dead_nodes)
                run("merge", merge_blocks)
                if observe:
                    obs.events.emit(
                        "pass", name="peel", iteration=0,
                        before=before_peel, after=graph.node_count(),
                    )
        stats.skipped = passes.skipped
        stats.at_fixpoint = (
            (do_peel or not config.enable_peeling)
            and (do_rwe or not config.enable_rwe)
            and passes.all_clean()
        )
        if observe and passes.skipped:
            obs.metrics.counter("opt.passes.skipped").inc(passes.skipped)
        if observe and stats.type_check_folds:
            # Trial-time folds (simplify_only) are deliberately not
            # counted: trial graphs are discarded, so only folds in
            # graphs that actually compile reach the metric.
            obs.metrics.counter("opt.type_check_folds").inc(
                stats.type_check_folds
            )
        return stats

    def _emit(self, group, iteration, ran, before, after):
        """A ``pass`` event for a group of passes that ran, or a
        ``pass.skipped`` event for one whose passes were all clean."""
        if ran:
            self.obs.events.emit(
                "pass", name=group, iteration=iteration,
                before=before, after=after,
            )
        else:
            self.obs.events.emit("pass.skipped", name=group, iteration=iteration)

    def simplify_only(self, graph):
        """A cheap canonicalize+cleanup round (used inside trials)."""
        if self.obs.enabled:
            # Trials run this constantly; count it but skip per-pass
            # events to keep the stream readable.
            self.obs.metrics.counter("opt.simplify.runs").inc()
        stats = canonicalize(
            graph,
            self.program,
            max_rounds=2,
            devirtualize=self.config.enable_devirtualization,
        )
        remove_unreachable_blocks(graph)
        remove_dead_nodes(graph)
        merge_blocks(graph)
        return stats
