"""Profile data gathered by the interpreter and consumed by the compiler.

The profile model mirrors what HotSpot exposes to Graal:

- per-method invocation counters (hotness),
- per-branch taken/not-taken counters (→ branch probabilities),
- per-branch backedge counters (→ loop frequency estimates),
- per-callsite receiver-type histograms with megamorphic saturation
  (→ speculative devirtualization and polymorphic inlining, §IV),
- per-site operand-type histograms at INSTANCEOF/CHECKCAST
  (→ speculative type-check folding via guard/deopt).

Profiles are *measured*, never oracular: a callsite that was observed
with one receiver type may later see another (the paper's "noisy
estimates" difficulty, §II.1). Saturation at :data:`MAX_RECORDED_TYPES`
distinct types reproduces type-profile pollution: beyond the limit the
profile only says "megamorphic".
"""

MAX_RECORDED_TYPES = 8

#: Copies a snapshot tries before giving up: other tenant threads
#: writing pooled profiles can resize a dict mid-copy.
SNAPSHOT_ATTEMPTS = 8


def note_snapshot_fallback(obs, source):
    """Record a snapshot that gave up after :data:`SNAPSHOT_ATTEMPTS`
    copies, so the compile reads default profiles for *source*
    (``"store"`` or a pooled method name). Inert without observability."""
    if obs is None or not obs.enabled:
        return
    obs.metrics.counter("profile.snapshot_fallbacks").inc()
    obs.record(
        "profile.snapshot_fallback", source=source, attempts=SNAPSHOT_ATTEMPTS
    )


class BranchProfile:
    """Taken / not-taken counters for one IF instruction."""

    __slots__ = ("taken", "not_taken")

    def __init__(self):
        self.taken = 0
        self.not_taken = 0

    @property
    def total(self):
        return self.taken + self.not_taken

    def probability(self, default=0.5):
        """Empirical probability that the branch is taken."""
        total = self.total
        if total == 0:
            return default
        return self.taken / total

    def record(self, taken):
        if taken:
            self.taken += 1
        else:
            self.not_taken += 1

    def copy(self):
        clone = BranchProfile()
        clone.taken = self.taken
        clone.not_taken = self.not_taken
        return clone


class ReceiverProfile:
    """Receiver-type histogram for one virtual/interface callsite."""

    __slots__ = ("counts", "overflow", "total")

    def __init__(self):
        self.counts = {}
        self.overflow = 0
        self.total = 0

    def record(self, class_name):
        self.total += 1
        count = self.counts.get(class_name)
        if count is not None:
            self.counts[class_name] = count + 1
        elif len(self.counts) < MAX_RECORDED_TYPES:
            self.counts[class_name] = 1
        else:
            self.overflow += 1

    def copy(self):
        clone = ReceiverProfile()
        clone.counts = self.counts.copy()
        clone.overflow = self.overflow
        clone.total = self.total
        return clone

    @property
    def is_megamorphic(self):
        return self.overflow > 0

    def observed_types(self):
        """``[(class_name, probability)]`` sorted by descending probability."""
        if self.total == 0:
            return []
        items = sorted(
            self.counts.items(), key=lambda item: (-item[1], item[0])
        )
        return [(name, count / self.total) for name, count in items]

    def monomorphic_type(self, min_probability=1.0):
        """The single observed type, if its probability reaches the bar."""
        types = self.observed_types()
        if len(types) == 1 and not self.is_megamorphic:
            name, prob = types[0]
            if prob >= min_probability:
                return name
        return None


class TypeCheckProfile:
    """Operand-type histogram for one INSTANCEOF/CHECKCAST site.

    Null operands are tracked separately (``nulls``) rather than as a
    pseudo-type: a speculated exact-type guard cannot cover null, so the
    compiler must know whether the site ever saw one.
    """

    __slots__ = ("counts", "overflow", "nulls", "total")

    def __init__(self):
        self.counts = {}
        self.overflow = 0
        self.nulls = 0
        self.total = 0

    def record(self, class_name):
        """Record one observed operand; ``None`` means a null operand."""
        self.total += 1
        if class_name is None:
            self.nulls += 1
            return
        count = self.counts.get(class_name)
        if count is not None:
            self.counts[class_name] = count + 1
        elif len(self.counts) < MAX_RECORDED_TYPES:
            self.counts[class_name] = 1
        else:
            self.overflow += 1

    def copy(self):
        clone = TypeCheckProfile()
        clone.counts = self.counts.copy()
        clone.overflow = self.overflow
        clone.nulls = self.nulls
        clone.total = self.total
        return clone

    @property
    def is_megamorphic(self):
        return self.overflow > 0

    def observed_types(self):
        """``[(class_name, probability)]`` sorted by descending probability.

        Probabilities are relative to *all* operands including nulls,
        so a half-null site never looks monomorphic.
        """
        if self.total == 0:
            return []
        items = sorted(
            self.counts.items(), key=lambda item: (-item[1], item[0])
        )
        return [(name, count / self.total) for name, count in items]

    def monomorphic_type(self):
        """The single observed non-null type, or None.

        Unlike :meth:`ReceiverProfile.monomorphic_type` there is no
        probability bar: any null or second type disqualifies the site
        outright, because a refuted type-check guard deopts the whole
        root rather than falling back to a slow path.
        """
        if (
            self.total > 0
            and self.nulls == 0
            and not self.is_megamorphic
            and len(self.counts) == 1
        ):
            return next(iter(self.counts))
        return None


class MethodProfile:
    """All profile data for one method."""

    __slots__ = (
        "invocations",
        "branches",
        "backedges",
        "callsites",
        "receivers",
        "typechecks",
    )

    def __init__(self):
        self.invocations = 0
        self.branches = {}  # instr index -> BranchProfile
        self.backedges = {}  # instr index -> int
        self.callsites = {}  # instr index -> execution count
        self.receivers = {}  # instr index -> ReceiverProfile
        self.typechecks = {}  # instr index -> TypeCheckProfile

    def branch(self, index):
        profile = self.branches.get(index)
        if profile is None:
            profile = self.branches[index] = BranchProfile()
        return profile

    def record_backedge(self, index):
        self.backedges[index] = self.backedges.get(index, 0) + 1

    def backedge_count(self, index):
        """Taken-backedge count at one branch pc (the OSR trigger)."""
        return self.backedges.get(index, 0)

    def record_callsite(self, index):
        self.callsites[index] = self.callsites.get(index, 0) + 1

    def receiver(self, index):
        profile = self.receivers.get(index)
        if profile is None:
            profile = self.receivers[index] = ReceiverProfile()
        return profile

    def typecheck(self, index):
        profile = self.typechecks.get(index)
        if profile is None:
            profile = self.typechecks[index] = TypeCheckProfile()
        return profile

    def backedge_total(self):
        return sum(self.backedges.values())

    def copy(self):
        """An independent copy: fresh dicts and per-site profiles, in
        the same insertion order. Raises :class:`RuntimeError` when
        another thread resizes a dict mid-copy."""
        clone = MethodProfile()
        clone.invocations = self.invocations
        clone.branches = {i: p.copy() for i, p in self.branches.items()}
        clone.backedges = self.backedges.copy()
        clone.callsites = self.callsites.copy()
        clone.receivers = {i: p.copy() for i, p in self.receivers.items()}
        clone.typechecks = {i: p.copy() for i, p in self.typechecks.items()}
        return clone

    def hotness(self):
        """Scalar hotness: invocations plus a backedge contribution.

        Mirrors HotSpot's combined invocation+backedge threshold so
        that a method with one long-running loop still gets hot. The
        single definition of the formula — :meth:`ProfileStore.hotness`
        and :meth:`ProfileStore.hottest` both delegate here so the
        dispatch trigger and the reporting path can never drift.
        """
        return self.invocations + self.backedge_total() // 8

    def callsite_frequency(self, index):
        """Executions of the callsite per invocation of the method.

        This is the per-method factor of the paper's relative call
        frequency f(n): multiplying these factors down a call-tree path
        yields the frequency of a node relative to the compilation root.
        """
        if self.invocations == 0:
            return 1.0
        return self.callsites.get(index, 0) / self.invocations


class ProfileStore:
    """Profiles for every method, keyed by qualified method name.

    With ``context_sensitive=True`` the store additionally keeps a
    one-level-context profile per ``(caller, method)`` pair. HotSpot's
    profiles are context-insensitive, and the paper names
    context-sensitive profiles as a possible improvement it could not
    evaluate (§VI, citing Hazelwood & Grove); this flag implements that
    extension: the interpreter feeds both tables, and the inliner can
    request the profile *as seen from a specific caller* when
    specializing a call-tree node (see
    :meth:`~repro.jit.compiler.CompileContext.build_callee_graph`).
    """

    def __init__(self, context_sensitive=False, obs=None):
        self._methods = {}
        self._contexts = {}
        self.context_sensitive = context_sensitive
        self._obs = obs
        #: Bumped on :meth:`clear` so interpreters holding memoized
        #: profile objects (and pre-decoded handler tables bound to
        #: them) know to re-fetch.
        self.generation = 0

    def of(self, method, caller=None):
        key = method.qualified_name
        profile = self._methods.get(key)
        if profile is None:
            profile = self._methods[key] = MethodProfile()
            if self._obs is not None and self._obs.enabled:
                self._obs.metrics.gauge("profile.methods").set(
                    len(self._methods)
                )
        if self.context_sensitive and caller is not None:
            context_key = (caller.qualified_name, key)
            context_profile = self._contexts.get(context_key)
            if context_profile is None:
                context_profile = self._contexts[context_key] = MethodProfile()
            return _FanoutProfile(profile, context_profile)
        return profile

    def maybe_of(self, method):
        """Like :meth:`of` but returns None instead of creating."""
        return self._methods.get(method.qualified_name)

    def context_profile(self, method, caller):
        """The profile of *method* as observed when called from
        *caller*, or None when unavailable."""
        if caller is None:
            return None
        return self._contexts.get(
            (caller.qualified_name, method.qualified_name)
        )

    def view_for_caller(self, caller):
        """A read view preferring context profiles from *caller*."""
        return _ContextView(self, caller)

    def clear(self):
        self._methods.clear()
        self._contexts.clear()
        self.generation += 1

    def snapshot(self):
        """An independent copy safe to hand to another thread.

        Background compilation (:mod:`repro.serve`) reads profiles off
        the application thread; handing the compiler a snapshot taken
        on the *submitting* thread means it never iterates a dict the
        interpreter is concurrently growing. Each profile is copied by
        :meth:`MethodProfile.copy`. Writers in other tenant threads can
        still race the copy (shared aggregate profiles), so a copy that
        observes a mid-iteration size change is simply retried.
        """
        for _ in range(SNAPSHOT_ATTEMPTS):
            try:
                clone = ProfileStore(
                    context_sensitive=self.context_sensitive
                )
                clone._methods = {
                    key: profile.copy()
                    for key, profile in self._methods.items()
                }
                clone._contexts = {
                    key: profile.copy()
                    for key, profile in self._contexts.items()
                }
                clone.generation = self.generation
                return clone
            except RuntimeError:
                continue
        # Pathological contention: fall back to an empty store — the
        # compiler degrades to default profiles, never to a crash.
        note_snapshot_fallback(self._obs, "store")
        return ProfileStore(context_sensitive=self.context_sensitive)

    def hotness(self, method):
        """Scalar hotness of *method* (see :meth:`MethodProfile.hotness`)."""
        profile = self._methods.get(method.qualified_name)
        if profile is None:
            return 0
        return profile.hotness()

    def hottest(self, limit=10):
        """The *limit* hottest profiled methods as ``[(name, hotness)]``."""
        scores = [
            (name, profile.hotness())
            for name, profile in self._methods.items()
        ]
        scores.sort(key=lambda item: (-item[1], item[0]))
        return scores[:limit]

    def __len__(self):
        return len(self._methods)


class _FanoutProfile:
    """Write proxy that records into the aggregate profile *and* into
    one context profile (what the interpreter holds while a method runs
    in context-sensitive mode)."""

    __slots__ = ("aggregate", "context")

    def __init__(self, aggregate, context):
        self.aggregate = aggregate
        self.context = context

    # The interpreter's write surface:

    @property
    def invocations(self):
        return self.aggregate.invocations

    @invocations.setter
    def invocations(self, value):
        delta = value - self.aggregate.invocations
        self.aggregate.invocations = value
        self.context.invocations += delta

    def branch(self, index):
        return _FanoutBranch(
            self.aggregate.branch(index), self.context.branch(index)
        )

    def record_backedge(self, index):
        self.aggregate.record_backedge(index)
        self.context.record_backedge(index)

    def backedge_count(self, index):
        # The OSR trigger reads the aggregate counter: context profiles
        # partition the same executions, so gating on the aggregate
        # keeps the transfer point independent of the caller context.
        return self.aggregate.backedge_count(index)

    def record_callsite(self, index):
        self.aggregate.record_callsite(index)
        self.context.record_callsite(index)

    def receiver(self, index):
        return _FanoutReceiver(
            self.aggregate.receiver(index), self.context.receiver(index)
        )

    def typecheck(self, index):
        return _FanoutTypeCheck(
            self.aggregate.typecheck(index), self.context.typecheck(index)
        )


class _FanoutBranch:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def record(self, taken):
        self.a.record(taken)
        self.b.record(taken)


class _FanoutReceiver:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def record(self, class_name):
        self.a.record(class_name)
        self.b.record(class_name)


class _FanoutTypeCheck:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def record(self, class_name):
        self.a.record(class_name)
        self.b.record(class_name)


class _ContextView:
    """Read view over a ProfileStore that prefers the profiles observed
    from one specific caller, falling back to the aggregate."""

    __slots__ = ("store", "caller")

    def __init__(self, store, caller):
        self.store = store
        self.caller = caller

    def maybe_of(self, method):
        profile = self.store.context_profile(method, self.caller)
        if profile is not None and profile.invocations > 0:
            return profile
        return self.store.maybe_of(method)
