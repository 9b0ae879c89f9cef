"""Cross-tenant profile aggregation for shared library methods.

When many tenants run the same library code, each tenant's view of a
callsite is sparser than the fleet's: receiver histograms and branch
probabilities converge much faster when pooled. The
:class:`SharedProfileAggregator` keeps one global
:class:`~repro.interp.profiles.MethodProfile` per shared method;
tenant interpreters write through to it (fan-out, reusing the
context-sensitive plumbing) and tenant compilers read the *merged*
profile instead of their local one.

Merge policy, per tenant:

- ``merge="shared"`` (default): the tenant's interpreter contributes to
  the global profile and its compiler reads the pooled data.
- ``merge="isolated"`` (the per-tenant override): the tenant neither
  contributes nor reads — fully private profiles, e.g. for a tenant
  whose traffic shape would pollute the pool (megamorphic saturation is
  contagious: one tenant's 9 receiver types saturate the shared
  histogram for everyone).

What stays tenant-local always: invocation counts used for *compile
triggers* (``hotness``) — one tenant's traffic must not get another
tenant's methods compiled, or tenant A's warmup would charge tenant B's
compile budget.

Which methods are "shared" is a predicate on the qualified method name;
the default shares everything (tenants running the same program pool
all their profiles), and a prefix predicate
(:func:`share_by_class_prefix`) restricts pooling to library classes.
"""

import threading

from repro.interp.profiles import (
    SNAPSHOT_ATTEMPTS,
    MethodProfile,
    ProfileStore,
    _FanoutProfile,
    note_snapshot_fallback,
)


def share_by_class_prefix(*prefixes):
    """A share predicate: pool only methods of classes whose name
    starts with one of *prefixes* (e.g. ``"Lib"``, ``"java."``)."""

    def predicate(qualified_name):
        return qualified_name.startswith(tuple(prefixes))

    return predicate


class SharedProfileAggregator:
    """One global profile table, fed by every sharing tenant."""

    def __init__(self, share=None):
        #: qualified method name -> aggregate MethodProfile
        self._global = {}
        self._lock = threading.Lock()
        self._share = share  # predicate(qualified_name) or None = all

    def shares(self, qualified_name):
        return self._share is None or self._share(qualified_name)

    def global_profile(self, qualified_name):
        """The global profile for one method, created on first use."""
        profile = self._global.get(qualified_name)
        if profile is None:
            with self._lock:
                profile = self._global.setdefault(
                    qualified_name, MethodProfile()
                )
        return profile

    def merged_copy(self, qualified_name, obs=None):
        """A snapshot copy of the global profile, or None when the pool
        has nothing. Copied because the caller (a compiler) iterates
        its dicts while other tenant threads keep writing; a copy that
        keeps losing that race also yields None, recorded through
        *obs*."""
        profile = self._global.get(qualified_name)
        if profile is None or profile.invocations == 0:
            return None
        for _ in range(SNAPSHOT_ATTEMPTS):
            try:
                return profile.copy()
            except RuntimeError:
                continue
        note_snapshot_fallback(obs, qualified_name)
        return None

    def pooled_method_names(self):
        return sorted(self._global)

    def store_for_tenant(self, merge="shared", context_sensitive=False,
                         obs=None):
        """A :class:`TenantProfileStore` wired to this aggregator."""
        return TenantProfileStore(
            self, merge=merge, context_sensitive=context_sensitive, obs=obs
        )


class TenantProfileStore(ProfileStore):
    """A per-tenant profile store that pools shared methods.

    Writes fan out (local + global); compiler reads
    (:meth:`maybe_of`) prefer the pooled profile. Hotness — the compile
    trigger — always reads the tenant-local table.
    """

    def __init__(self, aggregator, merge="shared", context_sensitive=False,
                 obs=None):
        super().__init__(context_sensitive=context_sensitive, obs=obs)
        if merge not in ("shared", "isolated"):
            raise ValueError("unknown merge policy %r" % (merge,))
        self._aggregator = aggregator
        self.merge = merge

    def _pooled(self, qualified_name):
        return (
            self.merge == "shared"
            and self._aggregator.shares(qualified_name)
        )

    def of(self, method, caller=None):
        local = super().of(method, caller)
        if not self._pooled(method.qualified_name):
            return local
        shared = self._aggregator.global_profile(method.qualified_name)
        # Reuse the context-sensitive fan-out proxy: every write lands
        # in the tenant-local profile *and* the global pool.
        return _FanoutProfile(local, shared)

    def maybe_of(self, method):
        local = super().maybe_of(method)
        if not self._pooled(method.qualified_name):
            return local
        merged = self._aggregator.merged_copy(
            method.qualified_name, self._obs
        )
        return merged if merged is not None else local

    def snapshot(self):
        """Copy for background compilation: local tables first, then
        pooled methods overlaid with their merged profiles — the worker
        sees exactly what a synchronous compile would."""
        clone = super().snapshot()
        if self.merge != "shared":
            return clone
        for name in self._aggregator.pooled_method_names():
            if not self._aggregator.shares(name):
                continue
            merged = self._aggregator.merged_copy(name, self._obs)
            if merged is not None:
                clone._methods[name] = merged
        return clone
