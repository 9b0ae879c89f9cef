"""Installed-code bookkeeping.

Tracks compiled machine code per method and the total installed size —
the quantity the paper reports in Figure 10 and Table I, and the input
to the instruction-cache pressure model.

With observability enabled the cache records install/evict/hit/miss
metrics (``codecache.*``); a lookup miss means the call fell back to
the interpreter tier.

Two implementations share the same surface:

- :class:`CodeCache` — the classic per-engine cache (one VM instance,
  unbounded, the paper's measurement protocol).
- :class:`SharedCodeCache` — the multi-tenant serving cache
  (:mod:`repro.serve`): one sharded store for the whole process with
  per-tenant byte quotas and LRU- or hotness-driven eviction under a
  global memory budget. Engines see it through a per-tenant
  :class:`TenantCacheView`, which implements the :class:`CodeCache`
  surface the engine uses, so the engine code is identical either way.

Both report every change to an engine's installed code through the hook
the engine registers with ``watch(hook)``: ``hook(key, code)``, where
*key* is the method, or ``(method, bci)`` for an OSR continuation, and
*code* the code now installed there (``None`` once it is gone). The
shared cache adds the new entry at an install, ``hook(key, code,
entry)``: its ``tick`` is the entry's LRU stamp. An engine binds and
drops its compiled calls there, so a binding lives exactly as long as
its entry. The hook runs inside the mutation (under the shared cache's
lock), and only after the sizes are updated.
"""

import itertools
import threading

from repro.obs import NULL_OBS


class CodeCache:
    """Mapping from methods to installed machine code."""

    def __init__(self, obs=None):
        #: Installed code, keyed like the engine's bindings: the method,
        #: or ``(method, backedge bci)`` for an OSR continuation (one
        #: loop may be entered at several backedges, and each gets its
        #: own continuation code). Sizes count into ``total_size``.
        self._code = {}
        self.total_size = 0
        #: Total successful installs, whole-method and OSR, first
        #: installs *plus* replacements: one per compilation this cache
        #: accepted.
        self.install_count = 0
        #: The subset of ``install_count`` that replaced existing code
        #: (recompilations); ``install_count - reinstalls`` is the
        #: number of distinct first installs.
        self.reinstalls = 0
        self._hook = None
        obs = obs if obs is not None else NULL_OBS
        self._obs = obs
        if obs.enabled:
            metrics = obs.metrics
            self._hits = metrics.counter("codecache.hits")
            self._misses = metrics.counter("codecache.misses")
            self._installs = metrics.counter("codecache.installs")
            self._reinstalls = metrics.counter("codecache.reinstalls")
            self._evictions = metrics.counter("codecache.evictions")
            self._bytes = metrics.gauge("codecache.installed_bytes")
        else:
            self._hits = None
            self._misses = None
            self._installs = None
            self._reinstalls = None
            self._evictions = None
            self._bytes = None

    def watch(self, hook):
        """Report installed-code changes to *hook* (module docstring)."""
        self._hook = hook

    # The accounting lives in these three helpers. The public methods
    # after them never call one another, so a wrapper put on one of
    # them (a tracer) sees each install or evict exactly once.

    def _get(self, key):
        code = self._code.get(key)
        if self._hits is not None:
            (self._hits if code is not None else self._misses).inc()
        return code

    def _install(self, key, code):
        # On reinstall the previous code's size leaves the total before
        # the new size enters, so ``total_size`` always equals the sum
        # of currently installed code — the *delta* across a reinstall
        # is legitimately negative when the recompile shrank the code.
        previous = self._code.get(key)
        if previous is not None:
            self.total_size -= previous.size
            self.reinstalls += 1
            if self._reinstalls is not None:
                self._reinstalls.inc()
        self._code[key] = code
        self.total_size += code.size
        self.install_count += 1
        if self._installs is not None:
            self._installs.inc()
            self._bytes.set(self.total_size)
        if self._hook is not None:
            self._hook(key, code)

    def _evict(self, key):
        code = self._code.pop(key, None)
        if code is None:
            return False
        self.total_size -= code.size
        if self._evictions is not None:
            self._evictions.inc()
            self._bytes.set(self.total_size)
        if self._hook is not None:
            self._hook(key, None)
        return True

    def get(self, method):
        return self._get(method)

    def __contains__(self, method):
        return method in self._code

    def install(self, method, code):
        self._install(method, code)

    def evict(self, method):
        """Drop *method*'s installed code; returns True if it was present."""
        return self._evict(method)

    def get_osr(self, method, bci):
        """Installed OSR continuation for ``(method, bci)``, or None.

        Counts into the same hit/miss metrics as whole-method lookups —
        a miss here is the trigger for an OSR compilation.
        """
        return self._get((method, bci))

    def install_osr(self, method, bci, code):
        self._install((method, bci), code)

    def evict_osr(self, method, bci):
        """Drop one OSR continuation; returns True if it was present."""
        return self._evict((method, bci))

    def osr_count(self):
        return sum(type(key) is tuple for key in self._code)

    def installed_methods(self):
        return [key for key in self._code if type(key) is not tuple]

    def __len__(self):
        return len(self._code) - self.osr_count()


class _Entry:
    """One installed code object in the shared cache."""

    __slots__ = ("code", "size", "tick", "tenant", "method", "osr_bci")

    def __init__(self, code, tick, tenant, method, osr_bci=None):
        self.code = code
        self.size = code.size
        self.tick = tick
        self.tenant = tenant
        self.method = method
        self.osr_bci = osr_bci  # None for whole-method entries

    @property
    def is_osr(self):
        return self.osr_bci is not None

    @property
    def key(self):
        """The engine-side key: the method, or ``(method, bci)``."""
        return self.method if self.osr_bci is None else (
            self.method, self.osr_bci
        )


class SharedCodeCache:
    """Process-wide installed-code store for multi-tenant serving.

    - **Sharded**: entries are spread over ``shards`` dicts by key hash;
      lookups are lock-free dict reads (atomic under the GIL), so
      lookups of concurrent tenants never contend.
    - **One LRU clock**: ``clock`` stamps an entry's ``tick`` at its
      install, at each ``get``/``get_osr`` hit, and at each linked call
      of a tenant's engine, which calls its installed code without a
      ``get`` (the stamp reaches the engine through its hook). Each
      stamp is one ``next(clock)``, atomic under the GIL, so concurrent
      tenants never share one.
    - **Budgeted**: a global byte ``budget`` bounds the sum of installed
      code across all tenants; per-tenant byte quotas bound each
      tenant's share. Exceeding either evicts victims.
    - **Victim selection**: ``policy="lru"`` evicts the
      least-recently-dispatched entry; ``policy="hotness"`` evicts the
      entry whose method currently has the lowest profile hotness (via
      the ``hotness_fn(tenant, method)`` callback — the PR 1/4
      telemetry signal). Evicting a whole-method entry also drops its
      OSR side-table entries: a continuation without its root method is
      dead weight.
    - **Reinstall accounting**: evicted methods that later recompile
      count into ``reinstalls_after_evict`` — the thrash signal a
      too-small budget produces.

    An entry larger than its tenant's quota (or the global budget) is
    rejected outright (``install`` returns False) — the engine marks
    the method compile-failed rather than thrash the cache.
    """

    def __init__(self, budget=None, shards=8, policy="lru",
                 tenant_quota=None, hotness_fn=None, obs=None):
        if policy not in ("lru", "hotness"):
            raise ValueError("unknown eviction policy %r" % (policy,))
        self.budget = budget
        self.policy = policy
        self.default_quota = tenant_quota
        self.hotness_fn = hotness_fn
        self._shard_count = max(1, int(shards))
        self._shards = [{} for _ in range(self._shard_count)]
        self._lock = threading.RLock()
        #: The LRU clock: ``next(clock)`` is a fresh stamp (class
        #: docstring).
        self.clock = itertools.count(1)
        self.total_size = 0
        self._tenant_bytes = {}
        self._quotas = {}
        self._reinstalls = {}
        self._evictions = {}
        self._reinstalls_after_evict = {}
        self._evicted_methods = set()  # (tenant, method) pairs
        self._hooks = {}  # tenant -> its engine's watch hook
        self.eviction_count = 0
        self.quota_rejections = 0
        obs = obs if obs is not None else NULL_OBS
        self._obs = obs
        if obs.enabled:
            metrics = obs.metrics
            self._m_hits = metrics.counter("codecache.hits")
            self._m_misses = metrics.counter("codecache.misses")
            self._m_installs = metrics.counter("codecache.installs")
            self._m_evictions = metrics.counter("codecache.shared.evictions")
            self._m_rejections = metrics.counter(
                "codecache.shared.quota_rejections"
            )
            self._m_bytes = metrics.gauge("codecache.installed_bytes")
        else:
            self._m_hits = self._m_misses = None
            self._m_installs = self._m_evictions = None
            self._m_rejections = self._m_bytes = None

    # ------------------------------------------------------------------
    # Tenant administration
    # ------------------------------------------------------------------

    def view(self, tenant, quota=None):
        """The per-tenant :class:`CodeCache`-shaped facade."""
        if quota is not None:
            self._quotas[tenant] = quota
        return TenantCacheView(self, tenant)

    def quota_of(self, tenant):
        return self._quotas.get(tenant, self.default_quota)

    def drop_tenant(self, tenant):
        """Evict every entry of *tenant* (tenant eviction); returns the
        number of bytes reclaimed."""
        with self._lock:
            reclaimed = 0
            dropped = []
            for shard in self._shards:
                for key in [k for k in shard if k[0] == tenant]:
                    entry = shard.pop(key)
                    reclaimed += entry.size
                    dropped.append(entry)
            self.total_size -= reclaimed
            self._tenant_bytes.pop(tenant, None)
            if self._m_bytes is not None:
                self._m_bytes.set(self.total_size)
            hook = self._hooks.get(tenant)
            if hook is not None:
                for entry in dropped:
                    hook(entry.key, None)
            return reclaimed

    def watch(self, tenant, hook):
        """Report *tenant*'s installed-code changes to *hook*."""
        self._hooks[tenant] = hook

    # ------------------------------------------------------------------
    # Lookup / install / evict (tenant-scoped)
    # ------------------------------------------------------------------

    def _shard_of(self, key):
        return self._shards[hash(key) % self._shard_count]

    def _get(self, key):
        entry = self._shard_of(key).get(key)
        if entry is not None:
            entry.tick = next(self.clock)
            if self._m_hits is not None:
                self._m_hits.inc()
            return entry.code
        if self._m_misses is not None:
            self._m_misses.inc()
        return None

    def get(self, tenant, method):
        return self._get((tenant, method))

    def get_osr(self, tenant, method, bci):
        return self._get((tenant, method, bci))

    def contains(self, tenant, method):
        return (tenant, method) in self._shard_of((tenant, method))

    def size_of(self, tenant, method):
        """Entry size without touching its recency (introspection)."""
        entry = self._shard_of((tenant, method)).get((tenant, method))
        return entry.size if entry is not None else 0

    def _install(self, tenant, key, entry):
        quota = self.quota_of(tenant)
        if quota is not None and entry.size > quota:
            self.quota_rejections += 1
            if self._m_rejections is not None:
                self._m_rejections.inc()
            return False
        if self.budget is not None and entry.size > self.budget:
            self.quota_rejections += 1
            if self._m_rejections is not None:
                self._m_rejections.inc()
            return False
        shard = self._shard_of(key)
        previous = shard.get(key)
        if previous is not None:
            self._account_removal(previous)
            self._reinstalls[tenant] = self._reinstalls.get(tenant, 0) + 1
        shard[key] = entry
        self.total_size += entry.size
        self._tenant_bytes[tenant] = (
            self._tenant_bytes.get(tenant, 0) + entry.size
        )
        hook = self._hooks.get(tenant)
        if hook is not None:
            hook(entry.key, entry.code, entry)
        if not entry.is_osr and (tenant, entry.method) in self._evicted_methods:
            self._evicted_methods.discard((tenant, entry.method))
            self._reinstalls_after_evict[tenant] = (
                self._reinstalls_after_evict.get(tenant, 0) + 1
            )
        self._enforce(entry)
        if self._m_installs is not None:
            self._m_installs.inc()
            self._m_bytes.set(self.total_size)
        return True

    def install(self, tenant, method, code):
        with self._lock:
            entry = _Entry(code, next(self.clock), tenant, method)
            return self._install(tenant, (tenant, method), entry)

    def install_osr(self, tenant, method, bci, code):
        with self._lock:
            entry = _Entry(
                code, next(self.clock), tenant, method, osr_bci=bci
            )
            return self._install(tenant, (tenant, method, bci), entry)

    def _account_removal(self, entry):
        self.total_size -= entry.size
        tenant = entry.tenant
        remaining = self._tenant_bytes.get(tenant, 0) - entry.size
        self._tenant_bytes[tenant] = remaining
        hook = self._hooks.get(tenant)
        if hook is not None:
            hook(entry.key, None)

    def _remove(self, key):
        entry = self._shard_of(key).pop(key, None)
        if entry is None:
            return None
        self._account_removal(entry)
        return entry

    def evict(self, tenant, method):
        """Engine-driven invalidation (deopt): drop just this entry."""
        with self._lock:
            entry = self._remove((tenant, method))
            if entry is None:
                return False
            if self._m_bytes is not None:
                self._m_bytes.set(self.total_size)
            return True

    def evict_osr(self, tenant, method, bci):
        with self._lock:
            entry = self._remove((tenant, method, bci))
            if entry is None:
                return False
            if self._m_bytes is not None:
                self._m_bytes.set(self.total_size)
            return True

    # ------------------------------------------------------------------
    # Policy-driven eviction
    # ------------------------------------------------------------------

    def _score(self, entry):
        """Victim ordering key: evict the smallest score first."""
        if self.policy == "hotness" and self.hotness_fn is not None:
            hotness = self.hotness_fn(entry.tenant, entry.method)
            # Ties (same hotness) fall back to LRU order.
            return (hotness, entry.tick)
        return (entry.tick,)

    def _candidates(self, protect, tenant=None):
        for shard in self._shards:
            for entry in shard.values():
                if entry is protect:
                    continue
                if tenant is not None and entry.tenant != tenant:
                    continue
                yield entry

    def _evict_entry(self, victim):
        """Remove *victim* and — for whole-method entries — its OSR
        side-table entries (a continuation without its root is dead)."""
        tenant = victim.tenant
        if victim.is_osr:
            keys = [(tenant, victim.method, victim.osr_bci)]
        else:
            keys = [(tenant, victim.method)]
            for shard in self._shards:
                keys.extend(
                    key
                    for key, entry in shard.items()
                    if (
                        entry.is_osr
                        and entry.tenant == tenant
                        and entry.method is victim.method
                    )
                )
        for key in keys:
            entry = self._remove(key)
            if entry is None:
                continue
            self.eviction_count += 1
            self._evictions[tenant] = self._evictions.get(tenant, 0) + 1
            if not entry.is_osr:
                self._evicted_methods.add((tenant, entry.method))
            if self._m_evictions is not None:
                self._m_evictions.inc()
            obs = self._obs
            if obs.enabled:
                obs.record(
                    "codecache.evict",
                    tenant=str(tenant),
                    method=entry.method.qualified_name,
                    osr_bci=entry.osr_bci,
                    policy=self.policy,
                    size=entry.size,
                )

    def _enforce(self, protect):
        """Evict until the installing tenant is under quota and the
        process is under the global budget. *protect* (the entry just
        installed) is never a victim."""
        tenant = protect.tenant
        quota = self.quota_of(tenant)
        while (
            quota is not None
            and self._tenant_bytes.get(tenant, 0) > quota
        ):
            victims = sorted(
                self._candidates(protect, tenant=tenant), key=self._score
            )
            if not victims:
                break
            self._evict_entry(victims[0])
        while self.budget is not None and self.total_size > self.budget:
            victims = sorted(self._candidates(protect), key=self._score)
            if not victims:
                break
            self._evict_entry(victims[0])
        if self._m_bytes is not None:
            self._m_bytes.set(self.total_size)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def tenant_size(self, tenant):
        return self._tenant_bytes.get(tenant, 0)

    def osr_count(self, tenant=None):
        with self._lock:
            count = 0
            for shard in self._shards:
                for entry in shard.values():
                    if entry.is_osr and (
                        tenant is None or entry.tenant == tenant
                    ):
                        count += 1
            return count

    def installed_methods(self, tenant):
        with self._lock:
            return [
                entry.method
                for shard in self._shards
                for entry in shard.values()
                if entry.tenant == tenant and not entry.is_osr
            ]

    def reinstalls_of(self, tenant):
        return self._reinstalls.get(tenant, 0)

    def evictions_of(self, tenant):
        return self._evictions.get(tenant, 0)

    def reinstalls_after_evict(self, tenant):
        return self._reinstalls_after_evict.get(tenant, 0)

    def __len__(self):
        return sum(len(shard) for shard in self._shards)


class TenantCacheView:
    """One tenant's :class:`CodeCache`-shaped window onto the shared
    cache. ``total_size`` is deliberately the *global* installed size:
    instruction-cache pressure is a property of the process, not of one
    tenant — sharing the icache penalty across tenants is the point of
    a shared cache."""

    __slots__ = ("shared", "tenant")

    def __init__(self, shared, tenant):
        #: The :class:`SharedCodeCache` this view opens onto.
        self.shared = shared
        self.tenant = tenant

    @property
    def total_size(self):
        return self.shared.total_size

    @property
    def reinstalls_after_evict(self):
        return self.shared.reinstalls_after_evict(self.tenant)

    def watch(self, hook):
        self.shared.watch(self.tenant, hook)

    def get(self, method):
        return self.shared.get(self.tenant, method)

    def __contains__(self, method):
        return self.shared.contains(self.tenant, method)

    def install(self, method, code):
        return self.shared.install(self.tenant, method, code)

    def evict(self, method):
        return self.shared.evict(self.tenant, method)

    def get_osr(self, method, bci):
        return self.shared.get_osr(self.tenant, method, bci)

    def install_osr(self, method, bci, code):
        return self.shared.install_osr(self.tenant, method, bci, code)

    def evict_osr(self, method, bci):
        return self.shared.evict_osr(self.tenant, method, bci)

    def installed_methods(self):
        return self.shared.installed_methods(self.tenant)

