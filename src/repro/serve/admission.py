"""Admission control for the multi-tenant VM service.

A :class:`TenantSpec` describes one workload a client wants hosted; the
:class:`AdmissionController` decides whether the service takes it. The
checks are deliberately simple and deterministic — capacity (max
tenants), name uniqueness, and quota sanity against the shared cache
budget — so an admission decision is explainable from the config alone.
"""


class AdmissionDenied(Exception):
    """The service refused to admit a tenant."""


class ServiceConfig:
    """Configuration of one :class:`~repro.serve.service.VMService`.

    Attributes:
        max_tenants: admission cap on concurrently hosted tenants.
        compile_workers: worker threads of the shared background
            compilation pipeline (``0`` = deterministic test mode — the
            queue only drains via ``run_queued``/``drain``).
        queue_capacity: bound of the shared compile queue; a full queue
            rejects requests (backpressure) rather than block tenants.
        cache_budget: global byte budget of the shared code cache
            (None = unbounded).
        tenant_quota: default per-tenant byte quota (None = unbounded;
            a :class:`TenantSpec` can override per tenant).
        eviction_policy: ``"lru"`` or ``"hotness"`` victim selection.
        cache_shards: shard count of the shared code cache.
        compile_mode: ``"sync"`` (default) or ``"async"`` — forwarded
            into every tenant's :class:`~repro.jit.config.JitConfig`;
            any other value fails the first ``admit``.
        share_profiles: predicate on qualified method names selecting
            the methods whose profiles are pooled across tenants
            (None = pool everything).
        hot_threshold: default compile threshold for tenant engines.
        backend: ``"machine"`` (default) or ``"py"`` — executor
            backend forwarded into every tenant's
            :class:`~repro.jit.config.JitConfig` (a tenant's ``jit``
            overrides win).
    """

    def __init__(self, max_tenants=16, compile_workers=2,
                 queue_capacity=64, cache_budget=None, tenant_quota=None,
                 eviction_policy="lru", cache_shards=8, compile_mode="sync",
                 share_profiles=None, hot_threshold=40, backend="machine"):
        self.max_tenants = max_tenants
        self.compile_workers = compile_workers
        self.queue_capacity = queue_capacity
        self.cache_budget = cache_budget
        self.tenant_quota = tenant_quota
        self.eviction_policy = eviction_policy
        self.cache_shards = cache_shards
        self.compile_mode = compile_mode
        self.share_profiles = share_profiles
        self.hot_threshold = hot_threshold
        self.backend = backend


class TenantSpec:
    """One tenant workload: a program, an entry point, a traffic shape.

    Exactly one of *program* / *benchmark* must be given: a prebuilt
    :class:`~repro.bytecode.program.Program`, or the name of a
    registered benchmark (:mod:`repro.bench.suite`).

    ``inliner`` is a zero-argument factory (inliners carry state — one
    per engine); ``jit`` is a dict of extra
    :class:`~repro.jit.config.JitConfig` keyword overrides; ``merge``
    is the profile merge policy (``"shared"``/``"isolated"``), and
    ``quota`` overrides the service's default per-tenant cache quota.
    """

    def __init__(self, name, program=None, benchmark=None,
                 entry=("Main", "run"), iterations=10, inliner=None,
                 jit=None, merge="shared", quota=None, seed=0x5EED):
        if (program is None) == (benchmark is None):
            raise ValueError(
                "tenant %r: give exactly one of program=/benchmark=" % name
            )
        self.name = name
        self.program = program
        self.benchmark = benchmark
        self.entry = entry
        self.iterations = iterations
        self.inliner = inliner
        self.jit = dict(jit) if jit else {}
        self.merge = merge
        self.quota = quota
        self.seed = seed

    def load_program(self):
        if self.program is not None:
            return self.program
        from repro.bench.suite import get_benchmark

        return get_benchmark(self.benchmark).load()

    def make_inliner(self):
        return self.inliner() if self.inliner is not None else None


class AdmissionController:
    """Decides whether a :class:`TenantSpec` may join the service."""

    def __init__(self, config):
        self.config = config
        self.denied = 0

    def check(self, active_tenants, spec):
        """Raise :class:`AdmissionDenied` when *spec* cannot join."""
        try:
            if len(active_tenants) >= self.config.max_tenants:
                raise AdmissionDenied(
                    "service full: %d/%d tenants"
                    % (len(active_tenants), self.config.max_tenants)
                )
            if spec.name in active_tenants:
                raise AdmissionDenied(
                    "tenant name %r already admitted" % spec.name
                )
            quota = (
                spec.quota if spec.quota is not None
                else self.config.tenant_quota
            )
            budget = self.config.cache_budget
            if quota is not None and quota <= 0:
                raise AdmissionDenied(
                    "tenant %r: quota must be positive" % spec.name
                )
            if (
                quota is not None
                and budget is not None
                and quota > budget
            ):
                raise AdmissionDenied(
                    "tenant %r: quota %d exceeds the global budget %d"
                    % (spec.name, quota, budget)
                )
            if spec.merge not in ("shared", "isolated"):
                raise AdmissionDenied(
                    "tenant %r: unknown merge policy %r"
                    % (spec.name, spec.merge)
                )
        except AdmissionDenied:
            self.denied += 1
            raise
