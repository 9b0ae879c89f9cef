"""The multi-tenant VM service: N workloads, one process.

A :class:`VMService` hosts admitted tenants over shared serving
infrastructure:

- one :class:`~repro.serve.scheduler.BackgroundCompiler` (in async
  mode) draining a bounded compile queue for *all* tenant engines,
- one :class:`~repro.jit.codecache.SharedCodeCache` with per-tenant
  quotas and LRU/hotness eviction under a global byte budget,
- one :class:`~repro.serve.profiles.SharedProfileAggregator` pooling
  profiles of shared library methods across tenants.

``run()`` executes every admitted tenant's workload on its own thread
and returns a :class:`ServiceReport` with per-tenant outcomes,
throughput, and a Jain fairness index — the measurement surface the
perf harness's mixed-traffic workload builds on.

Eviction mid-flight (``evict()``) stops the tenant's workload at the
next iteration edge, cancels its queued compilations (cancellation is
re-checked before install, so late compiles never land), and reclaims
its code-cache bytes.
"""

import threading
import time

from repro.jit.codecache import SharedCodeCache
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.obs import NULL_OBS
from repro.serve.admission import AdmissionController, ServiceConfig
from repro.serve.profiles import SharedProfileAggregator
from repro.serve.scheduler import BackgroundCompiler
from repro.serve.tenant import Tenant


class ServiceReport:
    """Aggregate outcome of one service run."""

    def __init__(self, tenants, wall_seconds, mode, queue_stats):
        self.tenants = tenants  # list of per-tenant dicts
        self.wall_seconds = wall_seconds
        self.mode = mode
        self.queue_stats = queue_stats
        self.total_iterations = sum(t["iterations"] for t in tenants)

    @property
    def throughput(self):
        """Service-wide iterations per second of wall time."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_iterations / self.wall_seconds

    @property
    def fairness(self):
        """Jain's fairness index over per-tenant throughput.

        1.0 = perfectly fair; 1/n = one tenant got everything. Only
        tenants that ran count (evicted tenants are excluded — an
        eviction is a policy decision, not unfairness).
        """
        rates = [
            t["throughput"]
            for t in self.tenants
            if t["state"] in ("done", "running") and t["throughput"] > 0
        ]
        if not rates:
            return 1.0
        total = sum(rates)
        squares = sum(rate * rate for rate in rates)
        if squares == 0:
            return 1.0
        return (total * total) / (len(rates) * squares)

    def as_dict(self):
        return {
            "mode": self.mode,
            "wall_seconds": round(self.wall_seconds, 6),
            "total_iterations": self.total_iterations,
            "throughput": round(self.throughput, 3),
            "fairness": round(self.fairness, 4),
            "queue": self.queue_stats,
            "tenants": self.tenants,
        }


class VMService:
    """N tenant workloads over a shared background-compilation pipeline."""

    def __init__(self, config=None, obs=None):
        self.config = config if config is not None else ServiceConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.admission = AdmissionController(self.config)
        self.aggregator = SharedProfileAggregator(
            share=self.config.share_profiles
        )
        self.cache = SharedCodeCache(
            budget=self.config.cache_budget,
            shards=self.config.cache_shards,
            policy=self.config.eviction_policy,
            tenant_quota=self.config.tenant_quota,
            hotness_fn=self._hotness_of,
            obs=self.obs,
        )
        #: "sync" | "async"; every tenant engine compiles this way.
        self.mode = self.config.compile_mode
        self.scheduler = (
            BackgroundCompiler(
                workers=self.config.compile_workers,
                queue_capacity=self.config.queue_capacity,
                obs=self.obs,
            )
            if self.mode == "async"
            else None
        )
        self.tenants = {}  # name -> Tenant
        self._stores = {}  # tenant_id -> TenantProfileStore
        self._next_id = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------

    def admit(self, spec):
        """Admit one :class:`~repro.serve.admission.TenantSpec`.

        Returns the :class:`~repro.serve.tenant.Tenant`; raises
        :class:`~repro.serve.admission.AdmissionDenied` when refused.
        """
        with self._lock:
            self.admission.check(self.tenants, spec)
            tenant_id = self._next_id
            self._next_id += 1
        program = spec.load_program()
        store = self.aggregator.store_for_tenant(
            merge=spec.merge,
            context_sensitive=bool(
                spec.jit.get("context_sensitive_profiles", False)
            ),
            obs=self.obs,
        )
        jit_kwargs = dict(spec.jit)
        jit_kwargs.setdefault("hot_threshold", self.config.hot_threshold)
        jit_kwargs.setdefault("backend", self.config.backend)
        jit_kwargs["compile_mode"] = self.mode
        engine = Engine(
            program,
            JitConfig(**jit_kwargs),
            spec.make_inliner(),
            seed=spec.seed,
            obs=self.obs,
            code_cache=self.cache.view(tenant_id, quota=spec.quota),
            profiles=store,
            compile_service=self.scheduler,
        )
        tenant = Tenant(spec, engine, tenant_id)
        with self._lock:
            self.tenants[spec.name] = tenant
            self._stores[tenant_id] = store
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("serve.tenants.admitted").inc()
            obs.metrics.gauge("serve.tenants").set(len(self.tenants))
            obs.record(
                "serve.admit",
                tenant=spec.name,
                tenant_id=tenant_id,
                benchmark=spec.benchmark,
                merge=spec.merge,
                mode=self.mode,
            )
        return tenant

    def evict(self, name):
        """Evict tenant *name*: stop its workload at the next iteration
        edge, cancel its queued compilations, reclaim its cache bytes.
        Returns the bytes reclaimed."""
        tenant = self.tenants[name]
        tenant.mark_evicted()
        for request in tenant.engine.pending_compiles():
            request.cancel()
        reclaimed = self.cache.drop_tenant(tenant.tenant_id)
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("serve.tenants.evicted").inc()
            obs.record("serve.evict", tenant=name, reclaimed_bytes=reclaimed)
        return reclaimed

    def _hotness_of(self, tenant_id, method):
        """Hotness signal for the cache's eviction policy."""
        store = self._stores.get(tenant_id)
        if store is None:
            return 0
        return store.hotness(method)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, concurrent=True):
        """Run every admitted tenant's workload; returns a
        :class:`ServiceReport`.

        ``concurrent=True`` gives each tenant its own thread (the
        serving shape); ``concurrent=False`` runs tenants round-robin
        on the calling thread — fully deterministic, used by
        differential tests.
        """
        runnable = [
            tenant
            for tenant in self.tenants.values()
            if tenant.state == "admitted"
        ]
        started = time.perf_counter()
        if concurrent and len(runnable) > 1:
            threads = [
                threading.Thread(
                    target=tenant.run_workload,
                    name="repro-tenant-%s" % tenant.name,
                    daemon=True,
                )
                for tenant in runnable
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        else:
            for tenant in runnable:
                tenant.run_workload()
        # Let in-flight compilations settle so the report's install
        # counts are stable (and worker threads go idle).
        for tenant in runnable:
            tenant.engine.drain_compiles(timeout=10.0)
        wall = time.perf_counter() - started
        report = ServiceReport(
            [tenant.as_dict() for tenant in self.tenants.values()],
            wall,
            self.mode,
            self.queue_stats(),
        )
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("serve.iterations").inc(
                report.total_iterations
            )
            obs.events.emit("serve.run", **{
                "mode": self.mode,
                "tenants": len(self.tenants),
                "total_iterations": report.total_iterations,
                "throughput": round(report.throughput, 3),
                "fairness": round(report.fairness, 4),
            })
        return report

    def queue_stats(self):
        scheduler = self.scheduler
        if scheduler is None:
            return {"mode": "sync"}
        return {
            "mode": "async",
            "submitted": scheduler.submitted,
            "completed": scheduler.completed,
            "failed": scheduler.failed,
            "cancelled": scheduler.cancelled,
            "rejected": scheduler.rejected,
            "depth": scheduler.depth,
        }

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def shutdown(self):
        for tenant in self.tenants.values():
            tenant.engine.shutdown()
        if self.scheduler is not None:
            self.scheduler.close()
            self.scheduler = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
